//! ASCII rendering of a [`Timeline`], used to
//! regenerate Figure 11 (the compute/offload/prefetch schedule with and
//! without token-wise recomputation).

use crate::engine::{StreamId, Timeline};
use crate::time::SimTime;
use std::fmt::Write as _;

/// Render the timeline as fixed-width lanes, one per stream.
///
/// `width` is the number of character cells the makespan is mapped onto;
/// degenerate widths (0 or 1) are clamped to a single cell rather than
/// underflowing the cell arithmetic below.
/// Each span is drawn as `[label---]` truncated to its cell width; spans
/// shorter than one cell render as a single `#`.
pub fn render_ascii(tl: &Timeline, width: usize) -> String {
    let makespan = tl.makespan();
    if makespan == SimTime::ZERO {
        return String::from("(empty timeline)\n");
    }
    // `width == 0` would underflow `.min(width - 1)` and panic; one cell is
    // the narrowest lane that can still show occupancy.
    let width = width.max(1);
    let n_streams = tl.spans().iter().map(|s| s.stream.0 + 1).max().unwrap_or(0);
    let scale = width as f64 / makespan.as_secs_f64();
    let name_w = (0..n_streams)
        .map(|i| tl.stream_name(StreamId(i)).len())
        .max()
        .unwrap_or(0)
        .max(8);

    let mut out = String::new();
    for i in 0..n_streams {
        let sid = StreamId(i);
        let mut lane = vec![' '; width];
        for sp in tl.spans().iter().filter(|s| s.stream == sid) {
            let a = ((sp.start.as_secs_f64() * scale) as usize).min(width - 1);
            let b = ((sp.end.as_secs_f64() * scale).ceil() as usize).clamp(a + 1, width);
            let cell = &mut lane[a..b];
            if cell.len() <= 2 {
                cell.fill('#');
            } else {
                cell.fill('-');
                cell[0] = '[';
                let last = cell.len() - 1;
                cell[last] = ']';
                for (k, ch) in tl.span_label(sp).chars().take(cell.len() - 2).enumerate() {
                    cell[1 + k] = ch;
                }
            }
        }
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(out, "{:>name_w$} |{}|", tl.stream_name(sid), lane);
    }
    let _ = writeln!(
        out,
        "{:>name_w$} 0{:>w$}",
        "",
        format!("{makespan}"),
        w = width
    );
    out
}

/// Export spans as tab-separated values (`stream\tstart_ns\tend_ns\tlabel`)
/// for external plotting of Figure-11-style schedules.
pub fn export_tsv(tl: &Timeline) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("stream\tstart_ns\tend_ns\tlabel\n");
    for sp in tl.spans() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            tl.stream_name(sp.stream),
            sp.start.as_nanos(),
            sp.end.as_nanos(),
            tl.span_label(sp)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Timeline;
    use crate::time::SimTime;

    #[test]
    fn renders_all_streams() {
        let mut tl = Timeline::new();
        let c = tl.add_stream("compute");
        let o = tl.add_stream("offload");
        tl.enqueue(c, SimTime::from_millis(10), "L0");
        let ev = tl.record_event(c);
        tl.wait_event(o, ev);
        tl.enqueue(o, SimTime::from_millis(5), "off0");
        let art = render_ascii(&tl, 40);
        assert!(art.contains("compute"));
        assert!(art.contains("offload"));
        assert!(art.contains("L0") || art.contains('#'));
    }

    #[test]
    fn tsv_export_has_all_spans() {
        let mut tl = Timeline::new();
        let c = tl.add_stream("compute");
        tl.enqueue(c, SimTime::from_millis(10), "L0");
        tl.enqueue(c, SimTime::from_millis(5), "L1");
        let tsv = export_tsv(&tl);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 spans
        assert!(lines[1].starts_with("compute\t0\t10000000\tL0"));
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::new();
        assert_eq!(render_ascii(&tl, 40), "(empty timeline)\n");
    }

    #[test]
    fn degenerate_widths_do_not_panic() {
        // Regression: `width == 0` used to underflow `.min(width - 1)`.
        let mut tl = Timeline::new();
        let c = tl.add_stream("compute");
        let o = tl.add_stream("offload");
        tl.enqueue(c, SimTime::from_millis(10), "L0");
        let ev = tl.record_event(c);
        tl.wait_event(o, ev);
        tl.enqueue(o, SimTime::from_millis(5), "off0");
        for width in [0, 1] {
            let art = render_ascii(&tl, width);
            assert!(art.contains("compute"), "width {width}");
            assert!(art.contains("offload"), "width {width}");
            // Both lanes collapse to a single occupied cell.
            assert!(art.contains('#'), "width {width}");
        }
    }

    #[test]
    fn offset_spans_land_after_earlier_ones() {
        let mut tl = Timeline::new();
        let c = tl.add_stream("compute");
        tl.enqueue(c, SimTime::from_millis(10), "A");
        tl.enqueue(c, SimTime::from_millis(10), "B");
        let art = render_ascii(&tl, 20);
        let lane = art.lines().next().unwrap();
        let a = lane.find('A').unwrap();
        let b = lane.find('B').unwrap();
        assert!(a < b);
    }
}
