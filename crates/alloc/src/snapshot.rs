//! Memory snapshots: the allocated-vs-reserved time series of Figure 1(a).
//!
//! Feeding an [`IterationTrace`] through an
//! allocator while recording both counters after every request reproduces the
//! PyTorch `torch.cuda.memory._snapshot()` view the paper uses to visualise
//! fragmentation.

use crate::{AllocError, DeviceAllocator};
use memo_model::trace::{IterationTrace, MemOp, Request, Sym, TensorId};

/// One sample of the series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    request_index: usize,
    allocated: u64,
    reserved: u64,
}

/// The recorded series plus outcome metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSeries {
    samples: Vec<Sample>,
    pub reorgs: u64,
    /// Populated if the trace hit OOM; the series covers requests up to it.
    pub oom: Option<AllocError>,
}

impl SnapshotSeries {
    pub fn peak_allocated(&self) -> u64 {
        self.samples.iter().map(|s| s.allocated).max().unwrap_or(0)
    }

    pub fn peak_reserved(&self) -> u64 {
        self.samples.iter().map(|s| s.reserved).max().unwrap_or(0)
    }

    /// Largest reserved-minus-allocated gap — the fragmentation headline of
    /// Figure 1(a) ("more than 4GB reserved but not allocated").
    pub fn peak_fragmentation(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.reserved - s.allocated)
            .max()
            .unwrap_or(0)
    }

    /// Downsample to at most `n` points for plotting.
    fn downsample(&self, n: usize) -> Vec<Sample> {
        if self.samples.len() <= n || n == 0 {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect()
    }

    /// ASCII rendering of the two curves (allocated `*`, reserved `#`).
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        use std::fmt::Write as _;
        let pts = self.downsample(width);
        let max = self.peak_reserved().max(1);
        let mut grid = vec![vec![' '; pts.len()]; height];
        for (x, s) in pts.iter().enumerate() {
            let ry = ((s.reserved as f64 / max as f64) * (height - 1) as f64) as usize;
            let ay = ((s.allocated as f64 / max as f64) * (height - 1) as f64) as usize;
            grid[height - 1 - ry][x] = '#';
            grid[height - 1 - ay][x] = '*';
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "peak reserved {} | peak allocated {} | peak gap {} | reorgs {}",
            human_gib(self.peak_reserved()),
            human_gib(self.peak_allocated()),
            human_gib(self.peak_fragmentation()),
            self.reorgs
        );
        for row in grid {
            let line: String = row.into_iter().collect();
            let _ = writeln!(out, "|{line}|");
        }
        let _ = writeln!(out, "  ('#' reserved, '*' allocated, x = request index)");
        out
    }
}

fn human_gib(b: u64) -> String {
    format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
}

/// Replay a trace through an allocator, recording counters per request.
///
/// Stops at the first OOM (recorded in the result) — like a real job crash.
pub fn replay<A: DeviceAllocator>(alloc: &mut A, trace: &IterationTrace) -> SnapshotSeries {
    let mut samples = Vec::with_capacity(trace.len());
    let oom = alloc
        .serve(trace.tensors(), trace.flatten(), |a| {
            samples.push(Sample {
                request_index: samples.len(),
                allocated: a.allocated_bytes(),
                reserved: a.reserved_bytes(),
            })
        })
        .err();
    SnapshotSeries {
        samples,
        reorgs: alloc.reorg_count(),
        oom,
    }
}

/// [`replay`] for callers that read only the peak: drive the same requests
/// and return `(peak_reserved, oom)` without recording a series. The peak
/// equals `replay(..).peak_reserved()` on the same allocator state, and the
/// allocator is left in the same state (reorganisations included).
pub fn replay_peak<A: DeviceAllocator>(
    alloc: &mut A,
    trace: &IterationTrace,
) -> (u64, Option<AllocError>) {
    let mut peak = 0;
    let oom = alloc
        .serve(trace.tensors(), trace.flatten(), |a| {
            peak = peak.max(a.reserved_bytes())
        })
        .err();
    (peak, oom)
}

/// Replay `trace` the way a PyTorch training job meets it: a warm-up
/// iteration, then the optimizer's lazy allocation of the `persistent`
/// tensors (never freed; ids `trace.tensors() + k`), then a steady-state
/// iteration, all on `alloc`. `before_steady` runs just before the steady
/// iteration (to start an event log, say). Returns the steady iteration's
/// peak reserved bytes and reorganisation count, or the first OOM.
pub fn replay_training<A: DeviceAllocator>(
    alloc: &mut A,
    trace: &IterationTrace,
    persistent: &[u64],
    before_steady: impl FnOnce(&mut A),
) -> Result<(u64, u64), AllocError> {
    let tensors = trace.tensors();
    let held = persistent.iter().enumerate().map(|(k, &bytes)| Request {
        op: MemOp::Malloc,
        tensor: TensorId((tensors + k) as u64),
        bytes,
        label: Sym::EMPTY,
    });
    alloc.serve(
        tensors + persistent.len(),
        trace.flatten().chain(held),
        |_| (),
    )?;
    let reorgs = alloc.reorg_count();
    before_steady(alloc);
    match replay_peak(alloc, trace) {
        (peak, None) => Ok((peak, alloc.reorg_count() - reorgs)),
        (_, Some(err)) => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching::CachingAllocator;
    use memo_model::activations::LayerDims;
    use memo_model::config::{DType, ModelConfig};
    use memo_model::trace::{generate, RematPolicy, TraceParams};

    fn small_trace() -> IterationTrace {
        let m = ModelConfig::tiny(4, 64, 4, 256);
        let dims = LayerDims::new(512, &m, DType::BF16);
        generate(&TraceParams::new(&m, dims, RematPolicy::FullRecompute))
    }

    #[test]
    fn replay_records_every_request() {
        let trace = small_trace();
        let mut alloc = CachingAllocator::new(1 << 40);
        let series = replay(&mut alloc, &trace);
        assert_eq!(series.samples.len(), trace.len());
        assert!(series.oom.is_none());
        assert!(series.peak_reserved() >= series.peak_allocated());
    }

    #[test]
    fn replay_reports_oom() {
        let trace = small_trace();
        // pathologically small device
        let mut alloc = CachingAllocator::new(1 << 20);
        let series = replay(&mut alloc, &trace);
        assert!(series.oom.is_some());
        assert!(series.samples.len() < trace.len());
    }

    #[test]
    fn replay_empty_trace_is_well_formed() {
        use memo_model::trace::TraceStrings;
        let trace = IterationTrace::from_segments(Vec::new(), TraceStrings::new()).unwrap();
        let mut alloc = CachingAllocator::new(1 << 30);
        let series = replay(&mut alloc, &trace);
        assert!(series.samples.is_empty());
        assert!(series.oom.is_none());
        assert_eq!(series.reorgs, 0);
        // No samples: every aggregate is a well-defined zero, no underflow.
        assert_eq!(series.peak_allocated(), 0);
        assert_eq!(series.peak_reserved(), 0);
        assert_eq!(series.peak_fragmentation(), 0);
        assert!(series.downsample(10).is_empty());
        let art = series.render_ascii(40, 8);
        assert!(art.contains("reorgs 0"));
    }

    #[test]
    fn replay_single_request_trace_is_well_formed() {
        use memo_model::trace::{MemOp, Request, SegmentKind, Sym, TraceSegment, TraceStrings};
        // A lone malloc with no matching free — invalid as a full iteration
        // trace, but replay must still produce a coherent one-sample series.
        let segment = TraceSegment {
            kind: SegmentKind::EmbeddingFwd,
            requests: vec![Request {
                op: MemOp::Malloc,
                tensor: memo_model::trace::TensorId(0),
                bytes: 4096,
                label: Sym::EMPTY,
            }],
        };
        let trace = IterationTrace::from_segments(vec![segment], TraceStrings::new()).unwrap();
        let mut alloc = CachingAllocator::new(1 << 30);
        let series = replay(&mut alloc, &trace);
        assert_eq!(series.samples.len(), 1);
        assert!(series.oom.is_none());
        let s = series.samples[0];
        assert_eq!(s.request_index, 0);
        assert_eq!(s.allocated, 4096);
        assert!(s.reserved >= s.allocated);
        assert_eq!(series.peak_allocated(), 4096);
        assert_eq!(series.peak_fragmentation(), s.reserved - s.allocated);
        assert_eq!(series.downsample(5).len(), 1);
    }

    #[test]
    fn replay_peak_matches_replay() {
        let trace = small_trace();
        for capacity in [1u64 << 40, 1 << 20] {
            let mut a = CachingAllocator::new(capacity);
            let mut b = CachingAllocator::new(capacity);
            let series = replay(&mut a, &trace);
            let (peak, oom) = replay_peak(&mut b, &trace);
            assert_eq!(peak, series.peak_reserved(), "{capacity}");
            assert_eq!(oom, series.oom, "{capacity}");
            assert_eq!(b.reorg_count(), series.reorgs, "{capacity}");
        }
    }

    #[test]
    fn sparse_ids_replay_through_a_table_of_tensors_entries() {
        // Ids near `u64::MAX` fold to malloc ordinals, so the handle table
        // has `tensors()` entries; one sized by the ids could not be built.
        use crate::reference::ReferenceCachingAllocator;
        use memo_model::trace::{SegmentKind, TraceSegment, TraceStrings};
        let request = |op, id: u64| Request {
            op,
            tensor: TensorId(u64::MAX - id),
            bytes: (id + 1) << 20,
            label: Sym::EMPTY,
        };
        let requests = vec![
            request(MemOp::Malloc, 0),
            request(MemOp::Malloc, 9),
            request(MemOp::Free, 0),
            request(MemOp::Malloc, 4),
            request(MemOp::Free, 9),
            request(MemOp::Free, 4),
        ];
        let segment = TraceSegment {
            kind: SegmentKind::EmbeddingFwd,
            requests,
        };
        let trace = IterationTrace::from_segments(vec![segment], TraceStrings::new()).unwrap();
        assert_eq!(trace.tensors(), 3);
        let mut fast = CachingAllocator::new(1 << 30);
        let mut reference = ReferenceCachingAllocator::new(1 << 30);
        assert_eq!(replay(&mut fast, &trace), replay(&mut reference, &trace));
        assert_eq!(
            replay_training(&mut fast, &trace, &[3 << 20], |_| ()),
            replay_training(&mut reference, &trace, &[3 << 20], |_| ())
        );
    }

    #[test]
    fn downsample_bounds_points() {
        let trace = small_trace();
        let mut alloc = CachingAllocator::new(1 << 40);
        let series = replay(&mut alloc, &trace);
        assert!(series.downsample(50).len() <= 50);
        assert_eq!(series.downsample(0).len(), series.samples.len());
    }

    #[test]
    fn ascii_render_contains_curves() {
        let trace = small_trace();
        let mut alloc = CachingAllocator::new(1 << 40);
        let series = replay(&mut alloc, &trace);
        let art = series.render_ascii(60, 12);
        assert!(art.contains('#'));
        assert!(art.contains("reorgs"));
    }
}
