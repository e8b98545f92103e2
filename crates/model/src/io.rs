//! Trace serialisation (the profiler → planner hand-off of Figure 10).
//!
//! MEMO's components run as separate stages exchanging files; we use a plain
//! line-oriented text format (no external format crates):
//!
//! ```text
//! # memo-trace v1
//! segment <kind> <arg>
//! malloc <tensor_id> <bytes> <label>
//! free <tensor_id> <bytes> <label>
//! ```
//!
//! The format spells every layer out; [`read_trace`] folds it back into the
//! periodic [`IterationTrace`], so a file whose layer segments are not one
//! body with per-layer tensor ids is rejected.

use crate::trace::{
    IterationTrace, MemOp, PeriodError, Request, SegmentKind, TensorId, TraceSegment, TraceStrings,
};
use std::io::{self, BufRead, BufWriter, Write};

const HEADER: &str = "# memo-trace v1";

fn kind_tag(kind: SegmentKind) -> (&'static str, usize) {
    match kind {
        SegmentKind::EmbeddingFwd => ("embedding_fwd", 0),
        SegmentKind::LayerFwd(i) => ("layer_fwd", i),
        SegmentKind::ClassifierFwd => ("classifier_fwd", 0),
        SegmentKind::ClassifierBwd => ("classifier_bwd", 0),
        SegmentKind::LayerBwd(i) => ("layer_bwd", i),
        SegmentKind::EmbeddingBwd => ("embedding_bwd", 0),
    }
}

fn parse_kind(tag: &str, arg: usize) -> Option<SegmentKind> {
    Some(match tag {
        "embedding_fwd" => SegmentKind::EmbeddingFwd,
        "layer_fwd" => SegmentKind::LayerFwd(arg),
        "classifier_fwd" => SegmentKind::ClassifierFwd,
        "classifier_bwd" => SegmentKind::ClassifierBwd,
        "layer_bwd" => SegmentKind::LayerBwd(arg),
        "embedding_bwd" => SegmentKind::EmbeddingBwd,
        _ => return None,
    })
}

/// Write a trace in the v1 text format.
pub fn write_trace<W: Write>(trace: &IterationTrace, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{HEADER}")?;
    for seg in trace.segments() {
        let (tag, arg) = kind_tag(seg.kind);
        writeln!(w, "segment {tag} {arg}")?;
        for r in seg.requests() {
            let op = match r.op {
                MemOp::Malloc => "malloc",
                MemOp::Free => "free",
            };
            // Labels are identifier-like (no whitespace) by construction.
            writeln!(
                w,
                "{op} {} {} {}",
                r.tensor.0,
                r.bytes,
                trace.strings.resolve(r.label)
            )?;
        }
    }
    w.flush()
}

/// Parse error with a line number.
#[derive(Debug)]
pub struct ParseError {
    line: usize,
    message: String,
    /// Set when the file parses but its layers are not periodic; `line` is
    /// then the offending segment's header (0 for a layer-count mismatch).
    pub period: Option<PeriodError>,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Read a trace written by [`write_trace`].
pub fn read_trace<R: BufRead>(r: R) -> Result<IterationTrace, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_string(),
        period: None,
    };
    let mut segments: Vec<TraceSegment> = Vec::new();
    // Header line of each segment, for period errors.
    let mut segment_lines: Vec<usize> = Vec::new();
    let mut strings = TraceStrings::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| err(i + 1, &e.to_string()))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            if line != HEADER {
                return Err(err(1, "missing memo-trace header"));
            }
            continue;
        }
        let mut parts = line.splitn(4, ' ');
        match parts.next() {
            Some("segment") => {
                let tag = parts
                    .next()
                    .ok_or_else(|| err(i + 1, "missing segment kind"))?;
                let arg: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad segment arg"))?;
                let kind =
                    parse_kind(tag, arg).ok_or_else(|| err(i + 1, "unknown segment kind"))?;
                segments.push(TraceSegment {
                    kind,
                    requests: Vec::new(),
                });
                segment_lines.push(i + 1);
            }
            Some(op @ ("malloc" | "free")) => {
                let seg = segments
                    .last_mut()
                    .ok_or_else(|| err(i + 1, "request before first segment"))?;
                let id: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad tensor id"))?;
                let bytes: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad byte count"))?;
                let label = strings.intern(parts.next().unwrap_or(""));
                seg.requests.push(Request {
                    op: if op == "malloc" {
                        MemOp::Malloc
                    } else {
                        MemOp::Free
                    },
                    tensor: TensorId(id),
                    bytes,
                    label,
                });
            }
            _ => return Err(err(i + 1, "unrecognised directive")),
        }
    }
    IterationTrace::from_segments(segments, strings).map_err(|e| {
        let line = match e {
            PeriodError::LayerCounts { .. } => 0,
            PeriodError::LayerOrder { segment } | PeriodError::LayerDiffers { segment } => {
                segment_lines[segment]
            }
        };
        ParseError {
            period: Some(e),
            ..err(line, &e.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::LayerDims;
    use crate::config::{DType, ModelConfig};
    use crate::trace::{generate, RematPolicy, TraceParams};

    fn sample() -> IterationTrace {
        let m = ModelConfig::tiny(3, 32, 2, 64);
        let dims = LayerDims::new(128, &m, DType::BF16);
        generate(&TraceParams::new(&m, dims, RematPolicy::MemoTokenWise))
    }

    #[test]
    fn roundtrip_identity() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, t);
        back.validate().unwrap();
    }

    #[test]
    fn rejects_missing_header() {
        let e = read_trace(&b"segment layer_fwd 0\n"[..]).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_request_before_segment() {
        let text = format!("{HEADER}\nmalloc 0 128 x\n");
        let e = read_trace(text.as_bytes()).unwrap_err();
        assert!(e.message.contains("before first segment"));
    }

    #[test]
    fn rejects_non_periodic_layers() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let header = |tag: &str| lines.iter().position(|l| *l == tag).unwrap();

        // Resize the first request of layer 1's forward segment.
        let at = header("segment layer_fwd 1") + 1;
        let mut parts: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
        parts[2] = (parts[2].parse::<u64>().unwrap() + 512).to_string();
        let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        edited[at] = parts.join(" ");
        let e = read_trace(edited.join("\n").as_bytes()).unwrap_err();
        assert!(matches!(e.period, Some(PeriodError::LayerDiffers { .. })));
        assert_eq!(e.line, at);

        // Drop layer 0's backward segment: 3 forward layers, 2 backward.
        let from = header("segment layer_bwd 0");
        let to = header("segment embedding_bwd 0");
        let mut dropped: Vec<&str> = lines.clone();
        dropped.drain(from..to);
        let e = read_trace(dropped.join("\n").as_bytes()).unwrap_err();
        assert_eq!(e.period, Some(PeriodError::LayerCounts { fwd: 3, bwd: 2 }));
    }

    #[test]
    fn rejects_garbage() {
        let text = format!("{HEADER}\nsegment layer_fwd 0\nnonsense 1 2 3\n");
        assert!(read_trace(text.as_bytes()).is_err());
        let text = format!("{HEADER}\nsegment layer_fwd zero\n");
        assert!(read_trace(text.as_bytes()).is_err());
    }
}
