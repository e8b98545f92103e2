//! Figures 4 and 9: the memory request sequences — one transformer layer's
//! forward and backward (Figure 4), and the whole-iteration segmented view
//! (Figure 9).

use memo_core::profiler;
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_model::trace::{RematPolicy, SegmentKind};
use memo_parallel::strategy::ParallelConfig;

fn main() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::FullRecompute, false);
    let trace = &p.trace;

    println!("Figure 4 — one transformer layer's memory requests\n");
    println!("Forward (layer 0):");
    print!("{}", trace.render_segment(SegmentKind::LayerFwd(0), 24));
    println!("\nBackward (layer 0):");
    print!("{}", trace.render_segment(SegmentKind::LayerBwd(0), 24));

    println!("\nFigure 9 — whole-iteration segment structure:\n");
    for seg in trace.segments() {
        let label = match seg.kind {
            SegmentKind::EmbeddingFwd => "Embedding fwd".to_string(),
            SegmentKind::LayerFwd(i) => format!("Transformer layer {i} fwd"),
            SegmentKind::ClassifierFwd => "Classifier fwd".to_string(),
            SegmentKind::ClassifierBwd => "Classifier bwd".to_string(),
            SegmentKind::LayerBwd(i) => format!("Transformer layer {i} bwd"),
            SegmentKind::EmbeddingBwd => "Embedding bwd".to_string(),
        };
        // Print boundary segments fully indexed, transformer ones summarised.
        match seg.kind {
            SegmentKind::LayerFwd(i) | SegmentKind::LayerBwd(i)
                if i > 0 && i + 1 < p.layers_local =>
            {
                if i == 1 {
                    println!("  ... layers 1..{} identical ...", p.layers_local - 2);
                }
            }
            _ => {
                println!(
                    "  requests {:>5}..{:<5} {label} ({} requests)",
                    seg.start,
                    seg.start + seg.len(),
                    seg.len()
                );
            }
        }
    }
    println!("\ntotal requests: {}", trace.len());
    println!(
        "transformer layers: {} (one forward and one backward body, repeated)",
        trace.layers()
    );
}
