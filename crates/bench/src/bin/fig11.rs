//! Figure 11: the three-stream schedule with and without token-wise
//! recomputation. At a sequence length where full swapping cannot hide under
//! compute, the α < 1 schedule keeps the compute stream busy while the
//! α = 1 schedule stalls layer i+2 on layer i's offload.

use memo_core::profiler;
use memo_core::session::Workload;
use memo_hal::time::SimTime;
use memo_hal::timeline::render_ascii;
use memo_model::config::ModelConfig;
use memo_model::trace::RematPolicy;
use memo_obs::chrome::TraceBuilder;
use memo_parallel::strategy::ParallelConfig;
use memo_swap::schedule::{build_schedule, LayerCosts, LayerSegment};
use memo_swap::tiers::TierStaging;

fn main() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 96 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
    let lt = &p.layer_time;
    let n = 6; // a few layers are enough to see the pattern

    println!(
        "Figure 11 — schedule w/ and w/o token-wise recomputation (7B, 96K, {})",
        cfg.describe()
    );
    println!(
        "solved α = {} (binding: {:?})\n",
        p.alpha.alpha, p.alpha.binding
    );

    let mut trace = TraceBuilder::new();
    for (label, alpha) in [
        ("with token-wise recomputation (α from LP)", p.alpha.alpha),
        ("w/o token-wise recomputation (α = 1, full swap)", 1.0),
    ] {
        let costs = LayerCosts::single_tier(
            SimTime::from_secs_f64(lt.fwd()),
            SimTime::from_secs_f64(lt.bwd),
            SimTime::from_secs_f64((1.0 - alpha) * lt.fwd_without_attention()),
            p.split.swapped_bytes(alpha),
            w.calib.effective_pcie(),
        );
        let mut host = TierStaging::unbounded(1);
        let layout = LayerSegment::uniform(n, 2, costs);
        let out =
            build_schedule(&layout, SimTime::ZERO, &mut host, 2).expect("host unconstrained here");
        println!("--- {label}");
        print!("{}", render_ascii(&out.timeline, 110));
        println!(
            "makespan {}  compute idle {}\n",
            out.makespan, out.compute_idle
        );
        trace.add_timeline(label, &out.timeline);
    }

    std::fs::write("FIG11_trace.json", trace.to_string()).expect("write FIG11_trace.json");
    println!("wrote FIG11_trace.json (open in chrome://tracing or Perfetto)");
}
