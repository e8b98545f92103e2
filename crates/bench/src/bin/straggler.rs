//! Extension study: straggler sensitivity of the parallelism shapes.
//!
//! The whole-cluster simulation runs every rank explicitly, so per-rank
//! compute jitter interacts with the collectives the way it does on a real
//! cluster: strategies that synchronise every layer (large TP/CP) wait for
//! the slowest member each time, while DP-heavy shapes only meet at the
//! gradient synchronisation. Context for §5.2's observation that large
//! model-parallel degrees carry heavy overheads — noise makes it worse.

use memo_core::session::Workload;
use memo_dist::groups::RankGrid;
use memo_dist::iteration::{run_distributed_iteration, DistSpec};
use memo_hal::time::SimTime;
use memo_model::config::ModelConfig;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

fn main() {
    let base = DistSpec {
        layers: 32,
        t_fwd: SimTime::from_millis(40),
        t_bwd: SimTime::from_millis(80),
        t_collective: SimTime::from_millis(2),
        t_offload: SimTime::from_millis(30),
        t_grad_sync: SimTime::from_millis(10),
        jitter: 0.0,
        seed: 2026,
    };
    let shapes = [
        (
            "TP8 (per-layer barriers)",
            RankGrid {
                tp: 8,
                cp: 1,
                pp: 1,
                dp: 1,
            },
        ),
        (
            "TP4·CP2",
            RankGrid {
                tp: 4,
                cp: 2,
                pp: 1,
                dp: 1,
            },
        ),
        (
            "TP2·CP2·DP2",
            RankGrid {
                tp: 2,
                cp: 2,
                pp: 1,
                dp: 2,
            },
        ),
        (
            "DP8 (one barrier/iter)",
            RankGrid {
                tp: 1,
                cp: 1,
                pp: 1,
                dp: 8,
            },
        ),
    ];

    println!("Straggler sensitivity — 8 ranks, slowdown vs jitter-free run\n");
    print!("{:>26}", "strategy \\ jitter");
    let jitters = [0.05f64, 0.1, 0.2, 0.4];
    for j in jitters {
        print!(" | {:>7.0}%", j * 100.0);
    }
    println!();
    for (name, grid) in shapes {
        let clean = run_distributed_iteration(&grid, &base);
        print!("{name:>26}");
        for j in jitters {
            let noisy = run_distributed_iteration(&grid, &DistSpec { jitter: j, ..base });
            let slowdown = noisy.makespan.as_secs_f64() / clean.makespan.as_secs_f64();
            print!(" | {:>7.3}x", slowdown);
        }
        println!();
    }
    println!("\nper-layer collectives take the max over members every layer (2·layers");
    println!("barriers/iteration); pure DP absorbs noise until the single gradient");
    println!("sync. MEMO inherits whichever shape its strategy search picks.");

    // A storage-tier straggler: the same workload over the N-tier chain
    // with the NVMe tier progressively degraded. The α waterfall routes
    // around a slow deep tier (it just absorbs less), so MFU degrades
    // gracefully instead of collapsing like a compute straggler.
    println!("\nTiered-memory straggler — 7B/8GPU @ 768K, NVMe tier slowed\n");
    println!(
        "{:>18} {:>7} {:>7} {:>9}",
        "nvme bandwidth", "mfu", "alpha", "slowdown"
    );
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let healthy = {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 768 * 1024);
        w.run_with(SystemSpec::MemoTiered(0), &cfg)
            .mfu()
            .expect("healthy chain runs")
    };
    for nvme_gbps in [25.0f64, 10.0, 5.0, 1.0] {
        let mut w = Workload::new(ModelConfig::gpt_7b(), 8, 768 * 1024);
        let nvme = w.calib.hierarchy.tiers.last_mut().expect("chain has NVMe");
        nvme.write_bandwidth = nvme_gbps * 1e9;
        let out = w.run_with(SystemSpec::MemoTiered(0), &cfg);
        let m = out.metrics().expect("degraded chain still runs");
        println!(
            "{:>13.0} GB/s {:>7.3} {:>7.3} {:>8.3}x",
            nvme_gbps,
            m.mfu,
            m.alpha.unwrap_or(0.0),
            healthy / m.mfu
        );
    }
}
