//! N-tier memory-hierarchy benchmark.
//!
//! Sweeps the MEMO execution pipeline over offload chains of increasing
//! depth — the paper's GPU→host→NVMe testbed plus CXL- and
//! object-storage-extended variants — at 7B/8GPU × {64K, 256K, 1M}
//! tokens:
//!
//! * **3-tier** — GPU→host→NVMe, the calibration default. Asserted
//!   bit-identical (outcome, byte and time breakdowns) at every sequence
//!   length: the N-tier waterfall truncated to depth 1 is `Memo`, and
//!   depth 2 (MEMO+NVMe) is the whole chain.
//! * **4-tier** — GPU→host→CXL→NVMe: a 512 GiB CXL expander between
//!   host DRAM and NVMe.
//! * **5-tier** — the 4-tier chain plus a remote object-storage tier.
//!
//! Emits `BENCH_tier.json` with per-cell outcome, MFU, total α, and the
//! legacy-parity booleans. Asserts every parity cell holds and that at
//! least one chain deeper than three tiers simulates successfully at 1M.

use memo_core::session::Workload;
use memo_hal::{TierSharing, TierSpec};
use memo_model::config::ModelConfig;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

/// A CXL memory expander between host DRAM and NVMe (latency-wise a DRAM
/// cousin, bandwidth-wise about two PCIe 5.0 x8 links).
fn cxl_tier() -> TierSpec {
    TierSpec {
        name: "cxl".into(),
        capacity_bytes: 512 << 30,
        usable_fraction: 1.0,
        write_bandwidth: 64e9,
        read_bandwidth: 64e9,
        utilization: 0.85,
        sharing: TierSharing::Fixed(2.0),
        latency_secs: 250e-9,
    }
}

/// A far object-storage tier past NVMe: effectively unbounded capacity at
/// single-digit GB/s and sub-millisecond latency.
fn remote_tier() -> TierSpec {
    TierSpec {
        name: "remote".into(),
        capacity_bytes: 1 << 50,
        usable_fraction: 1.0,
        write_bandwidth: 3e9,
        read_bandwidth: 3e9,
        utilization: 1.0,
        sharing: TierSharing::NodeGpus,
        latency_secs: 5e-4,
    }
}

/// The workload with the default chain extended to `extra` tiers spliced
/// in front of the NVMe tier, plus any appended past it.
fn chain_workload(seq: u64, before_nvme: &[TierSpec], after_nvme: &[TierSpec]) -> Workload {
    let mut w = Workload::new(ModelConfig::gpt_7b(), 8, seq);
    let nvme = w
        .calib
        .hierarchy
        .tiers
        .pop()
        .expect("default chain has NVMe");
    for t in before_nvme {
        w.calib.hierarchy.push(t.clone());
    }
    w.calib.hierarchy.push(nvme);
    for t in after_nvme {
        w.calib.hierarchy.push(t.clone());
    }
    w
}

struct Cell {
    chain: &'static str,
    tiers: usize,
    seq_k: u64,
    outcome: String,
    mfu: Option<f64>,
    alpha: Option<f64>,
    parity: Option<bool>,
}

fn main() {
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let seq_ks: [u64; 3] = [64, 256, 1024];
    // (label, GPU-inclusive tier count, tiers before NVMe, tiers after).
    let chains: [(&str, usize, Vec<TierSpec>, Vec<TierSpec>); 3] = [
        ("gpu-host-nvme", 3, vec![], vec![]),
        ("gpu-host-cxl-nvme", 4, vec![cxl_tier()], vec![]),
        (
            "gpu-host-cxl-nvme-remote",
            5,
            vec![cxl_tier()],
            vec![remote_tier()],
        ),
    ];

    println!(
        "tier_bench — 7B on 8 GPUs ({}), N-tier chains\n",
        cfg.describe()
    );
    println!(
        "{:<26} {:>5} {:>6} {:>9} {:>7} {:>7} {:>7}",
        "chain", "tiers", "seq", "outcome", "mfu", "alpha", "parity"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut deep_ok_at_1m = 0usize;
    for (chain, tiers, before, after) in &chains {
        for &s_k in &seq_ks {
            let w = chain_workload(s_k * 1024, before, after);
            let report = w.run_report(SystemSpec::MemoTiered(0), &cfg);
            // The paper chain must be bit-identical to the legacy modes:
            // depth 1 ≡ Memo, and depth 2 ≡ the whole chain.
            let parity = (*tiers == 3).then(|| {
                let eq = |a: &memo_core::pipeline::ExecutionReport,
                          b: &memo_core::pipeline::ExecutionReport| {
                    a.outcome == b.outcome && a.bytes == b.bytes && a.time == b.time
                };
                let host_only = w.run_report(SystemSpec::MemoTiered(1), &cfg);
                let two = w.run_report(SystemSpec::MemoTiered(2), &cfg);
                eq(&host_only, &w.run_report(SystemSpec::Memo, &cfg)) && eq(&two, &report)
            });
            if let Some(ok) = parity {
                assert!(ok, "{chain}@{s_k}K: tiered run diverged from legacy modes");
            }
            if *tiers > 3 && s_k == 1024 && report.outcome.is_ok() {
                deep_ok_at_1m += 1;
            }
            let m = report.outcome.metrics();
            let cell = Cell {
                chain,
                tiers: *tiers,
                seq_k: s_k,
                outcome: report.outcome.cell(),
                mfu: m.map(|m| m.mfu),
                alpha: m.and_then(|m| m.alpha),
                parity,
            };
            println!(
                "{:<26} {:>5} {:>5}K {:>9} {:>7} {:>7} {:>7}",
                cell.chain,
                cell.tiers,
                cell.seq_k,
                cell.outcome,
                cell.mfu.map_or("-".into(), |v| format!("{v:.3}")),
                cell.alpha.map_or("-".into(), |v| format!("{v:.3}")),
                cell.parity.map_or("-".into(), |v| v.to_string()),
            );
            cells.push(cell);
        }
    }

    assert!(
        deep_ok_at_1m >= 1,
        "at least one chain deeper than three tiers must simulate 1M successfully"
    );
    println!("\nchains deeper than 3 tiers simulating 1M successfully: {deep_ok_at_1m}");

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"chain\": \"{}\", \"tiers\": {}, \"seq_k\": {}, \
                 \"outcome\": \"{}\", \"mfu\": {}, \"alpha\": {}, \"parity\": {}}}",
                c.chain,
                c.tiers,
                c.seq_k,
                c.outcome,
                c.mfu.map_or("null".into(), |v| format!("{v:.6}")),
                c.alpha.map_or("null".into(), |v| format!("{v:.6}")),
                c.parity.map_or("null".into(), |v| v.to_string()),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"tier\",\n  \"model\": \"7B\",\n  \"n_gpus\": 8,\n  \
         \"parallel\": \"{}\",\n  \"cells\": [\n{}\n  ],\n  \
         \"deep_chains_ok_at_1m\": {}\n}}\n",
        cfg.describe(),
        cell_json.join(",\n"),
        deep_ok_at_1m
    );
    std::fs::write("BENCH_tier.json", &json).expect("write BENCH_tier.json");
    println!("wrote BENCH_tier.json");
}
