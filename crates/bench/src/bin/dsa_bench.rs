//! Whole-model DSA planner benchmark.
//!
//! Exercises the size-based dispatch policy (`memo_plan::dispatch`) across
//! three regimes and emits `BENCH_dsa.json`:
//!
//! * **Seeded corpus** — small random instances where exact branch-and-bound
//!   completes. Wherever BnB proves optimality, the boxing solver (with its
//!   best-fit portfolio and compaction polish) must land on the same peak —
//!   the `parity` column, asserted per cell.
//! * **Trace cells** — real iteration traces from 7B → 100B-class models
//!   (including the NVMe-offload 1M-token regime the `MemoTiered` chain
//!   targets), planned whole through the dispatch policy. BnB is infeasible
//!   at these sizes (`n ≫ 40`), recorded as `bnb_peak: null`.
//! * **MegaTrain chunked** — the ≥1M-interval instance built from the
//!   token-chunked fwd/bwd request stream (`memo_model::chunked`, 100B
//!   class at 1M tokens). Asserted to plan in seconds, validate, and stay
//!   within boxing's certified `2·K·LOAD` guarantee.
//!
//! Every cell records `gap_ok`: peak within the certified guarantee (boxing
//! path) and never below the liveness lower bound. CI greps the JSON for
//! `"parity": false` / `"gap_ok": false`.

use memo_core::profiler;
use memo_core::session::Workload;
use memo_model::chunked::ChunkedParams;
use memo_model::config::ModelConfig;
use memo_model::trace::{RematPolicy, TensorId};
use memo_parallel::strategy::ParallelConfig;
use memo_plan::bnb::{self, BnbOptions};
use memo_plan::boxing;
use memo_plan::dispatch::{self, DispatchOptions};
use memo_plan::{DsaInstance, DsaInstanceBuilder, DsaTensor};
use std::time::Instant;

struct Cell {
    kind: &'static str,
    label: String,
    n_tensors: usize,
    backend: &'static str,
    peak: u64,
    lower_bound: u64,
    guarantee: Option<u64>,
    bnb_peak: Option<u64>,
    bnb_optimal: Option<bool>,
    runtime_ms: f64,
    parity: Option<bool>,
    gap_ok: bool,
}

impl Cell {
    fn gap(&self) -> f64 {
        if self.lower_bound == 0 {
            1.0
        } else {
            self.peak as f64 / self.lower_bound as f64
        }
    }
}

/// xorshift64* — deterministic corpus, no external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A random corpus instance: `n` tensors with jittered power-of-two-ish
/// sizes and random sub-intervals of a short event horizon.
fn corpus_instance(seed: u64, n: usize) -> DsaInstance {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let horizon = 2 * n;
    let tensors = (0..n)
        .map(|i| {
            let size = 64u64 << (rng.next() % 4);
            let birth = (rng.next() as usize) % (horizon - 1);
            let death = birth + 1 + (rng.next() as usize) % (horizon - birth - 1).max(1);
            DsaTensor {
                id: TensorId(i as u64),
                size,
                birth,
                death,
            }
        })
        .collect();
    DsaInstance { tensors }
}

fn solve_cell(kind: &'static str, label: String, inst: &DsaInstance, run_bnb: bool) -> Cell {
    let opts = DispatchOptions::default();
    let start = Instant::now();
    let sol = dispatch::solve(inst, &opts);
    let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
    sol.assignment
        .validate(inst)
        .unwrap_or_else(|e| panic!("{label}: invalid assignment: {e}"));

    // The exact reference, where feasible: the corpus runs it even though
    // dispatch also picks BnB there, so `parity` compares boxing itself.
    let (bnb_peak, bnb_optimal, parity) = if run_bnb {
        let exact = bnb::solve(inst, BnbOptions::default());
        let boxed = boxing::solve(inst);
        boxed
            .assignment
            .validate(inst)
            .unwrap_or_else(|e| panic!("{label}: invalid boxing assignment: {e}"));
        let parity = exact
            .optimal
            .then_some(boxed.assignment.peak == exact.assignment.peak);
        (Some(exact.assignment.peak), Some(exact.optimal), parity)
    } else {
        (None, None, None)
    };

    let gap_ok = sol.assignment.peak >= sol.lower_bound
        && sol.guarantee.is_none_or(|g| sol.assignment.peak <= g);
    Cell {
        kind,
        label,
        n_tensors: inst.len(),
        backend: sol.backend.name(),
        peak: sol.assignment.peak,
        lower_bound: sol.lower_bound,
        guarantee: sol.guarantee,
        bnb_peak,
        bnb_optimal,
        runtime_ms,
        parity,
        gap_ok,
    }
}

fn trace_cell(label: String, kind: &'static str, w: &Workload, cfg: &ParallelConfig) -> Cell {
    let p = profiler::profile(w, cfg, RematPolicy::MemoTokenWise, false);
    let inst = DsaInstance::from_trace(&p.trace);
    solve_cell(kind, label, &inst, false)
}

fn main() {
    let mut cells: Vec<Cell> = Vec::new();

    // ---- seeded parity corpus -------------------------------------------
    for seed in 1..=12u64 {
        let n = 20 + (seed as usize % 3) * 4; // 20, 24, 28
        let inst = corpus_instance(seed, n);
        cells.push(solve_cell(
            "corpus",
            format!("corpus-{seed:02}-n{n}"),
            &inst,
            true,
        ));
    }

    // ---- whole-model trace cells, 7B → 100B-class -----------------------
    let grid: [(ModelConfig, usize, u64, ParallelConfig, &'static str); 5] = [
        (
            ModelConfig::gpt_7b(),
            8,
            64 << 10,
            ParallelConfig::megatron(4, 2, 1, 1),
            "trace",
        ),
        (
            ModelConfig::gpt_13b(),
            8,
            256 << 10,
            ParallelConfig::megatron(4, 2, 1, 1),
            "trace",
        ),
        (
            ModelConfig::gpt_30b(),
            16,
            512 << 10,
            ParallelConfig::megatron(8, 2, 1, 1),
            "trace",
        ),
        (
            ModelConfig::gpt_65b(),
            16,
            1 << 20,
            ParallelConfig::megatron(8, 2, 1, 1),
            "tiered-nvme",
        ),
        (
            ModelConfig::gpt_100b(),
            8,
            1 << 20,
            ParallelConfig::megatron(1, 8, 1, 1),
            "tiered-nvme",
        ),
    ];
    for (model, n_gpus, seq, cfg, kind) in grid {
        let label = format!("{}@{}k", model.name, seq >> 10);
        let w = Workload::new(model, n_gpus, seq);
        cells.push(trace_cell(label, kind, &w, &cfg));
    }

    // ---- MegaTrain ≥1M-interval chunked cell ----------------------------
    // Built from the real token-chunked fwd/bwd request stream
    // (`memo_model::chunked`), not a statistical synth: every malloc/free
    // of the 100B-class 1M-token chunked iteration flows through the
    // interval builder.
    let params = ChunkedParams::megatrain();
    assert!(params.intervals() >= 1_000_000);
    let mut builder = DsaInstanceBuilder::new();
    memo_model::chunked::for_each_request(&params, |r| builder.push(r));
    let inst = builder.finish().expect("chunked trace must be balanced");
    let synth = solve_cell("synth", format!("megatrain-{}", inst.len()), &inst, false);
    assert!(
        synth.runtime_ms < 30_000.0,
        "million-interval plan took {:.1}ms — must complete in seconds",
        synth.runtime_ms
    );
    assert!(synth.gap_ok, "synth cell outside certified gap");
    cells.push(synth);

    // ---- report ----------------------------------------------------------
    println!(
        "{:<24} {:>12} {:>9} {:>12} {:>6} {:>10} {:>7} {:>7}",
        "cell", "n", "backend", "peak", "gap", "runtime", "parity", "gap_ok"
    );
    for c in &cells {
        println!(
            "{:<24} {:>12} {:>9} {:>12} {:>6.3} {:>8.1}ms {:>7} {:>7}",
            c.label,
            c.n_tensors,
            c.backend,
            c.peak,
            c.gap(),
            c.runtime_ms,
            c.parity.map_or("-".into(), |v| v.to_string()),
            c.gap_ok,
        );
    }

    let checked = cells.iter().filter(|c| c.parity.is_some()).count();
    assert!(
        checked >= 8,
        "corpus must exercise BnB-provable cells, got {checked}"
    );
    for c in &cells {
        if let Some(ok) = c.parity {
            assert!(ok, "{}: boxing missed the BnB optimum", c.label);
        }
        assert!(c.gap_ok, "{}: peak outside certified gap", c.label);
    }
    println!("\nparity-checked cells: {checked} (all match the BnB optimum)");

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            let opt = |v: Option<u64>| v.map_or("null".into(), |v| v.to_string());
            format!(
                "    {{\"kind\": \"{}\", \"label\": \"{}\", \"n_tensors\": {}, \
                 \"backend\": \"{}\", \"peak\": {}, \"lower_bound\": {}, \
                 \"guarantee\": {}, \"bnb_peak\": {}, \"bnb_optimal\": {}, \
                 \"gap\": {:.6}, \"runtime_ms\": {:.3}, \"parity\": {}, \"gap_ok\": {}}}",
                c.kind,
                c.label,
                c.n_tensors,
                c.backend,
                c.peak,
                c.lower_bound,
                opt(c.guarantee),
                opt(c.bnb_peak),
                c.bnb_optimal.map_or("null".into(), |v| v.to_string()),
                c.gap(),
                c.runtime_ms,
                c.parity.map_or("null".into(), |v| v.to_string()),
                c.gap_ok,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"dsa\",\n  \"parity_checked\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        checked,
        cell_json.join(",\n"),
    );
    std::fs::write("BENCH_dsa.json", &json).expect("write BENCH_dsa.json");
    println!("wrote BENCH_dsa.json");
}
