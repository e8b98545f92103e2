//! `memo-sim` — command-line front end for the simulator.
//!
//! ```text
//! memo-sim --model 7b --gpus 8 --seq 1m --system memo
//! memo-sim --model 30b --gpus 32 --seq 512k --system megatron --strategy tp8,cp2,dp2
//! memo-sim --model 7b --gpus 8 --seq 256k --all
//! ```

use memo::core::observer::RunObserver;
use memo::core::outcome::CellOutcome;
use memo::core::session::{pick_best_or_failure, Workload};
use memo::core::ServingEngine;
use memo::model::config::ModelConfig;
use memo::obs::alloc_trace::chrome_memory_counters;
use memo::obs::chrome::TraceBuilder;
use memo::obs::json::Json;
use memo::obs::report::{observed_json, outcome_json, report_json};
use memo::parallel::strategy::{KvCachePolicy, ParallelConfig, SystemSpec};
use std::process::ExitCode;

const USAGE: &str = "\
memo-sim — simulate long-context LLM training (MEMO, SIGMOD 2025 reproduction)

USAGE:
    memo-sim --model <7b|13b|30b|65b> --gpus <N> --seq <LEN> [OPTIONS]

LEN accepts k/m suffixes (e.g. 512k, 1m) and comma-separated lists
(e.g. --seq 64k,256k,1m runs one cell per length).

OPTIONS:
    --system <SYS>                       system to simulate (default: memo); one of
                                         memo, megatron, keepall, deepspeed,
                                         hybrid, nvme, tiered[:<depth>], whole
                                         (tiered = N-tier chain; depth 0/absent
                                         uses the calibration's whole chain;
                                         whole = flat whole-trace DSA planner
                                         with size-based exact/boxing dispatch),
                                         or a serving cell
                                         serve[:<paged|caching|kvswap|tiered>]
                                         (decode-phase KV-cache replay; --seq is
                                         the per-sequence context; strategy and
                                         grid options do not apply)
    --all                                run all six training systems
    --strategy tp<T>,cp<C>,pp<P>,dp<D>   fix the parallelism (default: search)
    --batch <B>                          sequences per DP replica, >= 1 (default: 1)
    --sweep <START>:<END>:<STEP>         sweep the sequence length from START up to
                                         END >= START (k/m suffixes ok)
    --pcie-gbps <N>                      nominal PCIe bandwidth override (GB/s, > 0)
    --gpu-mem-gib <N>                    per-GPU memory override (whole GiB; 0 allowed)
    --host-mem-gib <N>                   per-node host DRAM override (whole GiB; 0 allowed)
    --alpha-points <N>                   N-point dense α grid (N >= 2) over [0, 1]
                                         at the best (or fixed) MEMO strategy,
                                         swept as one grid row (one profile, one plan)
    --mixed-policy                       per-layer mixed-policy search at the same
                                         strategy: k = 0..=L-2 swapped layers,
                                         remaining layers recomputed token-wise
    --trace <PATH>                       write a Chrome-trace JSON (open in
                                         chrome://tracing or Perfetto): one
                                         process per run, one thread per stream,
                                         plus allocator memory counters
    --report-json <PATH>                 write run reports (outcome + byte/time
                                         breakdowns + observer stats) as JSON
    -h, --help                           this help
";

/// One or more sequence lengths, comma-separated (`64k,256k,1m`).
fn parse_seq_list(s: &str) -> Option<Vec<u64>> {
    s.split(',').map(|part| parse_seq(part.trim())).collect()
}

/// A positive token count with an optional k/m suffix; `None` for zero,
/// garbage, or a length that overflows `u64`.
fn parse_seq(s: &str) -> Option<u64> {
    let s = s.to_ascii_lowercase();
    let (digits, scale) = if let Some(v) = s.strip_suffix('m') {
        (v, 1 << 20)
    } else if let Some(v) = s.strip_suffix('k') {
        (v, 1 << 10)
    } else {
        (s.as_str(), 1)
    };
    digits
        .parse::<u64>()
        .ok()?
        .checked_mul(scale)
        .filter(|&n| n > 0)
}

/// A whole GiB count as bytes; `None` when it is malformed or too large
/// for `u64` bytes (a plain `<< 30` would drop the high bits). Zero is
/// legal: a zero pool is a typed `X_oom` / `X_oohm` experiment.
fn gib_to_bytes(v: &str) -> Option<u64> {
    v.parse::<u64>().ok()?.checked_mul(1 << 30)
}

/// `START:END:STEP` with `END >= START` (STEP > 0 by [`parse_seq`]).
fn parse_sweep(v: &str) -> Option<(u64, u64, u64)> {
    let parts: Vec<_> = v.split(':').collect();
    match parts.as_slice() {
        [a, b, c] => Some((parse_seq(a)?, parse_seq(b)?, parse_seq(c)?)),
        _ => None,
    }
    .filter(|&(start, end, _)| end >= start)
}

fn parse_model(s: &str) -> Option<ModelConfig> {
    Some(match s.to_ascii_lowercase().as_str() {
        "7b" => ModelConfig::gpt_7b(),
        "13b" => ModelConfig::gpt_13b(),
        "30b" => ModelConfig::gpt_30b(),
        "65b" => ModelConfig::gpt_65b(),
        _ => return None,
    })
}

fn parse_system(s: &str) -> Option<SystemSpec> {
    Some(match s.to_ascii_lowercase().as_str() {
        "memo" => SystemSpec::Memo,
        "megatron" | "megatron-lm" => SystemSpec::MegatronLM,
        "keepall" | "megatron-keepall" | "megatron-ka" => SystemSpec::MegatronKeepAll,
        "deepspeed" | "ds" => SystemSpec::DeepSpeed,
        "hybrid" | "tensor-hybrid" => SystemSpec::TensorHybrid,
        "nvme" | "memo-nvme" => SystemSpec::MemoTiered(2),
        "tiered" | "memo-tiered" => SystemSpec::MemoTiered(0),
        "whole" | "wholeplan" | "memo-wholeplan" => SystemSpec::MemoWholePlan,
        "serve" => SystemSpec::Serving(KvCachePolicy::Paged),
        other => {
            if let Some(depth) = other.strip_prefix("tiered:") {
                SystemSpec::MemoTiered(depth.parse().ok()?)
            } else if let Some(kv) = other
                .strip_prefix("serve:")
                .or_else(|| other.strip_prefix("serve-"))
            {
                let policy = KvCachePolicy::ALL.into_iter().find(|p| p.name() == kv)?;
                SystemSpec::Serving(policy)
            } else {
                return None;
            }
        }
    })
}

fn parse_strategy(s: &str, system: SystemSpec) -> Option<ParallelConfig> {
    let mut tp = 1;
    let mut cp = 1;
    let mut pp = 1;
    let mut dp = 1;
    let mut sp = 1;
    for part in s.split(',') {
        let part = part.trim().to_ascii_lowercase();
        if part.len() < 3 || !part.is_char_boundary(2) {
            return None;
        }
        let (key, val) = part.split_at(2);
        let val: usize = val.parse().ok()?;
        match key {
            "tp" => tp = val,
            "cp" => cp = val,
            "pp" => pp = val,
            "dp" => dp = val,
            "sp" => sp = val,
            _ => return None,
        }
    }
    Some(match system {
        SystemSpec::DeepSpeed => ParallelConfig::ulysses(sp.max(tp), dp),
        _ => ParallelConfig::megatron(tp, cp, pp, dp),
    })
}

/// Observation sink shared across all (sequence × system) runs: one Chrome
/// trace with a process per run, and one JSON array of report entries.
#[derive(Default)]
struct ObsSink {
    trace: TraceBuilder,
    reports: Vec<Json>,
}

impl ObsSink {
    /// Re-run `system` under `cfg` observed and record the artifacts. The
    /// observed run is bit-identical to the unobserved one (the observer
    /// only reads pipeline state), and the profile cache makes it cheap.
    fn record_run(&mut self, workload: &Workload, system: SystemSpec, cfg: &ParallelConfig) {
        let mut obs = RunObserver::new();
        let rep = workload.run_report_observed(system, cfg, &mut obs);
        let label = format!(
            "{} {} seq={}",
            system.name(),
            cfg.describe(),
            workload.seq_len
        );
        if let Some(tl) = &obs.timeline {
            let pid = self.trace.add_timeline(&label, tl);
            self.trace
                .add_events(chrome_memory_counters(pid, &obs.alloc_events));
        }
        self.reports.push(Json::Obj(vec![
            ("seq".into(), Json::int(workload.seq_len)),
            ("system".into(), Json::str(system.name())),
            ("report".into(), report_json(&rep)),
            ("observed".into(), observed_json(&obs)),
        ]));
    }

    /// Record a cell where no strategy was valid (nothing to re-run).
    fn record_failure(&mut self, workload: &Workload, system: SystemSpec, outcome_cell: String) {
        self.reports.push(Json::Obj(vec![
            ("seq".into(), Json::int(workload.seq_len)),
            ("system".into(), Json::str(system.name())),
            ("outcome".into(), Json::str(outcome_cell)),
        ]));
    }

    /// Record a serving cell: no strategy, no observed pipeline — just
    /// the outcome (tokens/sec as TGS, decode utilization as MFU).
    fn record_serving(&mut self, workload: &Workload, system: SystemSpec, out: &CellOutcome) {
        self.reports.push(Json::Obj(vec![
            ("seq".into(), Json::int(workload.seq_len)),
            ("system".into(), Json::str(system.name())),
            ("outcome".into(), outcome_json(out)),
        ]));
    }
}

/// Dense α grid at one MEMO strategy, swept as one grid row
/// ([`Workload::run_alpha_grid`]): one profile and one plan for every α,
/// and the segment cache makes the per-α cost a cache splice, not a fresh
/// simulation.
fn print_alpha_grid(workload: &Workload, cfg: &ParallelConfig, points: usize) {
    let grid = workload.run_alpha_grid(cfg, points, 2);
    println!("α grid — {} points at MEMO {}", points, cfg.describe());
    for (alpha, rep) in &grid {
        match rep.outcome.metrics() {
            Some(m) => println!(
                "    α={alpha:<6.4}   MFU {:6.2}%   TGS {:9.2}   iter {:7.2}s",
                m.mfu * 100.0,
                m.tgs,
                m.iter_secs
            ),
            None => println!("    α={alpha:<6.4}   {}", rep.outcome.cell()),
        }
    }
    match pick_best_or_failure(&grid, |(_, rep)| &rep.outcome) {
        (Some((alpha, rep)), _) => match rep.outcome.metrics() {
            Some(m) => println!("    pick: α={alpha:.4} (TGS {:.2})", m.tgs),
            None => println!("    pick: α={alpha:.4} ({})", rep.outcome.cell()),
        },
        (None, failure) => println!(
            "    pick: none (no feasible α on this strategy; least-bad {})",
            failure.cell()
        ),
    }
}

/// Per-layer mixed-policy search at one strategy: k = 0..=L-2 layers
/// swapped whole, the rest recomputed token-wise at the solved α.
fn print_mixed_policy_grid(workload: &Workload, cfg: &ParallelConfig) {
    let grid = workload.run_mixed_policy_grid(cfg, None, 2);
    println!(
        "mixed-policy grid — k = 0..={} swapped layers at MEMO {}",
        grid.len().saturating_sub(1),
        cfg.describe()
    );
    for (k, rep) in &grid {
        match rep.outcome.metrics() {
            Some(m) => println!(
                "    k={k:<3}   MFU {:6.2}%   TGS {:9.2}   iter {:7.2}s{}",
                m.mfu * 100.0,
                m.tgs,
                m.iter_secs,
                m.alpha.map(|a| format!("   α={a}")).unwrap_or_default(),
            ),
            None => println!("    k={k:<3}   {}", rep.outcome.cell()),
        }
    }
    match pick_best_or_failure(&grid, |(_, rep)| &rep.outcome) {
        (Some((k, rep)), _) => match rep.outcome.metrics() {
            Some(m) => println!("    pick: k={k} (TGS {:.2})", m.tgs),
            None => println!("    pick: k={k} ({})", rep.outcome.cell()),
        },
        (None, failure) => println!(
            "    pick: none (no feasible swap count on this strategy; least-bad {})",
            failure.cell()
        ),
    }
}

/// Returns false when the strategy was invalid (so main can exit nonzero).
fn report(
    workload: &Workload,
    system: SystemSpec,
    cfg: Option<ParallelConfig>,
    sink: Option<&mut ObsSink>,
) -> bool {
    // Serving cells replay the decode engine — there is no strategy
    // search, pipeline, or observer behind them.
    if let SystemSpec::Serving(policy) = system {
        let outcome = ServingEngine::from_workload(workload, policy)
            .run()
            .to_outcome();
        match outcome.metrics() {
            Some(m) => println!(
                "{:<12} {:<18} util {:5.2}%   tok/s {:9.2}   KV {:5.1} GiB   host {:5.1} GiB{}",
                system.name(),
                "",
                m.mfu * 100.0,
                m.tgs,
                m.peak_gpu_bytes as f64 / (1u64 << 30) as f64,
                m.host_peak_bytes as f64 / (1u64 << 30) as f64,
                m.alpha.map(|a| format!("   α={a:.3}")).unwrap_or_default(),
            ),
            None => println!("{:<12} {}", system.name(), outcome.cell()),
        }
        if let Some(sink) = sink {
            sink.record_serving(workload, system, &outcome);
        }
        return true;
    }
    let (cfg, outcome) = match cfg {
        Some(cfg) => {
            if let Err(e) = cfg.validate(
                &workload.model,
                workload.n_gpus,
                workload.calib.gpus_per_node.min(workload.n_gpus),
            ) {
                eprintln!("{:<12} invalid strategy: {e}", system.name());
                return false;
            }
            (Some(cfg), workload.run_with(system, &cfg))
        }
        None => workload.run_best_or_failure(system),
    };
    match outcome.metrics() {
        Some(m) => println!(
            "{:<12} {:<18} MFU {:6.2}%   TGS {:9.2}   iter {:7.2}s   GPU {:5.1} GiB   host {:5.1} GiB{}",
            system.name(),
            cfg.map(|c| c.describe()).unwrap_or_default(),
            m.mfu * 100.0,
            m.tgs,
            m.iter_secs,
            m.peak_gpu_bytes as f64 / (1u64 << 30) as f64,
            m.host_peak_bytes as f64 / (1u64 << 30) as f64,
            m.alpha.map(|a| format!("   α={a}")).unwrap_or_default(),
        ),
        None => println!("{:<12} {}", system.name(), outcome.cell()),
    }
    if let Some(sink) = sink {
        match cfg {
            Some(cfg) => sink.record_run(workload, system, &cfg),
            None => sink.record_failure(workload, system, outcome.cell()),
        }
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut model = None;
    let mut gpus = None;
    let mut seq: Option<Vec<u64>> = None;
    let mut system = SystemSpec::Memo;
    let mut all = false;
    let mut strategy: Option<String> = None;
    let mut batch = 1u64;
    let mut sweep: Option<(u64, u64, u64)> = None;
    let mut pcie_gbps: Option<f64> = None;
    let mut gpu_mem_bytes: Option<u64> = None;
    let mut host_mem_bytes: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut alpha_points: Option<usize> = None;
    let mut mixed_policy = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || it.next().cloned();
        let bad = |flag: &str, expected: &str| {
            eprintln!("{flag} requires {expected}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--model" => match take() {
                Some(v) => match parse_model(&v) {
                    Some(m) => model = Some(m),
                    None => {
                        eprintln!("unknown model '{v}' (expected 7b|13b|30b|65b)");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--model requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--gpus" => match take().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => gpus = Some(n),
                _ => return bad("--gpus", "an integer >= 1"),
            },
            "--seq" => match take() {
                Some(v) => match parse_seq_list(&v) {
                    Some(s) if !s.is_empty() => seq = Some(s),
                    _ => {
                        eprintln!("bad sequence length '{v}' (examples: 512k, 1m, 64k,256k,1m)");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--seq requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--system" => match take().as_deref().and_then(parse_system) {
                Some(s) => system = s,
                None => {
                    eprintln!("unknown system");
                    return ExitCode::FAILURE;
                }
            },
            "--all" => all = true,
            "--strategy" => strategy = take(),
            "--batch" => match take().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => return bad("--batch", "an integer >= 1"),
            },
            "--sweep" => match take().as_deref().and_then(parse_sweep) {
                Some(s) => sweep = Some(s),
                None => return bad("--sweep", "START:END:STEP with END >= START"),
            },
            "--trace" => match take() {
                Some(v) => trace_path = Some(v),
                None => {
                    eprintln!("--trace requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--report-json" => match take() {
                Some(v) => report_path = Some(v),
                None => {
                    eprintln!("--report-json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--alpha-points" => match take().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 2 => alpha_points = Some(n),
                _ => {
                    eprintln!("--alpha-points requires an integer >= 2");
                    return ExitCode::FAILURE;
                }
            },
            "--mixed-policy" => mixed_policy = true,
            "--pcie-gbps" => match take().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v > 0.0 => pcie_gbps = Some(v),
                _ => return bad("--pcie-gbps", "a finite number > 0"),
            },
            "--gpu-mem-gib" => match take().as_deref().and_then(gib_to_bytes) {
                Some(b) => gpu_mem_bytes = Some(b),
                None => return bad("--gpu-mem-gib", "a whole GiB count that fits u64 bytes"),
            },
            "--host-mem-gib" => match take().as_deref().and_then(gib_to_bytes) {
                Some(b) => host_mem_bytes = Some(b),
                None => return bad("--host-mem-gib", "a whole GiB count that fits u64 bytes"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (Some(model), Some(gpus)) = (model, gpus) else {
        eprintln!("--model and --gpus are required\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let seqs: Vec<u64> = match (sweep, seq) {
        (Some((start, end, step)), _) => {
            std::iter::successors(Some(start), |s| s.checked_add(step))
                .take_while(|&s| s <= end)
                .collect()
        }
        (None, Some(list)) => list,
        (None, None) => {
            eprintln!("--seq or --sweep is required\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let systems: Vec<SystemSpec> = if all {
        SystemSpec::ALL_MODES.to_vec()
    } else {
        vec![system]
    };
    let mut all_ok = true;
    let mut sink = (trace_path.is_some() || report_path.is_some()).then(ObsSink::default);
    for s in seqs {
        let mut workload = Workload::new(model.clone(), gpus, s);
        workload.batch = batch;
        if let Some(v) = pcie_gbps {
            workload.calib.set_pcie_bandwidth(v * 1e9);
        }
        if let Some(b) = gpu_mem_bytes {
            workload.calib.gpu_memory_bytes = b;
        }
        if let Some(b) = host_mem_bytes {
            workload.calib.set_host_memory_bytes(b);
        }
        println!(
            "{} model, {} tokens, {} GPUs (batch {batch}/replica)",
            workload.model.name, s, gpus
        );
        for &sys in &systems {
            let cfg = match strategy.as_deref() {
                Some(text) => match parse_strategy(text, sys) {
                    Some(cfg) => Some(cfg),
                    None => {
                        eprintln!("bad --strategy '{text}' (example: tp4,cp2,dp1)");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            all_ok &= report(&workload, sys, cfg, sink.as_mut());
        }
        if alpha_points.is_some() || mixed_policy {
            // The dense grids are MEMO features: resolve one MEMO strategy
            // (fixed via --strategy, otherwise the search winner) and sweep.
            let gpn = workload.calib.gpus_per_node.min(workload.n_gpus);
            let cfg = match strategy.as_deref() {
                Some(text) => parse_strategy(text, SystemSpec::Memo)
                    .filter(|c| c.validate(&workload.model, workload.n_gpus, gpn).is_ok()),
                None => workload.run_best_or_failure(SystemSpec::Memo).0,
            };
            match cfg {
                Some(cfg) => {
                    if let Some(points) = alpha_points {
                        print_alpha_grid(&workload, &cfg, points);
                    }
                    if mixed_policy {
                        print_mixed_policy_grid(&workload, &cfg);
                    }
                }
                None => println!("grids skipped: no feasible MEMO strategy at this length"),
            }
        }
        println!();
    }
    if let Some(sink) = sink {
        if let Some(path) = trace_path {
            if let Err(e) = std::fs::write(&path, sink.trace.to_string()) {
                eprintln!("failed to write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote Chrome trace to {path}");
        }
        if let Some(path) = report_path {
            let doc = Json::Arr(sink.reports).to_string();
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("failed to write report {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote run reports to {path}");
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
