//! `search-long` and `search-short`: cold `memo-sim --all` strategy
//! searches.
//!
//! One op is one cell: `Workload::run_best_or_failure` for every
//! `SystemSpec::ALL_MODES` entry, after both shared caches are cleared, so
//! every op pays for profiling, planning and allocator replay itself. A
//! round covers a fixed group of (model, GPUs, sequence) strata once, in
//! seeded order; the seed also draws each cell's host DRAM and PCIe link,
//! which decide feasibility and α but barely move the cost.

use crate::spans::{Tracer, OP};
use crate::{add_count, metrics, round_rng, shuffle, Budget, Layers, Outcome, Round};
use memo_core::cache::{CacheStatsScope, ProfileCache};
use memo_core::outcome::CellOutcome;
use memo_core::pipeline::{ExecutionPipeline, MemoryBackend, PipelineStages};
use memo_core::session::{Workload, SMALL_GRID_BYPASS};
use memo_model::config::ModelConfig;
use memo_parallel::search::enumerate_configs;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_swap::SegmentCache;
use rand::Rng;
use std::time::Instant;

/// One strategy-search cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub model: ModelConfig,
    pub n_gpus: usize,
    pub seq_len: u64,
    pub host_dram_gib: u64,
    pub pcie_gbps: u64,
}

impl Cell {
    pub fn workload(&self) -> Workload {
        let mut w = Workload::new(self.model.clone(), self.n_gpus, self.seq_len);
        w.calib.set_host_memory_bytes(self.host_dram_gib << 30);
        w.calib.set_pcie_bandwidth(self.pcie_gbps as f64 * 1e9);
        w
    }
}

/// The strata of a search regime and the seed that varies them.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// (model, GPUs, sequence length) strata; round `r` covers group
    /// `r % groups.len()`, one cell per stratum.
    pub groups: Vec<Vec<(ModelConfig, usize, u64)>>,
    /// The cell searched during set-up.
    pub warmup: Cell,
    pub seed: u64,
}

const DRAM_GIB: [u64; 3] = [512, 1024, 2048];
const PCIE_GBPS: [u64; 2] = [16, 32];

fn default_cell(model: ModelConfig, n_gpus: usize, seq_len: u64) -> Cell {
    Cell {
        model,
        n_gpus,
        seq_len,
        host_dram_gib: 2048,
        pcie_gbps: 32,
    }
}

impl Inputs {
    /// MEMO's regime: 256K–1M tokens, at least 8K tokens per GPU; every
    /// round covers all 44 strata.
    pub fn long(seed: u64) -> Self {
        let mut strata = Vec::new();
        for model in ModelConfig::paper_models() {
            for n_gpus in [8usize, 16, 32, 64] {
                for seq_k in [256u64, 512, 1024] {
                    if seq_k * 1024 / n_gpus as u64 >= 8 * 1024 {
                        strata.push((model.clone(), n_gpus, seq_k << 10));
                    }
                }
            }
        }
        Inputs {
            groups: vec![strata],
            warmup: default_cell(ModelConfig::gpt_7b(), 8, 256 << 10),
            seed,
        }
    }

    /// The opposite case: 2K (7B) or 4K tokens per GPU, where level-1
    /// branch-and-bound spends its node budget. A round is the four models
    /// on 4, 8 or 16 GPUs in turn, so rounds stay short enough for a run
    /// to hold several.
    pub fn short(seed: u64) -> Self {
        let groups = [4usize, 8, 16]
            .map(|n_gpus| {
                ModelConfig::paper_models()
                    .into_iter()
                    .map(|model| {
                        let per_gpu: u64 =
                            (if model == ModelConfig::gpt_7b() { 2 } else { 4 }) << 10;
                        (model, n_gpus, per_gpu * n_gpus as u64)
                    })
                    .collect()
            })
            .to_vec();
        Inputs {
            groups,
            warmup: default_cell(ModelConfig::gpt_7b(), 8, 256 << 10),
            seed,
        }
    }

    /// Round `r`: its group's strata in seeded order, with seeded
    /// calibration draws.
    pub fn round(&self, r: usize) -> Vec<Cell> {
        let mut rng = round_rng(self.seed, 0x5EA7C4, r);
        let mut cells: Vec<Cell> = self.groups[r % self.groups.len()]
            .iter()
            .map(|(model, n_gpus, seq_len)| Cell {
                model: model.clone(),
                n_gpus: *n_gpus,
                seq_len: *seq_len,
                host_dram_gib: DRAM_GIB[rng.gen_range(0..DRAM_GIB.len())],
                pcie_gbps: PCIE_GBPS[rng.gen_range(0..PCIE_GBPS.len())],
            })
            .collect();
        shuffle(&mut cells, &mut rng);
        cells
    }
}

type Picks = Vec<(SystemSpec, (Option<ParallelConfig>, CellOutcome))>;

fn clear_caches() {
    ProfileCache::global().clear();
    SegmentCache::global().clear();
}

/// The op: a cold search of every mode.
fn search_cell(w: &Workload) -> Picks {
    clear_caches();
    SystemSpec::ALL_MODES
        .iter()
        .map(|&s| (s, w.run_best_or_failure(s)))
        .collect()
}

/// Output check: every pick re-runs to the same outcome.
fn picks_reproduce(w: &Workload, picks: &Picks) -> bool {
    picks.iter().all(|(system, (cfg, outcome))| {
        cfg.as_ref().is_none_or(|cfg| {
            let again = w.run_with(*system, cfg);
            if again != *outcome {
                eprintln!(
                    "search: {} on {} GPUs at {} tokens, {}: the pick re-runs to {again:?}, not {outcome:?}",
                    w.model.name,
                    w.n_gpus,
                    w.seq_len,
                    system.name()
                );
            }
            again == *outcome
        })
    })
}

pub fn run(inputs: &Inputs, budget: &Budget, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    o.set_up(budget, || {
        let _ = inputs.round(0);
        let _ = search_cell(&inputs.warmup.workload());
    });

    // Quality over the first `min_rounds` rounds: mean MFU of the pick per
    // (cell, mode) search, 0 where no strategy is feasible.
    let (mut mfu_sum, mut searches, mut picked_tgs) = (0.0, 0u64, Vec::new());
    while o.more(budget) {
        let mut round = Round::default();
        for cell in inputs.round(o.rounds.len()) {
            o.between_ops();
            let w = cell.workload();
            let t0 = Instant::now();
            let picks = search_cell(&w);
            let secs = t0.elapsed().as_secs_f64();
            round.secs += secs;
            round.latencies.push(secs);
            o.ops += 1;
            o.ops_failed += u64::from(!picks_reproduce(&w, &picks));
            if o.in_quality_rounds(budget) {
                for (_, (_, outcome)) in &picks {
                    searches += 1;
                    if let Some(m) = outcome.metrics() {
                        mfu_sum += m.mfu;
                        picked_tgs.push(m.tgs);
                    }
                }
            }
        }
        o.end_round(budget, round);
    }
    o.quality = mfu_sum / searches as f64;
    o.extra = vec![
        (
            "feasible_frac",
            picked_tgs.len() as f64 / searches as f64,
            "ratio",
        ),
        (
            "picked_tgs_geomean",
            metrics::geomean(&picked_tgs),
            "tokens/GPU/s",
        ),
    ];
    if trace {
        o.layers = Some(traced(inputs, budget, &o.quality_latencies(budget)));
    }
    o
}

const LANES: &[&str] = &["op", "profiler", "bilevel", "caching", "pipeline_rest"];
const PROFILER: usize = 1;
const BILEVEL: usize = 2;
const CACHING: usize = 3;
const REST: usize = 4;

/// The traced passes over the first `min_rounds` rounds: the ops again
/// with one span each, then every op replayed layer by layer.
fn traced(inputs: &Inputs, budget: &Budget, untraced: &[f64]) -> Layers {
    let mut tracer = Tracer::new(LANES);
    let cells: Vec<Cell> = (0..budget.min_rounds)
        .flat_map(|r| inputs.round(r))
        .collect();
    for (op, cell) in cells.iter().enumerate() {
        let w = cell.workload();
        tracer.span(OP, op as u64, || search_cell(&w));
    }
    let overhead_pct = tracer.overhead_pct(untraced);

    let mut counts = Vec::new();
    for (op, cell) in cells.iter().enumerate() {
        replay(&cell.workload(), op as u64, &mut tracer, &mut counts);
    }
    Layers {
        busy: tracer.layer_busy(),
        counts,
        overhead_pct,
        tracer,
    }
}

/// One cold cell, layer by layer, calling each stage the way the search
/// does: same configs, same cache use, same profile sharing across modes.
///
/// * profiler — `ProfileCache::profile`, cold or shared as in the search;
/// * bilevel — the plan, for the configs whose activation policy lets the
///   search reach the memory stage (found by an untimed probe run) and
///   only where the search computes it rather than hitting the cache;
/// * caching — the warm-profile pipeline run of a caching-replay mode:
///   its two allocator replays plus closed-form timing;
/// * pipeline_rest — the warm pipeline run of a static-plan mode: policy,
///   schedule and metrics.
fn replay(w: &Workload, op: u64, tracer: &mut Tracer, counts: &mut Vec<(&'static str, f64)>) {
    let mut count = |name, v: u64| add_count(counts, name, v as f64);
    let cache = ProfileCache::global();
    clear_caches();
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    for system in SystemSpec::ALL_MODES {
        let st = PipelineStages::for_spec(system);
        let pipe = ExecutionPipeline::new(system);
        let configs = enumerate_configs(system, &w.model, w.n_gpus, gpn);
        // The search bypasses the cache on grids this small.
        let use_cache = configs.len() > SMALL_GRID_BYPASS;
        for cfg in configs {
            count("search.configs", 1);
            let scope = CacheStatsScope::enter();
            let (p, _) = tracer.span(PROFILER, op, || {
                cache.profile(w, &cfg, st.remat, st.materialize_logits, use_cache)
            });
            let lookups = scope.finish();
            count("profile_cache.hits", lookups.hits);
            count("profile_cache.misses", lookups.misses);
            if !use_cache || lookups.misses > 0 {
                count("profiler.calls", 1);
                count("trace.requests", p.trace.len() as u64);
            }
            if !use_cache {
                // Untimed: the stages below run against a warm profile.
                cache.profile(w, &cfg, st.remat, st.materialize_logits, true);
            }
            let report = match st.backend {
                MemoryBackend::StaticPlan => {
                    // A warm-profile run looks the plan up only if the
                    // policy passed: one profile hit plus one plan lookup.
                    let probe = CacheStatsScope::enter();
                    pipe.execute_cached(w, &cfg, true);
                    let probe = probe.finish();
                    if probe.hits + probe.misses == 2 {
                        let computes = !use_cache || probe.misses == 1;
                        let (plan, _) = tracer.span(BILEVEL, op, || {
                            cache.plan(
                                w,
                                &cfg,
                                st.remat,
                                st.materialize_logits,
                                st.planner,
                                &p.trace,
                                !computes,
                            )
                        });
                        if computes {
                            count("bilevel.calls", 1);
                            let levels = [plan.layer_fwd, plan.layer_bwd, Some(plan.level2)];
                            for l in levels.into_iter().flatten() {
                                count("bnb.nodes", l.nodes);
                                count("bnb.unproven_solves", u64::from(!l.optimal));
                            }
                        }
                        if use_cache {
                            count("profile_cache.misses", u64::from(computes));
                            count("profile_cache.hits", u64::from(!computes));
                        }
                    }
                    tracer
                        .span(REST, op, || pipe.execute_cached(w, &cfg, true))
                        .0
                }
                MemoryBackend::CachingReplay { .. } => {
                    count("caching.replays", 1);
                    tracer
                        .span(CACHING, op, || pipe.execute_cached(w, &cfg, true))
                        .0
                }
            };
            count("search.feasible_configs", u64::from(report.outcome.is_ok()));
        }
    }
}
