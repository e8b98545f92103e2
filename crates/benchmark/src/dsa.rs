//! `dsa-chunked`: whole-trace DSA planning of token-chunked traces.
//!
//! One op plans one trace: `memo_model::chunked::for_each_request` feeds a
//! `DsaInstanceBuilder`, and `memo_plan::dispatch::solve` plans the whole
//! instance, which at these sizes means boxing. A round plans one trace
//! per stratum, from 0.27M intervals (30B) to the 1.01M-interval
//! MegaTrain regime (100B). The chunk count of a stratum fixes its
//! interval count and so its cost; the seed draws the chunk size, which
//! sets the tensor sizes, and a partial last chunk.
//!
//! Chunk sizes are split by stratum into powers of two and 1.5× powers of
//! two because boxing's height classes are powers of two, so the two
//! families pack differently; mixing them inside one stratum would let
//! the seed, not the planner, move `plan_quality`.

use crate::spans::{Tracer, OP};
use crate::{add_count, metrics, round_rng, Budget, Layers, Outcome, Round};
use memo_model::chunked::{for_each_request, ChunkedParams};
use memo_model::config::{DType, ModelConfig};
use memo_plan::boxing::{self, Candidate};
use memo_plan::dispatch::{self, DispatchOptions, DispatchSolution, PlannerBackend};
use memo_plan::{DsaInstance, DsaInstanceBuilder};
use rand::Rng;
use std::time::Instant;

/// A trace shape: the model, the chunks per layer, and the chunk sizes
/// the seed picks from.
#[derive(Debug, Clone)]
pub struct Stratum {
    pub model: ModelConfig,
    pub chunks: u64,
    pub chunk_tokens: &'static [u64],
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub strata: Vec<Stratum>,
    /// The trace planned during set-up.
    pub warmup: ChunkedParams,
    pub seed: u64,
}

const POW2: &[u64] = &[1024, 2048, 4096];
const POW2_X1_5: &[u64] = &[1536, 3072];

impl Inputs {
    pub fn chunked(seed: u64) -> Self {
        let stratum = |model, chunks, chunk_tokens| Stratum {
            model,
            chunks,
            chunk_tokens,
        };
        Inputs {
            strata: vec![
                stratum(ModelConfig::gpt_30b(), 256, POW2),
                stratum(ModelConfig::gpt_65b(), 384, POW2_X1_5),
                stratum(ModelConfig::gpt_100b(), 512, POW2),
            ],
            warmup: ChunkedParams {
                model: ModelConfig::gpt_30b(),
                dtype: DType::F16,
                seq_tokens: 64 * 2048,
                chunk_tokens: 2048,
            },
            seed,
        }
    }

    /// Round `r`: one trace per stratum.
    pub fn round(&self, r: usize) -> Vec<ChunkedParams> {
        let mut rng = round_rng(self.seed, 0xD5A, r);
        self.strata
            .iter()
            .map(|s| {
                let chunk = s.chunk_tokens[rng.gen_range(0..s.chunk_tokens.len())];
                // A remainder below one chunk keeps the chunk count.
                let short = rng.gen_range(0..chunk);
                ChunkedParams {
                    model: s.model.clone(),
                    dtype: DType::F16,
                    seq_tokens: s.chunks * chunk - short,
                    chunk_tokens: chunk,
                }
            })
            .collect()
    }
}

fn build(p: &ChunkedParams) -> DsaInstance {
    let mut builder = DsaInstanceBuilder::new();
    for_each_request(p, |r| builder.push(r));
    builder
        .finish()
        .expect("chunked traces free every tensor they allocate")
}

/// Output check: a valid placement between the liveness bound and
/// boxing's certificate.
fn valid(inst: &DsaInstance, sol: &DispatchSolution) -> bool {
    let peak = sol.assignment.peak;
    let checked = sol.assignment.validate(inst).and_then(|()| {
        if sol.lower_bound <= peak && sol.guarantee.is_none_or(|g| peak <= g) {
            Ok(())
        } else {
            Err(format!(
                "peak {peak} outside [{}, {:?}]",
                sol.lower_bound, sol.guarantee
            ))
        }
    });
    if let Err(e) = &checked {
        eprintln!("dsa: {} intervals: {e}", inst.len());
    }
    checked.is_ok()
}

pub fn run(inputs: &Inputs, budget: &Budget, trace: bool) -> Outcome {
    let opts = DispatchOptions::default();
    let mut o = Outcome::default();
    o.set_up(budget, || {
        let _ = inputs.round(0);
        let _ = dispatch::solve(&build(&inputs.warmup), &opts);
    });

    let (mut packing, mut intervals) = (Vec::new(), 0u64);
    while o.more(budget) {
        let mut round = Round::default();
        for p in inputs.round(o.rounds.len()) {
            o.between_ops();
            let t0 = Instant::now();
            let inst = build(&p);
            let sol = dispatch::solve(&inst, &opts);
            let secs = t0.elapsed().as_secs_f64();
            round.secs += secs;
            round.latencies.push(secs);
            o.ops += 1;
            intervals += inst.len() as u64;
            o.ops_failed += u64::from(!valid(&inst, &sol));
            if o.in_quality_rounds(budget) {
                packing.push(sol.lower_bound as f64 / sol.assignment.peak as f64);
            }
        }
        o.end_round(budget, round);
    }
    // Geometric mean of lower bound / peak: 1 is a provably optimal packing.
    o.quality = metrics::geomean(&packing);
    let worst = packing.iter().copied().fold(f64::INFINITY, f64::min);
    o.extra = vec![
        ("dsa_gap_geomean", 1.0 / o.quality, "ratio"),
        ("dsa_gap_max", 1.0 / worst, "ratio"),
        (
            "dsa_intervals_per_s",
            intervals as f64 / o.rounds.iter().map(|r| r.secs).sum::<f64>(),
            "1/s",
        ),
    ];
    if trace {
        o.layers = Some(traced(inputs, budget, &opts, &o.quality_latencies(budget)));
    }
    o
}

const LANES: &[&str] = &["op", "dsa_builder", "dispatch", "validate"];
const BUILDER: usize = 1;
const DISPATCH: usize = 2;
const VALIDATE: usize = 3;

/// The first `min_rounds` rounds again: each op as a span whose two
/// children, the builder and the dispatch, cover it; then the output
/// check as its own span. Which boxing candidate won is read from an
/// untimed `boxing::solve_with` of the same instance.
fn traced(inputs: &Inputs, budget: &Budget, opts: &DispatchOptions, untraced: &[f64]) -> Layers {
    let mut tracer = Tracer::new(LANES);
    let mut counts = Vec::new();
    let params: Vec<ChunkedParams> = (0..budget.min_rounds)
        .flat_map(|r| inputs.round(r))
        .collect();
    for (op, p) in params.iter().enumerate() {
        let op = op as u64;
        let start = Instant::now();
        let (inst, _) = tracer.span(BUILDER, op, || build(p));
        let (sol, _) = tracer.span(DISPATCH, op, || dispatch::solve(&inst, opts));
        tracer.record(OP, op, start, start.elapsed().as_secs_f64());
        tracer.span(VALIDATE, op, || sol.assignment.validate(&inst).is_ok());

        add_count(&mut counts, "dsa.intervals", inst.len() as f64);
        let backend = match sol.backend {
            PlannerBackend::Exact => "dispatch.exact",
            PlannerBackend::BestFit => "dispatch.best_fit",
            PlannerBackend::Boxing => "dispatch.boxing",
        };
        add_count(&mut counts, backend, 1.0);
        if sol.backend != PlannerBackend::Exact {
            match boxing::solve_with(&inst, &opts.boxing).stats.candidate {
                Candidate::RecursiveBoxes => add_count(&mut counts, "boxing.recursive_boxes", 1.0),
                Candidate::StackedBands => add_count(&mut counts, "boxing.stacked_bands", 1.0),
                Candidate::BestFit => {}
            }
        }
    }
    Layers {
        busy: tracer.layer_busy(),
        counts,
        overhead_pct: tracer.overhead_pct(untraced),
        tracer,
    }
}
