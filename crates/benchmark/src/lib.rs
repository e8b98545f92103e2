//! # memo-benchmark — one seeded benchmark for the planner, the fleet and DSA
//!
//! Four workloads drive memo-rs through its public APIs only:
//!
//! * [`search`] — cold `memo-sim --all` strategy searches, in a long-context
//!   regime (`search-long`) and a short-context regime where exact
//!   branch-and-bound dominates (`search-short`);
//! * [`fleet`] — Zipfian mixed training/serving streams through
//!   `memo_serve::PlanServer` (`fleet-mixed`);
//! * [`dsa`] — million-interval token-chunked traces planned whole by
//!   `memo_plan::dispatch` (`dsa-chunked`).
//!
//! A run is a sequence of *rounds*. A round always covers the same strata
//! (models, cluster sizes, trace shapes); the seed draws what varies inside
//! a stratum and the order. Every run completes `min_rounds` rounds, which
//! fix the deterministic `plan_quality` and the traced replay, and keeps
//! starting rounds until its timed work adds up to the requested seconds.
//! Timings are taken per round and reported as the median over the rounds;
//! fixed strata per round are what make rounds, and seeds, comparable.
//! A reference kernel timed between ops ([`speed`]) scales every timing
//! to one nominal machine speed, so a slow stretch of a shared host does
//! not read as a slow program.
//!
//! With tracing on, the run then replays its first rounds through each
//! layer's public functions, recording one span per call ([`spans`]), and
//! reports the per-layer numbers of [`metrics::PER_LAYER`].

pub mod compare;
pub mod dsa;
pub mod fleet;
pub mod metrics;
pub mod search;
pub mod spans;
pub mod speed;

use spans::Tracer;
use speed::Speed;

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Keep starting rounds until the timed work adds up to this.
    pub seconds: f64,
    /// Rounds every run completes, whatever the clock says.
    pub min_rounds: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Per-layer numbers of a traced run.
#[derive(Debug)]
pub struct Layers {
    /// Every span of the traced passes.
    pub tracer: Tracer,
    /// Busy seconds per layer, summed over that layer's spans.
    pub busy: Vec<(&'static str, f64)>,
    /// Counts read from the values the layers returned.
    pub counts: Vec<(&'static str, f64)>,
    /// Traced end-to-end spans against the untraced timings of the same
    /// ops, in percent.
    pub overhead_pct: f64,
}

/// The timed work of one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Timed seconds of the round.
    pub secs: f64,
    /// Latency of every completed op (search cell, planned fleet request,
    /// DSA trace), seconds.
    pub latencies: Vec<f64>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition.
    pub setup_secs: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Ops attempted: search cells, fleet requests, DSA traces.
    pub ops: u64,
    /// Ops whose output check failed.
    pub ops_failed: u64,
    /// Deterministic plan quality over the first `min_rounds` rounds.
    pub quality: f64,
    /// Peak resident set size once the first `min_rounds` rounds are done:
    /// later rounds only add allocator fragmentation, and how many there
    /// are depends on the machine's speed.
    pub peak_rss_mib: Option<f64>,
    /// Workload-specific numbers that are printed and written but are not
    /// benchmark metrics: (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Present on traced runs.
    pub layers: Option<Layers>,
    /// Reference-kernel samples taken between ops.
    pub speed: Speed,
    /// When each set-up repetition ran, on the clock of `speed`.
    pub setup_spans: Vec<(f64, f64)>,
    /// When each round ran, on the clock of `speed`.
    pub round_spans: Vec<(f64, f64)>,
}

impl Outcome {
    /// Run `set_up` `budget.setup_reps` times, timing each repetition,
    /// with a kernel sample on either side of each.
    pub fn set_up(&mut self, budget: &Budget, mut set_up: impl FnMut()) {
        for _ in 0..budget.setup_reps {
            self.speed.sample();
            let start = self.speed.now();
            set_up();
            let end = self.speed.now();
            self.setup_secs.push(end - start);
            self.setup_spans.push((start, end));
        }
        self.speed.sample();
    }

    /// Whether another round should start under `budget`; if so, the
    /// round starts now. Takes a kernel sample when one is due, and always
    /// after the last round.
    pub fn more(&mut self, budget: &Budget) -> bool {
        let timed: f64 = self.rounds.iter().map(|r| r.secs).sum();
        let more = self.rounds.len() < budget.min_rounds || timed < budget.seconds;
        if more {
            self.speed.sample_if_due();
            let now = self.speed.now();
            self.round_spans.push((now, now));
        } else {
            self.speed.sample();
        }
        more
    }

    /// Call between two ops of a round: takes a kernel sample when one is
    /// due, so that long rounds are sampled inside too.
    pub fn between_ops(&mut self) {
        self.speed.sample_if_due();
    }

    /// Whether the current round is one of the first `min_rounds`.
    pub fn in_quality_rounds(&self, budget: &Budget) -> bool {
        self.rounds.len() < budget.min_rounds
    }

    /// Close a round of `budget`.
    pub fn end_round(&mut self, budget: &Budget, round: Round) {
        let now = self.speed.now();
        let span = self
            .round_spans
            .last_mut()
            .expect("more() starts every round");
        span.1 = now;
        self.rounds.push(round);
        if self.rounds.len() == budget.min_rounds {
            self.peak_rss_mib = metrics::peak_rss_mib();
        }
    }

    /// Op latencies of the first `min_rounds` rounds, in order.
    pub fn quality_latencies(&self, budget: &Budget) -> Vec<f64> {
        self.rounds[..budget.min_rounds]
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect()
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Rounds every run completes (see [`Budget::min_rounds`]).
    pub min_rounds: usize,
    /// Run it at full size: (seed, budget, trace).
    pub run: fn(u64, &Budget, bool) -> Outcome,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "search-long",
        min_rounds: 2,
        run: |seed, budget, trace| search::run(&search::Inputs::long(seed), budget, trace),
    },
    WorkloadDef {
        name: "search-short",
        min_rounds: 3,
        run: |seed, budget, trace| search::run(&search::Inputs::short(seed), budget, trace),
    },
    WorkloadDef {
        name: "fleet-mixed",
        min_rounds: 20,
        run: |seed, budget, trace| fleet::run(&fleet::Inputs::mixed(seed), budget, trace),
    },
    WorkloadDef {
        name: "dsa-chunked",
        min_rounds: 2,
        run: |seed, budget, trace| dsa::run(&dsa::Inputs::chunked(seed), budget, trace),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A generator for round `r` of seed `seed`: the same pair always yields
/// the same inputs. `salt` keeps workloads that share a seed apart.
pub fn round_rng(seed: u64, salt: u64, r: usize) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .rotate_left(17)
        ^ (r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    rand::rngs::StdRng::seed_from_u64(mixed)
}

/// Add `v` to the count `name`, creating it at 0.
pub fn add_count(counts: &mut Vec<(&'static str, f64)>, name: &'static str, v: f64) {
    match counts.iter_mut().find(|(n, _)| *n == name) {
        Some(entry) => entry.1 += v,
        None => counts.push((name, v)),
    }
}

/// Fisher–Yates shuffle on the workspace's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
