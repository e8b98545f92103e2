//! Randomized and scale coverage for the whole-model DSA planner stack:
//! the boxing solver's invariants, the size-based dispatch thresholds, the
//! sweep validator against its quadratic oracle, the interval index
//! against the linear-scan `conflicts_of`, and boxing against the exact
//! branch-and-bound optimum on a seeded corpus.

use memo_model::trace::TensorId;
use memo_plan::bnb::{self, BnbOptions};
use memo_plan::boxing::{self, BoxingOptions};
use memo_plan::dispatch::{self, DispatchOptions, PlannerBackend};
use memo_plan::synth::{megatrain_instance, MegaTrainParams};
use memo_plan::{Assignment, DsaInstance, DsaTensor, IntervalIndex};
use proptest::prelude::*;

/// Arbitrary instances: jittered sizes (including zero-size markers) over
/// random sub-intervals of a short horizon.
fn inst_strategy(max_n: usize) -> impl Strategy<Value = DsaInstance> {
    prop::collection::vec((0u64..1024, 0usize..96, 1usize..48), 1..max_n).prop_map(|raw| {
        DsaInstance {
            tensors: raw
                .into_iter()
                .enumerate()
                .map(|(i, (size, birth, len))| DsaTensor {
                    id: TensorId(i as u64),
                    size,
                    birth,
                    death: birth + len,
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Tentpole invariant: every boxing assignment validates, sits at or
    // above the liveness lower bound, and within the certified guarantee.
    #[test]
    fn boxing_always_validates_and_respects_bounds(inst in inst_strategy(120)) {
        let sol = boxing::solve(&inst);
        sol.assignment.validate(&inst).unwrap();
        prop_assert!(sol.assignment.peak >= sol.lower_bound);
        prop_assert!(sol.assignment.peak <= sol.guarantee);
    }

    // The two validators are behaviourally identical on arbitrary
    // (instance, offsets) pairs — valid and invalid alike — except for
    // overflow, which only the checked sweep path reports.
    #[test]
    fn sweep_validator_matches_quadratic_oracle(
        inst in inst_strategy(60),
        salt in prop::collection::vec(0u64..64, 60..61),
    ) {
        let offsets: Vec<u64> = inst
            .tensors
            .iter()
            .zip(salt.iter().cycle())
            .map(|(_, s)| s * 32)
            .collect();
        let peak = inst
            .tensors
            .iter()
            .zip(&offsets)
            .map(|(t, o)| o + t.size)
            .max()
            .unwrap_or(0);
        let a = Assignment { offsets, peak };
        prop_assert_eq!(
            a.validate(&inst).is_ok(),
            a.validate_naive(&inst).is_ok(),
            "sweep and naive validators disagree"
        );
    }

    // The sweep-line interval index reproduces the linear-scan oracle
    // exactly (same rows, same ascending order) at sizes the quadratic
    // path can still afford.
    #[test]
    fn interval_index_matches_conflicts_of(inst in inst_strategy(90)) {
        let adjacency = IntervalIndex::new(&inst).adjacency(&inst);
        for (i, row) in adjacency.iter().enumerate() {
            prop_assert_eq!(row, &inst.conflicts_of(i));
        }
    }

    // Documented dispatch thresholds: `n ≤ exact.max_tensors` (40) goes to
    // BnB; larger instances go to the boxing family, whose winner is
    // reported as Boxing or BestFit depending on which candidate won.
    #[test]
    fn dispatch_respects_documented_thresholds(inst in inst_strategy(120)) {
        // Default thresholds, but a small node budget: the routing decision
        // under test is size-based and independent of how long BnB searches.
        let mut opts = DispatchOptions::default();
        opts.exact.node_limit = 20_000;
        prop_assert_eq!(opts.exact.max_tensors, BnbOptions::default().max_tensors);
        let sol = dispatch::solve(&inst, &opts);
        sol.assignment.validate(&inst).unwrap();
        if inst.len() <= opts.exact.max_tensors {
            prop_assert_eq!(sol.backend, PlannerBackend::Exact);
            prop_assert!(sol.guarantee.is_none());
        } else {
            prop_assert!(sol.backend != PlannerBackend::Exact);
            let g = sol.guarantee.expect("boxing path certifies a gap");
            prop_assert!(sol.assignment.peak <= g);
        }
    }
}

// With the best-fit portfolio disabled, the dispatcher can only report the
// pure boxing candidates — the last-resort backend never appears.
#[test]
fn best_fit_is_last_resort_only() {
    let inst = DsaInstance {
        tensors: (0..60)
            .map(|i| DsaTensor {
                id: TensorId(i),
                size: 64 + i,
                birth: 0,
                death: 10,
            })
            .collect(),
    };
    let no_portfolio = DispatchOptions {
        boxing: BoxingOptions {
            portfolio_max_tensors: 0,
        },
        ..DispatchOptions::default()
    };
    let sol = dispatch::solve(&inst, &no_portfolio);
    assert_eq!(sol.backend, PlannerBackend::Boxing);
    let sol = dispatch::solve(&inst, &DispatchOptions::default());
    assert_ne!(sol.backend, PlannerBackend::Exact, "above exact threshold");
}

// A mid-scale MegaTrain instance (≈54k intervals): boxing must stay within
// its certificate and validate end to end through the dispatch policy.
#[test]
fn megatrain_midscale_plans_within_certificate() {
    let params = MegaTrainParams {
        layers: 12,
        chunks_per_layer: 100,
        transients_per_chunk: 10,
        transient_bytes: 1 << 20,
        resident_bytes: 64 << 20,
        seed: 42,
    };
    let inst = megatrain_instance(&params);
    assert!(
        inst.len() > 25_000,
        "mid-scale instance, got {}",
        inst.len()
    );
    let sol = dispatch::solve(&inst, &DispatchOptions::default());
    sol.assignment.validate(&inst).unwrap();
    assert!(sol.assignment.peak >= sol.lower_bound);
    assert!(sol.assignment.peak <= sol.guarantee.expect("boxing path"));
}

/// xorshift64* — deterministic corpus, no external RNG crates.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A seeded corpus instance: `n` tensors with jittered power-of-two-ish
/// sizes and random sub-intervals of a short event horizon.
fn corpus_instance(seed: u64, n: usize) -> DsaInstance {
    let mut rng = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
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

// Small instances where exact search completes: wherever BnB proves
// optimality, boxing (best-fit portfolio and compaction polish included)
// lands on the same peak, and the dispatched plan sits in its bounds.
#[test]
fn boxing_matches_the_proven_optimum_on_the_seeded_corpus() {
    let mut proven = 0;
    for seed in 1..=12u64 {
        let n = 20 + (seed as usize % 3) * 4; // 20, 24, 28
        let inst = corpus_instance(seed, n);
        let sol = dispatch::solve(&inst, &DispatchOptions::default());
        sol.assignment.validate(&inst).unwrap();
        assert!(sol.assignment.peak >= sol.lower_bound, "seed {seed}");
        assert!(sol.guarantee.is_none_or(|g| sol.assignment.peak <= g));
        let exact = bnb::solve(&inst, BnbOptions::default());
        let boxed = boxing::solve(&inst);
        boxed.assignment.validate(&inst).unwrap();
        if exact.optimal {
            proven += 1;
            assert_eq!(
                boxed.assignment.peak, exact.assignment.peak,
                "seed {seed}: boxing missed the BnB optimum"
            );
        }
    }
    assert!(proven >= 8, "only {proven} corpus cells proven");
}
