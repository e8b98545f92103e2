//! Property-based tests (proptest) for the core invariants listed in
//! DESIGN.md §6.

use memo::alloc::caching::CachingAllocator;
use memo::alloc::DeviceAllocator;
use memo::dist::groups::{Axis, RankGrid};
use memo::dist::iteration::{run_distributed_iteration, DistSpec};
use memo::hal::time::SimTime;
use memo::model::trace::TensorId;
use memo::plan::bnb::{self, BnbOptions};
use memo::plan::dsa::{DsaInstance, DsaTensor};
use memo::plan::heuristic;
use memo::swap::alpha::{solve_alpha, AlphaInputs};
use proptest::prelude::*;

fn arb_instance(max_n: usize) -> impl Strategy<Value = DsaInstance> {
    prop::collection::vec((1u64..64, 0usize..30, 1usize..10), 1..max_n).prop_map(|raw| {
        DsaInstance {
            tensors: raw
                .into_iter()
                .enumerate()
                .map(|(i, (size, birth, len))| DsaTensor {
                    id: TensorId(i as u64),
                    size: size * 512,
                    birth,
                    death: birth + len,
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// DSA invariant: heuristic assignments always validate and sit at or
    /// above the liveness lower bound.
    #[test]
    fn heuristic_always_valid(inst in arb_instance(40)) {
        let a = heuristic::solve(&inst);
        prop_assert!(a.validate(&inst).is_ok());
        prop_assert!(a.peak >= inst.lower_bound());
        prop_assert_eq!(a.peak, a.measured_peak(&inst));
    }

    /// Exact solver: never worse than the heuristic, never below the bound,
    /// and still valid.
    #[test]
    fn bnb_dominates_heuristic(inst in arb_instance(12)) {
        let h = heuristic::solve(&inst);
        let sol = bnb::solve(&inst, BnbOptions { node_limit: 200_000, max_tensors: 12 });
        prop_assert!(sol.assignment.validate(&inst).is_ok());
        prop_assert!(sol.assignment.peak <= h.peak);
        prop_assert!(sol.assignment.peak >= sol.lower_bound);
    }

    /// The α LP always returns a grid value satisfying both constraints.
    #[test]
    fn alpha_always_feasible(
        s_input in 1u64..1_000_000,
        s_attn in 1u64..1_000_000,
        s_others in 0u64..20_000_000,
        bandwidth in 1e6f64..1e11,
        t_layer in 1e-4f64..10.0,
        n_layers in 3usize..96,
        host in 1u64..(1u64 << 42),
    ) {
        let inp = AlphaInputs {
            s_input, s_attn, s_others, bandwidth,
            t_layer_fwd: t_layer, n_layers, host_capacity: host,
        };
        let sol = solve_alpha(&inp);
        prop_assert!((0.0..=1.0).contains(&sol.alpha));
        // grid check
        let steps = sol.alpha / 0.125;
        prop_assert!((steps - steps.round()).abs() < 1e-9);
        let swapped = (s_input + s_attn) as f64 + sol.alpha * s_others as f64;
        // If α > 0 was chosen, both constraints must hold at it.
        if sol.alpha > 0.0 {
            prop_assert!(swapped / bandwidth <= t_layer * (1.0 + 1e-9));
            prop_assert!((n_layers as f64 - 2.0) * swapped <= host as f64 * (1.0 + 1e-9));
        }
    }

    /// Caching allocator: reserved ≥ allocated at all times, and live blocks
    /// never overlap, under arbitrary malloc/free interleavings.
    #[test]
    fn caching_allocator_invariants(ops in prop::collection::vec((0u8..4, 1u64..(8 << 20)), 1..300)) {
        let mut alloc = CachingAllocator::new(1 << 40);
        let mut live: Vec<(TensorId, u64, u64)> = Vec::new();
        let mut next = 0u64;
        for (kind, bytes) in ops {
            if kind == 0 && !live.is_empty() {
                let (id, _, _) = live.swap_remove((bytes as usize) % live.len());
                alloc.free(id);
            } else {
                let id = TensorId(next);
                next += 1;
                let addr = alloc.malloc(id, bytes).expect("capacity is large");
                let rounded = bytes.div_ceil(512) * 512;
                for &(oid, oaddr, osz) in &live {
                    let overlap = addr < oaddr + osz && oaddr < addr + rounded;
                    prop_assert!(!overlap, "{:?} overlaps {:?}", id, oid);
                }
                live.push((id, addr, rounded));
            }
            prop_assert!(alloc.reserved_bytes() >= alloc.allocated_bytes());
        }
    }

    /// Trace generation is well-formed for arbitrary tiny model shapes.
    #[test]
    fn traces_always_validate(
        layers in 1usize..8,
        hidden_pow in 4u32..7,
        tokens in 16u64..512,
        comm in 1u64..5,
        policy_sel in 0u8..3,
    ) {
        use memo::model::activations::LayerDims;
        use memo::model::config::{DType, ModelConfig};
        use memo::model::trace::{generate, RematPolicy, SegmentKind, TraceParams};
        let hidden = 1usize << hidden_pow;
        let m = ModelConfig::tiny(layers, hidden, 2, 64);
        let dims = LayerDims::new(tokens, &m, DType::BF16);
        let policy = match policy_sel {
            0 => RematPolicy::KeepAll,
            1 => RematPolicy::FullRecompute,
            _ => RematPolicy::MemoTokenWise,
        };
        let mut p = TraceParams::new(&m, dims, policy);
        p.comm_factor = comm;
        let t = generate(&p);
        prop_assert!(t.validate().is_ok());
        // Every forward layer segment expands to the same (op, size)
        // sequence, and likewise every backward one.
        for fwd in [true, false] {
            let shapes: Vec<Vec<_>> = t
                .segments()
                .filter(|s| s.kind.is_transformer())
                .filter(|s| matches!(s.kind, SegmentKind::LayerFwd(_)) == fwd)
                .map(|s| s.requests().map(|r| (r.op, r.bytes)).collect())
                .collect();
            prop_assert_eq!(shapes.len(), layers);
            prop_assert!(shapes.windows(2).all(|w| w[0] == w[1]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank-grid groups always partition the world along every axis, and
    /// rank/coordinate mapping is a bijection.
    #[test]
    fn rank_grid_invariants(
        tp_pow in 0u32..3,
        cp_pow in 0u32..3,
        pp in 1usize..3,
        dp in 1usize..5,
    ) {
        let grid = RankGrid { tp: 1 << tp_pow, cp: 1 << cp_pow, pp, dp };
        for r in 0..grid.world() {
            prop_assert_eq!(grid.rank_of(grid.coords_of(r)), r);
        }
        for axis in [Axis::Tp, Axis::Cp, Axis::Pp, Axis::Dp] {
            let groups = grid.groups(axis);
            let mut all: Vec<usize> = groups.iter().flatten().cloned().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..grid.world()).collect::<Vec<_>>());
        }
    }

    /// Distributed iterations: jitter can only slow the cluster, the run is
    /// deterministic, and every rank's timeline stays causal.
    #[test]
    fn distributed_iteration_invariants(
        layers in 3usize..10,
        fwd_ms in 1u64..20,
        coll_ms in 0u64..3,
        off_ms in 0u64..15,
        jitter in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let grid = RankGrid { tp: 2, cp: 2, pp: 1, dp: 1 };
        let spec = DistSpec {
            layers,
            t_fwd: SimTime::from_millis(fwd_ms),
            t_bwd: SimTime::from_millis(2 * fwd_ms),
            t_collective: SimTime::from_millis(coll_ms),
            t_offload: SimTime::from_millis(off_ms),
            t_grad_sync: SimTime::ZERO,
            jitter,
            seed,
        };
        let clean = run_distributed_iteration(&grid, &DistSpec { jitter: 0.0, ..spec });
        let noisy = run_distributed_iteration(&grid, &spec);
        prop_assert!(noisy.makespan >= clean.makespan);
        let again = run_distributed_iteration(&grid, &spec);
        prop_assert_eq!(noisy.makespan, again.makespan);
        // lower bound: pure compute on one rank
        let compute = SimTime::from_millis(layers as u64 * 3 * fwd_ms);
        prop_assert!(clean.makespan >= compute);
    }

    /// Swap schedules: host staging always drains, makespan is bounded below
    /// by both the compute total and the offload-stream total.
    #[test]
    fn swap_schedule_invariants(
        layers in 1usize..24,
        fwd_ms in 1u64..30,
        ratio in 0.1f64..3.0,
        remat_ms in 0u64..10,
    ) {
        use memo::hal::engine::RecordLevel;
        use memo::swap::schedule::{build_schedule, LayerCosts, LayerSegment};
        use memo::swap::tiers::TierStaging;
        let bytes = 1_000_000u64;
        let t_fwd = SimTime::from_millis(fwd_ms);
        let costs = LayerCosts::single_tier(
            t_fwd,
            SimTime::from_millis(2 * fwd_ms),
            SimTime::from_millis(remat_ms),
            bytes,
            bytes as f64 / (t_fwd.as_secs_f64() * ratio),
        );
        let mut host = TierStaging::unbounded(1);
        let layout = LayerSegment::uniform(layers, 2, costs);
        let out = build_schedule(&layout, SimTime::ZERO, &mut host, 2, RecordLevel::Full).unwrap();
        prop_assert_eq!(host.host_used(), 0, "host must drain");
        let compute_total = SimTime::from_millis(layers as u64 * 3 * fwd_ms);
        prop_assert!(out.makespan >= compute_total);
        let swapping_layers = layers.saturating_sub(2) as u64;
        let offload_total =
            SimTime::from_secs_f64(t_fwd.as_secs_f64() * ratio * swapping_layers as f64);
        prop_assert!(
            out.makespan + SimTime::from_millis(1) >= offload_total,
            "offload stream is serial"
        );
    }
}
