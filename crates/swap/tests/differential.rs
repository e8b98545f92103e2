//! Differential suite: the scalar schedule ([`build_schedule_scalars`],
//! steady-state splicing) vs the recorded event-machinery simulation
//! ([`build_schedule`]) vs the verbatim pre-fast-path builder
//! (`memo_swap::reference`).
//!
//! Every cell asserts bit-identical makespans, forward ends, per-stream
//! cursors, busy times, host peaks and post-run host usage across all three
//! builders — and identical span and mark slices between the recorded run
//! and the reference. OOHM failures must
//! produce identical error values and leave the host tracker in the same
//! state. The reference only knows the paper's uniform schedule, so those
//! cells drive [`build_schedule`] with [`LayerSegment::uniform`]; mixed
//! layouts (recompute runs, several swap runs) check the spliced scalar
//! path against the full event loop.

use memo_hal::engine::StreamId;
use memo_hal::time::SimTime;
use memo_swap::reference as ref_sched;
use memo_swap::schedule::{
    build_schedule, build_schedule_scalars, LayerCosts, LayerSegment, SegmentPolicy, TierTraffic,
};
use memo_swap::tiers::TierStaging;

/// A schedule scenario: one cell of the differential grid.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n_layers: usize,
    slots: usize,
    costs: LayerCosts,
    t_head: SimTime,
    host_capacity: u64,
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// `transfer_ratio` × t_fwd of per-layer transfer time.
fn costs(t_fwd_ms: u64, transfer_ratio: f64, t_remat_ms: u64, bytes: u64) -> LayerCosts {
    let t_fwd = ms(t_fwd_ms);
    LayerCosts::single_tier(
        t_fwd,
        ms(2 * t_fwd_ms),
        ms(t_remat_ms),
        bytes,
        bytes as f64 / (t_fwd.as_secs_f64() * transfer_ratio).max(1e-12),
    )
}

fn scenarios() -> Vec<Scenario> {
    let b = 1_000_000u64;
    let roomy = u64::MAX / 2;
    let mut out = Vec::new();
    // Layer-count sweep at the three transfer regimes (hiding, balanced,
    // bandwidth-bound), with and without token-wise recompute.
    for n_layers in [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 48, 96] {
        for &(ratio, remat) in &[(0.5, 0), (1.0, 3), (2.0, 4)] {
            out.push(Scenario {
                n_layers,
                slots: 2,
                costs: costs(10, ratio, remat, b),
                t_head: ms(5),
                host_capacity: roomy,
            });
        }
    }
    // Slot-count ablation (3 and 4 rotating buffers).
    for slots in [3, 4] {
        for n_layers in [slots, slots + 1, 2 * slots, 2 * slots + 1, 24, 95] {
            out.push(Scenario {
                n_layers,
                slots,
                costs: costs(10, 1.5, 2, b),
                t_head: ms(5),
                host_capacity: roomy,
            });
        }
    }
    // Zero head block, zero offload bytes, deeper tiers in play.
    out.push(Scenario {
        n_layers: 24,
        slots: 2,
        costs: costs(10, 1.2, 2, b),
        t_head: SimTime::ZERO,
        host_capacity: roomy,
    });
    out.push(Scenario {
        n_layers: 24,
        slots: 2,
        costs: LayerCosts::single_tier(ms(10), ms(20), ms(0), 0, 1e9),
        t_head: ms(5),
        host_capacity: roomy,
    });
    let mut nvme = costs(10, 0.7, 1, b);
    let host_bw = nvme.traffic.get(0).unwrap().bandwidth;
    nvme.traffic.push(TierTraffic {
        bytes: b / 2,
        bandwidth: host_bw / 3.0,
        latency_secs: 0.0,
    });
    out.push(Scenario {
        n_layers: 40,
        slots: 2,
        costs: nvme,
        t_head: ms(5),
        host_capacity: roomy,
    });
    // A four-deep chain (host -> CXL -> NVMe) with a latency-bearing tier.
    let mut chain = costs(10, 0.6, 2, b);
    chain.traffic.push(TierTraffic {
        bytes: b / 4,
        bandwidth: host_bw / 2.0,
        latency_secs: 250e-9,
    });
    chain.traffic.push(TierTraffic {
        bytes: b / 8,
        bandwidth: host_bw / 5.0,
        latency_secs: 2e-3,
    });
    out.push(Scenario {
        n_layers: 40,
        slots: 2,
        costs: chain,
        t_head: ms(5),
        host_capacity: roomy,
    });
    // OOHM cells: capacity for 0, 1, 3, 10 layers (failures before, inside
    // and after the point where the splice kicks in), plus an exact fit.
    for layers_fit in [0u64, 1, 3, 10] {
        out.push(Scenario {
            n_layers: 24,
            slots: 2,
            costs: costs(10, 1.0, 2, b),
            t_head: ms(5),
            host_capacity: layers_fit * b + b / 2,
        });
    }
    out.push(Scenario {
        n_layers: 24,
        slots: 2,
        costs: costs(10, 1.0, 2, b),
        t_head: ms(5),
        host_capacity: 22 * b, // exactly the swapped footprint
    });
    out
}

fn streams() -> [StreamId; 3] {
    [StreamId(0), StreamId(1), StreamId(2)]
}

/// Staging pools for a scenario: the host pool carries the scenario's
/// capacity, deeper tiers are unbounded (their binding failures have a
/// dedicated cell below).
fn staging_for(sc: &Scenario) -> TierStaging {
    let mut caps = vec![sc.host_capacity];
    for _ in 1..sc.costs.traffic.len() {
        caps.push(u64::MAX / 2);
    }
    TierStaging::new(&caps)
}

fn run_cell(sc: Scenario) {
    run_cell_with(sc, staging_for(&sc), staging_for(&sc), staging_for(&sc));
}

fn run_cell_with(
    sc: Scenario,
    mut host_ref: TierStaging,
    mut host_full: TierStaging,
    mut host_fast: TierStaging,
) {
    let reference = ref_sched::build_iteration_schedule_with_slots(
        sc.n_layers,
        sc.costs,
        sc.t_head,
        &mut host_ref,
        0,
        sc.slots,
    );
    let layout = LayerSegment::uniform(sc.n_layers, sc.slots, sc.costs);
    let full = build_schedule(&layout, sc.t_head, &mut host_full, sc.slots);
    let fast = build_schedule_scalars(&layout, sc.t_head, &mut host_fast, sc.slots);

    // Every tier's tracker must end in the same state in all three runs,
    // pass or fail.
    assert_eq!(host_ref, host_full, "{sc:?}: full host state diverged");
    assert_eq!(host_ref, host_fast, "{sc:?}: fast host state diverged");

    match (reference, full, fast) {
        (Err(e_ref), Err(e_full), Err(e_fast)) => {
            assert_eq!(e_ref, e_full, "{sc:?}: full OOHM diverged");
            assert_eq!(e_ref, e_fast, "{sc:?}: fast OOHM diverged");
        }
        (Ok(r), Ok(f), Ok(q)) => {
            assert_eq!(r.makespan, f.makespan, "{sc:?}: makespan");
            assert_eq!(r.forward_end, f.forward_end, "{sc:?}: forward_end");
            assert_eq!(r.compute_busy, f.compute_busy, "{sc:?}: compute_busy");
            assert_eq!(r.compute_idle, f.compute_idle, "{sc:?}: compute_idle");
            assert_eq!(r.host_peak, f.host_peak, "{sc:?}: host_peak");
            for s in streams() {
                assert_eq!(
                    r.timeline.stream_cursor(s),
                    f.timeline.stream_cursor(s),
                    "{sc:?}: cursor of stream {s:?}"
                );
                assert_eq!(
                    r.timeline.busy_time(s),
                    f.timeline.busy_time(s),
                    "{sc:?}: busy time of stream {s:?}"
                );
            }
            // The scalar build: the same numbers without a timeline.
            assert_eq!(r.makespan, q.makespan(), "{sc:?}: fast makespan");
            assert_eq!(r.forward_end, q.forward_end, "{sc:?}: fast forward_end");
            assert_eq!(r.compute_busy, q.compute_busy, "{sc:?}: fast compute_busy");
            assert_eq!(
                r.compute_idle,
                q.compute_idle(),
                "{sc:?}: fast compute_idle"
            );
            assert_eq!(r.host_peak, host_fast.host_peak(), "{sc:?}: fast host_peak");
            let cursors = [q.compute_end, q.offload_end, q.prefetch_end];
            let busy = [q.compute_busy, q.io_busy, q.io_busy];
            for ((s, cursor), busy) in streams().into_iter().zip(cursors).zip(busy) {
                assert_eq!(
                    r.timeline.stream_cursor(s),
                    cursor,
                    "{sc:?}: fast cursor of stream {s:?}"
                );
                assert_eq!(
                    r.timeline.busy_time(s),
                    busy,
                    "{sc:?}: fast busy time of stream {s:?}"
                );
            }
            // The recorded run must reproduce the reference span/mark streams
            // exactly: both builders record on the one engine.
            assert_eq!(
                r.timeline.spans(),
                f.timeline.spans(),
                "{sc:?}: span stream diverged"
            );
            assert_eq!(
                r.timeline.marks(),
                f.timeline.marks(),
                "{sc:?}: mark stream diverged"
            );
        }
        (r, f, q) => panic!(
            "{sc:?}: builders disagree on success: reference {:?} full {:?} fast {:?}",
            r.is_ok(),
            f.is_ok(),
            q.is_ok()
        ),
    }
}

#[test]
fn all_scenarios_bit_identical() {
    for sc in scenarios() {
        run_cell(sc);
    }
}

/// A dense layer-count × slot sweep: every boundary between the warm-up,
/// steady and tail regions, for several transfer regimes. This is the
/// guard against off-by-one errors in the splice window.
#[test]
fn exhaustive_small_grid() {
    for slots in 2..=4usize {
        for n_layers in 1..=3 * slots + 6 {
            for &(ratio, remat, head) in
                &[(0.5, 0u64, 0u64), (1.0, 2, 5), (2.0, 3, 5), (10.0, 0, 1)]
            {
                run_cell(Scenario {
                    n_layers,
                    slots,
                    costs: costs(7, ratio, remat, 999_983),
                    t_head: ms(head),
                    host_capacity: u64::MAX / 2,
                });
            }
        }
    }
}

/// Degenerate durations: zero-cost layers and transfers must not break the
/// recurrence (SimTime clamps degenerate floats to zero).
#[test]
fn zero_duration_edges() {
    for (f, b, r) in [(0u64, 0u64, 0u64), (0, 5, 0), (5, 0, 3)] {
        run_cell(Scenario {
            n_layers: 16,
            slots: 2,
            costs: LayerCosts::single_tier(ms(f), ms(b), ms(r), 1_000, 1e9),
            t_head: SimTime::ZERO,
            host_capacity: u64::MAX / 2,
        });
    }
}

/// Deep-tier overflow: the *second* pool binds while the host pool is
/// roomy. All three builders must fail with the identical tier-1 error and
/// leave identical pool states behind.
#[test]
fn deep_tier_oohm_bit_identical() {
    let b = 1_000_000u64;
    let mut costs = costs(10, 0.8, 1, b);
    let host_bw = costs.traffic.get(0).unwrap().bandwidth;
    costs.traffic.push(TierTraffic {
        bytes: b / 2,
        bandwidth: host_bw / 4.0,
        latency_secs: 0.0,
    });
    for layers_fit in [0u64, 1, 5, 9] {
        let sc = Scenario {
            n_layers: 24,
            slots: 2,
            costs,
            t_head: ms(5),
            host_capacity: u64::MAX / 2,
        };
        let staging = || TierStaging::new(&[u64::MAX / 2, layers_fit * (b / 2) + b / 8]);
        run_cell_with(sc, staging(), staging(), staging());
    }
}

/// Mixed layouts through the spliced scalar path vs the full event loop:
/// swap runs long enough to reach their steady state next to recompute
/// runs, a second swap run whose first layers kick prefetches into the
/// first run (the backward splice must stop where the kick targets leave
/// its run), two swap runs of equal costs, and staging that fails
/// part-way through a swap run.
#[test]
fn spliced_mixed_layouts_match_the_event_loop() {
    let b = 1_000_000u64;
    let head = ms(5);
    for slots in 2..=4usize {
        for swap in 0..=40usize {
            for recompute in 0..=5usize {
                for &(ratio, second_ratio) in &[(0.5, 1.7), (1.7, 0.6)] {
                    let first = costs(10, ratio, 3, b);
                    let second = costs(7, second_ratio, 2, b / 2);
                    let mut refwd = first;
                    refwd.t_recompute = ms(10);
                    let run = LayerSegment::new;
                    let layouts = [
                        vec![
                            run(swap, SegmentPolicy::Swap, first),
                            run(recompute, SegmentPolicy::Recompute, refwd),
                            run(slots, SegmentPolicy::Retained, first),
                        ],
                        vec![
                            run(recompute, SegmentPolicy::Recompute, refwd),
                            run(swap, SegmentPolicy::Swap, first),
                            run(slots, SegmentPolicy::Retained, second),
                        ],
                        vec![
                            run(swap, SegmentPolicy::Swap, first),
                            run(recompute, SegmentPolicy::Recompute, refwd),
                            run(slots + 3, SegmentPolicy::Swap, second),
                            run(slots, SegmentPolicy::Retained, second),
                        ],
                        // Two runs of one cost profile: a steady state
                        // carried over from the other run must not splice.
                        vec![
                            run(swap, SegmentPolicy::Swap, first),
                            run(recompute, SegmentPolicy::Recompute, refwd),
                            run(2 * slots + 3, SegmentPolicy::Swap, first),
                            run(slots, SegmentPolicy::Retained, first),
                        ],
                    ];
                    for layout in &layouts {
                        // Roomy, and room for half the first swap run (the
                        // failure lands inside it, past any splice point).
                        for capacity in [u64::MAX / 2, (swap as u64 / 2) * b + b / 2] {
                            check_mixed(layout, head, slots, capacity);
                        }
                    }
                }
            }
        }
    }
}

fn check_mixed(layout: &[LayerSegment], t_head: SimTime, slots: usize, capacity: u64) {
    let mut host_full = TierStaging::single(capacity);
    let mut host_fast = TierStaging::single(capacity);
    let full = build_schedule(layout, t_head, &mut host_full, slots);
    let fast = build_schedule_scalars(layout, t_head, &mut host_fast, slots);
    let ctx = format!("{layout:?} slots {slots} capacity {capacity}");
    assert_eq!(host_full, host_fast, "{ctx}: staging state diverged");
    match (full, fast) {
        (Err(e_full), Err(e_fast)) => assert_eq!(e_full, e_fast, "{ctx}: error"),
        (Ok(f), Ok(q)) => {
            let [c, o, p] = streams();
            assert_eq!(f.forward_end, q.forward_end, "{ctx}: forward_end");
            assert_eq!(f.makespan, q.makespan(), "{ctx}: makespan");
            assert_eq!(f.timeline.stream_cursor(c), q.compute_end, "{ctx}: compute");
            assert_eq!(f.timeline.stream_cursor(o), q.offload_end, "{ctx}: offload");
            assert_eq!(
                f.timeline.stream_cursor(p),
                q.prefetch_end,
                "{ctx}: prefetch"
            );
            assert_eq!(f.compute_busy, q.compute_busy, "{ctx}: compute busy");
            assert_eq!(f.compute_idle, q.compute_idle(), "{ctx}: compute idle");
            assert_eq!(f.timeline.busy_time(o), q.io_busy, "{ctx}: offload busy");
            assert_eq!(f.timeline.busy_time(p), q.io_busy, "{ctx}: prefetch busy");
            assert_eq!(f.host_peak, host_fast.host_peak(), "{ctx}: host peak");
        }
        (f, q) => panic!(
            "{ctx}: builders disagree on success: full {:?} fast {:?}",
            f.is_ok(),
            q.is_ok()
        ),
    }
}
