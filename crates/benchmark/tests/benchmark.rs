//! Seeding, the statistics helpers, the comparison rules, and every
//! workload run at a tiny size against the metric lists of
//! `BENCHMARK.json`.

use memo_benchmark::compare::{self, Bound, Verdict};
use memo_benchmark::metrics::{self, Better};
use memo_benchmark::{dsa, fleet, search, speed, Budget, Outcome, Round};
use memo_model::chunked::ChunkedParams;
use memo_model::config::{DType, ModelConfig};
use memo_obs::json::{parse, Json};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn spec_names(list: &str) -> Vec<String> {
    spec()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    for (a, b, c) in [
        (
            search::Inputs::long(1),
            search::Inputs::long(1),
            search::Inputs::long(2),
        ),
        (
            search::Inputs::short(1),
            search::Inputs::short(1),
            search::Inputs::short(2),
        ),
    ] {
        assert_eq!(a.round(0), b.round(0));
        assert_eq!(a.round(3), b.round(3));
        assert_ne!(a.round(0), c.round(0));
        let n = a.groups.len();
        assert_ne!(a.round(0), a.round(n), "rounds draw afresh");
        // Round r covers every stratum of its group once.
        for r in 0..2 * n {
            let mut strata: Vec<_> = a
                .round(r)
                .into_iter()
                .map(|c| (c.model.name, c.n_gpus, c.seq_len))
                .collect();
            strata.sort();
            let mut expected: Vec<_> = a.groups[r % n]
                .iter()
                .map(|(m, g, s)| (m.name, *g, *s))
                .collect();
            expected.sort();
            assert_eq!(strata, expected);
        }
    }

    let (f1, f2) = (fleet::Inputs::mixed(1), fleet::Inputs::mixed(2));
    assert_eq!(f1.round(0), fleet::Inputs::mixed(1).round(0));
    assert_ne!(f1.round(0), f2.round(0));
    assert_ne!(f1.round(0), f1.round(1));
    assert_ne!(f1.warmup(), f1.round(0));

    let (d1, d2) = (dsa::Inputs::chunked(1), dsa::Inputs::chunked(2));
    assert_eq!(d1.round(0), dsa::Inputs::chunked(1).round(0));
    assert_ne!(d1.round(0), d2.round(0));
    for (p, s) in d1.round(0).iter().zip(&d1.strata) {
        assert_eq!(p.chunks(), s.chunks, "the seed never moves the cost");
        assert!(s.chunk_tokens.contains(&p.chunk_tokens));
    }
}

#[test]
fn helpers_match_hand_computed_values() {
    // Nearest rank: p50 of ten samples is the 5th smallest, p90 the 9th.
    let secs: Vec<f64> = [7, 3, 10, 1, 5, 9, 2, 8, 4, 6]
        .iter()
        .map(|ms| *ms as f64 / 1e3)
        .collect();
    let (p50, p90) = metrics::latency_ms(&secs);
    assert!((p50 - 5.0).abs() < 1e-9 && (p90 - 9.0).abs() < 1e-9);
    assert_eq!(metrics::latency_ms(&[0.25]), (250.0, 250.0));

    assert!((metrics::geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert!((metrics::geomean(&[1.0, 2.0, 4.0, 8.0]) - 8f64.sqrt()).abs() < 1e-12);
    assert_eq!(metrics::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(metrics::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);

    // statistics.quantiles(values, n=4), Python's default method.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(compare::quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(
        compare::quartiles(&[1.5, 2.5, 10.0, 4.0, 7.0, 3.25]),
        Some([2.25, 3.625, 7.75])
    );
    assert_eq!(compare::quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
    assert_eq!(compare::quartiles(&[1.0]), None);
}

#[test]
fn timings_are_scaled_to_the_nominal_machine_speed() {
    let n = speed::NOMINAL_SECS;
    let mut o = Outcome {
        setup_secs: vec![0.3, 0.1, 0.2],
        // The first repetition is scaled by the last sample, to 0.3 / 2.25.
        setup_spans: vec![(9.5, 10.0), (1.0, 2.0), (1.0, 2.0)],
        round_spans: vec![(2.0, 4.0), (4.0, 6.0), (6.0, 8.5)],
        rounds: vec![
            Round {
                secs: 1.0,
                latencies: vec![0.1; 10],
            };
            3
        ],
        ..Outcome::default()
    };
    // (when the sample ended, kernel seconds). The last two set-up
    // repetitions run at nominal speed on average; the kernel then runs
    // twice as fast around rounds 0 and 1, and takes 1.25 × nominal on
    // average over round 2, which has a sample inside it.
    o.speed.samples = vec![
        (1.0, 1.5 * n),
        (2.0, 0.5 * n),
        (6.0, 0.5 * n),
        (7.0, 1.0 * n),
        (9.0, 2.25 * n),
    ];
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);
    assert!(close(o.speed.factor(1.0, 2.0), 1.0));
    assert!(close(o.speed.factor(2.0, 4.0), 2.0));
    assert!(close(o.speed.factor(6.0, 8.5), 0.8));
    // Before the first sample or after the last, the nearest one counts.
    assert!(close(o.speed.factor(0.0, 0.5), 1.0 / 1.5));
    assert!(close(o.speed.factor(9.5, 10.0), 1.0 / 2.25));
    assert!(close(metrics::machine_speed(&o), 2.0));

    let value = |rows: &[(metrics::MetricDef, f64)], name: &str| {
        rows.iter().find(|(d, _)| d.name == name).unwrap().1
    };
    let scaled = metrics::end_to_end(&o);
    // Per-round throughput 5, 5 and 12.5 ops/s; latencies 200, 200, 80 ms.
    assert!(close(value(&scaled, "ops_per_s"), 5.0));
    assert!(close(value(&scaled, "op_ms_p50"), 200.0));
    assert!(close(value(&scaled, "setup_s"), 0.3 / 2.25));
    let wall = metrics::wall_clock(&o);
    assert!(close(value(&wall, "ops_per_s"), 10.0));
    assert!(close(value(&wall, "op_ms_p90"), 100.0));
    assert!(close(value(&wall, "setup_s"), 0.2));
}

#[test]
fn the_kernel_is_sampled_around_set_up_between_ops_and_after_the_run() {
    let budget = Budget {
        seconds: 1.0,
        min_rounds: 1,
        setup_reps: 2,
    };
    let mut o = Outcome::default();
    o.set_up(&budget, || {});
    assert_eq!(o.setup_secs.len(), 2);
    let [first, between, after] = o.speed.samples[..] else {
        panic!("one sample on either side of each set-up repetition");
    };
    let [a, b] = o.setup_spans[..] else {
        panic!("one span per set-up repetition");
    };
    assert!(first.0 <= a.0 && a.1 <= between.0 && between.0 <= b.0 && b.1 <= after.0);
    while o.more(&budget) {
        // Two 0.25 s ops per round, with no kernel sample due in between.
        o.between_ops();
        o.between_ops();
        let round = Round {
            secs: 0.5,
            latencies: vec![0.25; 2],
        };
        o.end_round(&budget, round);
    }
    assert_eq!(o.rounds.len(), 2);
    assert_eq!(o.round_spans.len(), 2);
    // Set-up, then the last round; none was due in between.
    assert_eq!(o.speed.samples.len(), 4);
    let last = o.speed.samples[3];
    assert!(o.round_spans[1].1 <= last.0);
    assert!(o.speed.samples.iter().all(|s| s.1 > 0.0));
}

fn bound(name: &str, better: Better, bound: f64) -> Bound {
    Bound {
        name: name.into(),
        better,
        bound,
    }
}

fn side(values: impl IntoIterator<Item = f64>) -> Vec<(u64, f64)> {
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64 + 1, v))
        .collect()
}

#[test]
fn compare_applies_the_bounds() {
    let parent = side((0..10).map(|i| 100.0 + f64::from(i % 3)));
    let b = bound("op_ms_p50", Better::Lower, 0.1);
    let verdict =
        |change: Vec<(u64, f64)>, b: &Bound| compare::judge(&parent, &change, b).unwrap().verdict;
    assert_eq!(verdict(parent.clone(), &b), Verdict::Unchanged);
    assert_eq!(
        verdict(side((0..10).map(|i| 120.0 + f64::from(i % 3))), &b),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(side((0..10).map(|i| 80.0 + f64::from(i % 3))), &b),
        Verdict::Improved
    );
    // Higher-is-better flips the direction.
    let tput = bound("ops_per_s", Better::Higher, 0.1);
    assert_eq!(
        verdict(side((0..10).map(|i| 80.0 + f64::from(i % 3))), &tput),
        Verdict::Regressed
    );
    // A parent spread wider than the bound cannot call a small move.
    let noisy = side((0..10).map(|i| 50.0 + 20.0 * f64::from(i)));
    let row = compare::judge(
        &noisy,
        &side((0..10).map(|i| 55.0 + 20.0 * f64::from(i))),
        &b,
    );
    assert_eq!(row.unwrap().verdict, Verdict::Unresolved);
    // Exact metrics must repeat per seed.
    let q = bound("plan_quality", Better::Higher, 0.01);
    assert_eq!(verdict(parent.clone(), &q), Verdict::Identical);
    let mut moved = parent.clone();
    moved[4].1 += 1e-9;
    assert_eq!(verdict(moved, &q), Verdict::Changed);
}

#[test]
fn benchmark_json_bounds_parse() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .unwrap();
    let bounds = compare::parse_bounds(&text).unwrap();
    let names: Vec<&str> = bounds.iter().map(|b| b.name.as_str()).collect();
    let ours: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names, ours);
    for (b, d) in bounds.iter().zip(&metrics::END_TO_END) {
        assert_eq!(b.better, d.better, "{}", d.name);
        assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", d.name);
    }
}

const TINY: Budget = Budget {
    seconds: 0.0,
    min_rounds: 1,
    setup_reps: 1,
};

/// The run's metric output is exactly BENCHMARK.json's lists, every value
/// a finite number, and it survives a JSON round trip.
fn check_emits_every_metric(o: &Outcome) {
    assert_eq!(o.ops_failed, 0, "output checks failed");
    assert!(o.ops >= 1 && o.rounds.len() == 1);
    let e2e = metrics::end_to_end(o);
    let per_layer = metrics::per_layer(o.layers.as_ref().expect("traced run"));
    for (rows, list) in [(e2e, "end_to_end"), (per_layer, "per_layer")] {
        let names: Vec<String> = rows.iter().map(|(d, _)| d.name.to_string()).collect();
        assert_eq!(names, spec_names(list), "{list}");
        for (d, v) in &rows {
            assert!(v.is_finite(), "{} = {v}", d.name);
        }
        let doc = parse(&metrics::to_json(&rows).to_string()).expect("metrics JSON parses");
        for (d, v) in &rows {
            let entry = doc.get(d.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(*v));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
        }
    }
    for name in [
        "ops_per_s",
        "op_ms_p50",
        "op_ms_p90",
        "setup_s",
        "peak_rss_mib",
    ] {
        let (_, v) = metrics::end_to_end(o)
            .into_iter()
            .find(|(d, _)| d.name == name)
            .unwrap();
        assert!(v > 0.0, "{name} = {v}");
    }
}

#[test]
fn search_runs_at_a_tiny_size() {
    let cell = search::Cell {
        model: ModelConfig::gpt_7b(),
        n_gpus: 8,
        seq_len: 16 << 10,
        host_dram_gib: 1024,
        pcie_gbps: 32,
    };
    let inputs = search::Inputs {
        groups: vec![vec![(cell.model.clone(), cell.n_gpus, cell.seq_len)]],
        warmup: cell,
        seed: 7,
    };
    let o = search::run(&inputs, &TINY, true);
    assert_eq!(o.ops, 1);
    assert!(o.quality > 0.0 && o.quality < 1.0, "mean MFU {}", o.quality);
    check_emits_every_metric(&o);
    let layers = o.layers.as_ref().unwrap();
    let count = |n: &str| layers.counts.iter().find(|(c, _)| *c == n).unwrap().1;
    assert!(count("search.configs") >= count("search.feasible_configs"));
    assert!(count("profiler.calls") > 0.0 && count("caching.replays") > 0.0);
    assert!(layers.tracer.spans().iter().any(|s| s.lane == 0));
}

#[test]
fn fleet_runs_at_a_tiny_size() {
    let inputs = fleet::Inputs {
        tenants: 6,
        requests: 24,
        seed: 7,
    };
    let o = fleet::run(&inputs, &TINY, true);
    assert_eq!(o.ops, 48, "warm-up stream plus one timed stream");
    assert!(o.quality > 0.0 && o.quality <= 1.0);
    check_emits_every_metric(&o);
}

#[test]
fn dsa_runs_at_a_tiny_size() {
    let model = ModelConfig::tiny(4, 64, 4, 128);
    let inputs = dsa::Inputs {
        strata: vec![dsa::Stratum {
            model: model.clone(),
            chunks: 8,
            chunk_tokens: &[64, 96],
        }],
        warmup: ChunkedParams {
            model,
            dtype: DType::F16,
            seq_tokens: 256,
            chunk_tokens: 64,
        },
        seed: 7,
    };
    let o = dsa::run(&inputs, &TINY, true);
    assert_eq!(o.ops, 1);
    assert!(o.quality > 0.0 && o.quality <= 1.0, "packing {}", o.quality);
    check_emits_every_metric(&o);
}
