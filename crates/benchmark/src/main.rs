//! The benchmark command line.
//!
//! ```text
//! memo-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! memo-benchmark compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]
//! ```
//!
//! `run` prints every metric by name with its unit, writes the result (and,
//! traced, a Chrome trace) under `--out-dir`, and ends its standard output
//! with one JSON line: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics, or the per-layer metrics when traced. It exits 1 when an
//! output check failed. `compare` reads the result files of two
//! directories and exits 1 when a metric regressed or an exact metric
//! changed.

use memo_benchmark::compare::{self, Verdict};
use memo_benchmark::metrics::{self, MetricDef};
use memo_benchmark::{workload, Budget, WorkloadDef, WORKLOADS};
use memo_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  memo-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
  memo-benchmark compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("compare") => compare_dirs(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("memo-benchmark: {msg}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

/// `--flag value` pairs, each flag at most once.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("{flag} given twice"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        out.push((flag, value));
    }
    Ok(out)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let given = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out-dir"],
    )?;
    let get = |flag: &str| given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v);
    let need = |flag: &str| get(flag).ok_or(format!("{flag} is required\n{USAGE}"));
    let name = need("--workload")?;
    let workload = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or("target/memo-benchmark")),
    })
}

fn print_table(title: &str, rows: &[(MetricDef, f64)]) {
    println!("{title}");
    for (d, v) in rows {
        println!("  {:<26} {v:>16.6} {}", d.name, d.unit);
    }
}

/// `[[a, b], …]`.
fn pairs(values: &[(f64, f64)]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|(a, b)| Json::Arr(vec![Json::num(*a), Json::num(*b)]))
            .collect(),
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &RunArgs) -> Result<ExitCode, String> {
    let budget = Budget {
        seconds: a.seconds,
        min_rounds: a.workload.min_rounds,
        setup_reps: SETUP_REPS,
    };
    let threads = memo_parallel::pool::available_workers();
    let o = (a.workload.run)(a.seed, &budget, a.trace);
    if o.peak_rss_mib.is_none() {
        return Err("cannot read VmHWM from /proc/self/status".into());
    }
    let e2e = metrics::end_to_end(&o);
    let wall = metrics::wall_clock(&o);
    let speed = metrics::machine_speed(&o);
    let correct = o.ops_failed == 0;

    println!(
        "{} seed {}: {} rounds, {} ops, {} failed checks, {threads} threads, machine speed {speed:.3} of nominal",
        a.workload.name,
        a.seed,
        o.rounds.len(),
        o.ops,
        o.ops_failed
    );
    print_table("end-to-end (timings at nominal machine speed)", &e2e);
    print_table("wall clock (timings as measured)", &wall);
    println!("workload detail");
    for (name, v, unit) in &o.extra {
        println!("  {name:<26} {v:>16.6} {unit}");
    }

    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        a.workload.name,
        a.seed,
        u8::from(a.trace)
    );
    let mut doc = vec![
        ("workload".to_string(), Json::str(a.workload.name)),
        ("seed".to_string(), Json::int(a.seed)),
        ("seconds".to_string(), Json::num(a.seconds)),
        ("trace".to_string(), Json::Bool(a.trace)),
        ("threads".to_string(), Json::int(threads as u64)),
        ("rounds".to_string(), Json::int(o.rounds.len() as u64)),
        ("correct".to_string(), Json::Bool(correct)),
        ("ops".to_string(), Json::int(o.ops)),
        ("ops_failed".to_string(), Json::int(o.ops_failed)),
        (
            "setup_secs".to_string(),
            Json::Arr(o.setup_secs.iter().map(|s| Json::num(*s)).collect()),
        ),
        (
            "round_secs".to_string(),
            Json::Arr(o.rounds.iter().map(|r| Json::num(r.secs)).collect()),
        ),
        ("metrics".to_string(), metrics::to_json(&e2e)),
        ("wall_clock".to_string(), metrics::to_json(&wall)),
        ("machine_speed".to_string(), Json::num(speed)),
        ("kernel_samples".to_string(), pairs(&o.speed.samples)),
        ("setup_spans".to_string(), pairs(&o.setup_spans)),
        ("round_spans".to_string(), pairs(&o.round_spans)),
        (
            "extra".to_string(),
            Json::Obj(
                o.extra
                    .iter()
                    .map(|(n, v, _)| (n.to_string(), Json::num(*v)))
                    .collect(),
            ),
        ),
    ];
    let mut last = metrics::to_json(&e2e);
    if let Some(layers) = &o.layers {
        let per_layer = metrics::per_layer(layers);
        print_table("per-layer (traced)", &per_layer);
        let chrome = a.out_dir.join(format!("{stem}.chrome.json"));
        let pid = WORKLOADS.iter().position(|w| w.name == a.workload.name);
        write(
            &chrome,
            &layers
                .tracer
                .chrome(pid.unwrap_or(0) as u64, a.workload.name),
        )?;
        println!("wrote {}", chrome.display());
        last = metrics::to_json(&per_layer);
        doc.push(("per_layer".to_string(), last.clone()));
        doc.push((
            "layer_busy_s".to_string(),
            Json::Obj(
                layers
                    .busy
                    .iter()
                    .map(|(l, s)| (l.to_string(), Json::num(*s)))
                    .collect(),
            ),
        ));
    }
    let result = a.out_dir.join(format!("{stem}.json"));
    write(&result, &format!("{}\n", Json::Obj(doc)))?;
    println!("wrote {}", result.display());

    println!(
        "{}",
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::int(o.ops)),
            ("failed".to_string(), Json::int(o.ops_failed)),
            ("metrics".to_string(), last),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_dirs(args: &[String]) -> Result<ExitCode, String> {
    let (dirs, rest) = args.split_at(args.len().min(2));
    let [parent, change] = dirs else {
        return Err(USAGE.to_string());
    };
    let given = flags(rest, &["--spec"])?;
    let spec = given.first().map_or("BENCHMARK.json", |(_, v)| *v);
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let bounds = compare::parse_bounds(&text)?;
    let parent = compare::load_dir(Path::new(parent))?;
    let change = compare::load_dir(Path::new(change))?;
    let rows = compare::compare(&parent, &change, &bounds);
    if rows.is_empty() {
        return Err("no workload has at least two untraced runs on both sides".into());
    }
    println!(
        "{:<14} {:<14} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in &rows {
        let q = |v: [f64; 3]| format!("{:.5} [{:.5}, {:.5}]", v[1], v[0], v[2]);
        println!(
            "{:<14} {:<14} {:>34} {:>34} {:>6}  {}",
            r.workload,
            r.metric,
            q(r.parent),
            q(r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.name()
        );
    }
    let failed = rows.iter().any(|r| r.verdict.fails());
    let unresolved = rows.iter().any(|r| r.verdict == Verdict::Unresolved);
    if unresolved {
        println!("unresolved: the parent's spread is wider than the bound; run more pairs");
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
