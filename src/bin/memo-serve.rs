//! `memo-serve` — drive the fleet-scale planning service from the CLI.
//!
//! Generates a deterministic Zipfian multi-tenant request stream, serves
//! it through the two-phase [`PlanServer`] (admission on a virtual clock,
//! pooled execution over the shared caches), and prints the fleet
//! summary: planned/shed counts by reason, p50/p99 planning latency,
//! queries/sec, pick-table and shared-cache hit rates, and elastic-pool
//! rebalances.

use memo::obs::json::Json;
use memo::serve::{generate, PlanServer, RequestOutcome, ServeConfig, StreamSpec};
use std::process::ExitCode;

const USAGE: &str = "\
memo-serve: fleet-scale planning service over a simulated tenant mix

USAGE:
    memo-serve [OPTIONS]

OPTIONS:
    --tenants N        simulated tenants, 1 <= N <= 1000000 (default 48)
    --requests N       stream length, 1 <= N <= 1000000 (default 1500)
    --seed N           stream seed (default 42)
    --zipf S           tenant-popularity Zipf exponent (default 1.1)
    --gpus N           cluster slice per request (default 8)
    --queue-depth N    admission queue-depth limit (default 64)
    --workers N        planning workers, 0 = machine width (default 0)
    --host-gib N       fleet host-staging budget in GiB (default 1024)
    --arena-gib N      fleet arena budget in GiB (default 64)
    --mean-gap-us N    mean arrival gap in microseconds (default 500)
    --serial           serial reference leg (one worker, recomputes every pick)
    --report-json PATH write the summary JSON to PATH
    -h, --help         this text

A count past its limit (--tenants, --requests) exits with status 2.
";

/// Most tenants one stream draws from (the Zipf law's table is one `f64`
/// per tenant).
const MAX_TENANTS: usize = 1_000_000;
/// Most requests one stream holds (every request is generated, admitted
/// and recorded in memory).
const MAX_REQUESTS: usize = 1_000_000;

/// Refuse a count flag asking for more than `limit` `unit`s: print which
/// and return exit status 2.
fn over_limit(flag: &str, count: usize, limit: usize, unit: &str) -> ExitCode {
    eprintln!("{flag} asks for {count} {unit}, above the limit of {limit}");
    ExitCode::from(2)
}

/// A positive GiB count as bytes; `None` when it is zero, malformed or
/// too large for `u64` bytes (a plain `<< 30` would drop the high bits).
fn gib_to_bytes(v: &str) -> Option<u64> {
    v.parse::<u64>()
        .ok()
        .filter(|&n| n > 0)?
        .checked_mul(1 << 30)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tenants = 48usize;
    let mut requests = 1500usize;
    let mut seed = 42u64;
    let mut zipf = 1.1f64;
    let mut gpus = 8usize;
    let mut queue_depth = 64usize;
    let mut workers = 0usize;
    let mut host_bytes = 1024u64 << 30;
    let mut arena_bytes = 64u64 << 30;
    let mut mean_gap_us = 500u64;
    let mut serial = false;
    let mut report_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || it.next().cloned();
        let bad = |flag: &str| {
            eprintln!("{flag} requires a valid value\n\n{USAGE}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--tenants" => match take().and_then(|v| v.parse().ok()) {
                Some(n) if n > MAX_TENANTS => {
                    return over_limit("--tenants", n, MAX_TENANTS, "tenants")
                }
                Some(n) if n > 0 => tenants = n,
                _ => return bad("--tenants"),
            },
            "--requests" => match take().and_then(|v| v.parse().ok()) {
                Some(n) if n > MAX_REQUESTS => {
                    return over_limit("--requests", n, MAX_REQUESTS, "requests")
                }
                Some(n) if n > 0 => requests = n,
                _ => return bad("--requests"),
            },
            "--seed" => match take().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return bad("--seed"),
            },
            "--zipf" => match take().and_then(|v| v.parse().ok()) {
                Some(s) if s >= 0.0 => zipf = s,
                _ => return bad("--zipf"),
            },
            "--gpus" => match take().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => gpus = n,
                _ => return bad("--gpus"),
            },
            "--queue-depth" => match take().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => queue_depth = n,
                _ => return bad("--queue-depth"),
            },
            "--workers" => match take().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => return bad("--workers"),
            },
            "--host-gib" => match take().and_then(|v| gib_to_bytes(&v)) {
                Some(b) => host_bytes = b,
                None => return bad("--host-gib"),
            },
            "--arena-gib" => match take().and_then(|v| gib_to_bytes(&v)) {
                Some(b) => arena_bytes = b,
                None => return bad("--arena-gib"),
            },
            "--mean-gap-us" => match take().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => mean_gap_us = n,
                _ => return bad("--mean-gap-us"),
            },
            "--serial" => serial = true,
            "--report-json" => match take() {
                Some(p) => report_path = Some(p),
                None => return bad("--report-json"),
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

    let mut spec = StreamSpec::new(tenants, requests, seed);
    spec.zipf_exponent = zipf;
    spec.n_gpus = gpus;
    spec.mean_gap_secs = mean_gap_us as f64 * 1e-6;
    let stream = generate(&spec);

    let server = PlanServer::new(ServeConfig {
        workers,
        max_queue_depth: queue_depth,
        host_total_bytes: host_bytes,
        arena_total_bytes: arena_bytes,
        serial,
    });
    let report = server.serve(&stream);
    let s = &report.summary;

    println!(
        "memo-serve: {} tenants, {} requests, zipf {zipf}, seed {seed}{}",
        tenants,
        requests,
        if serial { " (serial leg)" } else { "" }
    );
    // Planned picks by outcome kind, the kinds that occurred.
    let cells: Vec<String> = s
        .cell_counts()
        .filter(|&(_, n)| n > 0)
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    println!(
        "  planned {:>5}  feasible {:>5} ({})  shed: queue {} deadline {} budget {}",
        s.planned,
        s.feasible,
        cells.join(", "),
        s.shed_queue,
        s.shed_deadline,
        s.shed_budget
    );
    println!(
        "  caches: pick {:.1}% hit ({} / {})  profile {:.1}% hit ({} / {})  \
         segment {:.1}% hit ({} / {})",
        s.picks.hit_rate() * 100.0,
        s.picks.hits,
        s.picks.hits + s.picks.misses,
        s.profile_hit_rate() * 100.0,
        s.profile_cache.hits,
        s.profile_cache.hits + s.profile_cache.misses,
        s.segment_hit_rate() * 100.0,
        s.segment_cache.hits,
        s.segment_cache.hits + s.segment_cache.misses,
    );
    println!(
        "  elastic: {} rebalances, peak {} active tenants",
        s.rebalances, s.peak_active_tenants
    );
    if let Some(l) = &s.latency {
        println!(
            "  latency: p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
            l.p50_secs * 1e3,
            l.p90_secs * 1e3,
            l.p99_secs * 1e3,
            l.max_secs * 1e3
        );
    }
    println!(
        "  throughput: {:.0} plans/s over {:.2} s (pool: {} jobs, {} chunks on helpers)",
        s.qps, s.wall_secs, s.pool.jobs, s.pool.steals
    );

    // A few sample records, head tenants first, for eyeballing.
    for r in report.records.iter().take(4) {
        let what = match &r.outcome {
            RequestOutcome::Planned(p) => match &p.pick.picked {
                Some((cfg, alpha)) => format!(
                    "{} via {cfg:?} (α={alpha:.2}, budget {} GiB)",
                    r.cell(),
                    p.host_budget_bytes >> 30
                ),
                None => format!("failed: {}", r.cell()),
            },
            RequestOutcome::Rejected(reason) => format!("shed: {reason}"),
        };
        println!(
            "    req {:>4} tenant {:>3} {}@{}k/{}gpu -> {}",
            r.request.id,
            r.request.tenant,
            r.request.model.label(),
            r.request.seq_len / 1024,
            r.request.n_gpus,
            what
        );
    }

    if let Some(path) = report_path {
        let mut doc = match s.to_json() {
            Json::Obj(fields) => fields,
            other => vec![("summary".into(), other)],
        };
        doc.insert(0, ("seed".into(), Json::int(seed)));
        doc.insert(0, ("tenants".into(), Json::int(tenants as u64)));
        if let Err(e) = std::fs::write(&path, Json::Obj(doc).to_string()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  summary written to {path}");
    }
    ExitCode::SUCCESS
}
