//! Smoke test for the dense-grid CLI flags: run the real `memo-sim` binary
//! with `--alpha-points` / `--mixed-policy` (the grid-row sweeps)
//! and check that both tables and their picks come out; reject bad numeric
//! flags of `memo-sim` and `memo-serve` with a named error (and grids and
//! streams past their limits with exit 2); and pin five
//! `memo-sim` outputs byte for byte (the bit-identity contract), and the
//! shortfalls of the failed modes of three of them.

use memo::model::hash::FxHasher;
use memo::obs::json::{parse, Json};
use std::hash::Hasher;
use std::process::Command;

/// Stdout of a successful `memo-sim` run with `args`.
fn memo_sim(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
        .args(args)
        .output()
        .expect("memo-sim must launch");
    assert!(
        out.status.success(),
        "memo-sim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn memo_sim_outputs_match_the_committed_goldens() {
    let grid = memo_sim(&[
        "--model",
        "7b",
        "--gpus",
        "8",
        "--seq",
        "64k,1m",
        "--system",
        "memo",
        "--alpha-points",
        "17",
        "--mixed-policy",
    ]);
    assert!(
        grid == include_bytes!("golden/memo_sim_7b_64k_1m_memo_grid.txt"),
        "dense grids differ from the golden:\n{}",
        String::from_utf8_lossy(&grid)
    );
    let all = memo_sim(&["--model", "7b", "--gpus", "8", "--seq", "1m", "--all"]);
    assert!(
        all == include_bytes!("golden/memo_sim_7b_1m_all.txt"),
        "the 1M mode table differs from the golden:\n{}",
        String::from_utf8_lossy(&all)
    );

    // The Chrome trace is ~0.8 MB, so it is pinned by digest.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("memo_sim_7b_256k.json");
    let path_arg = path.to_str().expect("UTF-8 temp path");
    memo_sim(&[
        "--model", "7b", "--gpus", "8", "--seq", "256k", "--all", "--trace", path_arg,
    ]);
    let trace = std::fs::read(&path).expect("memo-sim wrote its trace");
    let mut h = FxHasher::default();
    h.write(&trace);
    assert_eq!(
        (trace.len(), h.finish()),
        (806_849, 0x09ee_e200_aa98_2d34),
        "the 7B/256K Chrome trace differs from the pinned digest"
    );
}

#[test]
fn all_fail_cells_keep_their_stdout() {
    // Every mode fails: three `X_oom` and three `X_oohm` at 2M tokens, and
    // every config certified `X_oom` on four 2 GiB GPUs.
    let long = memo_sim(&["--model", "7b", "--gpus", "8", "--seq", "2m", "--all"]);
    assert!(
        long == include_bytes!("golden/memo_sim_7b_2m_all.txt"),
        "the 2M mode table differs from the golden:\n{}",
        String::from_utf8_lossy(&long)
    );
    let small_gpu = memo_sim(&[
        "--model",
        "7b",
        "--gpus",
        "4",
        "--seq",
        "8k",
        "--gpu-mem-gib",
        "2",
        "--all",
    ]);
    assert!(
        small_gpu == include_bytes!("golden/memo_sim_7b_4gpu_8k_2gib_all.txt"),
        "the 2 GiB mode table differs from the golden:\n{}",
        String::from_utf8_lossy(&small_gpu)
    );
}

/// A failed mode's report record: system, kind, `needed`, `capacity`.
type Shortfall<'a> = (&'a str, &'a str, u64, u64);

#[test]
fn golden_cells_keep_their_failures_shortfalls() {
    // The stdout goldens print a failed mode as `X_oom` or `X_oohm` alone.
    // Its `--report-json` record carries the least-bad failure's `needed`
    // and `capacity` as well, which a search that certifies configs
    // without running them must keep. Recorded before the search read
    // liveness peaks lazily.
    let usable = 73_014_444_032;
    let cells: &[(&[&str], &[Shortfall])] = &[
        (
            &["--gpus", "8", "--seq", "1m"],
            &[
                ("DeepSpeed", "oom", 143_246_460_928, usable),
                ("Megatron-LM", "oom", 77_403_414_528, usable),
                ("Megatron-KA", "oom", 576_693_362_688, usable),
            ],
        ),
        (
            &["--gpus", "8", "--seq", "2m"],
            &[
                ("DeepSpeed", "oom", 271_975_680_000, usable),
                ("Megatron-LM", "oom", 137_532_956_672, usable),
                ("Megatron-KA", "oom", 1_136_112_852_992, usable),
                ("TensorHybrid", "oohm", 240_518_168_576, 233_646_220_902),
                ("MEMO", "oohm", 240_518_168_576, 233_646_220_902),
                ("MEMO+NVMe", "oohm", 4_638_564_679_680, 4_123_168_604_160),
            ],
        ),
        (
            &["--gpus", "4", "--seq", "8k", "--gpu-mem-gib", "2"],
            &[
                ("DeepSpeed", "oom", 4_233_453_568, 0),
                ("Megatron-LM", "oom", 3_427_934_208, 0),
                ("Megatron-KA", "oom", 3_427_934_208, 0),
                ("TensorHybrid", "oom", 28_245_557_248, 0),
                ("MEMO", "oom", 28_010_676_224, 0),
                ("MEMO+NVMe", "oom", 28_010_676_224, 0),
            ],
        ),
    ];
    for (i, &(args, expected)) in cells.iter().enumerate() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("memo_sim_shortfalls_{i}.json"));
        let path_arg = path.to_str().expect("UTF-8 temp path");
        let mut argv = vec!["--model", "7b", "--all", "--report-json", path_arg];
        argv.extend_from_slice(args);
        memo_sim(&argv);
        let text = std::fs::read_to_string(&path).expect("memo-sim wrote its report");
        let doc = parse(&text).expect("the report is JSON");
        let failures: Vec<Shortfall> = doc
            .as_arr()
            .expect("one record per mode")
            .iter()
            .filter_map(|r| {
                let out = r.get("outcome")?;
                let field = |k| out.get(k).and_then(Json::as_u64).expect("a shortfall");
                Some((
                    r.get("system")?.as_str()?,
                    out.get("kind")?.as_str()?,
                    field("needed"),
                    field("capacity"),
                ))
            })
            .collect();
        assert_eq!(failures, expected, "memo-sim --model 7b --all {args:?}");
    }
}

#[test]
fn memo_sim_dense_grid_flags_print_tables_and_picks() {
    let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
        .args([
            "--model",
            "7b",
            "--gpus",
            "8",
            "--seq",
            "64k",
            "--system",
            "memo",
            "--alpha-points",
            "5",
            "--mixed-policy",
        ])
        .output()
        .expect("memo-sim must launch");
    assert!(
        out.status.success(),
        "memo-sim with grid flags failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // The α table: exactly the five requested lattice points, then a pick.
    assert!(
        stdout.contains("α grid — 5 points at MEMO"),
        "missing α grid header:\n{stdout}"
    );
    for point in ["α=0.0000", "α=0.2500", "α=0.5000", "α=0.7500", "α=1.0000"] {
        assert!(
            stdout.contains(point),
            "missing grid row {point}:\n{stdout}"
        );
    }

    // The per-layer policy table: k = 0..=L-2 rows, then a pick.
    assert!(
        stdout.contains("mixed-policy grid — k = 0..="),
        "missing mixed-policy header:\n{stdout}"
    );
    assert!(stdout.contains("k=0"), "missing k=0 row:\n{stdout}");

    // One pick line per grid (α pick and k pick).
    assert!(
        stdout.matches("pick:").count() >= 2,
        "expected a pick per grid:\n{stdout}"
    );
}

#[test]
fn alpha_points_rejects_degenerate_grids() {
    let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
        .args([
            "--model",
            "7b",
            "--gpus",
            "8",
            "--seq",
            "64k",
            "--alpha-points",
            "1",
        ])
        .output()
        .expect("memo-sim must launch");
    assert!(!out.status.success(), "a 1-point α grid must be rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(">= 2"),
        "error should name the >= 2 requirement"
    );
}

#[test]
fn bad_sequence_lengths_exit_with_a_named_error() {
    // Zero tokens, and a length whose k/m scaling overflows u64, are both
    // invalid input: a clean exit 1 with the usual message, never a
    // panic (exit 101) or a degenerate 0-token run.
    for seq in ["0", "0k", "17592186044416m"] {
        let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
            .args(["--model", "7b", "--gpus", "8", "--seq", seq])
            .output()
            .expect("memo-sim must launch");
        assert_eq!(out.status.code(), Some(1), "--seq {seq}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("bad sequence length"),
            "--seq {seq}: error should name the bad sequence length"
        );
    }
}

#[test]
fn memo_serve_rejects_gib_budgets_that_overflow_bytes() {
    // 2^34 GiB is exactly 2^64 bytes and 2^34 + 1 GiB wraps to 1 GiB under
    // a plain shift: both must be rejected, not served with a truncated
    // budget.
    for flag in ["--host-gib", "--arena-gib"] {
        for gib in ["17179869184", "17179869185"] {
            let out = Command::new(env!("CARGO_BIN_EXE_memo-serve"))
                .args([flag, gib, "--requests", "1"])
                .output()
                .expect("memo-serve must launch");
            assert_eq!(out.status.code(), Some(1), "{flag} {gib}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(flag),
                "{flag} {gib}: error should name the flag"
            );
        }
    }
}

#[test]
fn memo_serve_bounds_stream_sizes_with_exit_2() {
    // A stream past its limit must be refused up front with status 2 and a
    // message naming the flag and the limit: `--requests 100000000` grew
    // to 5.3 GB in 6 s, and `--tenants 1000000000` printed nothing in 15 s.
    // `--help` states each limit.
    let cases: &[(&str, &str)] = &[
        ("--requests", "100000000"),
        ("--requests", "1000001"),
        ("--tenants", "1000000000"),
        ("--tenants", "1000001"),
    ];
    for &(flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_memo-serve"))
            .args([flag, value])
            .output()
            .expect("memo-serve must launch");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("limit of 1000000"),
            "{flag} {value}: {stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_memo-serve"))
        .arg("--help")
        .output()
        .expect("memo-serve must launch");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in ["--tenants", "--requests"] {
        assert!(
            help.lines()
                .any(|l| l.contains(flag) && l.contains("1 <= N <= 1000000")),
            "--help does not state the limit of {flag}"
        );
    }
}

#[test]
fn memo_sim_rejects_bad_numeric_flags_with_a_named_error() {
    // Each bad value must exit 1 with an error naming its flag: never a
    // panic (exit 101), a silent default, or a run over a nonsense
    // calibration (a dead PCIe link, a GiB count whose `<< 30` wraps).
    let cases: &[(&str, &str)] = &[
        ("--sweep", "2k:1k:1k"),
        ("--sweep", "1k:2k"),
        ("--batch", "x"),
        ("--batch", "0"),
        ("--pcie-gbps", "0"),
        ("--pcie-gbps", "-5"),
        ("--pcie-gbps", "nan"),
        ("--pcie-gbps", "inf"),
        ("--pcie-gbps", "abc"),
        ("--gpu-mem-gib", "17179869184"),
        ("--gpu-mem-gib", "abc"),
        ("--host-mem-gib", "17179869184"),
        ("--host-mem-gib", "-1"),
        ("--gpus", "abc"),
        ("--gpus", "0"),
    ];
    for &(flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
            .args(["--model", "7b", "--gpus", "8", "--seq", "64k", flag, value])
            .output()
            .expect("memo-sim must launch");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{flag} {value}: error should name the flag"
        );
    }
}

#[test]
fn memo_sim_bounds_grid_sizes_with_exit_2() {
    // A grid past its limit must be refused up front with status 2 and a
    // message naming the flag and the limit, never run out of memory
    // (an `--alpha-points 100000000` grid asked for 22 GB and aborted) or
    // run unbounded. `--help` states each limit.
    let too_many_lengths = vec!["1k"; 1025].join(",");
    let cases: &[(&str, &str, &str)] = &[
        ("--alpha-points", "100000000", "10001"),
        ("--alpha-points", "10002", "10001"),
        ("--sweep", "1:100000000000:1", "1024"),
        ("--sweep", "1k:2m:1k", "1024"),
        ("--seq", &too_many_lengths, "1024"),
    ];
    for &(flag, value, limit) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
            .args(["--model", "7b", "--gpus", "8", "--seq", "64k", flag, value])
            .output()
            .expect("memo-sim must launch");
        let shown = &value[..value.len().min(24)];
        assert_eq!(out.status.code(), Some(2), "{flag} {shown}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("limit of {limit}")),
            "{flag} {shown}: {stderr}"
        );
    }
    let help = memo_sim(&["--help"]);
    let help = String::from_utf8_lossy(&help);
    for limit in [
        "at most 1024 lengths",
        "2 <= N <= 10001",
        "4294967296 tokens",
    ] {
        assert!(help.contains(limit), "--help does not state {limit:?}");
    }
}

#[test]
fn memo_sim_bounds_tokens_times_batch_with_exit_2() {
    // A length times `--batch` past 2^32 tokens per replica must be refused
    // with status 2 naming both flags, before any cell runs: unchecked,
    // 2^63 × 2 wraps to 0 tokens, an `ok` cell with an MFU of ~10^32 %
    // (or an overflow panic in a debug build). The limit itself runs.
    let cases: &[&[&str]] = &[
        &["--seq", "9223372036854775808", "--batch", "2"],
        &["--batch", "2", "--seq", "64k,4096m"],
        &["--seq", "4294967297"],
        &["--sweep", "1m:4097m:1024m"],
        &["--seq", "1m", "--batch", "4097"],
    ];
    for &args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
            .args(["--model", "7b", "--gpus", "8", "--system", "megatron"])
            .args(args)
            .output()
            .expect("memo-sim must launch");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran a cell");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let length_flag = if args.contains(&"--sweep") {
            "--sweep"
        } else {
            "--seq"
        };
        assert!(
            stderr.contains(length_flag)
                && stderr.contains("--batch")
                && stderr.contains("limit of 4294967296"),
            "{args:?}: {stderr}"
        );
    }
    for args in [
        ["--seq", "4096m", "--batch", "1"],
        ["--seq", "1m", "--batch", "4096"],
    ] {
        memo_sim(
            &[
                &["--model", "7b", "--gpus", "8", "--system", "megatron"],
                &args[..],
            ]
            .concat(),
        );
    }
}
