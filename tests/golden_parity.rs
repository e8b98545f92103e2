//! Bit-exact parity pins for the staged ExecutionPipeline.
//!
//! Every value below was captured from the pre-refactor monolithic
//! `run_*` executors on the 7B / 8-GPU grid, to full f64 precision. The
//! staged pipeline (profile → activation policy → memory backend →
//! schedule → metrics) must reproduce them *exactly* — same float-op
//! order, same failure ordering, same tie-breaks — so every assertion is
//! `==` on the raw bits, not a tolerance band.

use memo::core::outcome::CellOutcome;
use memo::core::session::Workload;
use memo::model::config::ModelConfig;
use memo::parallel::strategy::{ParallelConfig, SystemSpec};

fn w7(s_k: u64) -> Workload {
    Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024)
}

fn mega() -> ParallelConfig {
    ParallelConfig::megatron(4, 2, 1, 1)
}

/// The golden fields of a successful cell.
#[derive(Debug, PartialEq)]
struct Pin {
    mfu: f64,
    tgs: f64,
    iter: f64,
    peak: u64,
    host: u64,
    reorgs: u64,
    alpha: Option<f64>,
}

#[track_caller]
fn assert_cell(label: &str, out: &CellOutcome, pin: Pin) {
    let m = out
        .metrics()
        .unwrap_or_else(|| panic!("{label}: expected Ok, got {out:?}"));
    let got = Pin {
        mfu: m.mfu,
        tgs: m.tgs,
        iter: m.iter_secs,
        peak: m.peak_gpu_bytes,
        host: m.host_peak_bytes,
        reorgs: m.reorgs,
        alpha: m.alpha,
    };
    assert_eq!(
        got, pin,
        "{label}: pipeline diverged from pre-refactor executor"
    );
}

#[track_caller]
fn assert_oom(label: &str, out: &CellOutcome, needed: u64, capacity: u64) {
    assert_eq!(
        *out,
        CellOutcome::Oom { needed, capacity },
        "{label}: OOM diagnostics diverged"
    );
}

#[test]
fn parity_all_six_modes_at_64k() {
    let w = w7(64);
    let ds = ParallelConfig::ulysses(8, 1);
    assert_cell(
        "memo@64K",
        &w.run_with(SystemSpec::Memo, &mega()),
        Pin {
            mfu: 0.5228700888565787,
            tgs: 1760.2998436830828,
            iter: 4.653752614588571,
            peak: 20092461056,
            host: 14596177920,
            reorgs: 0,
            alpha: Some(0.375),
        },
    );
    assert_cell(
        "megatron@64K",
        &w.run_with(SystemSpec::MegatronLM, &mega()),
        Pin {
            mfu: 0.42888831136858147,
            tgs: 1443.8998205282714,
            iter: 5.673523802366593,
            peak: 21664768000,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_cell(
        "keepall@64K",
        &w.run_with(SystemSpec::MegatronKeepAll, &mega()),
        Pin {
            mfu: 0.5590696145728653,
            tgs: 1882.1695409899792,
            iter: 4.352424062548154,
            peak: 57070985216,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_cell(
        "deepspeed@64K",
        &w.run_with(SystemSpec::DeepSpeed, &ds),
        Pin {
            mfu: 0.3046768956252658,
            tgs: 1025.7283848763316,
            iter: 7.986519746148666,
            peak: 24390684672,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_cell(
        "hybrid@64K",
        &w.run_with(SystemSpec::TensorHybrid, &mega()),
        Pin {
            mfu: 0.5219045701497694,
            tgs: 1757.0493184285478,
            iter: 4.662362014588571,
            peak: 20092461056,
            host: 14092861440,
            reorgs: 0,
            alpha: Some(0.35714285714285715),
        },
    );
    assert_cell(
        "nvme@64K",
        &w.run_with(SystemSpec::MemoTiered(2), &mega()),
        Pin {
            mfu: 0.5228700888565787,
            tgs: 1760.2998436830828,
            iter: 4.653752614588571,
            peak: 20092461056,
            host: 14596177920,
            reorgs: 0,
            alpha: Some(0.375),
        },
    );
}

#[test]
fn parity_all_six_modes_at_256k() {
    let w = w7(256);
    let ds = ParallelConfig::ulysses(8, 1);
    assert_cell(
        "memo@256K",
        &w.run_with(SystemSpec::Memo, &mega()),
        Pin {
            mfu: 0.5308736426898946,
            tgs: 669.7809779811616,
            iter: 48.92345569258857,
            peak: 28548177920,
            host: 128849018880,
            reorgs: 0,
            alpha: Some(1.0),
        },
    );
    assert_cell(
        "megatron@256K",
        &w.run_with(SystemSpec::MegatronLM, &mega()),
        Pin {
            mfu: 0.41077167561987993,
            tgs: 518.2533704811501,
            iter: 63.22776052489143,
            peak: 34836979712,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_oom(
        "keepall@256K",
        &w.run_with(SystemSpec::MegatronKeepAll, &mega()),
        73489588224,
        73014444032,
    );
    assert_cell(
        "deepspeed@256K",
        &w.run_with(SystemSpec::DeepSpeed, &ds),
        Pin {
            mfu: 0.29570451794817276,
            tgs: 373.0779705340704,
            iter: 87.83150598008184,
            peak: 58639273984,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_cell(
        "hybrid@256K",
        &w.run_with(SystemSpec::TensorHybrid, &mega()),
        Pin {
            mfu: 0.5308736426898946,
            tgs: 669.7809779811616,
            iter: 48.92345569258857,
            peak: 28548177920,
            host: 128849018880,
            reorgs: 0,
            alpha: Some(1.0),
        },
    );
    assert_cell(
        "nvme@256K",
        &w.run_with(SystemSpec::MemoTiered(2), &mega()),
        Pin {
            mfu: 0.5308736426898946,
            tgs: 669.7809779811616,
            iter: 48.92345569258857,
            peak: 28548177920,
            host: 128849018880,
            reorgs: 0,
            alpha: Some(1.0),
        },
    );
}

#[test]
fn parity_all_six_modes_at_512k() {
    let w = w7(512);
    let ds = ParallelConfig::ulysses(8, 1);
    assert_cell(
        "memo@512K",
        &w.run_with(SystemSpec::Memo, &mega()),
        Pin {
            mfu: 0.5218793303833026,
            tgs: 359.08172334974205,
            iter: 182.5099851605886,
            peak: 39822467072,
            host: 229512314880,
            reorgs: 0,
            alpha: Some(0.875),
        },
    );
    assert_cell(
        "megatron@512K",
        &w.run_with(SystemSpec::MegatronLM, &mega()),
        Pin {
            mfu: 0.405840072855774,
            tgs: 279.2403229658524,
            iter: 234.6938984453697,
            peak: 49064058880,
            host: 0,
            reorgs: 0,
            alpha: None,
        },
    );
    assert_oom(
        "keepall@512K",
        &w.run_with(SystemSpec::MegatronKeepAll, &mega()),
        74831765504,
        73014444032,
    );
    assert_oom(
        "deepspeed@512K",
        &w.run_with(SystemSpec::DeepSpeed, &ds),
        76308041728,
        73014444032,
    );
    assert_cell(
        "hybrid@512K",
        &w.run_with(SystemSpec::TensorHybrid, &mega()),
        Pin {
            mfu: 0.5216825879736572,
            tgs: 358.9463537357365,
            iter: 182.5788152405886,
            peak: 39822467072,
            host: 225485783040,
            reorgs: 0,
            alpha: Some(0.8571428571428571),
        },
    );
    assert_cell(
        "nvme@512K",
        &w.run_with(SystemSpec::MemoTiered(2), &mega()),
        Pin {
            mfu: 0.523260693657243,
            tgs: 360.0321773648767,
            iter: 182.0281744805886,
            peak: 39822467072,
            host: 229512314880,
            reorgs: 0,
            alpha: Some(1.0),
        },
    );
}

#[test]
fn parity_extended_lengths() {
    // 1024K: swap family survives, recompute family OOMs.
    let w = w7(1024);
    let ds = ParallelConfig::ulysses(8, 1);
    let memo = w.run_with(SystemSpec::Memo, &mega());
    let m = memo.metrics().expect("memo@1024K");
    assert_eq!(m.mfu, 0.5154197598840741);
    assert_eq!(m.peak_gpu_bytes, 62371045376);
    assert_eq!(m.host_peak_bytes, 233538846720);
    assert_eq!(m.alpha, Some(0.375));
    assert_eq!(
        w.run_with(SystemSpec::TensorHybrid, &mega())
            .metrics()
            .unwrap()
            .alpha,
        Some(0.35714285714285715)
    );
    assert_eq!(
        w.run_with(SystemSpec::MemoTiered(2), &mega())
            .metrics()
            .unwrap()
            .alpha,
        Some(1.0)
    );
    assert_eq!(
        w.run_with(SystemSpec::MemoTiered(2), &mega())
            .metrics()
            .unwrap()
            .mfu,
        0.5189629645508276
    );
    assert_oom(
        "megatron@1024K",
        &w.run_with(SystemSpec::MegatronLM, &mega()),
        73221152768,
        73014444032,
    );
    assert_oom(
        "keepall@1024K",
        &w.run_with(SystemSpec::MegatronKeepAll, &mega()),
        73221152768,
        73014444032,
    );
    assert_oom(
        "deepspeed@1024K",
        &w.run_with(SystemSpec::DeepSpeed, &ds),
        78552256512,
        73014444032,
    );

    // 2048K: everything OOMs, each with its own diagnostic bytes.
    let w = w7(2048);
    assert_oom(
        "memo@2048K",
        &w.run_with(SystemSpec::Memo, &mega()),
        77403430912,
        73014444032,
    );
    assert_oom(
        "megatron@2048K",
        &w.run_with(SystemSpec::MegatronLM, &mega()),
        74294894592,
        73014444032,
    );
    assert_oom(
        "keepall@2048K",
        &w.run_with(SystemSpec::MegatronKeepAll, &mega()),
        74294894592,
        73014444032,
    );
    assert_oom(
        "deepspeed@2048K",
        &w.run_with(SystemSpec::DeepSpeed, &ds),
        73386446848,
        73014444032,
    );
    assert_oom(
        "hybrid@2048K",
        &w.run_with(SystemSpec::TensorHybrid, &mega()),
        107468201984,
        73014444032,
    );
    assert_oom(
        "nvme@2048K",
        &w.run_with(SystemSpec::MemoTiered(2), &mega()),
        107468201984,
        73014444032,
    );
}

#[test]
fn parity_small_host_oohm() {
    // Shrinking the host to 64 GiB at 512K flips the single-tier swap modes
    // to X_oohm with exact shortfall diagnostics; the NVMe tier routes
    // everything past the host and keeps running.
    let mut w = w7(512);
    w.calib.set_host_memory_bytes(64 * (1 << 30));
    let oohm = CellOutcome::Oohm {
        needed: 32212254720,
        capacity: 7301444403,
    };
    assert_eq!(
        w.run_with(SystemSpec::Memo, &mega()),
        oohm,
        "memo small-host"
    );
    assert_eq!(
        w.run_with(SystemSpec::TensorHybrid, &mega()),
        oohm,
        "hybrid small-host"
    );
    let nvme = w.run_with(SystemSpec::MemoTiered(2), &mega());
    let m = nvme.metrics().expect("nvme must survive the small host");
    assert_eq!(m.mfu, 0.5026168479353263);
    assert_eq!(m.tgs, 345.828074487402);
    assert_eq!(m.iter_secs, 189.5045684105886);
    assert_eq!(m.peak_gpu_bytes, 39822467072);
    assert_eq!(m.host_peak_bytes, 0);
    assert_eq!(m.alpha, Some(0.625));
}

#[test]
fn parity_ablation_entry_points() {
    // The entry points that carry extra parameters must hit the
    // same pinned numbers: slots=4 grows skeletal memory but not time, and
    // the α=1 override reproduces the full-swapping ablation.
    use memo::core::ExecutionPipeline;
    let w = w7(256);
    let slots4 = w.run_with(SystemSpec::MemoBufferSlots(4), &mega());
    let m = slots4.metrics().expect("slots=4 feasible at 256K");
    assert_eq!(m.mfu, 0.5308736426898946);
    assert_eq!(m.tgs, 669.7809779811616);
    assert_eq!(m.iter_secs, 48.92345569258857);
    assert_eq!(m.peak_gpu_bytes, 37138112512);
    assert_eq!(m.host_peak_bytes, 120259084288);
    assert_eq!(m.alpha, Some(1.0));

    let fullswap = ExecutionPipeline::memo_at_alpha(1.0, 2)
        .execute_cached(&w, &mega(), true)
        .outcome;
    let m = fullswap.metrics().expect("alpha=1 feasible at 256K");
    assert_eq!(m.mfu, 0.5308736426898946);
    assert_eq!(m.peak_gpu_bytes, 28548177920);
    assert_eq!(m.host_peak_bytes, 128849018880);
    assert_eq!(m.alpha, Some(1.0));
}
