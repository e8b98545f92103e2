//! The activation store: MEMO's token-wise policy made concrete.
//!
//! During a layer's forward pass the store receives the full skeletal set
//! (Figure 5's ten tensors). Depending on the policy it
//!
//! * keeps everything (**KeepAll** — the numerical ground truth),
//! * keeps only the layer input (**FullRecompute** — Megatron behaviour), or
//! * moves the input and the attention output *fully* to the host buffer and
//!   keeps only the first `⌈α·t⌉` token rows of every other tensor there,
//!   **discarding the rest** (**TokenWise** — MEMO's §4.1 policy; the
//!   discarded rows are rebuilt row-wise before the backward pass).
//!
//! "Host" is a separate accounted byte pool: this is a functional simulation
//! of the PCIe round-trip — the data genuinely leaves the working set and
//! comes back, so any bug in the reconstruction shows up as a gradient
//! mismatch, not merely a performance artifact.

use crate::attention::AttnOutput;

/// Which of the eight recomputable skeletal tensors a per-tensor policy
/// keeps (the Capuchin-style granularity of the `TensorHybrid` executor).
/// The layer input and attention output are always kept, as in MEMO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorMask {
    pub(crate) ln1: bool,
    pub(crate) qkv: bool,
    pub(crate) res1: bool,
    pub(crate) ln2: bool,
    pub(crate) fc1: bool,
    pub(crate) gelu: bool,
}

impl TensorMask {
    pub(crate) const NONE: TensorMask = TensorMask {
        ln1: false,
        qkv: false,
        res1: false,
        ln2: false,
        fc1: false,
        gelu: false,
    };
    pub(crate) const ALL: TensorMask = TensorMask {
        ln1: true,
        qkv: true,
        res1: true,
        ln2: true,
        fc1: true,
        gelu: true,
    };
}

/// Rematerialisation policy (mirrors `memo_model::trace::RematPolicy` plus
/// the α knob, and the per-tensor granularity of related work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    KeepAll,
    FullRecompute,
    TokenWise {
        alpha: f64,
    },
    /// Whole-tensor swap/recompute decisions (Capuchin-style granularity).
    PerTensor {
        keep: TensorMask,
    },
}

impl Policy {
    /// Token rows of the "others" tensors kept on host (uniform policies;
    /// [`Policy::PerTensor`] decides per tensor instead).
    pub(crate) fn rows_kept(self, t: usize) -> usize {
        match self {
            Policy::KeepAll => t,
            Policy::FullRecompute => 0,
            Policy::TokenWise { alpha } => {
                assert!((0.0..=1.0).contains(&alpha));
                (alpha * t as f64).ceil() as usize
            }
            Policy::PerTensor { .. } => t, // per-tensor masking below
        }
    }

    fn mask(self) -> TensorMask {
        match self {
            Policy::KeepAll | Policy::TokenWise { .. } => TensorMask::ALL,
            Policy::FullRecompute => TensorMask::NONE,
            Policy::PerTensor { keep } => keep,
        }
    }
}

/// The ten skeletal tensors of one layer (all `[t, dim]` row-major).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Skeletal {
    pub(crate) input: Vec<f32>,
    pub(crate) ln1: Vec<f32>,
    pub(crate) q: Vec<f32>,
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) attn: Option<AttnOutput>,
    pub(crate) res1: Vec<f32>,
    pub(crate) ln2: Vec<f32>,
    pub(crate) fc1: Vec<f32>,
    pub(crate) gelu: Vec<f32>,
}

/// What actually survives the forward pass for one layer.
#[derive(Debug, Clone)]
pub struct Stash {
    /// Number of leading token rows present in the partial tensors.
    pub(crate) rows_kept: usize,
    pub(crate) t: usize,
    pub(crate) input: Vec<f32>,
    /// `None` under FullRecompute (rebuilt by re-running attention).
    pub(crate) attn: Option<AttnOutput>,
    pub(crate) ln1: Vec<f32>,
    pub q: Vec<f32>,
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) res1: Vec<f32>,
    pub(crate) ln2: Vec<f32>,
    pub(crate) fc1: Vec<f32>,
    pub(crate) gelu: Vec<f32>,
}

/// Per-run host byte accounting (the 4-byte-per-f32 analogue of
/// memo-swap's `HostStaging` pools).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    pub bytes: u64,
    pub peak: u64,
}

impl HostCounters {
    fn add(&mut self, floats: usize) {
        self.bytes += 4 * floats as u64;
        self.peak = self.peak.max(self.bytes);
    }

    fn sub(&mut self, floats: usize) {
        self.bytes -= 4 * floats as u64;
    }
}

/// The store: one stash slot per layer plus host accounting.
#[derive(Debug, Clone)]
pub struct ActivationStore {
    pub(crate) policy: Policy,
    stashes: Vec<Option<Stash>>,
    pub host: HostCounters,
}

fn truncate_rows(mut x: Vec<f32>, t: usize, keep: usize) -> Vec<f32> {
    assert_eq!(x.len() % t, 0);
    let cols = x.len() / t;
    x.truncate(keep * cols);
    x
}

impl ActivationStore {
    pub fn new(policy: Policy, n_layers: usize) -> Self {
        ActivationStore {
            policy,
            stashes: (0..n_layers).map(|_| None).collect(),
            host: HostCounters::default(),
        }
    }

    /// Stash layer `idx`'s skeletal tensors per the policy. The dropped data
    /// is genuinely gone.
    pub(crate) fn save(&mut self, idx: usize, t: usize, skel: Skeletal) {
        let keep = self.policy.rows_kept(t);
        let mask = self.policy.mask();
        let attn = match self.policy {
            Policy::FullRecompute => None,
            _ => skel.attn,
        };
        let rows = |on: bool| if on { keep } else { 0 };
        // `rows_kept` is where the reconstruction starts; with a per-tensor
        // mask some tensors are fully missing, so everything below the
        // lowest kept row is rebuilt (overwriting kept rows with bitwise
        // identical values is harmless and keeps the rebuild row-chained).
        let materialize_from = if mask == TensorMask::ALL { keep } else { 0 };
        let stash = Stash {
            rows_kept: materialize_from,
            t,
            input: skel.input,
            attn,
            ln1: truncate_rows(skel.ln1, t, rows(mask.ln1)),
            q: truncate_rows(skel.q, t, rows(mask.qkv)),
            k: truncate_rows(skel.k, t, rows(mask.qkv)),
            v: truncate_rows(skel.v, t, rows(mask.qkv)),
            res1: truncate_rows(skel.res1, t, rows(mask.res1)),
            ln2: truncate_rows(skel.ln2, t, rows(mask.ln2)),
            fc1: truncate_rows(skel.fc1, t, rows(mask.fc1)),
            gelu: truncate_rows(skel.gelu, t, rows(mask.gelu)),
        };
        let floats = stash.input.len()
            + stash.attn.as_ref().map_or(0, |a| a.out.len() + a.lse.len())
            + stash.ln1.len()
            + stash.q.len()
            + stash.k.len()
            + stash.v.len()
            + stash.res1.len()
            + stash.ln2.len()
            + stash.fc1.len()
            + stash.gelu.len();
        self.host.add(floats);
        assert!(
            self.stashes[idx].replace(stash).is_none(),
            "layer {idx} stashed twice"
        );
    }

    /// Retrieve (and release) layer `idx`'s stash for its backward pass.
    pub fn take(&mut self, idx: usize) -> Stash {
        let stash = self.stashes[idx]
            .take()
            .unwrap_or_else(|| panic!("no stash for layer {idx}"));
        let floats = stash.input.len()
            + stash.attn.as_ref().map_or(0, |a| a.out.len() + a.lse.len())
            + stash.ln1.len()
            + stash.q.len()
            + stash.k.len()
            + stash.v.len()
            + stash.res1.len()
            + stash.ln2.len()
            + stash.fc1.len()
            + stash.gelu.len();
        self.host.sub(floats);
        stash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skel(t: usize, h: usize) -> Skeletal {
        let v = |seed: f32| (0..t * h).map(|i| seed + i as f32).collect::<Vec<_>>();
        Skeletal {
            input: v(0.0),
            ln1: v(1.0),
            q: v(2.0),
            k: v(3.0),
            v: v(4.0),
            attn: Some(AttnOutput {
                out: v(5.0),
                lse: vec![0.0; t],
            }),
            res1: v(6.0),
            ln2: v(7.0),
            fc1: v(8.0),
            gelu: v(9.0),
        }
    }

    #[test]
    fn rows_kept_per_policy() {
        assert_eq!(Policy::KeepAll.rows_kept(16), 16);
        assert_eq!(Policy::FullRecompute.rows_kept(16), 0);
        assert_eq!(Policy::TokenWise { alpha: 0.5 }.rows_kept(16), 8);
        assert_eq!(Policy::TokenWise { alpha: 0.0 }.rows_kept(16), 0);
        assert_eq!(Policy::TokenWise { alpha: 1.0 }.rows_kept(16), 16);
        assert_eq!(Policy::TokenWise { alpha: 0.1 }.rows_kept(16), 2); // ceil
    }

    #[test]
    fn tokenwise_truncates_others_keeps_input_and_attn() {
        let (t, h) = (8, 4);
        let mut store = ActivationStore::new(Policy::TokenWise { alpha: 0.25 }, 1);
        store.save(0, t, skel(t, h));
        let s = store.take(0);
        assert_eq!(s.input.len(), t * h); // full
        assert!(s.attn.is_some()); // full
        assert_eq!(s.ln1.len(), 2 * h); // 2 of 8 rows
        assert_eq!(s.gelu.len(), 2 * h);
    }

    #[test]
    fn full_recompute_keeps_only_input() {
        let (t, h) = (8, 4);
        let mut store = ActivationStore::new(Policy::FullRecompute, 1);
        store.save(0, t, skel(t, h));
        let s = store.take(0);
        assert_eq!(s.input.len(), t * h);
        assert!(s.attn.is_none());
        assert!(s.ln1.is_empty());
    }

    #[test]
    fn per_tensor_mask_keeps_selected_tensors_only() {
        let (t, h) = (8, 4);
        let keep = TensorMask {
            fc1: true,
            gelu: true,
            ..TensorMask::NONE
        };
        let mut store = ActivationStore::new(Policy::PerTensor { keep }, 1);
        store.save(0, t, skel(t, h));
        let s = store.take(0);
        assert_eq!(s.fc1.len(), t * h);
        assert_eq!(s.gelu.len(), t * h);
        assert!(s.ln1.is_empty() && s.q.is_empty());
        assert_eq!(s.rows_kept, 0, "reconstruction covers all rows");
        assert!(s.attn.is_some(), "attention output always kept");
    }

    #[test]
    fn host_accounting_scales_with_alpha() {
        let (t, h) = (8, 4);
        let peak_at = |policy| {
            let mut store = ActivationStore::new(policy, 1);
            store.save(0, t, skel(t, h));
            let p = store.host.peak;
            let _ = store.take(0);
            assert_eq!(store.host.bytes, 0);
            p
        };
        let p0 = peak_at(Policy::TokenWise { alpha: 0.0 });
        let p5 = peak_at(Policy::TokenWise { alpha: 0.5 });
        let p1 = peak_at(Policy::TokenWise { alpha: 1.0 });
        assert!(p0 < p5 && p5 < p1);
        assert!(peak_at(Policy::FullRecompute) < p0);
    }

    #[test]
    #[should_panic(expected = "stashed twice")]
    fn double_save_panics() {
        let mut store = ActivationStore::new(Policy::KeepAll, 1);
        store.save(0, 4, skel(4, 2));
        store.save(0, 4, skel(4, 2));
    }
}
