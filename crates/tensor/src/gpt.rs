//! A tiny decoder-only GPT (Figure 3 architecture) with manual backward,
//! built on [`LayerParams`] and the policy-driven activation store.

use crate::layer::{LayerGrads, LayerParams, LayerShape};
use crate::ops::*;
use crate::store::{ActivationStore, Policy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    pub vocab: usize,
    pub hidden: usize,
    pub ffn: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub max_seq: usize,
    /// Use rotary position embeddings in attention (in addition to the
    /// learned absolute table).
    pub rope: bool,
}

impl GptConfig {
    pub fn shape(&self) -> LayerShape {
        LayerShape {
            hidden: self.hidden,
            ffn: self.ffn,
            n_heads: self.n_heads,
            rope: self.rope,
        }
    }
}

/// The model: embeddings, layers, final norm, classifier.
#[derive(Debug, Clone)]
pub struct TinyGpt {
    cfg: GptConfig,
    tok_emb: Vec<f32>, // [V, h]
    pos_emb: Vec<f32>, // [max_seq, h]
    pub layers: Vec<LayerParams>,
    lnf_g: Vec<f32>,
    lnf_b: Vec<f32>,
    head: Vec<f32>, // [h, V]
}

/// Gradients matching [`TinyGpt`].
#[derive(Debug, Clone)]
pub struct GptGrads {
    tok_emb: Vec<f32>,
    pos_emb: Vec<f32>,
    pub layers: Vec<LayerGrads>,
    lnf_g: Vec<f32>,
    lnf_b: Vec<f32>,
    head: Vec<f32>,
}

impl GptGrads {
    pub fn zeros(cfg: &GptConfig) -> Self {
        GptGrads {
            tok_emb: vec![0.0; cfg.vocab * cfg.hidden],
            pos_emb: vec![0.0; cfg.max_seq * cfg.hidden],
            layers: (0..cfg.n_layers)
                .map(|_| LayerGrads::zeros(cfg.shape()))
                .collect(),
            lnf_g: vec![0.0; cfg.hidden],
            lnf_b: vec![0.0; cfg.hidden],
            head: vec![0.0; cfg.hidden * cfg.vocab],
        }
    }

    /// Flatten all gradient buffers (for the optimizer and for equivalence
    /// assertions).
    pub fn flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.tok_emb);
        out.extend_from_slice(&self.pos_emb);
        for l in &self.layers {
            for v in [
                &l.ln1_g, &l.ln1_b, &l.wqkv, &l.bqkv, &l.wproj, &l.bproj, &l.ln2_g, &l.ln2_b,
                &l.w1, &l.b1, &l.w2, &l.b2,
            ] {
                out.extend_from_slice(v);
            }
        }
        out.extend_from_slice(&self.lnf_g);
        out.extend_from_slice(&self.lnf_b);
        out.extend_from_slice(&self.head);
        out
    }
}

impl TinyGpt {
    /// Deterministic initialisation from a seed.
    pub fn new(cfg: GptConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden;
        let scale = 0.08;
        let mut rv =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-scale..scale)).collect() };
        let tok_emb = rv(cfg.vocab * h);
        let pos_emb = rv(cfg.max_seq * h);
        let layers = (0..cfg.n_layers)
            .map(|_| LayerParams {
                shape: cfg.shape(),
                ln1_g: vec![1.0; h],
                ln1_b: vec![0.0; h],
                wqkv: rv(h * 3 * h),
                bqkv: vec![0.0; 3 * h],
                wproj: rv(h * h),
                bproj: vec![0.0; h],
                ln2_g: vec![1.0; h],
                ln2_b: vec![0.0; h],
                w1: rv(h * cfg.ffn),
                b1: vec![0.0; cfg.ffn],
                w2: rv(cfg.ffn * h),
                b2: vec![0.0; h],
            })
            .collect();
        let lnf_g = vec![1.0; h];
        let lnf_b = vec![0.0; h];
        let head = rv(h * cfg.vocab);
        TinyGpt {
            cfg,
            tok_emb,
            pos_emb,
            layers,
            lnf_g,
            lnf_b,
            head,
        }
    }

    /// All parameters flattened (for the optimizer).
    pub(crate) fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.tok_emb);
        out.extend_from_slice(&self.pos_emb);
        for l in &self.layers {
            for v in [
                &l.ln1_g, &l.ln1_b, &l.wqkv, &l.bqkv, &l.wproj, &l.bproj, &l.ln2_g, &l.ln2_b,
                &l.w1, &l.b1, &l.w2, &l.b2,
            ] {
                out.extend_from_slice(v);
            }
        }
        out.extend_from_slice(&self.lnf_g);
        out.extend_from_slice(&self.lnf_b);
        out.extend_from_slice(&self.head);
        out
    }

    /// Write back flattened parameters (inverse of [`Self::flat_params`]).
    pub(crate) fn set_flat_params(&mut self, flat: &[f32]) {
        let mut pos = 0usize;
        let mut take = |dst: &mut Vec<f32>| {
            let n = dst.len();
            dst.copy_from_slice(&flat[pos..pos + n]);
            pos += n;
        };
        take(&mut self.tok_emb);
        take(&mut self.pos_emb);
        for l in &mut self.layers {
            for v in [
                &mut l.ln1_g,
                &mut l.ln1_b,
                &mut l.wqkv,
                &mut l.bqkv,
                &mut l.wproj,
                &mut l.bproj,
                &mut l.ln2_g,
                &mut l.ln2_b,
                &mut l.w1,
                &mut l.b1,
                &mut l.w2,
                &mut l.b2,
            ] {
                take(v);
            }
        }
        take(&mut self.lnf_g);
        take(&mut self.lnf_b);
        take(&mut self.head);
        assert_eq!(pos, flat.len());
    }

    /// Forward + backward of one batch (a single sequence): returns the mean
    /// cross-entropy loss and fills `grads`.
    pub fn loss_and_grad(
        &self,
        tokens: &[usize],
        targets: &[usize],
        policy: Policy,
        grads: &mut GptGrads,
    ) -> f32 {
        let t = tokens.len();
        let h = self.cfg.hidden;
        let v = self.cfg.vocab;
        assert!(t <= self.cfg.max_seq);
        assert_eq!(targets.len(), t);

        // ---- forward ----------------------------------------------------
        let mut store = ActivationStore::new(policy, self.cfg.n_layers);
        let mut x = vec![0.0f32; t * h];
        embedding(&self.tok_emb, tokens, h, &mut x);
        for i in 0..t {
            for j in 0..h {
                x[i * h + j] += self.pos_emb[i * h + j];
            }
        }
        for (idx, layer) in self.layers.iter().enumerate() {
            x = layer.forward(x, t, &mut store, idx);
        }
        // final norm + head
        let mut lnf = vec![0.0f32; t * h];
        layernorm(&x, &self.lnf_g, &self.lnf_b, t, h, &mut lnf);
        let mut logits = vec![0.0f32; t * v];
        matmul(&lnf, &self.head, t, h, v, &mut logits);
        let mut dlogits = vec![0.0f32; t * v];
        let loss = softmax_xent(&logits, targets, t, v, &mut dlogits);

        // ---- backward ---------------------------------------------------
        let mut dlnf = vec![0.0f32; t * h];
        matmul_bwd(
            &lnf,
            &self.head,
            &dlogits,
            t,
            h,
            v,
            &mut dlnf,
            &mut grads.head,
        );
        let mut dx = vec![0.0f32; t * h];
        layernorm_bwd(
            &x,
            &self.lnf_g,
            &dlnf,
            t,
            h,
            &mut dx,
            &mut grads.lnf_g,
            &mut grads.lnf_b,
        );
        for idx in (0..self.layers.len()).rev() {
            let layer = &self.layers[idx];
            let skel = layer.materialize(store.take(idx));
            dx = layer.backward(&skel, &dx, t, &mut grads.layers[idx]);
        }
        // embedding gradients (token + positional)
        embedding_bwd(&dx, tokens, h, &mut grads.tok_emb);
        for i in 0..t {
            for j in 0..h {
                grads.pos_emb[i * h + j] += dx[i * h + j];
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GptConfig {
        GptConfig {
            vocab: 17,
            hidden: 8,
            ffn: 16,
            n_heads: 2,
            n_layers: 2,
            max_seq: 16,
            rope: false,
        }
    }

    #[test]
    fn deterministic_init() {
        let a = TinyGpt::new(cfg(), 42);
        let b = TinyGpt::new(cfg(), 42);
        assert_eq!(a.flat_params(), b.flat_params());
        let c = TinyGpt::new(cfg(), 43);
        assert_ne!(a.flat_params(), c.flat_params());
    }

    #[test]
    fn flat_params_roundtrip() {
        let a = TinyGpt::new(cfg(), 1);
        let flat = a.flat_params();
        let mut b = TinyGpt::new(cfg(), 2);
        b.set_flat_params(&flat);
        assert_eq!(b.flat_params(), flat);
    }

    #[test]
    fn loss_is_near_log_vocab_at_init() {
        let m = TinyGpt::new(cfg(), 7);
        let tokens: Vec<usize> = (0..12).map(|i| i % 17).collect();
        let targets: Vec<usize> = (0..12).map(|i| (i + 1) % 17).collect();
        let mut g = GptGrads::zeros(&cfg());
        let loss = m.loss_and_grad(&tokens, &targets, Policy::KeepAll, &mut g);
        let uniform = (17f32).ln();
        assert!(
            (loss - uniform).abs() < 0.7,
            "init loss {loss} vs ln(V) {uniform}"
        );
    }

    #[test]
    fn gradients_bitwise_equal_across_policies() {
        // The whole-model version of the Figure 12(d) claim.
        let m = TinyGpt::new(cfg(), 11);
        let tokens: Vec<usize> = (0..14).map(|i| (3 * i + 1) % 17).collect();
        let targets: Vec<usize> = (0..14).map(|i| (3 * i + 4) % 17).collect();
        let run = |policy| {
            let mut g = GptGrads::zeros(&cfg());
            let loss = m.loss_and_grad(&tokens, &targets, policy, &mut g);
            (loss, g.flat())
        };
        let (l0, g0) = run(Policy::KeepAll);
        for policy in [
            Policy::FullRecompute,
            Policy::TokenWise { alpha: 0.0 },
            Policy::TokenWise { alpha: 0.125 },
            Policy::TokenWise { alpha: 0.25 },
            Policy::TokenWise { alpha: 0.5 },
            Policy::TokenWise { alpha: 1.0 },
        ] {
            let (l, g) = run(policy);
            assert_eq!(l.to_bits(), l0.to_bits(), "{policy:?}: loss differs");
            assert_eq!(g.len(), g0.len());
            for (i, (a, b)) in g.iter().zip(&g0).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy:?}: grad[{i}] {a} vs {b}");
            }
        }
    }
}
