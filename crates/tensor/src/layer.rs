//! One decoder transformer layer with manual forward/backward and
//! policy-driven rematerialisation.
//!
//! The reconstruction path is the point of this module: every skeletal
//! tensor except the attention output is a **per-token** function of the
//! layer input, so discarded token rows are rebuilt row-by-row with exactly
//! the same kernels the forward pass used — making the rebuilt values
//! bitwise identical and the whole mechanism gradient-transparent.

use crate::attention::{attention_bwd, attention_fwd};
use crate::ops::*;
#[cfg(test)]
use crate::store::Policy;
use crate::store::{ActivationStore, Skeletal, Stash};

/// Layer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    pub(crate) hidden: usize,
    pub ffn: usize,
    pub(crate) n_heads: usize,
    /// Apply rotary position embeddings to q/k. RoPE is per-token, so the
    /// post-RoPE q/k rows remain token-wise recomputable.
    pub rope: bool,
}

impl LayerShape {
    fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }
}

/// Learnable parameters of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    pub(crate) shape: LayerShape,
    pub(crate) ln1_g: Vec<f32>,
    pub(crate) ln1_b: Vec<f32>,
    pub(crate) wqkv: Vec<f32>,  // [h, 3h]
    pub(crate) bqkv: Vec<f32>,  // [3h]
    pub(crate) wproj: Vec<f32>, // [h, h]
    pub(crate) bproj: Vec<f32>,
    pub(crate) ln2_g: Vec<f32>,
    pub(crate) ln2_b: Vec<f32>,
    pub(crate) w1: Vec<f32>, // [h, f]
    pub(crate) b1: Vec<f32>,
    pub(crate) w2: Vec<f32>, // [f, h]
    pub(crate) b2: Vec<f32>,
}

/// Gradient buffers matching [`LayerParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrads {
    pub(crate) ln1_g: Vec<f32>,
    pub(crate) ln1_b: Vec<f32>,
    pub wqkv: Vec<f32>,
    pub(crate) bqkv: Vec<f32>,
    pub(crate) wproj: Vec<f32>,
    pub(crate) bproj: Vec<f32>,
    pub(crate) ln2_g: Vec<f32>,
    pub(crate) ln2_b: Vec<f32>,
    pub(crate) w1: Vec<f32>,
    pub(crate) b1: Vec<f32>,
    pub(crate) w2: Vec<f32>,
    pub(crate) b2: Vec<f32>,
}

impl LayerGrads {
    pub fn zeros(shape: LayerShape) -> Self {
        let (h, f) = (shape.hidden, shape.ffn);
        LayerGrads {
            ln1_g: vec![0.0; h],
            ln1_b: vec![0.0; h],
            wqkv: vec![0.0; h * 3 * h],
            bqkv: vec![0.0; 3 * h],
            wproj: vec![0.0; h * h],
            bproj: vec![0.0; h],
            ln2_g: vec![0.0; h],
            ln2_b: vec![0.0; h],
            w1: vec![0.0; h * f],
            b1: vec![0.0; f],
            w2: vec![0.0; f * h],
            b2: vec![0.0; h],
        }
    }
}

impl LayerParams {
    /// Compute the layer's skeletal tensors for token rows `[row0, row1)`,
    /// given the full input and (for `res1` onward) the full attention
    /// output. Used both by the forward pass (full range) and by the
    /// token-wise reconstruction (missing suffix).
    fn compute_rows(
        &self,
        input: &[f32],
        attn_out: &[f32],
        row0: usize,
        row1: usize,
        out: &mut Skeletal,
    ) {
        let h = self.shape.hidden;
        let f = self.shape.ffn;
        for i in row0..row1 {
            let x = &input[i * h..(i + 1) * h];
            // LN1
            let mut ln1 = vec![0.0f32; h];
            layernorm_row(x, &self.ln1_g, &self.ln1_b, &mut ln1);
            // QKV projection (row of a [1,h]·[h,3h] matmul + bias)
            let mut qkv = vec![0.0f32; 3 * h];
            matmul(&ln1, &self.wqkv, 1, h, 3 * h, &mut qkv);
            for (j, qv) in qkv.iter_mut().enumerate() {
                *qv += self.bqkv[j];
            }
            if self.shape.rope {
                let d = self.shape.head_dim();
                for a in 0..self.shape.n_heads {
                    rope_row(&mut qkv[a * d..(a + 1) * d], i); // q head a
                    rope_row(&mut qkv[h + a * d..h + (a + 1) * d], i); // k head a
                }
            }
            // proj of the attention output row + residual
            let a = &attn_out[i * h..(i + 1) * h];
            let mut proj = vec![0.0f32; h];
            matmul(a, &self.wproj, 1, h, h, &mut proj);
            let mut res1 = vec![0.0f32; h];
            for j in 0..h {
                res1[j] = x[j] + proj[j] + self.bproj[j];
            }
            // LN2, FC1, GELU
            let mut ln2 = vec![0.0f32; h];
            layernorm_row(&res1, &self.ln2_g, &self.ln2_b, &mut ln2);
            let mut fc1 = vec![0.0f32; f];
            matmul(&ln2, &self.w1, 1, h, f, &mut fc1);
            for (j, x1) in fc1.iter_mut().enumerate() {
                *x1 += self.b1[j];
            }
            let mut ge = vec![0.0f32; f];
            gelu(&fc1, &mut ge);

            out.ln1[i * h..(i + 1) * h].copy_from_slice(&ln1);
            out.q[i * h..(i + 1) * h].copy_from_slice(&qkv[0..h]);
            out.k[i * h..(i + 1) * h].copy_from_slice(&qkv[h..2 * h]);
            out.v[i * h..(i + 1) * h].copy_from_slice(&qkv[2 * h..3 * h]);
            out.res1[i * h..(i + 1) * h].copy_from_slice(&res1);
            out.ln2[i * h..(i + 1) * h].copy_from_slice(&ln2);
            out.fc1[i * f..(i + 1) * f].copy_from_slice(&fc1);
            out.gelu[i * f..(i + 1) * f].copy_from_slice(&ge);
        }
    }

    /// Full forward pass: stashes skeletal tensors into `store`, returns the
    /// layer output.
    pub fn forward(
        &self,
        input: Vec<f32>,
        t: usize,
        store: &mut ActivationStore,
        idx: usize,
    ) -> Vec<f32> {
        let h = self.shape.hidden;
        let f = self.shape.ffn;
        let mut skel = Skeletal {
            input,
            ln1: vec![0.0; t * h],
            q: vec![0.0; t * h],
            k: vec![0.0; t * h],
            v: vec![0.0; t * h],
            attn: None,
            res1: vec![0.0; t * h],
            ln2: vec![0.0; t * h],
            fc1: vec![0.0; t * f],
            gelu: vec![0.0; t * f],
        };
        // Phase 1: LN1 + QKV (token-wise) — computed via the same row
        // kernel the reconstruction uses.
        {
            let input = std::mem::take(&mut skel.input);
            let dummy_attn = vec![0.0f32; t * h];
            self.compute_rows(&input, &dummy_attn, 0, t, &mut skel);
            skel.input = input;
        }
        // Phase 2: attention over the full q/k/v.
        let attn = attention_fwd(
            &skel.q,
            &skel.k,
            &skel.v,
            t,
            self.shape.n_heads,
            self.shape.head_dim(),
        );
        // Phase 3: proj/res1/LN2/FFN (token-wise) with the real attention.
        {
            let input = std::mem::take(&mut skel.input);
            self.compute_rows(&input, &attn.out, 0, t, &mut skel);
            skel.input = input;
        }
        // Output = res1 + fc2(gelu)
        let mut fc2 = vec![0.0f32; t * h];
        matmul(&skel.gelu, &self.w2, t, f, h, &mut fc2);
        add_bias(&mut fc2, &self.b2, t, h);
        let mut out = vec![0.0f32; t * h];
        for i in 0..t * h {
            out[i] = skel.res1[i] + fc2[i];
        }
        skel.attn = Some(attn);
        store.save(idx, t, skel);
        out
    }

    /// Rebuild the full skeletal set from a (possibly partial) stash.
    pub fn materialize(&self, stash: Stash) -> Skeletal {
        let t = stash.t;
        let h = self.shape.hidden;
        let f = self.shape.ffn;
        let keep = stash.rows_kept;
        let mut skel = Skeletal {
            input: stash.input,
            ln1: grow(stash.ln1, t * h),
            q: grow(stash.q, t * h),
            k: grow(stash.k, t * h),
            v: grow(stash.v, t * h),
            attn: None,
            res1: grow(stash.res1, t * h),
            ln2: grow(stash.ln2, t * h),
            fc1: grow(stash.fc1, t * f),
            gelu: grow(stash.gelu, t * f),
        };
        let attn = match stash.attn {
            Some(a) => a,
            None => {
                // Full recomputation: rebuild q/k/v for all rows, then re-run
                // the attention forward.
                let input = std::mem::take(&mut skel.input);
                let dummy = vec![0.0f32; t * h];
                self.compute_rows(&input, &dummy, keep, t, &mut skel);
                skel.input = input;
                // rows < keep already hold q/k/v (KeepAll) — under
                // FullRecompute keep == 0, so this covers everything.
                attention_fwd(
                    &skel.q,
                    &skel.k,
                    &skel.v,
                    t,
                    self.shape.n_heads,
                    self.shape.head_dim(),
                )
            }
        };
        if keep < t {
            let input = std::mem::take(&mut skel.input);
            self.compute_rows(&input, &attn.out, keep, t, &mut skel);
            skel.input = input;
        }
        skel.attn = Some(attn);
        skel
    }

    /// Backward pass. Consumes the rebuilt skeletal set; returns `d(input)`.
    pub fn backward(
        &self,
        skel: &Skeletal,
        dout: &[f32],
        t: usize,
        g: &mut LayerGrads,
    ) -> Vec<f32> {
        let h = self.shape.hidden;
        let f = self.shape.ffn;
        let heads = self.shape.n_heads;
        let d = self.shape.head_dim();
        let attn = skel.attn.as_ref().expect("materialized skeleton");

        // out = res1 + fc2(gelu)
        let dres_out = dout; // residual branch
                             // FC2
        let mut dgelu = vec![0.0f32; t * f];
        matmul_bwd(&skel.gelu, &self.w2, dout, t, f, h, &mut dgelu, &mut g.w2);
        add_bias_bwd(dout, t, h, &mut g.b2);
        // GELU
        let mut dfc1 = vec![0.0f32; t * f];
        gelu_bwd(&skel.fc1, &dgelu, &mut dfc1);
        // FC1
        let mut dln2 = vec![0.0f32; t * h];
        matmul_bwd(&skel.ln2, &self.w1, &dfc1, t, h, f, &mut dln2, &mut g.w1);
        add_bias_bwd(&dfc1, t, f, &mut g.b1);
        // LN2
        let mut dres1 = vec![0.0f32; t * h];
        layernorm_bwd(
            &skel.res1,
            &self.ln2_g,
            &dln2,
            t,
            h,
            &mut dres1,
            &mut g.ln2_g,
            &mut g.ln2_b,
        );
        // residual join: res1 also feeds the output directly
        for i in 0..t * h {
            dres1[i] += dres_out[i];
        }
        // res1 = input + proj(attn) + bproj
        add_bias_bwd(&dres1, t, h, &mut g.bproj);
        let mut dattn = vec![0.0f32; t * h];
        matmul_bwd(
            &attn.out,
            &self.wproj,
            &dres1,
            t,
            h,
            h,
            &mut dattn,
            &mut g.wproj,
        );
        // attention
        let (mut dq, mut dk, mut dv) = (
            vec![0.0f32; t * h],
            vec![0.0f32; t * h],
            vec![0.0f32; t * h],
        );
        attention_bwd(
            &skel.q, &skel.k, &skel.v, attn, &dattn, t, heads, d, &mut dq, &mut dk, &mut dv,
        );
        // RoPE backward: rotate dq/dk by the inverse angle per row and head.
        if self.shape.rope {
            let dd = self.shape.head_dim();
            for i in 0..t {
                for a in 0..heads {
                    rope_row_bwd(&mut dq[i * h + a * dd..i * h + (a + 1) * dd], i);
                    rope_row_bwd(&mut dk[i * h + a * dd..i * h + (a + 1) * dd], i);
                }
            }
        }
        // QKV projection: pack the gradients column-wise
        let mut dqkv = vec![0.0f32; t * 3 * h];
        for i in 0..t {
            dqkv[i * 3 * h..i * 3 * h + h].copy_from_slice(&dq[i * h..(i + 1) * h]);
            dqkv[i * 3 * h + h..i * 3 * h + 2 * h].copy_from_slice(&dk[i * h..(i + 1) * h]);
            dqkv[i * 3 * h + 2 * h..i * 3 * h + 3 * h].copy_from_slice(&dv[i * h..(i + 1) * h]);
        }
        let mut dln1 = vec![0.0f32; t * h];
        matmul_bwd(
            &skel.ln1,
            &self.wqkv,
            &dqkv,
            t,
            h,
            3 * h,
            &mut dln1,
            &mut g.wqkv,
        );
        add_bias_bwd(&dqkv, t, 3 * h, &mut g.bqkv);
        // LN1
        let mut dinput = vec![0.0f32; t * h];
        layernorm_bwd(
            &skel.input,
            &self.ln1_g,
            &dln1,
            t,
            h,
            &mut dinput,
            &mut g.ln1_g,
            &mut g.ln1_b,
        );
        // residual join: input also feeds res1 directly
        for i in 0..t * h {
            dinput[i] += dres1[i];
        }
        dinput
    }
}

fn grow(mut v: Vec<f32>, len: usize) -> Vec<f32> {
    v.resize(len, 0.0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    pub(crate) fn random_layer(rng: &mut StdRng, shape: LayerShape) -> LayerParams {
        let (h, f) = (shape.hidden, shape.ffn);
        let mut rv = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        LayerParams {
            shape,
            ln1_g: vec![1.0; h],
            ln1_b: vec![0.0; h],
            wqkv: rv(h * 3 * h, 0.2),
            bqkv: rv(3 * h, 0.05),
            wproj: rv(h * h, 0.2),
            bproj: rv(h, 0.05),
            ln2_g: vec![1.0; h],
            ln2_b: vec![0.0; h],
            w1: rv(h * f, 0.2),
            b1: rv(f, 0.05),
            w2: rv(f * h, 0.2),
            b2: rv(h, 0.05),
        }
    }

    fn shape() -> LayerShape {
        LayerShape {
            hidden: 8,
            ffn: 16,
            n_heads: 2,
            rope: false,
        }
    }

    fn shape_rope() -> LayerShape {
        LayerShape {
            rope: true,
            ..shape()
        }
    }

    #[test]
    fn forward_deterministic_across_policies() {
        let mut rng = StdRng::seed_from_u64(21);
        let layer = random_layer(&mut rng, shape());
        let t = 12;
        let input: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut outs = Vec::new();
        for policy in [
            Policy::KeepAll,
            Policy::FullRecompute,
            Policy::TokenWise { alpha: 0.25 },
        ] {
            let mut store = ActivationStore::new(policy, 1);
            outs.push(layer.forward(input.clone(), t, &mut store, 0));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
    }

    #[test]
    fn materialization_is_bitwise_exact() {
        // The crux of Figure 12(d): rebuilt skeletal tensors must equal the
        // originals bit for bit, for every policy.
        let mut rng = StdRng::seed_from_u64(22);
        let layer = random_layer(&mut rng, shape());
        let t = 10;
        let input: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let mut keep_store = ActivationStore::new(Policy::KeepAll, 1);
        layer.forward(input.clone(), t, &mut keep_store, 0);
        let truth = layer.materialize(keep_store.take(0));

        for policy in [
            Policy::FullRecompute,
            Policy::TokenWise { alpha: 0.0 },
            Policy::TokenWise { alpha: 0.125 },
            Policy::TokenWise { alpha: 0.5 },
            Policy::TokenWise { alpha: 1.0 },
        ] {
            let mut store = ActivationStore::new(policy, 1);
            layer.forward(input.clone(), t, &mut store, 0);
            let rebuilt = layer.materialize(store.take(0));
            assert_eq!(rebuilt.ln1, truth.ln1, "{policy:?}: ln1");
            assert_eq!(rebuilt.q, truth.q, "{policy:?}: q");
            assert_eq!(rebuilt.k, truth.k, "{policy:?}: k");
            assert_eq!(rebuilt.v, truth.v, "{policy:?}: v");
            assert_eq!(
                rebuilt.attn.as_ref().unwrap().out,
                truth.attn.as_ref().unwrap().out,
                "{policy:?}: attn"
            );
            assert_eq!(rebuilt.res1, truth.res1, "{policy:?}: res1");
            assert_eq!(rebuilt.ln2, truth.ln2, "{policy:?}: ln2");
            assert_eq!(rebuilt.fc1, truth.fc1, "{policy:?}: fc1");
            assert_eq!(rebuilt.gelu, truth.gelu, "{policy:?}: gelu");
        }
    }

    #[test]
    fn gradients_identical_across_policies() {
        let mut rng = StdRng::seed_from_u64(23);
        let layer = random_layer(&mut rng, shape());
        let t = 9;
        let input: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dout: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let run = |policy: Policy| -> (Vec<f32>, LayerGrads) {
            let mut store = ActivationStore::new(policy, 1);
            layer.forward(input.clone(), t, &mut store, 0);
            let skel = layer.materialize(store.take(0));
            let mut g = LayerGrads::zeros(shape());
            let dinput = layer.backward(&skel, &dout, t, &mut g);
            (dinput, g)
        };
        let (di0, g0) = run(Policy::KeepAll);
        for policy in [
            Policy::FullRecompute,
            Policy::TokenWise { alpha: 0.25 },
            Policy::TokenWise { alpha: 1.0 },
        ] {
            let (di, g) = run(policy);
            assert_eq!(di, di0, "{policy:?}: dinput");
            assert_eq!(g.wqkv, g0.wqkv, "{policy:?}: wqkv grads");
            assert_eq!(g.w2, g0.w2, "{policy:?}: w2 grads");
            assert_eq!(g.ln1_g, g0.ln1_g, "{policy:?}: ln1 grads");
        }
    }

    #[test]
    fn per_tensor_policy_gradients_identical() {
        use crate::store::TensorMask;
        let mut rng = StdRng::seed_from_u64(37);
        let layer = random_layer(&mut rng, shape());
        let t = 10;
        let input: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dout: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let run = |policy: Policy| {
            let mut store = ActivationStore::new(policy, 1);
            layer.forward(input.clone(), t, &mut store, 0);
            let skel = layer.materialize(store.take(0));
            let mut g = LayerGrads::zeros(shape());
            let dinput = layer.backward(&skel, &dout, t, &mut g);
            (dinput, g.w1)
        };
        let (di0, g0) = run(Policy::KeepAll);
        for keep in [
            TensorMask::NONE,
            TensorMask {
                fc1: true,
                gelu: true,
                ..TensorMask::NONE
            },
            TensorMask {
                qkv: true,
                ..TensorMask::NONE
            },
            TensorMask::ALL,
        ] {
            let (di, g) = run(Policy::PerTensor { keep });
            assert_eq!(di, di0, "{keep:?}");
            assert_eq!(g, g0, "{keep:?}");
        }
    }

    #[test]
    fn rope_layer_gradients_identical_across_policies() {
        // RoPE is position-dependent but token-wise: the recompute path must
        // reproduce post-RoPE q/k rows bitwise.
        let mut rng = StdRng::seed_from_u64(31);
        let layer = random_layer(&mut rng, shape_rope());
        let t = 11;
        let input: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dout: Vec<f32> = (0..t * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let run = |policy: Policy| {
            let mut store = ActivationStore::new(policy, 1);
            layer.forward(input.clone(), t, &mut store, 0);
            let skel = layer.materialize(store.take(0));
            let mut g = LayerGrads::zeros(shape_rope());
            let dinput = layer.backward(&skel, &dout, t, &mut g);
            (dinput, g.wqkv)
        };
        let (di0, g0) = run(Policy::KeepAll);
        for policy in [Policy::FullRecompute, Policy::TokenWise { alpha: 0.375 }] {
            let (di, g) = run(policy);
            assert_eq!(di, di0, "{policy:?}");
            assert_eq!(g, g0, "{policy:?}");
        }
    }

    #[test]
    fn rope_layer_backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(32);
        let layer = random_layer(&mut rng, shape_rope());
        let t = 5;
        let h = 8;
        let mut input: Vec<f32> = (0..t * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let target: Vec<f32> = (0..t * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let loss = |input: &[f32]| -> f32 {
            let mut store = ActivationStore::new(Policy::KeepAll, 1);
            let out = layer.forward(input.to_vec(), t, &mut store, 0);
            out.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut store = ActivationStore::new(Policy::KeepAll, 1);
        let out = layer.forward(input.clone(), t, &mut store, 0);
        let dout: Vec<f32> = out.iter().zip(&target).map(|(a, b)| a - b).collect();
        let skel = layer.materialize(store.take(0));
        let mut g = LayerGrads::zeros(shape_rope());
        let dinput = layer.backward(&skel, &dout, t, &mut g);
        for i in (0..t * h).step_by(5) {
            let eps = 1e-2;
            let orig = input[i];
            input[i] = orig + eps;
            let fp = loss(&input);
            input[i] = orig - eps;
            let fm = loss(&input);
            input[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let a = dinput[i];
            let denom = num.abs().max(a.abs()).max(1e-2);
            assert!(
                ((num - a) / denom).abs() < 0.1,
                "dinput[{i}]: numeric {num} vs analytic {a}"
            );
        }
    }

    #[test]
    fn layer_backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(24);
        let layer = random_layer(&mut rng, shape());
        let t = 5;
        let h = 8;
        let mut input: Vec<f32> = (0..t * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let target: Vec<f32> = (0..t * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let loss = |input: &[f32]| -> f32 {
            let mut store = ActivationStore::new(Policy::KeepAll, 1);
            let out = layer.forward(input.to_vec(), t, &mut store, 0);
            out.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut store = ActivationStore::new(Policy::KeepAll, 1);
        let out = layer.forward(input.clone(), t, &mut store, 0);
        let dout: Vec<f32> = out.iter().zip(&target).map(|(a, b)| a - b).collect();
        let skel = layer.materialize(store.take(0));
        let mut g = LayerGrads::zeros(shape());
        let dinput = layer.backward(&skel, &dout, t, &mut g);

        for i in (0..t * h).step_by(3) {
            let eps = 1e-2;
            let orig = input[i];
            input[i] = orig + eps;
            let fp = loss(&input);
            input[i] = orig - eps;
            let fm = loss(&input);
            input[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let a = dinput[i];
            let denom = num.abs().max(a.abs()).max(1e-2);
            assert!(
                ((num - a) / denom).abs() < 0.1,
                "dinput[{i}]: numeric {num} vs analytic {a}"
            );
        }
    }
}
