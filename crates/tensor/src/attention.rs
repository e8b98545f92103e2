//! Causal multi-head attention in the FlashAttention style.
//!
//! Forward streams over keys with an online softmax, storing only the output
//! `O` and the per-row log-sum-exp `L` — never the `T×T` probability matrix
//! (the memory property that makes long-context training linear in `s`,
//! §2.1.3). Backward recomputes probabilities row-by-row from `Q, K, L`,
//! exactly like the FlashAttention backward kernel.
//!
//! Layout: `q`, `k`, `v` are `[t, h]` with `h = n_heads · d`; head `a` owns
//! columns `[a·d, (a+1)·d)`.

/// Output of the forward pass: the attention output and the log-sum-exp per
/// (row, head) — the only state the backward needs besides `q/k/v`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AttnOutput {
    pub(crate) out: Vec<f32>,
    pub(crate) lse: Vec<f32>, // [t * n_heads]
}

/// Streaming causal attention forward.
pub(crate) fn attention_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    t: usize,
    n_heads: usize,
    d: usize,
) -> AttnOutput {
    let h = n_heads * d;
    assert_eq!(q.len(), t * h);
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = vec![0.0f32; t * h];
    let mut lse = vec![0.0f32; t * n_heads];

    for a in 0..n_heads {
        let col = a * d;
        for i in 0..t {
            // online softmax over j ≤ i
            let qi = &q[i * h + col..i * h + col + d];
            let mut m = f32::NEG_INFINITY;
            let mut z = 0.0f32;
            let mut acc = vec![0.0f32; d];
            for j in 0..=i {
                let kj = &k[j * h + col..j * h + col + d];
                let s: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
                let m_new = m.max(s);
                let corr = if m.is_finite() {
                    (m - m_new).exp()
                } else {
                    0.0
                };
                let p = (s - m_new).exp();
                z = z * corr + p;
                let vj = &v[j * h + col..j * h + col + d];
                for (x, &vv) in acc.iter_mut().zip(vj) {
                    *x = *x * corr + p * vv;
                }
                m = m_new;
            }
            let inv = 1.0 / z;
            for (x, o) in acc.iter().zip(&mut out[i * h + col..i * h + col + d]) {
                *o = x * inv;
            }
            lse[i * n_heads + a] = m + z.ln();
        }
    }
    AttnOutput { out, lse }
}

/// FlashAttention-style backward: recompute `P` from `Q, K, L`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    o: &AttnOutput,
    dout: &[f32],
    t: usize,
    n_heads: usize,
    d: usize,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let h = n_heads * d;
    let scale = 1.0 / (d as f32).sqrt();

    for a in 0..n_heads {
        let col = a * d;
        for i in 0..t {
            let qi = &q[i * h + col..i * h + col + d];
            let doi = &dout[i * h + col..i * h + col + d];
            let oi = &o.out[i * h + col..i * h + col + d];
            let lse = o.lse[i * n_heads + a];
            // D_i = rowsum(dO ⊙ O)
            let di: f32 = doi.iter().zip(oi).map(|(x, y)| x * y).sum();
            for j in 0..=i {
                let kj = &k[j * h + col..j * h + col + d];
                let vj = &v[j * h + col..j * h + col + d];
                let s: f32 = qi.iter().zip(kj).map(|(x, y)| x * y).sum::<f32>() * scale;
                let p = (s - lse).exp();
                // dV_j += p * dO_i
                let dvj = &mut dv[j * h + col..j * h + col + d];
                for (x, &g) in dvj.iter_mut().zip(doi) {
                    *x += p * g;
                }
                // dP = dO · V_j ; dS = p * (dP - D_i)
                let dp: f32 = doi.iter().zip(vj).map(|(x, y)| x * y).sum();
                let ds = p * (dp - di) * scale;
                let dqi = &mut dq[i * h + col..i * h + col + d];
                for (x, &kv) in dqi.iter_mut().zip(kj) {
                    *x += ds * kv;
                }
                let dkj = &mut dk[j * h + col..j * h + col + d];
                for (x, &qv) in dkj.iter_mut().zip(qi) {
                    *x += ds * qv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn randv(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Dense reference attention (materialises the T×T matrix).
    #[allow(clippy::needless_range_loop)]
    fn reference(q: &[f32], k: &[f32], v: &[f32], t: usize, n_heads: usize, d: usize) -> Vec<f32> {
        let h = n_heads * d;
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; t * h];
        for a in 0..n_heads {
            let col = a * d;
            for i in 0..t {
                let mut scores = vec![f32::NEG_INFINITY; t];
                for j in 0..=i {
                    let mut s = 0.0;
                    for x in 0..d {
                        s += q[i * h + col + x] * k[j * h + col + x];
                    }
                    scores[j] = s * scale;
                }
                let m = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let z: f32 = scores.iter().map(|&s| (s - m).exp()).sum();
                for j in 0..=i {
                    let p = (scores[j] - m).exp() / z;
                    for x in 0..d {
                        out[i * h + col + x] += p * v[j * h + col + x];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn streaming_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let (t, n_heads, d) = (9, 2, 4);
        let h = n_heads * d;
        let q = randv(&mut rng, t * h);
        let k = randv(&mut rng, t * h);
        let v = randv(&mut rng, t * h);
        let flash = attention_fwd(&q, &k, &v, t, n_heads, d);
        let dense = reference(&q, &k, &v, t, n_heads, d);
        for (a, b) in flash.out.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn causality_first_row_copies_v0() {
        let mut rng = StdRng::seed_from_u64(8);
        let (t, n_heads, d) = (5, 1, 3);
        let q = randv(&mut rng, t * d);
        let k = randv(&mut rng, t * d);
        let v = randv(&mut rng, t * d);
        let o = attention_fwd(&q, &k, &v, t, n_heads, d);
        // row 0 attends only to position 0
        for x in 0..d {
            assert!((o.out[x] - v[x]).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(9);
        let (t, n_heads, d) = (5, 2, 3);
        let h = n_heads * d;
        let q = randv(&mut rng, t * h);
        let k = randv(&mut rng, t * h);
        let v = randv(&mut rng, t * h);
        let target = randv(&mut rng, t * h);

        let loss = |q: &[f32], k: &[f32], v: &[f32]| -> f32 {
            let o = attention_fwd(q, k, v, t, n_heads, d);
            o.out
                .iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };

        let o = attention_fwd(&q, &k, &v, t, n_heads, d);
        let dout: Vec<f32> = o.out.iter().zip(&target).map(|(a, b)| a - b).collect();
        let (mut dq, mut dk, mut dv) = (vec![0.0; t * h], vec![0.0; t * h], vec![0.0; t * h]);
        attention_bwd(
            &q, &k, &v, &o, &dout, t, n_heads, d, &mut dq, &mut dk, &mut dv,
        );

        for which in 0..3 {
            let analytic = match which {
                0 => &dq,
                1 => &dk,
                _ => &dv,
            };
            for i in 0..t * h {
                let eps = 1e-2;
                let perturb = |delta: f32, q: &[f32], k: &[f32], v: &[f32]| -> f32 {
                    let mut qq = q.to_vec();
                    let mut kk = k.to_vec();
                    let mut vv = v.to_vec();
                    match which {
                        0 => qq[i] += delta,
                        1 => kk[i] += delta,
                        _ => vv[i] += delta,
                    }
                    loss(&qq, &kk, &vv)
                };
                let fp = perturb(eps, &q, &k, &v);
                let fm = perturb(-eps, &q, &k, &v);
                let num = (fp - fm) / (2.0 * eps);
                let a = analytic[i];
                let denom = num.abs().max(a.abs()).max(1e-2);
                assert!(
                    ((num - a) / denom).abs() < 0.08,
                    "{which} grad[{i}]: numeric {num} vs analytic {a}"
                );
            }
        }
    }
}
