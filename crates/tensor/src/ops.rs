//! Dense kernels with hand-written backward passes. All tensors are
//! row-major `[rows, cols]` slices of `f32`.

/// `y = x · w`, where `x` is `[t, m]`, `w` is `[m, n]`, `y` is `[t, n]`.
pub(crate) fn matmul(x: &[f32], w: &[f32], t: usize, m: usize, n: usize, y: &mut [f32]) {
    assert_eq!(x.len(), t * m);
    assert_eq!(w.len(), m * n);
    assert_eq!(y.len(), t * n);
    y.fill(0.0);
    for i in 0..t {
        let xr = &x[i * m..(i + 1) * m];
        let yr = &mut y[i * n..(i + 1) * n];
        for (k, &xv) in xr.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let wr = &w[k * n..(k + 1) * n];
            for j in 0..n {
                yr[j] += xv * wr[j];
            }
        }
    }
}

/// Backward of [`matmul`]: `dx += dy · wᵀ`, `dw += xᵀ · dy`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_bwd(
    x: &[f32],
    w: &[f32],
    dy: &[f32],
    t: usize,
    m: usize,
    n: usize,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    assert_eq!(dy.len(), t * n);
    assert_eq!(dx.len(), t * m);
    assert_eq!(dw.len(), m * n);
    for i in 0..t {
        let dyr = &dy[i * n..(i + 1) * n];
        let xr = &x[i * m..(i + 1) * m];
        let dxr = &mut dx[i * m..(i + 1) * m];
        for k in 0..m {
            let wr = &w[k * n..(k + 1) * n];
            let mut acc = 0.0;
            for j in 0..n {
                acc += dyr[j] * wr[j];
            }
            dxr[k] += acc;
        }
        for (k, &xv) in xr.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let dwr = &mut dw[k * n..(k + 1) * n];
            for j in 0..n {
                dwr[j] += xv * dyr[j];
            }
        }
    }
}

/// Add a bias row to every row of `y` (`[t, n] += [n]`).
pub(crate) fn add_bias(y: &mut [f32], b: &[f32], t: usize, n: usize) {
    for i in 0..t {
        for j in 0..n {
            y[i * n + j] += b[j];
        }
    }
}

/// Backward of [`add_bias`]: `db += Σ_rows dy`.
pub(crate) fn add_bias_bwd(dy: &[f32], t: usize, n: usize, db: &mut [f32]) {
    for i in 0..t {
        for j in 0..n {
            db[j] += dy[i * n + j];
        }
    }
}

const LN_EPS: f32 = 1e-5;

/// Row-wise LayerNorm with gain `g` and bias `b`.
pub(crate) fn layernorm(x: &[f32], g: &[f32], b: &[f32], t: usize, n: usize, y: &mut [f32]) {
    for i in 0..t {
        layernorm_row(&x[i * n..(i + 1) * n], g, b, &mut y[i * n..(i + 1) * n]);
    }
}

/// One row of [`layernorm`] — the unit of token-wise recomputation.
pub(crate) fn layernorm_row(x: &[f32], g: &[f32], b: &[f32], y: &mut [f32]) {
    let n = x.len();
    let mean = x.iter().sum::<f32>() / n as f32;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
    let inv = 1.0 / (var + LN_EPS).sqrt();
    for j in 0..n {
        y[j] = (x[j] - mean) * inv * g[j] + b[j];
    }
}

/// Backward of [`layernorm`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn layernorm_bwd(
    x: &[f32],
    g: &[f32],
    dy: &[f32],
    t: usize,
    n: usize,
    dx: &mut [f32],
    dg: &mut [f32],
    db: &mut [f32],
) {
    for i in 0..t {
        let xr = &x[i * n..(i + 1) * n];
        let dyr = &dy[i * n..(i + 1) * n];
        let dxr = &mut dx[i * n..(i + 1) * n];
        let mean = xr.iter().sum::<f32>() / n as f32;
        let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        // xhat_j = (x_j - mean) * inv
        let mut sum_dyg = 0.0f32;
        let mut sum_dyg_xhat = 0.0f32;
        for j in 0..n {
            let xhat = (xr[j] - mean) * inv;
            let dyg = dyr[j] * g[j];
            sum_dyg += dyg;
            sum_dyg_xhat += dyg * xhat;
            dg[j] += dyr[j] * xhat;
            db[j] += dyr[j];
        }
        for j in 0..n {
            let xhat = (xr[j] - mean) * inv;
            let dyg = dyr[j] * g[j];
            dxr[j] += inv * (dyg - sum_dyg / n as f32 - xhat * sum_dyg_xhat / n as f32);
        }
    }
}

/// GELU (tanh approximation), elementwise.
pub(crate) fn gelu(x: &[f32], y: &mut [f32]) {
    for (yo, &xi) in y.iter_mut().zip(x) {
        *yo = gelu_scalar(xi);
    }
}

#[inline]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Backward of [`gelu`]: `dx += gelu'(x) * dy`.
pub(crate) fn gelu_bwd(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    const C: f32 = 0.797_884_6;
    for i in 0..x.len() {
        let xi = x[i];
        let u = C * (xi + 0.044715 * xi * xi * xi);
        let th = u.tanh();
        let sech2 = 1.0 - th * th;
        let du = C * (1.0 + 3.0 * 0.044715 * xi * xi);
        let d = 0.5 * (1.0 + th) + 0.5 * xi * sech2 * du;
        dx[i] += d * dy[i];
    }
}

/// Rotary position embedding (RoPE) applied to one row of one head.
///
/// Pairs `(x[2j], x[2j+1])` rotate by `pos / 10000^(2j/d)` — a per-token,
/// per-position orthogonal transform. Being token-wise, it sits squarely in
/// MEMO's recomputable class: a discarded post-RoPE row is rebuilt from the
/// row's pre-RoPE value and its absolute position.
pub(crate) fn rope_row(x: &mut [f32], pos: usize) {
    let d = x.len();
    let mut j = 0;
    while j + 1 < d {
        let theta = pos as f32 / 10000f32.powf(j as f32 / d as f32);
        let (sin, cos) = theta.sin_cos();
        let (a, b) = (x[j], x[j + 1]);
        x[j] = a * cos - b * sin;
        x[j + 1] = a * sin + b * cos;
        j += 2;
    }
}

/// Backward of [`rope_row`]: rotations are orthogonal, so the gradient
/// rotates by the inverse angle.
pub(crate) fn rope_row_bwd(dy: &mut [f32], pos: usize) {
    let d = dy.len();
    let mut j = 0;
    while j + 1 < d {
        let theta = pos as f32 / 10000f32.powf(j as f32 / d as f32);
        let (sin, cos) = theta.sin_cos();
        let (a, b) = (dy[j], dy[j + 1]);
        dy[j] = a * cos + b * sin;
        dy[j + 1] = -a * sin + b * cos;
        j += 2;
    }
}

/// Embedding lookup: `y[i] = table[ids[i]]`.
pub(crate) fn embedding(table: &[f32], ids: &[usize], n: usize, y: &mut [f32]) {
    for (i, &id) in ids.iter().enumerate() {
        y[i * n..(i + 1) * n].copy_from_slice(&table[id * n..(id + 1) * n]);
    }
}

/// Backward of [`embedding`]: scatter-add.
pub(crate) fn embedding_bwd(dy: &[f32], ids: &[usize], n: usize, dtable: &mut [f32]) {
    for (i, &id) in ids.iter().enumerate() {
        for j in 0..n {
            dtable[id * n + j] += dy[i * n + j];
        }
    }
}

/// Fused softmax cross-entropy over logits `[t, v]` with integer targets.
/// Returns mean loss; writes `dlogits` scaled by `1/t`.
pub(crate) fn softmax_xent(
    logits: &[f32],
    targets: &[usize],
    t: usize,
    v: usize,
    dlogits: &mut [f32],
) -> f32 {
    let mut loss = 0.0f64;
    for i in 0..t {
        let row = &logits[i * v..(i + 1) * v];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for &l in row {
            z += (l - max).exp();
        }
        let lse = max + z.ln();
        loss += (lse - row[targets[i]]) as f64;
        let drow = &mut dlogits[i * v..(i + 1) * v];
        for j in 0..v {
            drow[j] = ((row[j] - lse).exp() - if j == targets[i] { 1.0 } else { 0.0 }) / t as f32;
        }
    }
    (loss / t as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn randv(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Central-difference check of `f`'s gradient at `x` against `analytic`.
    fn check_grad(x: &mut [f32], analytic: &[f32], mut f: impl FnMut(&[f32]) -> f32, tol: f32) {
        for i in 0..x.len() {
            let eps = 1e-2;
            let orig = x[i];
            x[i] = orig + eps;
            let fp = f(x);
            x[i] = orig - eps;
            let fm = f(x);
            x[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let a = analytic[i];
            let denom = num.abs().max(a.abs()).max(1e-3);
            assert!(
                ((num - a) / denom).abs() < tol,
                "grad[{i}]: numeric {num} vs analytic {a}"
            );
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let (t, m, n) = (3, 4, 5);
        let x = randv(&mut rng, t * m);
        let w = randv(&mut rng, m * n);
        let mut y = vec![0.0; t * n];
        matmul(&x, &w, t, m, n, &mut y);
        for i in 0..t {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..m {
                    acc += x[i * m + k] * w[k * n + j];
                }
                assert!((y[i * n + j] - acc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matmul_gradients_numerical() {
        let mut rng = StdRng::seed_from_u64(2);
        let (t, m, n) = (2, 3, 4);
        let mut x = randv(&mut rng, t * m);
        let mut w = randv(&mut rng, m * n);
        let target = randv(&mut rng, t * n);
        // loss = sum((x·w - target)^2) / 2
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            let mut y = vec![0.0; t * n];
            matmul(x, w, t, m, n, &mut y);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut y = vec![0.0; t * n];
        matmul(&x, &w, t, m, n, &mut y);
        let dy: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        let mut dx = vec![0.0; t * m];
        let mut dw = vec![0.0; m * n];
        matmul_bwd(&x, &w, &dy, t, m, n, &mut dx, &mut dw);
        let wc = w.clone();
        check_grad(&mut x, &dx, |x| loss(x, &wc), 0.05);
        let xc = x.clone();
        check_grad(&mut w, &dw, |w| loss(&xc, w), 0.05);
    }

    #[test]
    fn layernorm_gradients_numerical() {
        let mut rng = StdRng::seed_from_u64(3);
        let (t, n) = (3, 6);
        let mut x = randv(&mut rng, t * n);
        let g = randv(&mut rng, n);
        let b = randv(&mut rng, n);
        let target = randv(&mut rng, t * n);
        let loss = |x: &[f32]| -> f32 {
            let mut y = vec![0.0; t * n];
            layernorm(x, &g, &b, t, n, &mut y);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut y = vec![0.0; t * n];
        layernorm(&x, &g, &b, t, n, &mut y);
        let dy: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        let (mut dx, mut dg, mut db) = (vec![0.0; t * n], vec![0.0; n], vec![0.0; n]);
        layernorm_bwd(&x, &g, &dy, t, n, &mut dx, &mut dg, &mut db);
        check_grad(&mut x, &dx, loss, 0.08);
    }

    #[test]
    fn gelu_gradient_numerical() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = randv(&mut rng, 10);
        let target = randv(&mut rng, 10);
        let loss = |x: &[f32]| -> f32 {
            let mut y = vec![0.0; x.len()];
            gelu(x, &mut y);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut y = vec![0.0; 10];
        gelu(&x, &mut y);
        let dy: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        let mut dx = vec![0.0; 10];
        gelu_bwd(&x, &dy, &mut dx);
        check_grad(&mut x, &dx, loss, 0.05);
    }

    #[test]
    fn rope_preserves_norm_and_inverts() {
        let mut rng = StdRng::seed_from_u64(17);
        for pos in [0usize, 1, 7, 100] {
            let x = randv(&mut rng, 8);
            let norm: f32 = x.iter().map(|v| v * v).sum();
            let mut y = x.clone();
            rope_row(&mut y, pos);
            let norm2: f32 = y.iter().map(|v| v * v).sum();
            assert!((norm - norm2).abs() < 1e-4, "rotation preserves norm");
            // inverse rotation restores the input
            rope_row_bwd(&mut y, pos);
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let x = vec![0.3f32, -0.7, 1.1, 0.2];
        let mut y = x.clone();
        rope_row(&mut y, 0);
        assert_eq!(x, y);
    }

    #[test]
    fn rope_gradient_numerical() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut x = randv(&mut rng, 6);
        let target = randv(&mut rng, 6);
        let pos = 5;
        let loss = |x: &[f32]| -> f32 {
            let mut y = x.to_vec();
            rope_row(&mut y, pos);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / 2.0
        };
        let mut y = x.clone();
        rope_row(&mut y, pos);
        let mut dy: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        rope_row_bwd(&mut dy, pos);
        check_grad(&mut x, &dy, loss, 0.05);
    }

    #[test]
    fn embedding_roundtrip_and_bwd() {
        let n = 4;
        let table: Vec<f32> = (0..3 * n).map(|i| i as f32).collect();
        let ids = [2usize, 0, 2];
        let mut y = vec![0.0; 3 * n];
        embedding(&table, &ids, n, &mut y);
        assert_eq!(&y[0..n], &table[2 * n..3 * n]);
        let dy = vec![1.0; 3 * n];
        let mut dt = vec![0.0; 3 * n];
        embedding_bwd(&dy, &ids, n, &mut dt);
        assert_eq!(dt[2 * n], 2.0); // id 2 hit twice
        assert_eq!(dt[0], 1.0);
        assert_eq!(dt[n], 0.0); // id 1 never hit
    }

    #[test]
    fn xent_matches_manual_and_grads_sum_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let (t, v) = (4, 7);
        let logits = randv(&mut rng, t * v);
        let targets: Vec<usize> = (0..t).map(|_| rng.gen_range(0..v)).collect();
        let mut dl = vec![0.0; t * v];
        let loss = softmax_xent(&logits, &targets, t, v, &mut dl);
        assert!(loss > 0.0);
        // each row's gradient sums to zero
        for i in 0..t {
            let s: f32 = dl[i * v..(i + 1) * v].iter().sum();
            assert!(s.abs() < 1e-5);
        }
        // uniform logits → loss = ln(v)
        let uniform = vec![0.0; t * v];
        let mut d2 = vec![0.0; t * v];
        let l2 = softmax_xent(&uniform, &targets, t, v, &mut d2);
        assert!((l2 - (v as f32).ln()).abs() < 1e-5);
    }
}
