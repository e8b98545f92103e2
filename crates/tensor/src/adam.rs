//! Adam over flattened parameter vectors.

/// Adam state (first/second moments, step counter).
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    step: u64,
}

impl Adam {
    pub(crate) fn new(n_params: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            step: 0,
        }
    }

    /// One update: `params -= lr · m̂ / (√v̂ + eps)`.
    pub(crate) fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.step += 1;
        let b1c = 1.0 - self.beta1.powi(self.step as i32);
        let b2c = 1.0 - self.beta2.powi(self.step as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1c;
            let vhat = self.v[i] / b2c;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = sum((x - 3)^2); Adam should converge to 3.
        let mut x = vec![0.0f32; 4];
        let mut opt = Adam::new(4, 0.1);
        for _ in 0..500 {
            let g: Vec<f32> = x.iter().map(|&xi| 2.0 * (xi - 3.0)).collect();
            opt.step(&mut x, &g);
        }
        for xi in &x {
            assert!((xi - 3.0).abs() < 0.05, "{xi}");
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut x = vec![1.0f32, -2.0];
            let mut opt = Adam::new(2, 0.01);
            for k in 0..50 {
                let g: Vec<f32> = x.iter().map(|&xi| xi + k as f32 * 0.01).collect();
                opt.step(&mut x, &g);
            }
            x
        };
        assert_eq!(run(), run());
    }
}
