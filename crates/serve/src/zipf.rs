//! Deterministic multi-tenant request streams with Zipfian popularity.
//!
//! Fleet traffic is heavy-tailed: a few tenants issue most of the planning
//! queries (and, because a tenant re-plans the *same* workload as its
//! cluster share moves, popularity is exactly what makes the shared
//! profile/segment caches pay off). The generator is a pure function of
//! [`StreamSpec`] — same spec, same stream, on every machine — so the
//! pooled and serial legs of the server see byte-identical inputs.

use crate::request::{ModelSize, PlanRequest, TenantKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf(s) sampler over `n` ranks via its CDF (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights 1/(rank+1)^s, normalized. `s = 0` is uniform; larger `s`
    /// concentrates mass on the head.
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf law needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= r)
            .min(self.cdf.len() - 1)
    }
}

/// Everything that determines a request stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub(crate) tenants: usize,
    pub requests: usize,
    pub seed: u64,
    /// Zipf exponent of tenant popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// GPUs of the full cluster slice; some tenants plan for half of it.
    pub n_gpus: usize,
    /// Mean virtual-clock gap between arrivals (seconds).
    pub mean_gap_secs: f64,
    /// SLO budgets are drawn uniformly from this range (seconds).
    pub(crate) deadline_range_secs: (f64, f64),
    /// Every `stride`-th tenant is a *serving* tenant planning decode
    /// KV policies instead of training grids (0 = training-only). The
    /// head of the Zipf law (tenant 0) always stays a training tenant
    /// so the stride never drains the profile cache's hottest key.
    pub serving_stride: usize,
}

impl StreamSpec {
    pub fn new(tenants: usize, requests: usize, seed: u64) -> Self {
        StreamSpec {
            tenants,
            requests,
            seed,
            zipf_exponent: 1.1,
            n_gpus: 8,
            mean_gap_secs: 0.5e-3,
            deadline_range_secs: (2e-3, 60e-3),
            serving_stride: 0,
        }
    }
}

/// Which kind of work tenant `tenant` submits under `serving_stride`.
fn tenant_kind(tenant: usize, serving_stride: usize) -> TenantKind {
    if serving_stride > 0 && tenant % serving_stride == serving_stride - 1 {
        TenantKind::Serving
    } else {
        TenantKind::Training
    }
}

/// A tenant's workload is a pure function of its id: tenants re-plan the
/// same (model, gpus, sequence) as conditions change, they don't issue
/// random one-offs. This is what gives the head of the Zipf law its cache
/// locality.
fn tenant_workload(tenant: usize, n_gpus: usize) -> (ModelSize, usize, u64) {
    let model = if tenant.is_multiple_of(2) {
        ModelSize::Gpt7b
    } else {
        ModelSize::Gpt13b
    };
    let gpus = if tenant % 5 == 4 && n_gpus >= 2 {
        n_gpus / 2
    } else {
        n_gpus
    };
    let seq_len = [64u64, 128, 256][tenant % 3] * 1024;
    (model, gpus, seq_len)
}

/// Generate the stream: Zipf-popular tenants, exponential-ish arrival
/// gaps, uniform SLO budgets — all from one seeded [`StdRng`].
pub fn generate(spec: &StreamSpec) -> Vec<PlanRequest> {
    let zipf = Zipf::new(spec.tenants, spec.zipf_exponent);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (lo, hi) = spec.deadline_range_secs;
    assert!(lo > 0.0 && hi > lo, "deadline range must be ordered");
    let mut clock = 0.0f64;
    (0..spec.requests)
        .map(|id| {
            let tenant = zipf.sample(&mut rng);
            let (model, n_gpus, seq_len) = tenant_workload(tenant, spec.n_gpus);
            clock += rng.gen_range(0.0..2.0 * spec.mean_gap_secs);
            PlanRequest {
                id,
                tenant,
                kind: tenant_kind(tenant, spec.serving_stride),
                model,
                n_gpus,
                seq_len,
                arrival_secs: clock,
                deadline_secs: rng.gen_range(lo..hi),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_stream() {
        let spec = StreamSpec::new(32, 500, 42);
        assert_eq!(generate(&spec), generate(&spec));
        let other = StreamSpec {
            seed: 43,
            ..spec.clone()
        };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn zipf_head_dominates_and_stays_in_range() {
        let spec = StreamSpec::new(16, 2000, 7);
        let stream = generate(&spec);
        let mut counts = vec![0usize; spec.tenants];
        for r in &stream {
            counts[r.tenant] += 1;
        }
        let head = counts[0];
        let tail = counts[spec.tenants - 1];
        assert!(
            head > 3 * tail.max(1),
            "rank 0 ({head}) must dominate rank {} ({tail})",
            spec.tenants - 1
        );
        assert!(counts.iter().sum::<usize>() == 2000);
    }

    #[test]
    fn arrivals_are_monotone_and_deadlines_in_range() {
        let spec = StreamSpec::new(8, 300, 9);
        let stream = generate(&spec);
        let (lo, hi) = spec.deadline_range_secs;
        for pair in stream.windows(2) {
            assert!(pair[1].arrival_secs >= pair[0].arrival_secs);
        }
        for r in &stream {
            assert!(r.deadline_secs >= lo && r.deadline_secs < hi);
            assert!(r.n_gpus == 8 || r.n_gpus == 4);
        }
    }

    #[test]
    fn uniform_exponent_spreads_tenants() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }
}
