//! Strategy enumeration.
//!
//! The paper "manually adjusts the distributed parallelism strategies for
//! each system and each workload to achieve optimal training performance"
//! (§5.2). We automate that: enumerate every valid configuration for the
//! system; `memo-core`'s strategy search simulates them and keeps the best.

use crate::strategy::{ParallelConfig, SearchFamily, SystemSpec};
use memo_model::config::ModelConfig;

/// All divisor pairs/tuples of `n`.
fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

/// Enumerate valid configurations for a system on `n_gpus`.
pub fn enumerate_configs(
    system: SystemSpec,
    model: &ModelConfig,
    n_gpus: usize,
    gpus_per_node: usize,
) -> Vec<ParallelConfig> {
    let mut out = Vec::new();
    match system.family() {
        SearchFamily::MegatronGrid => {
            for &tp in &divisors(n_gpus) {
                for &cp in &divisors(n_gpus / tp) {
                    for &pp in &divisors(n_gpus / (tp * cp)) {
                        let dp = n_gpus / (tp * cp * pp);
                        let cfg = ParallelConfig::megatron(tp, cp, pp, dp);
                        if cfg.validate(model, n_gpus, gpus_per_node).is_ok() {
                            out.push(cfg);
                        }
                    }
                }
            }
        }
        SearchFamily::UlyssesGrid => {
            for &sp in &divisors(n_gpus) {
                let dp = n_gpus / sp;
                let cfg = ParallelConfig::ulysses(sp, dp);
                if cfg.validate(model, n_gpus, gpus_per_node).is_ok() {
                    out.push(cfg);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megatron_space_covers_paper_choices() {
        let m = ModelConfig::gpt_7b();
        let cfgs = enumerate_configs(SystemSpec::MegatronLM, &m, 8, 8);
        // Table 6's 7B/8GPU strategies must be present.
        assert!(cfgs.contains(&ParallelConfig::megatron(2, 4, 1, 1)));
        assert!(cfgs.contains(&ParallelConfig::megatron(4, 2, 1, 1)));
        assert!(cfgs.contains(&ParallelConfig::megatron(8, 1, 1, 1)));
    }

    #[test]
    fn deepspeed_sp_limited_by_heads() {
        // 30B has 56 heads: SP 16/32 invalid on 32 GPUs, SP 8 valid —
        // exactly the paper's observation (§5.2).
        let m = ModelConfig::gpt_30b();
        let cfgs = enumerate_configs(SystemSpec::DeepSpeed, &m, 32, 8);
        let sps: Vec<usize> = cfgs.iter().map(|c| c.ulysses).collect();
        assert!(sps.contains(&8));
        assert!(!sps.contains(&16));
        assert!(!sps.contains(&32));
    }

    #[test]
    fn enumerations_multiply_to_world() {
        let m = ModelConfig::gpt_65b();
        for cfg in enumerate_configs(SystemSpec::MegatronLM, &m, 64, 8) {
            assert_eq!(cfg.world(), 64);
        }
        for cfg in enumerate_configs(SystemSpec::DeepSpeed, &m, 64, 8) {
            assert_eq!(cfg.world(), 64);
        }
    }
}
