//! Decode-phase (inference/serving) trace generation.
//!
//! Training traces (Figures 4 and 9) describe one iteration of a fixed
//! batch. Serving is the opposite regime: the KV cache dominates memory,
//! sequences *arrive and depart* continuously, and every decode step
//! appends one token's K/V rows to every active sequence. This module
//! generates that request shape deterministically — same
//! [`DecodeParams`], same trace, on every machine (seeded xorshift64, no
//! external RNG crates).
//!
//! The trace is *logical*: arrivals, per-step appends, departures on a
//! virtual step clock. Allocator legs interpret it:
//!
//! * the block-paged leg (`memo_alloc::paged`) admits a page table per
//!   sequence and appends tokens in O(1);
//! * the caching-allocator leg (`memo_core::serving`) replays the
//!   pre-paging realloc pattern itself — every append allocates a *new*
//!   tensor one token larger and frees the old one, the growth pattern
//!   whose fragmentation caps concurrency (the serving-side Figure 1a).

use crate::config::{DType, ModelConfig};

/// K + V bytes one token adds across all layers of `model`.
fn kv_bytes_per_token(model: &ModelConfig, dtype: DType) -> u64 {
    2 * model.hidden as u64 * dtype.size_bytes() * model.n_layers as u64
}

/// Everything that determines a decode trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeParams {
    pub model: ModelConfig,
    pub dtype: DType,
    /// Mean prompt length in tokens (jittered ±25% per sequence).
    pub prompt_tokens: u64,
    /// Mean decode length in tokens (jittered ±25% per sequence).
    pub decode_tokens: u64,
    /// Continuous-batching concurrency cap: a pending arrival is admitted
    /// as soon as the active batch drops below this.
    pub max_batch: usize,
    /// Total sequences over the run.
    pub arrivals: usize,
    /// Deterministic jitter seed.
    pub seed: u64,
}

impl DecodeParams {
    /// A serving cell: `context` tokens per sequence split 7/8 prompt,
    /// 1/8 decode (long-context serving is prefill-heavy), default batch
    /// and arrival counts sized so the batch stays saturated.
    pub fn cell(model: ModelConfig, context: u64, max_batch: usize, arrivals: usize) -> Self {
        DecodeParams {
            model,
            dtype: DType::F16,
            prompt_tokens: context - context / 8,
            decode_tokens: context / 8,
            max_batch,
            arrivals,
            seed: 0xD3C0DE,
        }
    }

    pub fn kv_bytes_per_token(&self) -> u64 {
        kv_bytes_per_token(&self.model, self.dtype)
    }

    /// KV bytes of one full-context sequence (prompt + decode, no jitter).
    pub fn context_kv_bytes(&self) -> u64 {
        (self.prompt_tokens + self.decode_tokens) * self.kv_bytes_per_token()
    }
}

/// One event of the decode trace. Sequence ids are dense (0..arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A sequence enters the batch with its prompt's KV already computed
    /// (prefill): `prompt_tokens` tokens of KV appear at once.
    Arrive { seq: u32, prompt_tokens: u64 },
    /// One decode step appends one token's KV to `seq`.
    Append { seq: u32 },
    /// The sequence finished; its KV is released.
    Depart { seq: u32 },
    /// Virtual-clock step boundary: every active sequence appended exactly
    /// once since the previous boundary.
    StepEnd,
}

/// A generated decode trace plus its summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTrace {
    pub params: DecodeParams,
    pub events: Vec<DecodeEvent>,
    /// Virtual-clock steps ([`DecodeEvent::StepEnd`] count).
    steps: u64,
    /// Tokens appended across all sequences (prompt + decode).
    total_tokens: u64,
    /// Largest number of simultaneously active sequences.
    peak_active: usize,
}

impl DecodeTrace {
    /// Tokens appended across all sequences (prompt + decode).
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish jitter of `mean` by ±25%, never below 1.
    fn jitter(&mut self, mean: u64) -> u64 {
        if mean == 0 {
            return 1;
        }
        let span = (mean / 2).max(1);
        (mean - mean / 4 + self.next() % span).max(1)
    }
}

/// Generate the decode trace: continuous batching on a virtual step
/// clock. Pending arrivals are admitted whenever the batch has room (at
/// most one admission per step, the usual scheduler granularity), every
/// active sequence appends one token per step, and a sequence departs
/// when its jittered decode budget is spent.
pub fn generate_decode(params: &DecodeParams) -> DecodeTrace {
    assert!(params.max_batch > 0, "batch capacity must be positive");
    let mut rng = Rng(params.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut events = Vec::new();
    // Remaining decode tokens per active sequence, front = oldest.
    let mut active: Vec<(u32, u64)> = Vec::new();
    let mut next_seq: u32 = 0;
    let mut steps = 0u64;
    let mut total_tokens = 0u64;
    let mut peak_active = 0usize;

    while (next_seq as usize) < params.arrivals || !active.is_empty() {
        // Admission: one pending arrival per step while there is room.
        if (next_seq as usize) < params.arrivals && active.len() < params.max_batch {
            let prompt = rng.jitter(params.prompt_tokens);
            let decode = rng.jitter(params.decode_tokens);
            events.push(DecodeEvent::Arrive {
                seq: next_seq,
                prompt_tokens: prompt,
            });
            total_tokens += prompt;
            active.push((next_seq, decode));
            peak_active = peak_active.max(active.len());
            next_seq += 1;
        }
        // One decode step: every active sequence appends one token.
        for &(seq, _) in &active {
            events.push(DecodeEvent::Append { seq });
        }
        total_tokens += active.len() as u64;
        for (_, left) in &mut active {
            *left -= 1;
        }
        // Departures, oldest first (deterministic order).
        let mut i = 0;
        while i < active.len() {
            if active[i].1 == 0 {
                events.push(DecodeEvent::Depart { seq: active[i].0 });
                active.remove(i);
            } else {
                i += 1;
            }
        }
        events.push(DecodeEvent::StepEnd);
        steps += 1;
    }

    DecodeTrace {
        params: params.clone(),
        events,
        steps,
        total_tokens,
        peak_active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DecodeParams {
        DecodeParams {
            model: ModelConfig::tiny(4, 64, 4, 256),
            dtype: DType::F16,
            prompt_tokens: 64,
            decode_tokens: 16,
            max_batch: 3,
            arrivals: 7,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let p = small();
        assert_eq!(generate_decode(&p), generate_decode(&p));
        let other = DecodeParams {
            seed: 43,
            ..small()
        };
        assert_ne!(generate_decode(&p).events, generate_decode(&other).events);
    }

    #[test]
    fn continuous_batching_invariants() {
        let t = generate_decode(&small());
        assert!(t.peak_active <= t.params.max_batch);
        assert_eq!(t.peak_active, t.params.max_batch, "batch must saturate");
        // Every sequence arrives exactly once and departs exactly once.
        let mut arrived = vec![false; t.params.arrivals];
        let mut departed = vec![false; t.params.arrivals];
        let mut active = 0usize;
        for ev in &t.events {
            match *ev {
                DecodeEvent::Arrive { seq, .. } => {
                    assert!(!arrived[seq as usize]);
                    arrived[seq as usize] = true;
                    active += 1;
                }
                DecodeEvent::Depart { seq } => {
                    assert!(arrived[seq as usize] && !departed[seq as usize]);
                    departed[seq as usize] = true;
                    active -= 1;
                }
                _ => {}
            }
        }
        assert_eq!(active, 0, "trace must drain");
        assert!(arrived.iter().all(|&a| a) && departed.iter().all(|&d| d));
    }

    #[test]
    fn token_accounting_matches_events() {
        let t = generate_decode(&small());
        let mut tokens = 0u64;
        for ev in &t.events {
            match *ev {
                DecodeEvent::Arrive { prompt_tokens, .. } => tokens += prompt_tokens,
                DecodeEvent::Append { .. } => tokens += 1,
                _ => {}
            }
        }
        assert_eq!(tokens, t.total_tokens);
        assert_eq!(
            t.events
                .iter()
                .filter(|e| matches!(e, DecodeEvent::StepEnd))
                .count() as u64,
            t.steps
        );
    }

    #[test]
    fn kv_bytes_match_table2_dims() {
        // 7B fp16: 2 · 4096 · 2 B · 32 layers = 512 KiB per token.
        assert_eq!(
            kv_bytes_per_token(&ModelConfig::gpt_7b(), DType::F16),
            512 << 10
        );
    }

    #[test]
    fn cell_preset_is_prefill_heavy() {
        let p = DecodeParams::cell(ModelConfig::gpt_7b(), 16 << 10, 8, 24);
        assert_eq!(p.prompt_tokens + p.decode_tokens, 16 << 10);
        assert!(p.prompt_tokens >= 7 * p.decode_tokens);
        assert_eq!(p.context_kv_bytes(), (16 << 10) * (512 << 10));
    }
}
