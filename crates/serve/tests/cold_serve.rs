//! A cold pooled serve replies with one pick per key.
//!
//! Its own test binary, because it clears the process-global pick table:
//! the server's unit tests rely on a table that nothing clears mid-test.

use memo_core::cache::ProfileCache;
use memo_serve::{generate, PlanServer, RequestOutcome, ServeConfig, StreamSpec};
use memo_swap::SegmentCache;
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn a_cold_pooled_serve_replies_with_one_pick_per_key() {
    let mut spec = StreamSpec::new(12, 300, 45);
    spec.serving_stride = 2;
    let stream = generate(&spec);
    ProfileCache::global().clear();
    SegmentCache::global().clear();
    let report = PlanServer::new(ServeConfig::default()).serve(&stream);
    assert!(report.summary.picks.misses > 0, "the serve started cold");

    // Racing workers that miss on one key both compute it; the table keeps
    // the first insert, so every worker's copy of the key's pick is equal.
    let mut first = HashMap::new();
    for rec in &report.records {
        let RequestOutcome::Planned(reply) = &rec.outcome else {
            continue;
        };
        let r = &rec.request;
        let key = (
            r.kind,
            r.model,
            r.n_gpus,
            r.seq_len,
            reply.host_budget_bytes,
        );
        let pick = first.entry(key).or_insert_with(|| Arc::clone(&reply.pick));
        assert!(
            **pick == *reply.pick,
            "request {} replied with a second pick for {key:?}",
            r.id
        );
    }
    assert!(first.len() > 1, "{} distinct keys", first.len());
}
