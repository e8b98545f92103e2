//! Export of [`CachingAllocator`](memo_alloc::caching::CachingAllocator)
//! event logs as a Chrome counter track that plots Figure 1(a)'s
//! allocated-vs-reserved curves directly in a trace viewer.

use crate::json::Json;
use memo_alloc::caching::AllocEvent;

/// Chrome `"C"` counter events plotting allocated/reserved bytes over the
/// event sequence (1 µs per event), as a track in process `pid`. Append to
/// the same array as a [`crate::chrome::TraceBuilder`] export to see the
/// memory curve under the stream timeline.
pub fn chrome_memory_counters(pid: u64, events: &[AllocEvent]) -> Vec<Json> {
    events
        .iter()
        .enumerate()
        .map(|(seq, e)| {
            Json::Obj(vec![
                ("name".into(), Json::str("gpu memory")),
                ("ph".into(), Json::str("C")),
                ("pid".into(), Json::int(pid)),
                ("ts".into(), Json::int(seq as u64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("allocated".into(), Json::int(e.allocated)),
                        ("reserved".into(), Json::int(e.reserved)),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_alloc::caching::AllocEventKind;
    use memo_model::trace::TensorId;

    fn sample() -> Vec<AllocEvent> {
        vec![
            AllocEvent {
                kind: AllocEventKind::SegmentCreate,
                tensor: None,
                bytes: 1 << 21,
                allocated: 0,
                reserved: 1 << 21,
            },
            AllocEvent {
                kind: AllocEventKind::Malloc,
                tensor: Some(TensorId(7)),
                bytes: 512,
                allocated: 512,
                reserved: 1 << 21,
            },
            AllocEvent {
                kind: AllocEventKind::Free,
                tensor: Some(TensorId(7)),
                bytes: 512,
                allocated: 0,
                reserved: 1 << 21,
            },
        ]
    }

    #[test]
    fn counters_track_the_log() {
        let counters = chrome_memory_counters(3, &sample());
        assert_eq!(counters.len(), 3);
        let last = counters.last().unwrap();
        assert_eq!(last.get("pid").unwrap().as_u64().unwrap(), 3);
        let args = last.get("args").unwrap();
        assert_eq!(args.get("allocated").unwrap().as_u64().unwrap(), 0);
        assert_eq!(args.get("reserved").unwrap().as_u64().unwrap(), 1 << 21);
    }
}
