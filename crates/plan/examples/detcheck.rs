// End-to-end: this fixed, valid workload (single EmbeddingFwd segment) is
// planned by plan_iteration; compare plans across process runs.
use memo_model::trace::{
    IterationTrace, MemOp, Request, SegmentKind, Sym, TensorId, TraceSegment, TraceStrings,
};
use memo_plan::bilevel::plan_iteration;

const T: [(u64, u64, usize, usize); 56] = [
    (0, 64, 9, 25),
    (1, 64, 29, 30),
    (2, 112, 9, 20),
    (3, 80, 20, 31),
    (4, 96, 11, 12),
    (5, 80, 20, 24),
    (6, 32, 15, 17),
    (7, 96, 12, 27),
    (8, 112, 37, 38),
    (9, 32, 24, 27),
    (10, 16, 28, 38),
    (11, 16, 32, 51),
    (12, 48, 31, 34),
    (13, 80, 1, 4),
    (14, 48, 17, 31),
    (15, 112, 36, 49),
    (16, 96, 7, 24),
    (17, 16, 16, 22),
    (18, 16, 16, 24),
    (19, 48, 25, 32),
    (20, 96, 23, 27),
    (21, 64, 31, 46),
    (22, 96, 2, 5),
    (23, 96, 38, 42),
    (24, 96, 37, 51),
    (25, 48, 16, 20),
    (26, 80, 33, 37),
    (27, 96, 19, 26),
    (28, 48, 11, 22),
    (29, 64, 39, 55),
    (30, 80, 21, 36),
    (31, 32, 1, 14),
    (32, 96, 28, 35),
    (33, 112, 7, 20),
    (34, 80, 18, 35),
    (35, 32, 4, 21),
    (36, 16, 26, 27),
    (37, 64, 32, 36),
    (38, 96, 26, 35),
    (39, 32, 27, 33),
    (40, 96, 2, 15),
    (41, 16, 34, 52),
    (42, 32, 20, 22),
    (43, 16, 32, 43),
    (44, 32, 7, 11),
    (45, 64, 38, 57),
    (46, 112, 35, 42),
    (47, 64, 6, 19),
    (48, 32, 1, 10),
    (49, 32, 32, 43),
    (50, 16, 36, 49),
    (51, 112, 15, 25),
    (52, 96, 20, 38),
    (53, 48, 38, 41),
    (54, 32, 35, 49),
    (55, 32, 39, 42),
];

fn main() {
    let mut events: Vec<(usize, bool, u64, u64)> = Vec::new();
    for &(id, sz, b, d) in T.iter() {
        events.push((b, true, id, sz));
        events.push((d, false, id, sz));
    }
    events.sort_by_key(|&(t, is_malloc, id, _)| (t, is_malloc as u8, id));
    let requests: Vec<Request> = events
        .into_iter()
        .map(|(_, m, id, bytes)| Request {
            op: if m { MemOp::Malloc } else { MemOp::Free },
            tensor: TensorId(id),
            bytes,
            label: Sym::EMPTY,
        })
        .collect();
    let segment = TraceSegment {
        kind: SegmentKind::EmbeddingFwd,
        requests,
    };
    let trace = IterationTrace::from_segments(vec![segment], TraceStrings::new())
        .expect("a trace without layers is periodic");
    trace.validate().expect("valid trace");
    let report = plan_iteration(&trace);
    report.plan.validate_against(&trace).unwrap();
    let mut entries: Vec<_> = report
        .plan
        .placements()
        .iter()
        .map(|(id, pt)| (id.0, pt.offset, pt.bytes))
        .collect();
    entries.sort();
    println!(
        "peak={} optimal={}",
        report.plan.peak, report.level2.optimal
    );
    for e in entries {
        println!("{e:?}");
    }
}
