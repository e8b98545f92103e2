//! Memory-request trace generation (Figures 4 and 9).
//!
//! A training iteration issues a deterministic sequence of `malloc`/`free`
//! requests to the device allocator. The paper's Observation 2 is that this
//! sequence is identical across iterations *and across transformer layers*,
//! which makes static planning possible. This module generates those
//! sequences for the three rematerialisation policies that the evaluation
//! compares:
//!
//! * [`RematPolicy::KeepAll`] — every skeletal tensor stays resident from its
//!   forward birth to its backward death (infeasible for long contexts; used
//!   for small-scale validation),
//! * [`RematPolicy::FullRecompute`] — only layer inputs survive the forward
//!   pass; each layer's backward segment re-runs the forward (Megatron /
//!   DeepSpeed style full activation recomputation),
//! * [`RematPolicy::MemoTokenWise`] — skeletal tensors live in MEMO's
//!   pre-allocated rounding buffers and never reach the allocator; the trace
//!   contains only transient tensors.
//!
//! Requests are grouped into segments (embedding fwd, each layer fwd,
//! classifier fwd+bwd, each layer bwd, embedding bwd) because the bi-level
//! planner collapses each transformer-layer segment into one pseudo request
//! (Figure 8).
//!
//! # Periodic form
//!
//! Every transformer layer issues the same requests ("profiling one layer
//! suffices", §4.3.2), so an [`IterationTrace`] stores them once: the head
//! segments (embedding forward), one forward and one backward layer *body*
//! with the layer count, the middle segments (classifier forward and
//! backward) and the tail segments (embedding backward). A body request
//! names its tensor by [`Slot`]: the k-th tensor the layer allocates in that
//! direction, or one of the two cross-layer ports — the layer's input from
//! below and the gradient from above. [`IterationTrace::segments`] and
//! [`IterationTrace::flatten`] expand the bodies lazily, resolving each slot
//! to the tensor id that layer uses, and yield the same segments, ids, sizes
//! and labels that generating every layer would. Identical layer segments
//! are therefore a property of the type, not something to check.

use crate::activations::LayerDims;
use crate::config::ModelConfig;
use crate::hash::FxHashMap;
use std::borrow::Cow;
use std::collections::HashMap;

/// Allocator operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    Malloc,
    Free,
}

/// Globally unique tensor identifier within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub u64);

/// Interned label symbol: an index into the owning trace's (or timeline's)
/// [`TraceStrings`] table. Requests and timeline spans carry a 4-byte `Sym`
/// instead of a heap-allocated `String`, so generating and replaying a
/// 1M-token trace allocates each distinct label once instead of once per
/// request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The empty label — index 0 of every [`TraceStrings`] table.
    pub const EMPTY: Sym = Sym(0);
}

/// Deduplicated label table of one trace or timeline. Index 0 is always the empty
/// string, so [`Sym::EMPTY`] (and `Sym::default()`) resolve in any table.
/// Symbols are numbered in order of first sight.
///
/// The generator's labels are string literals and are stored borrowed, so
/// a generated trace's table costs its two pre-sized containers and no
/// string allocation; labels read from a file are stored owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStrings {
    strings: Vec<Cow<'static, str>>,
    index: FxHashMap<Cow<'static, str>, u32>,
}

impl Default for TraceStrings {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl TraceStrings {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `n` labels besides the empty string.
    fn with_capacity(n: usize) -> Self {
        let mut t = TraceStrings {
            strings: Vec::with_capacity(n + 1),
            index: FxHashMap::with_capacity_and_hasher(n + 1, Default::default()),
        };
        t.intern_static("");
        t
    }

    /// Intern `label`, allocating only on first sight.
    pub fn intern(&mut self, label: &str) -> Sym {
        match self.index.get(label) {
            Some(&i) => Sym(i),
            None => self.insert(Cow::Owned(label.to_string())),
        }
    }

    /// Intern a label that lives for the whole program, without allocating.
    fn intern_static(&mut self, label: &'static str) -> Sym {
        match self.index.get(label) {
            Some(&i) => Sym(i),
            None => self.insert(Cow::Borrowed(label)),
        }
    }

    fn insert(&mut self, label: Cow<'static, str>) -> Sym {
        let i = u32::try_from(self.strings.len()).expect("label table overflow");
        self.index.insert(label.clone(), i);
        self.strings.push(label);
        Sym(i)
    }

    /// Pre-size for up to `n` additional distinct labels.
    pub fn reserve(&mut self, n: usize) {
        self.strings.reserve(n);
        self.index.reserve(n);
    }

    /// The string behind `sym` (empty string for out-of-table symbols, so a
    /// default-constructed `Sym` is always printable).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.strings.get(sym.0 as usize).map_or("", |s| &s[..])
    }

    /// Number of distinct labels (including the empty string at index 0).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One `malloc`/`free` request (one row of Figure 4). `Copy`: 24 bytes,
/// no heap — the label is an interned [`Sym`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub op: MemOp,
    pub tensor: TensorId,
    pub bytes: u64,
    pub label: Sym,
}

/// Which phase of the iteration a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    EmbeddingFwd,
    LayerFwd(usize),
    ClassifierFwd,
    ClassifierBwd,
    LayerBwd(usize),
    EmbeddingBwd,
}

impl SegmentKind {
    /// True for transformer-layer segments (the repetitive substructure the
    /// bi-level MIP exploits).
    pub fn is_transformer(&self) -> bool {
        matches!(self, SegmentKind::LayerFwd(_) | SegmentKind::LayerBwd(_))
    }
}

/// A contiguous slice of the request sequence belonging to one phase, with
/// its tensor ids spelled out: the head, middle and tail of a periodic
/// trace, and the input of [`IterationTrace::from_segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    pub kind: SegmentKind,
    pub requests: Vec<Request>,
}

/// How skeletal activations are rematerialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RematPolicy {
    /// Keep every skeletal tensor resident (no rematerialisation).
    KeepAll,
    /// Store only layer inputs; re-forward each layer before its backward.
    FullRecompute,
    /// MEMO: skeletal tensors live in rounding buffers outside the allocator.
    MemoTokenWise,
}

/// Everything the generator needs to emit a per-GPU trace.
#[derive(Debug, Clone)]
pub struct TraceParams {
    pub model: ModelConfig,
    /// Per-GPU activation dimensions (already divided by TP·CP).
    pub dims: LayerDims,
    /// Vocabulary shard size on this GPU (vocab / TP under tensor parallelism).
    pub vocab_local: u64,
    /// Sequence-parallel gather factor: transient all-gather buffers are this
    /// many times larger than a local `bsh` tensor (TP size with SP enabled).
    pub comm_factor: u64,
    /// Cross-entropy is computed in chunks of this many tokens so logits
    /// never fully materialise (vocab-parallel fused/chunked loss).
    pub ce_chunk_tokens: u64,
    /// Unfused fp32 loss (Megatron-DeepSpeed style): the fp16 logits, their
    /// fp32 upcast and the fp32 softmax probabilities all survive from the
    /// classifier forward to its backward, where the fp32 gradient joins
    /// them — ~14 bytes per (token, vocab) element at peak. Overrides
    /// chunking.
    pub materialize_logits: bool,
    pub policy: RematPolicy,
}

impl TraceParams {
    pub fn new(model: &ModelConfig, dims: LayerDims, policy: RematPolicy) -> Self {
        TraceParams {
            model: model.clone(),
            dims,
            vocab_local: model.vocab as u64,
            comm_factor: 1,
            ce_chunk_tokens: 4096,
            materialize_logits: false,
            policy,
        }
    }
}

/// The tensor a layer-body request names, resolved per layer by
/// [`IterationTrace::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The k-th tensor the layer allocates in its forward body.
    Fwd(u32),
    /// The k-th tensor the layer allocates in its backward body.
    Bwd(u32),
    /// The layer's input from below: the previous layer's output, or a head
    /// tensor for layer 0.
    Input,
    /// The gradient from above: the next layer's input gradient, or a middle
    /// tensor for the last layer.
    Grad,
}

/// One request of a layer body: a [`Request`] whose tensor is a [`Slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyRequest {
    pub op: MemOp,
    pub slot: Slot,
    pub bytes: u64,
    pub label: Sym,
}

/// How the slots of layer `l` map to tensor ids. Layer `l`'s forward body
/// allocates ids `fwd_base + l·fwd_stride ..`; the backward bodies run from
/// the last layer down, so layer `l`'s allocates ids
/// `bwd_base + (L-1-l)·bwd_stride ..`.
#[derive(Debug, Clone, Copy, Default)]
struct Ports {
    fwd_base: u64,
    fwd_stride: u64,
    bwd_base: u64,
    bwd_stride: u64,
    /// Layer 0's input.
    input0: Option<TensorId>,
    /// The last layer's incoming gradient.
    grad_last: Option<TensorId>,
    /// The forward slot a layer hands up as the next layer's input.
    out_slot: Option<u32>,
    /// The backward slot a layer hands down as the previous layer's gradient.
    grad_slot: Option<u32>,
}

/// Successful [`IterationTrace::validate`] summary — everything the single
/// validation pass learns about the trace, so callers that need both the
/// tensor count and the liveness peak scan the request sequence once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Number of distinct tensors (malloc/free pairs).
    pub tensors: usize,
    /// Peak of the sum of live tensor bytes over the request sequence — a
    /// lower bound for any address assignment.
    pub peak_live_bytes: u64,
}

/// A full training-iteration trace in periodic form (see the module docs).
#[derive(Debug, Clone)]
pub struct IterationTrace {
    head: Vec<TraceSegment>,
    fwd: Vec<BodyRequest>,
    middle: Vec<TraceSegment>,
    bwd: Vec<BodyRequest>,
    tail: Vec<TraceSegment>,
    layers: usize,
    ports: Ports,
    /// Interned label table; every request's `label` indexes into it.
    pub strings: TraceStrings,
}

/// One segment of an [`IterationTrace`], expanded on demand.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    pub kind: SegmentKind,
    /// Index of the segment's first request in the whole iteration.
    pub start: usize,
    trace: &'a IterationTrace,
    requests: &'a [Request],
    /// The body and layer of a transformer segment (then `requests` is empty).
    layer: Option<(&'a [BodyRequest], usize)>,
}

impl<'a> Segment<'a> {
    pub fn len(&self) -> usize {
        self.requests.len() + self.layer.map_or(0, |(body, _)| body.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The layer body and layer index of a transformer segment.
    pub fn layer(&self) -> Option<(&'a [BodyRequest], usize)> {
        self.layer
    }

    /// The segment's requests with their tensor ids resolved.
    pub fn requests(&self) -> impl Iterator<Item = Request> + 'a {
        let trace = self.trace;
        let (body, layer) = self.layer.unwrap_or((&[], 0));
        self.requests
            .iter()
            .copied()
            .chain(body.iter().map(move |r| Request {
                op: r.op,
                tensor: trace.resolve(r.slot, layer),
                bytes: r.bytes,
                label: r.label,
            }))
    }
}

/// A [`Segment`] before its start is known: kind, spelled-out requests,
/// and layer body.
type SegmentParts<'a> = (
    SegmentKind,
    &'a [Request],
    Option<(&'a [BodyRequest], usize)>,
);

/// Why a segment list has no periodic form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodError {
    /// The forward and backward layer-segment counts differ.
    LayerCounts { fwd: usize, bwd: usize },
    /// Segment `segment` breaks the order head, `LayerFwd(0..L)`, middle,
    /// `LayerBwd(L-1..=0)`, tail.
    LayerOrder { segment: usize },
    /// Layer segment `segment` is not layer 0's segment with that layer's
    /// tensor ids.
    LayerDiffers { segment: usize },
}

impl std::fmt::Display for PeriodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeriodError::LayerCounts { fwd, bwd } => {
                write!(f, "{fwd} forward but {bwd} backward layer segments")
            }
            PeriodError::LayerOrder { segment } => {
                write!(f, "segment {segment} is out of layer order")
            }
            PeriodError::LayerDiffers { segment } => {
                write!(f, "layer segment {segment} differs from layer 0's")
            }
        }
    }
}

impl std::error::Error for PeriodError {}

impl IterationTrace {
    /// Number of transformer layers (each contributes one forward and one
    /// backward segment).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The tensor id `slot` names in layer `layer`.
    pub fn resolve(&self, slot: Slot, layer: usize) -> TensorId {
        self.try_resolve(slot, layer)
            .expect("construction resolves every port a body uses")
    }

    fn try_resolve(&self, slot: Slot, layer: usize) -> Option<TensorId> {
        let p = &self.ports;
        let (l, last) = (layer as u64, self.layers as u64 - 1);
        let fwd = |l: u64, s: u32| p.fwd_base + l * p.fwd_stride + u64::from(s);
        let bwd = |l: u64, s: u32| p.bwd_base + (last - l) * p.bwd_stride + u64::from(s);
        Some(TensorId(match slot {
            Slot::Fwd(s) => fwd(l, s),
            Slot::Bwd(s) => bwd(l, s),
            Slot::Input if l == 0 => return p.input0,
            Slot::Input => fwd(l - 1, p.out_slot?),
            Slot::Grad if l == last => return p.grad_last,
            Slot::Grad => bwd(l + 1, p.grad_slot?),
        }))
    }

    /// The segments in execution order: head, each layer's forward, middle,
    /// each layer's backward (last layer first), tail.
    pub fn segments(&self) -> impl Iterator<Item = Segment<'_>> + '_ {
        fn spelled(segs: &[TraceSegment]) -> impl Iterator<Item = SegmentParts<'_>> {
            segs.iter().map(|s| (s.kind, &s.requests[..], None))
        }
        fn layer(kind: SegmentKind, body: &[BodyRequest], l: usize) -> SegmentParts<'_> {
            (kind, &[], Some((body, l)))
        }
        let fwd = (0..self.layers).map(|l| layer(SegmentKind::LayerFwd(l), &self.fwd, l));
        let bwd = (0..self.layers)
            .rev()
            .map(|l| layer(SegmentKind::LayerBwd(l), &self.bwd, l));
        let mut start = 0;
        spelled(&self.head)
            .chain(fwd)
            .chain(spelled(&self.middle))
            .chain(bwd)
            .chain(spelled(&self.tail))
            .map(move |(kind, requests, layer)| {
                let seg = Segment {
                    kind,
                    start,
                    trace: self,
                    requests,
                    layer,
                };
                start += seg.len();
                seg
            })
    }

    /// All requests in execution order, layer bodies expanded.
    pub fn flatten(&self) -> impl Iterator<Item = Request> + '_ {
        self.segments().flat_map(|s| s.requests())
    }

    /// Number of requests in the expanded iteration.
    pub fn len(&self) -> usize {
        let spelled = |segs: &[TraceSegment]| segs.iter().map(|s| s.requests.len()).sum::<usize>();
        spelled(&self.head)
            + spelled(&self.middle)
            + spelled(&self.tail)
            + self.layers * (self.fwd.len() + self.bwd.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label string of a request (resolved through the trace's table).
    pub fn label_of(&self, r: &Request) -> &str {
        self.strings.resolve(r.label)
    }

    /// Fold a spelled-out segment list into periodic form: layer 0's
    /// segments become the bodies, and every other layer segment must equal
    /// them with that layer's tensor ids.
    pub fn from_segments(
        segments: Vec<TraceSegment>,
        strings: TraceStrings,
    ) -> Result<IterationTrace, PeriodError> {
        let count = |want_fwd: bool| {
            segments
                .iter()
                .filter(|s| match s.kind {
                    SegmentKind::LayerFwd(_) => want_fwd,
                    SegmentKind::LayerBwd(_) => !want_fwd,
                    _ => false,
                })
                .count()
        };
        let (layers, bwd_layers) = (count(true), count(false));
        if layers != bwd_layers {
            return Err(PeriodError::LayerCounts {
                fwd: layers,
                bwd: bwd_layers,
            });
        }
        // Expected layout: head [..a], forward layers [a..m], middle
        // [m..b], backward layers [b..t], tail [t..].
        let first_layer = |from: usize| {
            segments[from..]
                .iter()
                .position(|s| s.kind.is_transformer())
                .map_or(segments.len(), |p| from + p)
        };
        let a = first_layer(0);
        let m = a + layers;
        let b = first_layer(m.min(segments.len()));
        let t = b + layers;
        for (i, s) in segments.iter().enumerate() {
            let ok = match s.kind {
                SegmentKind::LayerFwd(l) => (a..m).contains(&i) && l == i - a,
                SegmentKind::LayerBwd(l) => (b..t).contains(&i) && l == t - 1 - i,
                _ => !(a..m).contains(&i) && !(b..t).contains(&i),
            };
            if !ok {
                return Err(PeriodError::LayerOrder { segment: i });
            }
        }
        let mut rest = segments;
        let tail = rest.split_off(t);
        let bwd_segs = rest.split_off(b);
        let middle = rest.split_off(m);
        let fwd_segs = rest.split_off(a);
        let head = rest;
        let mut trace = IterationTrace {
            head,
            fwd: Vec::new(),
            middle,
            bwd: Vec::new(),
            tail,
            layers,
            ports: Ports::default(),
            strings,
        };
        if layers == 0 {
            return Ok(trace);
        }

        // Layer 0's slots are the tensors its segments allocate, in order.
        // Any other tensor is a port: the input if it was allocated before
        // the layer (in the head), else the gradient from above.
        let mallocs = |seg: &TraceSegment| -> Vec<TensorId> {
            let m = seg.requests.iter().filter(|r| r.op == MemOp::Malloc);
            m.map(|r| r.tensor).collect()
        };
        let (fwd0, bwd0) = (&fwd_segs[0], &bwd_segs[layers - 1]);
        let (fwd_ids, bwd_ids) = (mallocs(fwd0), mallocs(bwd0));
        let mut slots: HashMap<TensorId, Slot> = HashMap::new();
        for t in trace.head.iter().flat_map(mallocs) {
            slots.insert(t, Slot::Input);
        }
        for (k, &t) in bwd_ids.iter().enumerate() {
            slots.insert(t, Slot::Bwd(k as u32));
        }
        for (k, &t) in fwd_ids.iter().enumerate() {
            slots.insert(t, Slot::Fwd(k as u32));
        }
        let slot_of = |id: TensorId| slots.get(&id).copied().unwrap_or(Slot::Grad);
        let body = |seg: &TraceSegment| -> Vec<BodyRequest> {
            let body = seg.requests.iter().map(|r| BodyRequest {
                op: r.op,
                slot: slot_of(r.tensor),
                bytes: r.bytes,
                label: r.label,
            });
            body.collect()
        };
        trace.fwd = body(fwd0);
        trace.bwd = body(bwd0);

        // The tensor a layer's segments use where the bodies name `slot`.
        let port = |layer: usize, slot: Slot| {
            let find = |body: &[BodyRequest], seg: &TraceSegment| {
                let k = body.iter().position(|r| r.slot == slot)?;
                seg.requests.get(k).map(|r| r.tensor)
            };
            find(&trace.fwd, &fwd_segs[layer])
                .or_else(|| find(&trace.bwd, &bwd_segs[layers - 1 - layer]))
        };
        let (fwd_stride, bwd_stride) = (fwd_ids.len() as u64, bwd_ids.len() as u64);
        let fwd_base = fwd_ids.first().map_or(0, |t| t.0);
        let bwd_base = bwd_ids.first().map_or(Some(0), |t| {
            t.0.checked_sub((layers as u64 - 1) * bwd_stride)
        });
        // Ids must not overflow in any layer (they come from a file).
        let differs = PeriodError::LayerDiffers { segment: t - 1 };
        let bwd_base = bwd_base.ok_or(differs)?;
        let fits = |base: u64, stride: u64| {
            let span = (layers as u64).checked_mul(stride);
            span.and_then(|n| base.checked_add(n)).is_some()
        };
        if !fits(fwd_base, fwd_stride) || !fits(bwd_base, bwd_stride) {
            return Err(differs);
        }
        let offset = |id: Option<TensorId>, base: u64, stride: u64| {
            let k = id?.0.checked_sub(base)?;
            (k < stride).then_some(k as u32)
        };
        trace.ports = Ports {
            fwd_base,
            fwd_stride,
            bwd_base,
            bwd_stride,
            input0: port(0, Slot::Input),
            grad_last: port(layers - 1, Slot::Grad),
            out_slot: (layers > 1)
                .then(|| offset(port(1, Slot::Input), fwd_base, fwd_stride))
                .flatten(),
            grad_slot: (layers > 1)
                .then(|| {
                    let base = bwd_base + (layers as u64 - 2) * bwd_stride;
                    offset(port(0, Slot::Grad), base, bwd_stride)
                })
                .flatten(),
        };

        // Every layer segment must be the body with its layer's ids.
        let same = |seg: &TraceSegment, body: &[BodyRequest], layer: usize| {
            seg.requests.len() == body.len()
                && seg.requests.iter().zip(body).all(|(r, br)| {
                    r.op == br.op
                        && r.bytes == br.bytes
                        && r.label == br.label
                        && trace.try_resolve(br.slot, layer) == Some(r.tensor)
                })
        };
        for (l, seg) in fwd_segs.iter().enumerate() {
            if !same(seg, &trace.fwd, l) {
                return Err(PeriodError::LayerDiffers { segment: a + l });
            }
        }
        for (j, seg) in bwd_segs.iter().enumerate() {
            if !same(seg, &trace.bwd, layers - 1 - j) {
                return Err(PeriodError::LayerDiffers { segment: b + j });
            }
        }
        Ok(trace)
    }

    /// Peak of the sum of live tensor bytes over the request sequence — a
    /// lower bound for any address assignment. Frees saturate at zero live
    /// bytes, and the peak saturates at `u64::MAX`.
    ///
    /// Read off the periodic form: each layer body is summarised once (net
    /// delta, max prefix, saturation floor) and its `L` repeats are applied
    /// in closed form, so the cost is O(head + body + middle + body + tail),
    /// independent of `L`.
    pub fn peak_live_bytes(&self) -> u64 {
        let spelled = |segs: &[TraceSegment]| {
            LiveRun::of(
                segs.iter()
                    .flat_map(|s| &s.requests)
                    .map(|r| (r.op, r.bytes)),
            )
        };
        let body = |body: &[BodyRequest]| LiveRun::of(body.iter().map(|r| (r.op, r.bytes)));
        let runs = [
            spelled(&self.head),
            body(&self.fwd),
            spelled(&self.middle),
            body(&self.bwd),
            spelled(&self.tail),
        ];
        iteration_peak(runs, self.layers)
    }

    /// Check that every malloc has exactly one later free with the same size,
    /// and vice versa; of several leaked tensors, the smallest id is named.
    /// The same pass accumulates the liveness peak, saturating at `u64::MAX`
    /// like [`IterationTrace::peak_live_bytes`], so a successful validation
    /// also yields [`TraceCheck::peak_live_bytes`] without a second walk over
    /// the trace.
    pub fn validate(&self) -> Result<TraceCheck, TraceError> {
        let mut open: HashMap<TensorId, u64> = HashMap::new();
        let mut count = 0usize;
        let mut live = 0u64;
        let mut peak = 0u64;
        for r in self.flatten() {
            match r.op {
                MemOp::Malloc => {
                    if open.insert(r.tensor, r.bytes).is_some() {
                        return Err(TraceError::DoubleMalloc(r.tensor));
                    }
                    count += 1;
                    live = live.saturating_add(r.bytes);
                    peak = peak.max(live);
                }
                MemOp::Free => match open.remove(&r.tensor) {
                    None => return Err(TraceError::FreeWithoutMalloc(r.tensor)),
                    Some(b) if b != r.bytes => {
                        return Err(TraceError::SizeMismatch(r.tensor));
                    }
                    Some(_) => live = live.saturating_sub(r.bytes),
                },
            }
        }
        if let Some(&t) = open.keys().min() {
            return Err(TraceError::Leaked(t));
        }
        Ok(TraceCheck {
            tensors: count,
            peak_live_bytes: peak,
        })
    }

    /// Render the first `n` requests of a segment in Figure 4's tabular form.
    pub fn render_segment(&self, kind: SegmentKind, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<12} {:<10} {:<12} label",
            "index", "instruction", "tensor_id", "size"
        );
        let Some(seg) = self.segments().find(|s| s.kind == kind) else {
            return out;
        };
        for (i, r) in seg.requests().take(n).enumerate() {
            let _ = writeln!(
                out,
                "{:<6} {:<12} {:<10} {:<12} {}",
                seg.start + i,
                match r.op {
                    MemOp::Malloc => "malloc",
                    MemOp::Free => "free",
                },
                r.tensor.0,
                human_bytes(r.bytes),
                self.strings.resolve(r.label)
            );
        }
        out
    }
}

/// Two traces are equal when they expand to the same segments and requests
/// over the same label table, whichever way each was built.
impl PartialEq for IterationTrace {
    fn eq(&self, other: &Self) -> bool {
        let shape =
            |t: &IterationTrace| t.segments().map(|s| (s.kind, s.len())).collect::<Vec<_>>();
        self.strings == other.strings
            && shape(self) == shape(other)
            && self.flatten().eq(other.flatten())
    }
}

impl Eq for IterationTrace {}

/// What a run of requests does to [`IterationTrace::peak_live_bytes`]'
/// live-byte counter: entered with `x` live bytes, it leaves
/// `max(x + net, floor)` live (frees saturate at zero) and peaks at
/// `max(x + rise, top)`. `None` stands for `−∞`: a run with no free has no
/// floor, one with no malloc no peak. Sums saturate in `i128`.
#[derive(Debug, Clone, Copy, Default)]
struct LiveRun {
    net: i128,
    floor: Option<i128>,
    rise: Option<i128>,
    top: Option<i128>,
}

impl LiveRun {
    fn of(requests: impl Iterator<Item = (MemOp, u64)>) -> LiveRun {
        let mut run = LiveRun::default();
        for (op, bytes) in requests {
            run.push(op, bytes);
        }
        run
    }

    /// Extend the run by one request.
    fn push(&mut self, op: MemOp, bytes: u64) {
        let b = i128::from(bytes);
        match op {
            MemOp::Malloc => {
                self.net = self.net.saturating_add(b);
                self.floor = self.floor.map(|f| f.saturating_add(b));
                self.rise = self.rise.max(Some(self.net));
                self.top = self.top.max(self.floor);
            }
            MemOp::Free => {
                self.net = self.net.saturating_sub(b);
                self.floor = Some(self.floor.map_or(0, |f| f.saturating_sub(b).max(0)));
            }
        }
    }

    /// The run repeated `n` times, in closed form. Repeat `k` (from 0) is
    /// entered with `max(x + k·net, floor + max(0, (k−1)·net))` live, so
    /// over `n` repeats the `x` terms peak at `rise + max(0, (n−1)·net)`
    /// and the floor terms at `floor + rise + max(0, (n−2)·net)`.
    fn repeat(self, n: usize) -> LiveRun {
        if n == 0 {
            return LiveRun::default();
        }
        let n = n as i128;
        let grow = |k: i128| k.saturating_mul(self.net).max(0);
        let plus = |a: Option<i128>, k: i128| a.map(|a| a.saturating_add(grow(k)));
        let stacked = match (self.floor, self.rise) {
            (Some(f), Some(r)) if n >= 2 => plus(Some(f.saturating_add(r)), n - 2),
            _ => None,
        };
        LiveRun {
            net: n.saturating_mul(self.net),
            floor: plus(self.floor, n - 1),
            rise: plus(self.rise, n - 1),
            top: self.top.max(stacked),
        }
    }

    /// The live bytes after the run from `live`, raising `peak` to the
    /// run's own peak.
    fn apply(&self, live: i128, peak: &mut i128) -> i128 {
        let rise = self.rise.map(|r| live.saturating_add(r));
        *peak = (*peak).max(rise.max(self.top).unwrap_or(i128::MIN));
        live.saturating_add(self.net)
            .max(self.floor.unwrap_or(i128::MIN))
    }
}

/// The liveness peak of an iteration from the runs of its five sections in
/// order (head, forward body, middle, backward body, tail), each body
/// repeated `layers` times: [`IterationTrace::peak_live_bytes`] of a built
/// trace and [`peak_live_bytes`] of a streamed one.
fn iteration_peak([head, fwd, middle, bwd, tail]: [LiveRun; 5], layers: usize) -> u64 {
    let (mut live, mut peak) = (0i128, 0i128);
    for run in [head, fwd.repeat(layers), middle, bwd.repeat(layers), tail] {
        live = run.apply(live, &mut peak);
    }
    u64::try_from(peak).unwrap_or(u64::MAX)
}

/// Human-readable byte size (MiB granularity like Figure 4).
pub fn human_bytes(b: u64) -> String {
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if b >= GIB {
        format!("{:.2}GB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.0}MB", b as f64 / MIB as f64)
    } else {
        format!("{}B", b)
    }
}

/// Trace validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    DoubleMalloc(TensorId),
    FreeWithoutMalloc(TensorId),
    SizeMismatch(TensorId),
    Leaked(TensorId),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::DoubleMalloc(t) => write!(f, "tensor {} malloc'd twice", t.0),
            TraceError::FreeWithoutMalloc(t) => {
                write!(f, "tensor {} freed but never malloc'd", t.0)
            }
            TraceError::SizeMismatch(t) => write!(f, "tensor {} freed with a different size", t.0),
            TraceError::Leaked(t) => write!(f, "tensor {} never freed", t.0),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Builder holding the id counter and the open tensors, and either
/// recording every request or, in the non-recording mode, folding them
/// into one [`LiveRun`] per section.
///
/// While a layer body is generated, ids live in slot space: forward-body
/// tensors are `FWD + k`, backward-body tensors `BWD + k`, and the two ports
/// are `INPUT` and `GRAD`. [`TraceBuilder::end_body`] turns them into
/// [`Slot`]s. Spelled-out ids stay below `FWD`.
struct TraceBuilder {
    next_id: u64,
    current_kind: Option<SegmentKind>,
    /// Open tensors and their sizes, oldest first. At most a few dozen are
    /// open at once and most frees hit a recent one, so a search from the
    /// back beats hashing.
    open: Vec<(TensorId, u64)>,
    /// The requests, segments and labels; `None` in the non-recording mode.
    rec: Option<Recording>,
    /// The non-recording mode's requests, as (op, bytes) folded into the
    /// run of their section ([`section_of`]).
    runs: [LiveRun; 5],
}

/// What a recording [`TraceBuilder`] keeps.
struct Recording {
    /// The open section's closed segments.
    segments: Vec<TraceSegment>,
    /// The open segment's requests; closing a segment copies them out, so
    /// this buffer grows once per trace.
    current: Vec<Request>,
    strings: TraceStrings,
}

const FWD: u64 = 1 << 61;
const BWD: u64 = 1 << 62;
const INPUT: TensorId = TensorId(u64::MAX);
const GRAD: TensorId = TensorId(u64::MAX - 1);

/// The section a segment of `kind` belongs to: head (0), forward body (1),
/// middle (2: classifier forward and backward), backward body (3), tail (4).
fn section_of(kind: SegmentKind) -> usize {
    match kind {
        SegmentKind::EmbeddingFwd => 0,
        SegmentKind::LayerFwd(_) => 1,
        SegmentKind::ClassifierFwd | SegmentKind::ClassifierBwd => 2,
        SegmentKind::LayerBwd(_) => 3,
        SegmentKind::EmbeddingBwd => 4,
    }
}

impl TraceBuilder {
    /// A builder that records the trace.
    fn new() -> Self {
        TraceBuilder {
            rec: Some(Recording {
                segments: Vec::new(),
                current: Vec::with_capacity(128),
                strings: TraceStrings::with_capacity(64),
            }),
            ..Self::streamed()
        }
    }

    /// A builder in the non-recording mode: it keeps only the open tensors
    /// and the sections' runs.
    fn streamed() -> Self {
        TraceBuilder {
            next_id: 0,
            current_kind: None,
            open: Vec::with_capacity(32),
            rec: None,
            runs: [LiveRun::default(); 5],
        }
    }

    fn begin(&mut self, kind: SegmentKind) {
        assert!(self.current_kind.is_none(), "segment already open");
        self.current_kind = Some(kind);
    }

    fn end(&mut self) {
        let kind = self.current_kind.take().expect("no open segment");
        if let Some(rec) = &mut self.rec {
            rec.segments.push(TraceSegment {
                kind,
                requests: rec.current.drain(..).collect(),
            });
        }
    }

    /// Close a layer body generated in slot space (empty when not
    /// recording).
    fn end_body(&mut self) -> Vec<BodyRequest> {
        self.current_kind.take().expect("no open segment");
        let Some(rec) = &mut self.rec else {
            return Vec::new();
        };
        let slot = |t: TensorId| match t {
            INPUT => Slot::Input,
            GRAD => Slot::Grad,
            TensorId(id) if id >= BWD => Slot::Bwd((id - BWD) as u32),
            TensorId(id) => Slot::Fwd((id - FWD) as u32),
        };
        let body = rec.current.drain(..).map(|r| BodyRequest {
            op: r.op,
            slot: slot(r.tensor),
            bytes: r.bytes,
            label: r.label,
        });
        body.collect()
    }

    /// Close a spelled-out section: its segments (empty when not
    /// recording).
    fn end_section(&mut self) -> Vec<TraceSegment> {
        self.rec
            .as_mut()
            .map_or_else(Vec::new, |rec| std::mem::take(&mut rec.segments))
    }

    fn find_open(&self, id: TensorId) -> Option<usize> {
        self.open.iter().rposition(|&(t, _)| t == id)
    }

    /// Give open tensor `from` the id `to`.
    fn rename(&mut self, from: TensorId, to: TensorId) -> TensorId {
        let k = self.find_open(from).expect("renaming an open tensor");
        self.open[k].0 = to;
        to
    }

    fn malloc(&mut self, bytes: u64, label: &'static str) -> TensorId {
        let id = TensorId(self.next_id);
        self.next_id += 1;
        self.open.push((id, bytes));
        self.push(MemOp::Malloc, id, bytes, label);
        id
    }

    fn free(&mut self, id: TensorId, label: &'static str) {
        let k = self
            .find_open(id)
            .unwrap_or_else(|| panic!("freeing unknown tensor {}", id.0));
        let (_, bytes) = self.open.remove(k);
        self.push(MemOp::Free, id, bytes, label);
    }

    fn push(&mut self, op: MemOp, tensor: TensorId, bytes: u64, label: &'static str) {
        match &mut self.rec {
            Some(rec) => {
                let label = rec.strings.intern_static(label);
                rec.current.push(Request {
                    op,
                    tensor,
                    bytes,
                    label,
                });
            }
            None => {
                let kind = self.current_kind.expect("no open segment");
                self.runs[section_of(kind)].push(op, bytes);
            }
        }
    }

    /// Close the tail section: its segments and the label table, or `None`
    /// when not recording.
    fn finish(&mut self) -> Option<(Vec<TraceSegment>, TraceStrings)> {
        assert!(self.current_kind.is_none(), "unclosed segment");
        assert!(self.open.is_empty(), "tensors leaked at trace end");
        self.rec.take().map(|rec| (rec.segments, rec.strings))
    }
}

/// Skeletal tensors of one layer that outlive the forward segment
/// (policy-dependent subset). Boundary ownership: a layer's *input* is freed
/// at the end of that layer's backward segment; its output belongs to the
/// next layer (as `input`) or to the classifier.
#[derive(Debug, Default, Clone)]
struct LayerSkeleton {
    input: Option<TensorId>,
    ln1: Option<TensorId>,
    q: Option<TensorId>,
    k: Option<TensorId>,
    v: Option<TensorId>,
    attn_out: Option<TensorId>,
    residual1: Option<TensorId>,
    ln2: Option<TensorId>,
    fc1: Option<TensorId>,
    gelu: Option<TensorId>,
}

/// Generate the iteration trace for the given parameters: the embedding
/// and classifier segments spelled out, one forward and one backward layer
/// body, and the ports that chain `params.model.n_layers` copies of them.
pub fn generate(params: &TraceParams) -> IterationTrace {
    emit(&mut TraceBuilder::new(), params).expect("a recording builder yields its trace")
}

/// The liveness peak of the trace [`generate`] would build for `params`,
/// equal to its [`IterationTrace::peak_live_bytes`], without building it:
/// the same emitters run on a builder that records no request, interns no
/// label and folds each section into one running liveness summary.
pub fn peak_live_bytes(params: &TraceParams) -> u64 {
    let mut b = TraceBuilder::streamed();
    emit(&mut b, params);
    iteration_peak(b.runs, params.model.n_layers)
}

/// Run the emitters of one iteration on `b`: the trace when `b` records,
/// else `None`, with the sections' runs left in `b`.
fn emit(b: &mut TraceBuilder, params: &TraceParams) -> Option<IterationTrace> {
    let n = params.model.n_layers;
    let mut boundary = embedding_forward(b, params);
    let head = b.end_section();

    // ---- transformer forward: layer 0 in slot space -------------------------
    let mut ports = Ports {
        fwd_base: b.next_id,
        input0: boundary,
        ..Ports::default()
    };
    let mut fwd = Vec::new();
    let mut skeleton = None;
    if n > 0 {
        // Layer 0's input becomes every layer's input port.
        let input = boundary.map(|t| b.rename(t, INPUT));
        b.next_id = FWD;
        b.begin(SegmentKind::LayerFwd(0));
        let (skel, out) = layer_forward(b, params, input, false);
        fwd = b.end_body();
        ports.fwd_stride = b.next_id - FWD;
        ports.out_slot = out.map(|t| (t.0 - FWD) as u32);
        // The classifier reads the last layer's output.
        let last = ports.fwd_base + (n as u64 - 1) * ports.fwd_stride;
        boundary = out.map(|t| b.rename(t, TensorId(last + t.0 - FWD)));
        b.next_id = ports.fwd_base + n as u64 * ports.fwd_stride;
        skeleton = Some(skel);
    }

    let mut grad_boundary = classifier(b, params, boundary);
    let middle = b.end_section();

    // ---- transformer backward: the last layer in slot space ------------------
    let mut bwd = Vec::new();
    if let Some(skel) = skeleton {
        ports.grad_last = Some(grad_boundary);
        ports.bwd_base = b.next_id;
        let grad = b.rename(grad_boundary, GRAD);
        b.next_id = BWD;
        b.begin(SegmentKind::LayerBwd(n - 1));
        let grad_in = layer_backward(b, params, skel, grad);
        bwd = b.end_body();
        ports.bwd_stride = b.next_id - BWD;
        ports.grad_slot = Some((grad_in.0 - BWD) as u32);
        // The embedding backward reads layer 0's input gradient.
        let first = ports.bwd_base + (n as u64 - 1) * ports.bwd_stride;
        grad_boundary = b.rename(grad_in, TensorId(first + grad_in.0 - BWD));
        b.next_id = ports.bwd_base + n as u64 * ports.bwd_stride;
    }

    embedding_backward(b, params, grad_boundary);
    let (tail, strings) = b.finish()?;
    Some(IterationTrace {
        head,
        fwd,
        middle,
        bwd,
        tail,
        layers: n,
        ports,
        strings,
    })
}

/// Embedding forward; returns the tensor feeding layer 0. Under MEMO the
/// embedding output is staged and copied into layer 0's rounding-buffer
/// slot, so it does not outlive this segment.
fn embedding_forward(b: &mut TraceBuilder, params: &TraceParams) -> Option<TensorId> {
    b.begin(SegmentKind::EmbeddingFwd);
    let emb_out = b.malloc(params.dims.bsh_bytes(), "embedding_out");
    let boundary = if matches!(params.policy, RematPolicy::MemoTokenWise) {
        b.free(emb_out, "embedding_out");
        None
    } else {
        Some(emb_out)
    };
    b.end();
    boundary
}

/// Classifier forward and backward over the last layer's output
/// `boundary`; returns the gradient flowing into the last layer.
fn classifier(b: &mut TraceBuilder, params: &TraceParams, boundary: Option<TensorId>) -> TensorId {
    b.begin(SegmentKind::ClassifierFwd);
    // Under MEMO the classifier input is staged out of the last rounding
    // buffer into an ordinary tensor.
    let classifier_in = match boundary {
        Some(t) => t,
        None => b.malloc(params.dims.bsh_bytes(), "classifier_in"),
    };
    let final_ln = b.malloc(params.dims.bsh_bytes(), "final_norm_out");
    let full_logits = if params.materialize_logits {
        // Unfused loss pipeline: fp16 logits from the LM-head matmul, their
        // fp32 upcast, and the fp32 softmax probabilities all survive to the
        // backward pass (autograd keeps each op's inputs).
        let elems = params.dims.tokens_local * params.vocab_local;
        let logits16 = b.malloc(elems * 2, "logits_fp16");
        let logits32 = b.malloc(elems * 4, "logits_fp32");
        let probs = b.malloc(elems * 4, "softmax_probs_fp32");
        Some((logits16, logits32, probs, elems))
    } else {
        classifier_chunks(b, params, LOGIT_CHUNK_LABELS);
        None
    };
    b.end();

    b.begin(SegmentKind::ClassifierBwd);
    if let Some((logits16, logits32, probs, elems)) = full_logits {
        let grad = b.malloc(elems * 4, "logit_grad_fp32");
        b.free(probs, "softmax_probs_fp32");
        b.free(logits32, "logits_fp32");
        let grad16 = b.malloc(elems * 2, "logit_grad_fp16");
        b.free(grad, "logit_grad_fp32");
        b.free(logits16, "logits_fp16");
        b.free(grad16, "logit_grad_fp16");
    } else {
        classifier_chunks(b, params, LOGIT_GRAD_CHUNK_LABELS);
    }
    let grad_boundary = b.malloc(params.dims.bsh_bytes(), "grad_final_norm");
    b.free(final_ln, "final_norm_out");
    b.free(classifier_in, "classifier_in");
    b.end();
    grad_boundary
}

/// Embedding backward, consuming layer 0's input gradient.
fn embedding_backward(b: &mut TraceBuilder, params: &TraceParams, grad: TensorId) {
    b.begin(SegmentKind::EmbeddingBwd);
    // embedding gradient scatter: workspace proportional to local tokens
    let ws = b.malloc(params.dims.bsh_bytes(), "embedding_grad_ws");
    b.free(ws, "embedding_grad_ws");
    b.free(grad, "grad_embedding_out");
    b.end();
}

/// Emit the forward request sequence of one transformer layer.
///
/// When `remat_pass` is true we are re-running the forward inside a backward
/// segment (full recomputation): skeletal tensors are allocated here and the
/// caller frees them after the backward computation.
///
/// `input` is the boundary tensor feeding this layer (`None` under MEMO,
/// where layer inputs live in rounding buffers). Returns the skeletal
/// tensors surviving this segment and the output boundary tensor (`None`
/// under MEMO outside a recompute pass).
fn layer_forward(
    b: &mut TraceBuilder,
    p: &TraceParams,
    input: Option<TensorId>,
    remat_pass: bool,
) -> (LayerSkeleton, Option<TensorId>) {
    let bsh = p.dims.bsh_bytes();
    let bsf = p.dims.bsf_bytes();
    let cf = p.comm_factor.max(1);
    let h = p.dims.hidden;
    let dt = p.dims.dtype.size_bytes();
    // Skeletal tensors reach the allocator unless MEMO's rounding buffers
    // hold them (and we are not inside a recompute pass, where they are
    // ordinary short-lived tensors).
    let alloc_skeletal = remat_pass || !matches!(p.policy, RematPolicy::MemoTokenWise);
    // Under full recomputation the forward pass keeps nothing but the input,
    // so "skeletal" tensors behave like transients inside this segment.
    let keep = remat_pass || matches!(p.policy, RematPolicy::KeepAll | RematPolicy::MemoTokenWise);

    let mut skel = LayerSkeleton {
        input,
        ..LayerSkeleton::default()
    };

    // LayerNorm 1 (+ statistics workspace).
    let ln1_stats = b.malloc(p.dims.tokens_local * 8, "ln1_stats");
    let ln1 = alloc_skeletal.then(|| b.malloc(bsh, "input_norm"));
    b.free(ln1_stats, "ln1_stats");

    // Sequence-parallel all-gather before the QKV projection.
    let ag1 = (cf > 1).then(|| b.malloc(bsh * cf, "sp_allgather_attn"));

    // Packed QKV projection, then split into Q, K, V (+ RoPE temporaries).
    let qkv_packed = b.malloc(3 * bsh, "qkv_packed");
    if let Some(ag) = ag1 {
        b.free(ag, "sp_allgather_attn");
    }
    let q = alloc_skeletal.then(|| b.malloc(bsh, "q"));
    let k = alloc_skeletal.then(|| b.malloc(bsh, "k"));
    let v = alloc_skeletal.then(|| b.malloc(bsh, "v"));
    let rope_ws = b.malloc(bsh / 2, "rope_ws");
    b.free(rope_ws, "rope_ws");
    b.free(qkv_packed, "qkv_packed");

    // FlashAttention forward: output + small softmax-lse workspace.
    let attn_ws = b.malloc(p.dims.tokens_local * 4 * 8, "flash_lse_ws");
    let attn_out = alloc_skeletal.then(|| b.malloc(bsh, "flash_attn_out"));
    b.free(attn_ws, "flash_lse_ws");

    // Output projection (+ SP reduce-scatter), residual add.
    let proj_out = b.malloc(bsh * cf, "attn_proj_out");
    let residual1 = alloc_skeletal.then(|| b.malloc(bsh, "residual1"));
    b.free(proj_out, "attn_proj_out");

    // LayerNorm 2.
    let ln2_stats = b.malloc(p.dims.tokens_local * 8, "ln2_stats");
    let ln2 = alloc_skeletal.then(|| b.malloc(bsh, "post_attn_norm"));
    b.free(ln2_stats, "ln2_stats");

    // FFN: all-gather, FC1, GELU, FC2 (+ reduce-scatter), residual add.
    let ag2 = (cf > 1).then(|| b.malloc(bsh * cf, "sp_allgather_ffn"));
    let fc1 = alloc_skeletal.then(|| b.malloc(bsf, "fc1_out"));
    if let Some(ag) = ag2 {
        b.free(ag, "sp_allgather_ffn");
    }
    let gelu = alloc_skeletal.then(|| b.malloc(bsf, "gelu_out"));
    let fc2_out = b.malloc(bsh * cf, "fc2_out");
    let bias_ws = b.malloc(h * dt, "bias_broadcast_ws");
    b.free(bias_ws, "bias_broadcast_ws");
    let output = b.malloc(bsh, "layer_out");
    b.free(fc2_out, "fc2_out");
    // Under MEMO (outside recompute passes) the layer output is copied into
    // the next layer's rounding-buffer slot and the staging tensor released.
    let output = if matches!(p.policy, RematPolicy::MemoTokenWise) && !remat_pass {
        b.free(output, "layer_out");
        None
    } else {
        Some(output)
    };

    if keep {
        skel.ln1 = ln1;
        skel.q = q;
        skel.k = k;
        skel.v = v;
        skel.attn_out = attn_out;
        skel.residual1 = residual1;
        skel.ln2 = ln2;
        skel.fc1 = fc1;
        skel.gelu = gelu;
    } else {
        // Full recomputation: discard everything but the input before the
        // segment ends (these frees are what make the fwd segment transient).
        for (id, label) in [
            (gelu, "gelu_out"),
            (fc1, "fc1_out"),
            (ln2, "post_attn_norm"),
            (residual1, "residual1"),
            (attn_out, "flash_attn_out"),
            (v, "v"),
            (k, "k"),
            (q, "q"),
            (ln1, "input_norm"),
        ] {
            if let Some(id) = id {
                b.free(id, label);
            }
        }
    }
    (skel, output)
}

/// Emit the backward request sequence of one transformer layer; returns the
/// gradient tensor flowing to the previous layer.
fn layer_backward(
    b: &mut TraceBuilder,
    p: &TraceParams,
    mut skel: LayerSkeleton,
    grad_out: TensorId,
) -> TensorId {
    let bsh = p.dims.bsh_bytes();
    let bsf = p.dims.bsf_bytes();
    let cf = p.comm_factor.max(1);
    let h = p.dims.hidden;
    let f = p.dims.ffn_hidden;
    let dt = p.dims.dtype.size_bytes();

    // Rematerialisation preamble.
    match p.policy {
        RematPolicy::KeepAll => {}
        RematPolicy::FullRecompute => {
            // Re-forward the layer to rebuild its skeleton; the rebuilt
            // output duplicates the stored boundary tensor and is freed once
            // the backward consumes it.
            let input = skel.input.expect("layer input must be stored");
            let (rebuilt, rebuilt_out) = layer_forward(b, p, Some(input), true);
            skel = rebuilt;
            if let Some(out) = rebuilt_out {
                b.free(out, "recomputed_layer_out");
            }
        }
        RematPolicy::MemoTokenWise => {
            // Skeletal tensors are prefetched/recomputed into the rounding
            // buffers; only a small recompute workspace hits the allocator.
            let ws = b.malloc(bsh / 4, "tokenwise_recompute_ws");
            b.free(ws, "tokenwise_recompute_ws");
        }
    }
    let in_buffers = matches!(p.policy, RematPolicy::MemoTokenWise);

    let free_skel = |b: &mut TraceBuilder, id: Option<TensorId>, label: &'static str| {
        if let Some(id) = id {
            if !in_buffers {
                b.free(id, label);
            }
        }
    };

    // FFN backward.
    let ag_g = (cf > 1).then(|| b.malloc(bsh * cf, "sp_allgather_grad"));
    let grad_fc2_in = b.malloc(bsf, "grad_gelu_out");
    let wgrad_fc2 = b.malloc(h * f * dt, "fc2_wgrad_ws");
    b.free(wgrad_fc2, "fc2_wgrad_ws");
    if let Some(ag) = ag_g {
        b.free(ag, "sp_allgather_grad");
    }
    let grad_fc1_in = b.malloc(bsf, "grad_fc1_out");
    b.free(grad_fc2_in, "grad_gelu_out");
    free_skel(b, skel.gelu.take(), "gelu_out");
    let wgrad_fc1 = b.malloc(h * f * dt, "fc1_wgrad_ws");
    b.free(wgrad_fc1, "fc1_wgrad_ws");
    let grad_ln2 = b.malloc(bsh, "grad_post_attn_norm");
    b.free(grad_fc1_in, "grad_fc1_out");
    free_skel(b, skel.fc1.take(), "fc1_out");

    // LN2 backward + residual fan-in.
    let grad_res1 = b.malloc(bsh, "grad_residual1");
    b.free(grad_ln2, "grad_post_attn_norm");
    free_skel(b, skel.ln2.take(), "post_attn_norm");
    free_skel(b, skel.residual1.take(), "residual1");

    // Attention projection backward.
    let grad_attn_out = b.malloc(bsh, "grad_flash_attn_out");
    let wgrad_proj = b.malloc(h * h * dt, "proj_wgrad_ws");
    b.free(wgrad_proj, "proj_wgrad_ws");

    // FlashAttention backward (dq, dk, dv + workspace).
    let dq = b.malloc(bsh, "dq");
    let dk = b.malloc(bsh, "dk");
    let dv = b.malloc(bsh, "dv");
    let fa_ws = b.malloc(bsh / 2, "flash_bwd_ws");
    b.free(fa_ws, "flash_bwd_ws");
    b.free(grad_attn_out, "grad_flash_attn_out");
    free_skel(b, skel.attn_out.take(), "flash_attn_out");
    free_skel(b, skel.v.take(), "v");
    free_skel(b, skel.k.take(), "k");
    free_skel(b, skel.q.take(), "q");

    // QKV projection backward.
    let grad_ln1 = b.malloc(bsh, "grad_input_norm");
    let wgrad_qkv = b.malloc(3 * h * h * dt, "qkv_wgrad_ws");
    b.free(wgrad_qkv, "qkv_wgrad_ws");
    b.free(dv, "dv");
    b.free(dk, "dk");
    b.free(dq, "dq");

    // LN1 backward + residual fan-in produces the input gradient.
    let grad_input = b.malloc(bsh, "grad_layer_input");
    b.free(grad_ln1, "grad_input_norm");
    free_skel(b, skel.ln1.take(), "input_norm");
    b.free(grad_res1, "grad_residual1");

    // Boundary tensors: the incoming gradient dies here, and this layer's
    // stored input (the previous layer's output) is consumed by LN1 backward
    // and released. Under MEMO the input lives in the rounding buffer.
    b.free(grad_out, "grad_layer_out");
    if !in_buffers {
        if let Some(input) = skel.input.take() {
            b.free(input, "layer_input");
        }
    }
    grad_input
}

/// The (logits, softmax workspace) labels of the two representative
/// cross-entropy chunks, forward and backward.
const LOGIT_CHUNK_LABELS: [(&str, &str); 2] = [
    ("logits_chunk0", "logits_softmax_ws0"),
    ("logits_chunk1", "logits_softmax_ws1"),
];
const LOGIT_GRAD_CHUNK_LABELS: [(&str, &str); 2] = [
    ("logit_grad_chunk0", "logit_grad_softmax_ws0"),
    ("logit_grad_chunk1", "logit_grad_softmax_ws1"),
];

/// Chunked vocab-parallel cross-entropy: logits (and their gradients) only
/// ever materialise one chunk at a time.
fn classifier_chunks(
    b: &mut TraceBuilder,
    p: &TraceParams,
    labels: [(&'static str, &'static str); 2],
) {
    let tokens = p.dims.tokens_local;
    let chunk = p.ce_chunk_tokens.min(tokens).max(1);
    let n_chunks = tokens.div_ceil(chunk);
    // Representative first/last chunk pair keeps traces compact while
    // preserving the peak (all chunks are identical in size).
    let reps = n_chunks.min(2) as usize;
    for (logits_label, ws_label) in labels.into_iter().take(reps) {
        let logits = b.malloc(chunk * p.vocab_local * 4, logits_label);
        let softmax_ws = b.malloc(chunk * 8, ws_label);
        b.free(softmax_ws, ws_label);
        b.free(logits, logits_label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::LayerDims;
    use crate::config::{DType, ModelConfig};

    fn params(policy: RematPolicy) -> TraceParams {
        let m = ModelConfig::tiny(4, 64, 4, 128);
        let dims = LayerDims::new(256, &m, DType::BF16);
        let mut p = TraceParams::new(&m, dims, policy);
        p.comm_factor = 2;
        p.ce_chunk_tokens = 64;
        p
    }

    #[test]
    fn traces_validate_for_all_policies() {
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            let t = generate(&params(policy));
            let chk = t.validate().unwrap();
            let n = chk.tensors;
            assert!(n > 20, "{policy:?}: only {n} tensors");
            assert_eq!(
                chk.peak_live_bytes,
                t.peak_live_bytes(),
                "{policy:?}: validate's single-pass peak diverges"
            );
        }
    }

    /// The liveness peak of the flattened trace: a `u128` counter whose
    /// frees saturate at zero, reported saturated to `u64`.
    fn flat_peak(t: &IterationTrace) -> u64 {
        let (mut live, mut peak) = (0u128, 0u128);
        for r in t.flatten() {
            match r.op {
                MemOp::Malloc => {
                    live += u128::from(r.bytes);
                    peak = peak.max(live);
                }
                MemOp::Free => live = live.saturating_sub(u128::from(r.bytes)),
            }
        }
        u64::try_from(peak).unwrap_or(u64::MAX)
    }

    #[test]
    fn periodic_peak_matches_the_expanded_scan() {
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            for layers in [0, 1, 2, 7] {
                for materialize_logits in [false, true] {
                    let mut p = params(policy);
                    p.model.n_layers = layers;
                    p.materialize_logits = materialize_logits;
                    let t = generate(&p);
                    assert_eq!(t.layers(), layers);
                    let what = format!("{policy:?}, {layers} layers, logits {materialize_logits}");
                    assert_eq!(t.peak_live_bytes(), flat_peak(&t), "{what}");
                    assert_eq!(peak_live_bytes(&p), flat_peak(&t), "{what}: streamed");
                    assert_eq!(
                        t.peak_live_bytes(),
                        t.validate().unwrap().peak_live_bytes,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn live_run_repeat_matches_repeated_application() {
        // Bodies that rise, fall, over-free (the counter floors at zero)
        // or do nothing, entered at several live counts: the closed form
        // equals `n` applications and the run of the `n`-fold body. The
        // over-freeing bodies that still grow are the ones whose floor
        // terms set the peak.
        use MemOp::{Free, Malloc};
        let bodies: [&[(MemOp, u64)]; 9] = [
            &[],
            &[(Malloc, 5), (Free, 5)],
            &[(Malloc, 4), (Malloc, 3), (Free, 4)],
            &[(Free, 6), (Malloc, 2)],
            &[(Free, 10), (Malloc, 20)],
            &[(Malloc, 3), (Free, 10), (Malloc, 12), (Free, 1)],
            &[(Malloc, 9), (Free, 20), (Malloc, 1), (Malloc, 4), (Free, 2)],
            &[(Free, 1), (Free, 1)],
            &[(Malloc, u64::MAX), (Malloc, u64::MAX), (Free, 1)],
        ];
        for body in bodies {
            let run = LiveRun::of(body.iter().copied());
            for n in 0..6 {
                let repeated = LiveRun::of(body.iter().copied().cycle().take(n * body.len()));
                for x in [0i128, 1, 3, 7, 100] {
                    let (mut live, mut peak) = (x, 0i128);
                    for _ in 0..n {
                        live = run.apply(live, &mut peak);
                    }
                    for r in [run.repeat(n), repeated] {
                        let mut p = 0i128;
                        assert_eq!(
                            (r.apply(x, &mut p), p),
                            (live, peak),
                            "{body:?} x{n} from {x}"
                        );
                    }
                }
            }
        }
    }

    /// A one-segment trace in the text format `read_trace` parses.
    fn read_text(requests: &str) -> IterationTrace {
        let text = format!("# memo-trace v1\nsegment embedding_fwd 0\n{requests}");
        crate::io::read_trace(text.as_bytes()).unwrap()
    }

    #[test]
    fn validate_saturates_the_live_sum() {
        let half = 1u64 << 63;
        let t = read_text(&format!(
            "malloc 1 {half} a\nmalloc 2 {half} b\nfree 1 {half} a\nfree 2 {half} b\n"
        ));
        assert_eq!(t.validate().unwrap().peak_live_bytes, u64::MAX);
        assert_eq!(t.peak_live_bytes(), u64::MAX);
    }

    #[test]
    fn validate_names_the_smallest_leaked_tensor() {
        let t = read_text("malloc 9 8 a\nmalloc 4 8 a\nmalloc 7 8 a\nmalloc 5 8 a\n");
        for _ in 0..50 {
            assert_eq!(t.validate().unwrap_err(), TraceError::Leaked(TensorId(4)));
        }
    }

    #[test]
    fn periodic_peak_saturates_like_the_expanded_scan() {
        // A free of more than is live floors the counter at zero inside a
        // layer body too (5, where unsaturated arithmetic would say 3); a
        // sum past `u64::MAX` reports `u64::MAX`.
        let mut strings = TraceStrings::new();
        let label = strings.intern("t");
        let req = |op, tensor, bytes| Request {
            op,
            tensor: TensorId(tensor),
            bytes,
            label,
        };
        let seg = |kind, requests| TraceSegment { kind, requests };
        let body = vec![
            req(MemOp::Free, 100, 7),
            req(MemOp::Malloc, 10, 5),
            req(MemOp::Free, 10, 5),
        ];
        let segments = vec![
            seg(SegmentKind::EmbeddingFwd, vec![req(MemOp::Malloc, 1, 3)]),
            seg(SegmentKind::LayerFwd(0), body),
            seg(SegmentKind::ClassifierFwd, vec![]),
            seg(SegmentKind::LayerBwd(0), vec![]),
            seg(SegmentKind::EmbeddingBwd, vec![req(MemOp::Malloc, 2, 4)]),
        ];
        let t = IterationTrace::from_segments(segments, strings.clone()).unwrap();
        assert_eq!(t.peak_live_bytes(), flat_peak(&t));
        assert_eq!(t.peak_live_bytes(), 5);

        for tail in [1, u64::MAX] {
            let huge = vec![seg(
                SegmentKind::EmbeddingFwd,
                vec![req(MemOp::Malloc, 1, u64::MAX), req(MemOp::Malloc, 2, tail)],
            )];
            let t = IterationTrace::from_segments(huge, strings.clone()).unwrap();
            assert_eq!(t.peak_live_bytes(), u64::MAX);
            assert_eq!(flat_peak(&t), u64::MAX);
        }
    }

    #[test]
    fn transformer_segments_are_identical() {
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            let t = generate(&params(policy));
            for fwd in [true, false] {
                let shapes: Vec<Vec<(MemOp, u64, Sym)>> = t
                    .segments()
                    .filter(|s| matches!(s.kind, SegmentKind::LayerFwd(_)) == fwd)
                    .filter(|s| s.kind.is_transformer())
                    .map(|s| s.requests().map(|r| (r.op, r.bytes, r.label)).collect())
                    .collect();
                assert_eq!(shapes.len(), 4);
                assert!(
                    shapes.windows(2).all(|w| w[0] == w[1]),
                    "{policy:?}: layer segments differ"
                );
            }
        }
    }

    #[test]
    fn keepall_peak_exceeds_recompute_peak() {
        let keep = generate(&params(RematPolicy::KeepAll)).peak_live_bytes();
        let rec = generate(&params(RematPolicy::FullRecompute)).peak_live_bytes();
        let memo = generate(&params(RematPolicy::MemoTokenWise)).peak_live_bytes();
        assert!(keep > rec, "keepall {keep} <= full-recompute {rec}");
        // MEMO's allocator trace excludes skeletal tensors entirely, so its
        // planned region is the smallest.
        assert!(memo < rec, "memo {memo} >= full-recompute {rec}");
    }

    #[test]
    fn keepall_peak_has_all_skeletal_layers() {
        // Peak live bytes must be at least n_layers × 16·bsh under KeepAll.
        let p = params(RematPolicy::KeepAll);
        let t = generate(&p);
        let skeletal_per_layer = 16 * p.dims.bsh_bytes();
        assert!(t.peak_live_bytes() >= p.model.n_layers as u64 * skeletal_per_layer);
    }

    #[test]
    fn transient_count_exceeds_skeletal_count() {
        // §3.3: transient activations outnumber skeletal ones (>5× per layer
        // counting both passes). Count mallocs in one fwd+bwd segment pair
        // under MEMO (where the trace is all-transient) vs the 10 skeletal.
        let t = generate(&params(RematPolicy::MemoTokenWise));
        let mallocs: usize = t
            .segments()
            .filter(|s| matches!(s.kind, SegmentKind::LayerFwd(0) | SegmentKind::LayerBwd(0)))
            .flat_map(|s| s.requests())
            .filter(|r| r.op == MemOp::Malloc)
            .count();
        assert!(mallocs >= 25, "only {mallocs} transient mallocs per layer");
    }

    #[test]
    fn segment_kinds_in_execution_order() {
        let t = generate(&params(RematPolicy::FullRecompute));
        let kinds: Vec<_> = t.segments().map(|s| s.kind).collect();
        assert_eq!(kinds[0], SegmentKind::EmbeddingFwd);
        assert_eq!(kinds[1], SegmentKind::LayerFwd(0));
        assert!(kinds.contains(&SegmentKind::ClassifierFwd));
        assert_eq!(kinds[kinds.len() - 1], SegmentKind::EmbeddingBwd);
        // Backward layers run in reverse order.
        let bwd: Vec<_> = kinds
            .iter()
            .filter_map(|k| match k {
                SegmentKind::LayerBwd(i) => Some(*i),
                _ => None,
            })
            .collect();
        let mut sorted = bwd.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(bwd, sorted);
    }

    #[test]
    fn render_matches_figure4_format() {
        let t = generate(&params(RematPolicy::FullRecompute));
        let s = t.render_segment(SegmentKind::LayerFwd(0), 6);
        assert!(s.contains("malloc"));
        assert!(s.contains("tensor_id"));
    }

    #[test]
    fn materialized_logits_inflate_peak() {
        let mut p = params(RematPolicy::FullRecompute);
        p.materialize_logits = true;
        p.vocab_local = 100_000; // realistic: vocab ≫ hidden
        let t = generate(&p);
        t.validate().unwrap();
        let mut pc = params(RematPolicy::FullRecompute);
        pc.vocab_local = 100_000;
        let base = generate(&pc);
        // Three fp32 tokens×vocab tensors at peak vs chunked loss.
        assert!(
            t.peak_live_bytes()
                >= base.peak_live_bytes() + 2 * p.dims.tokens_local * p.vocab_local * 4
        );
    }

    #[test]
    fn labels_are_interned() {
        let t = generate(&params(RematPolicy::FullRecompute));
        // Requests are Copy and carry a 4-byte symbol, not a String.
        let first = t.flatten().next().unwrap();
        assert_eq!(t.label_of(&first), "embedding_out");
        // The table is tiny compared to the request count: every repeated
        // label (one per layer per iteration) resolves to the same symbol.
        assert!(
            t.strings.len() < 64,
            "table has {} entries",
            t.strings.len()
        );
        assert!(t.len() > 4 * t.strings.len());
        assert_eq!(t.strings.resolve(Sym::EMPTY), "");
        let syms: Vec<Sym> = t
            .flatten()
            .filter(|r| t.label_of(r) == "qkv_packed")
            .map(|r| r.label)
            .collect();
        assert!(syms.len() > 1);
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn default_strings_table_resolves_empty() {
        let t = TraceStrings::default();
        assert_eq!(t.resolve(Sym::EMPTY), "");
        assert_eq!(t.resolve(Sym(999)), "", "out-of-table symbols print empty");
        let mut t = TraceStrings::new();
        assert_eq!(t.intern(""), Sym::EMPTY);
        let a = t.intern("x");
        assert_eq!(t.intern("x"), a, "interning is idempotent");
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(128 << 20), "128MB");
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(3 << 30), "3.00GB");
    }

    /// The expanded generator: every layer spelled out, as the periodic
    /// [`generate`] must reproduce.
    fn reference(params: &TraceParams) -> (Vec<TraceSegment>, TraceStrings) {
        let mut b = TraceBuilder::new();
        let n = params.model.n_layers;
        let mut boundary = embedding_forward(&mut b, params);
        let mut skeletons = Vec::with_capacity(n);
        for layer in 0..n {
            b.begin(SegmentKind::LayerFwd(layer));
            let (skel, out) = layer_forward(&mut b, params, boundary, false);
            skeletons.push(skel);
            boundary = out;
            b.end();
        }
        let mut grad = classifier(&mut b, params, boundary);
        for layer in (0..n).rev() {
            b.begin(SegmentKind::LayerBwd(layer));
            grad = layer_backward(&mut b, params, skeletons[layer].clone(), grad);
            b.end();
        }
        embedding_backward(&mut b, params, grad);
        b.finish().expect("a recording builder")
    }

    /// Every policy × comm factor × logits mode × layer count of the
    /// differential grid.
    fn grid() -> Vec<TraceParams> {
        let mut out = Vec::new();
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            for comm_factor in [1, 2] {
                for materialize_logits in [false, true] {
                    for layers in [1, 2, 5] {
                        let m = ModelConfig::tiny(layers, 64, 4, 128);
                        let dims = LayerDims::new(256, &m, DType::BF16);
                        let mut p = TraceParams::new(&m, dims, policy);
                        p.comm_factor = comm_factor;
                        p.ce_chunk_tokens = 64;
                        p.materialize_logits = materialize_logits;
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn periodic_trace_expands_to_the_reference() {
        for p in grid() {
            let case = (
                p.policy,
                p.comm_factor,
                p.materialize_logits,
                p.model.n_layers,
            );
            let t = generate(&p);
            let (segments, strings) = reference(&p);
            assert_eq!(t.strings, strings, "{case:?}: label tables differ");
            assert_eq!(t.layers(), p.model.n_layers);
            assert_eq!(
                peak_live_bytes(&p),
                t.peak_live_bytes(),
                "{case:?}: streamed peak"
            );
            let expanded: Vec<(SegmentKind, usize, Vec<Request>)> = t
                .segments()
                .map(|s| (s.kind, s.start, s.requests().collect()))
                .collect();
            let mut start = 0;
            let spelled: Vec<(SegmentKind, usize, Vec<Request>)> = segments
                .iter()
                .map(|s| {
                    start += s.requests.len();
                    (s.kind, start - s.requests.len(), s.requests.clone())
                })
                .collect();
            assert_eq!(expanded, spelled, "{case:?}: expansion differs");
            assert_eq!(t.len(), start, "{case:?}: len is not the expanded length");
            // Folding the spelled-out segments recovers the same trace.
            let folded = IterationTrace::from_segments(segments, strings).unwrap();
            assert_eq!(folded, t, "{case:?}: fold differs");
        }
    }

    #[test]
    fn from_segments_rejects_non_periodic_layers() {
        let p = params(RematPolicy::FullRecompute);
        let fold = |segments| IterationTrace::from_segments(segments, reference(&p).1);
        let (segments, _) = reference(&p);
        let bwd0 = segments.len() - 2;
        assert!(matches!(segments[bwd0].kind, SegmentKind::LayerBwd(0)));

        let mut resized = segments.clone();
        resized[3].requests[0].bytes += 512;
        assert_eq!(
            fold(resized).unwrap_err(),
            PeriodError::LayerDiffers { segment: 3 }
        );

        let mut renumbered = segments.clone();
        renumbered[2].requests[0].tensor.0 += 1;
        assert!(matches!(
            fold(renumbered).unwrap_err(),
            PeriodError::LayerDiffers { .. }
        ));

        let mut short = segments.clone();
        short.remove(bwd0);
        assert_eq!(
            fold(short).unwrap_err(),
            PeriodError::LayerCounts { fwd: 4, bwd: 3 }
        );

        let mut swapped = segments.clone();
        swapped.swap(1, 2);
        assert_eq!(
            fold(swapped).unwrap_err(),
            PeriodError::LayerOrder { segment: 1 }
        );

        // Without layers every segment is head: any sequence folds.
        let flat = vec![TraceSegment {
            kind: SegmentKind::ClassifierFwd,
            requests: segments[0].requests.clone(),
        }];
        let t = IterationTrace::from_segments(flat, TraceStrings::new()).unwrap();
        assert_eq!((t.layers(), t.len()), (0, segments[0].requests.len()));
    }

    /// FNV-1a over `write_trace`'s bytes.
    fn file_digest(t: &IterationTrace) -> u64 {
        let mut buf = Vec::new();
        crate::io::write_trace(t, &mut buf).unwrap();
        buf.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// `write_trace` digests of every [`grid`] entry (in order, layers
    /// innermost), then 7B at 32K local tokens under KeepAll,
    /// FullRecompute and MemoTokenWise. They pin every label, id, size and
    /// segment boundary the generator emits; `io::tests::roundtrip_identity`
    /// pins the `Sym` numbering. Re-record them only for a deliberate
    /// change of a generated trace.
    const DIGESTS: [u64; 39] = [
        0xfd7c_37a2_6592_5033,
        0x0a20_af42_4a3e_325f,
        0x5d1a_1313_00ae_6269,
        0x77fd_83d4_a47f_53bf,
        0xa7a2_19ee_3335_730b,
        0x7457_d07a_7456_2c73,
        0xc227_34fb_3817_662d,
        0x5a92_6943_48db_297f,
        0x103d_dcdf_a76b_03c1,
        0x9bb6_d5fc_6c40_a731,
        0x934a_38fd_e042_4c3d,
        0x3ff4_34dc_099a_1fa3,
        0xce7c_7fdb_d423_83c2,
        0x5a46_9aba_9998_b96d,
        0x4d27_2833_903d_5614,
        0xc119_904d_a189_f290,
        0x4a49_0150_e01d_d523,
        0xca46_78e6_d742_4832,
        0x4e13_0756_4ec1_93b8,
        0x8286_251e_77eb_c29d,
        0x14c9_3030_17e8_48c0,
        0xf1c8_729c_aa93_d610,
        0xca83_d266_49e5_7457,
        0xf3a4_bc6b_26c6_17b2,
        0xd666_1305_65f4_a2fe,
        0x01b5_9cdd_8ffa_7242,
        0x7138_73a7_f745_bac0,
        0x9966_8399_5a21_7cfe,
        0x1bd1_b762_c92c_e23c,
        0x58dd_268e_273c_aef6,
        0xcb11_d4fd_b42e_49b8,
        0x10e7_a673_5efd_2e2c,
        0x7f50_84ee_c753_d3b6,
        0xb14b_5c20_cb0a_c578,
        0x60e0_fe36_aff5_0474,
        0x440f_abc9_085d_f26c,
        0xb76e_f263_0e5e_ced9,
        0x3293_01b6_0797_5a69,
        0x5443_45a1_a37c_85fc,
    ];

    #[test]
    fn generated_traces_match_the_recorded_digests() {
        let mut cases = grid();
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            let m = ModelConfig::gpt_7b();
            let dims = LayerDims::new(32 * 1024, &m, DType::BF16);
            cases.push(TraceParams::new(&m, dims, policy));
        }
        assert_eq!(cases.len(), DIGESTS.len());
        for (p, &want) in cases.iter().zip(&DIGESTS) {
            let case = (
                p.model.name,
                p.policy,
                p.comm_factor,
                p.materialize_logits,
                p.model.n_layers,
            );
            assert_eq!(file_digest(&generate(p)), want, "{case:?}");
        }
    }
}
