//! The two input parsers never panic: `memo_obs::json::parse` and
//! `memo_model::io::read_trace` return `Ok` or a typed error on arbitrary
//! bytes (invalid UTF-8 included) and on single-byte mutations of a valid
//! document or written trace.

use memo::model::activations::LayerDims;
use memo::model::config::{DType, ModelConfig};
use memo::model::io::{read_trace, write_trace};
use memo::model::trace::{generate, RematPolicy, TraceParams};
use memo::obs::json::{parse, Json};
use proptest::prelude::*;

/// A document that exercises every JSON production the parser has.
fn valid_json() -> String {
    Json::Obj(vec![
        ("name".into(), Json::str("memo \"v1\"\t\\ é ✓")),
        ("n".into(), Json::int(1 << 40)),
        ("x".into(), Json::num(-1.25e-7)),
        (
            "items".into(),
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
        ),
        (
            "nested".into(),
            Json::Obj(vec![("e".into(), Json::Arr(vec![]))]),
        ),
    ])
    .to_string()
        + " "
}

/// A small written trace: two layers, every segment kind.
fn valid_trace() -> Vec<u8> {
    let m = ModelConfig::tiny(2, 32, 2, 64);
    let dims = LayerDims::new(64, &m, DType::BF16);
    let mut buf = Vec::new();
    write_trace(
        &generate(&TraceParams::new(&m, dims, RematPolicy::MemoTokenWise)),
        &mut buf,
    )
    .unwrap();
    buf
}

/// `bytes` with the byte at `at % len` replaced by `to`.
fn mutate(mut bytes: Vec<u8>, at: usize, to: u8) -> Vec<u8> {
    let at = at % bytes.len();
    bytes[at] = to;
    bytes
}

/// Both parsers on one input; the result only has to exist.
fn parse_both(bytes: &[u8]) {
    let _ = parse(&String::from_utf8_lossy(bytes));
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = parse(text);
    }
    let _ = read_trace(bytes);
}

#[test]
fn the_unmutated_inputs_parse() {
    assert!(parse(&valid_json()).is_ok());
    read_trace(&valid_trace()[..]).unwrap().validate().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..513)) {
        parse_both(&bytes);
        // The same bytes after a valid header reach the directive parser.
        let mut traced = b"# memo-trace v1\n".to_vec();
        traced.extend_from_slice(&bytes);
        let _ = read_trace(&traced[..]);
    }

    #[test]
    fn mutated_json_never_panics(at in 0usize..4096, to in 0u8..=255) {
        parse_both(&mutate(valid_json().into_bytes(), at, to));
    }

    #[test]
    fn mutated_traces_never_panic(at in 0usize..1 << 20, to in 0u8..=255) {
        parse_both(&mutate(valid_trace(), at, to));
    }
}
