//! EXPERIMENTS.md quotes the output of the `experiments` binary and nothing
//! else: every ```` ```text ```` block in it is a run of whole lines of one
//! `==> name <==` section of `tests/golden/experiments.txt`, and every
//! section is quoted at least once. CI regenerates the golden and fails on
//! any difference, so together the two keep the document's numbers equal to
//! what the code prints. This test reads only the two committed files.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lines of every ```` ```text ```` block, fences excluded, each ending
/// in a newline.
fn text_blocks(doc: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in doc.lines() {
        match (open.as_mut(), line) {
            (None, "```text") => open = Some(String::new()),
            (Some(_), "```") => blocks.extend(open.take()),
            (Some(block), _) => {
                block.push_str(line);
                block.push('\n');
            }
            (None, _) => {}
        }
    }
    assert!(open.is_none(), "EXPERIMENTS.md ends inside a ```text block");
    blocks
}

/// `(name, body)` of every `==> name <==` section, each body starting with
/// a newline so that a quote can be matched at line starts.
fn sections(golden: &str) -> Vec<(&str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in golden.lines() {
        if let Some(name) = line
            .strip_prefix("==> ")
            .and_then(|l| l.strip_suffix(" <=="))
        {
            out.push((name, "\n".to_string()));
        } else {
            let (_, body) = out
                .last_mut()
                .expect("the golden starts with a section line");
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

#[test]
fn experiments_md_quotes_only_and_every_golden_section() {
    let blocks = text_blocks(&read("EXPERIMENTS.md"));
    let golden = read("tests/golden/experiments.txt");
    let sections = sections(&golden);
    assert!(!sections.is_empty(), "the golden has no sections");
    let quoted_in = |body: &str, block: &str| body.contains(&format!("\n{block}"));
    for block in &blocks {
        assert!(
            !block.is_empty(),
            "EXPERIMENTS.md has an empty ```text block"
        );
        assert!(
            sections.iter().any(|(_, body)| quoted_in(body, block)),
            "this ```text block of EXPERIMENTS.md is not in tests/golden/experiments.txt:\n{block}"
        );
    }
    for (name, body) in &sections {
        assert!(
            blocks.iter().any(|block| quoted_in(body, block)),
            "EXPERIMENTS.md quotes nothing of the `{name}` section"
        );
    }
}
