//! ARCHITECTURE.md points into the tree with `path.rs:N` anchors, each
//! written right after the identifier it locates
//! (`` `admit` (crates/serve/src/router.rs:393) ``). Code moves in every
//! PR; this test is what keeps the map from rotting: an anchor fails
//! when its file is missing, when a short form such as `router.rs:393`
//! is not a unique path suffix among the sources under `crates/`
//! (`tests/` directories are not searched), when `N` is past the end of
//! the file, or when the identifier does not occur within three lines of
//! line `N`.

use std::fs;
use std::path::{Path, PathBuf};

/// How far from its line an anchor may drift before it misleads.
const SLACK: usize = 3;

struct Anchor {
    /// The identifier named just before the anchor, on the same line
    /// (empty when the line has none, which no source line contains).
    ident: String,
    path: String,
    line: usize,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The last identifier (`[A-Za-z_][A-Za-z0-9_]*`) in `text`.
fn last_ident(text: &str) -> Option<&str> {
    text.split(|c| !is_ident_char(c))
        .rfind(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Every `path.rs:N` on one line of the document.
fn anchors_in(doc_line: &str) -> Vec<Anchor> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = doc_line[from..].find(".rs:") {
        let colon = from + at + 3;
        from = colon + 1;
        let digits: String = doc_line[from..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let Ok(line) = digits.parse() else { continue };
        let is_path_char = |c: char| is_ident_char(c) || c == '/' || c == '-' || c == '.';
        let mut before_path = doc_line[..colon].char_indices().rev();
        let start = before_path
            .find(|&(_, c)| !is_path_char(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        found.push(Anchor {
            ident: last_ident(&doc_line[..start]).unwrap_or("").to_string(),
            path: doc_line[start..colon].to_string(),
            line,
        });
    }
    found
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            // Sources only: `tests/` holds lint fixtures that mirror real
            // paths, and suites named after the module they test.
            if path.file_name().is_some_and(|name| name != "tests") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_anchor_in_architecture_md_points_at_what_it_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let relative = |file: &Path| {
        let file = file.strip_prefix(root).expect("under the repo root");
        file.to_string_lossy().replace('\\', "/")
    };

    let doc = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let mut checked = 0;
    let mut stale = Vec::new();
    for anchor in doc.lines().flat_map(anchors_in) {
        let Anchor { ident, path, line } = &anchor;
        checked += 1;
        let suffix = format!("/{path}");
        let matches: Vec<&PathBuf> = files
            .iter()
            .filter(|file| format!("/{}", relative(file)).ends_with(&suffix))
            .collect();
        let [file] = matches[..] else {
            let names: Vec<String> = matches.iter().map(|file| relative(file)).collect();
            stale.push(format!(
                "{path}:{line} matches {} files {names:?}",
                names.len()
            ));
            continue;
        };
        let source = fs::read_to_string(file).expect("readable source file");
        let lines: Vec<&str> = source.lines().collect();
        if *line == 0 || *line > lines.len() {
            stale.push(format!(
                "{path}:{line} is past the file's {} lines",
                lines.len()
            ));
            continue;
        }
        let window = &lines[line.saturating_sub(1 + SLACK)..(line + SLACK).min(lines.len())];
        if ident.is_empty() || !window.iter().any(|text| text.contains(ident.as_str())) {
            let at = (1..=lines.len()).filter(|n| lines[n - 1].contains(ident.as_str()));
            let nearest = at.min_by_key(|n| n.abs_diff(*line));
            stale.push(format!(
                "`{ident}` is not within {SLACK} lines of {path}:{line} (nearest: {nearest:?})"
            ));
        }
    }
    assert!(
        checked > 20,
        "parsed only {checked} anchors: did the format change?"
    );
    assert!(
        stale.is_empty(),
        "stale ARCHITECTURE.md anchors:\n{}",
        stale.join("\n")
    );
}

#[test]
fn anchor_parser_reads_the_forms_the_document_uses() {
    let parsed = |text: &str| -> Vec<(String, String, usize)> {
        let anchors = anchors_in(text).into_iter();
        anchors.map(|a| (a.ident, a.path, a.line)).collect()
    };
    let one = |ident: &str, path: &str, line| vec![(ident.to_string(), path.to_string(), line)];
    assert_eq!(
        parsed("(`ShardedStore::lookup_batch`, crates/serve/src/store.rs:1079):"),
        one("lookup_batch", "crates/serve/src/store.rs", 1079)
    );
    assert_eq!(
        parsed("  ┌─── ShardQueue 0 ──┐  ┌─── ShardQueue 1 ──┐   (batcher.rs:163)"),
        one("ShardQueue", "batcher.rs", 163)
    );
    let two = parsed("get_batch_into (router.rs:1023) / score_batch_into (router.rs:1088)");
    assert_eq!(two[0], one("get_batch_into", "router.rs", 1023)[0]);
    assert_eq!(two[1], one("score_batch_into", "router.rs", 1088)[0]);
    assert!(parsed("no anchors in `store.rs` here").is_empty());
}
