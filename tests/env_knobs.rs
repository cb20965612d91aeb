//! The library's runtime configuration surface: the environment
//! variables its sources read.
//!
//! Diagnostics come back as returned values (`SweepOutcome::stats`,
//! `CompressedKernel::stats`, the `PoleResidueModel` accessors,
//! `ShardReport`, `CacheStats`, …), so the environment carries only the
//! four operational settings below. A new `std::env` read anywhere under
//! `src/` or `crates/*/src` fails this test until it is added here and
//! documented.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every environment variable library code may read.
const KNOBS: [&str; 4] = [
    "PDN_CACHE_DIR",
    "PDN_CACHE_VERIFY",
    "PDN_SERVICE_WORKERS",
    "PDN_THREADS",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Adds the names `source` reads through `env::var`, `env::var_os`,
/// `env::vars` and `env::vars_os` to `out`, skipping comment lines. A
/// read whose name is not a string literal is recorded as
/// `<non-literal in {file}>`, and a whole-environment read as
/// `<every variable in {file}>`, so neither can slip past the inventory.
fn env_reads(source: &str, file: &str, out: &mut BTreeSet<String>) {
    let code: String = source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut rest = code.as_str();
    while let Some(at) = rest.find("env::var") {
        rest = &rest[at + "env::var".len()..];
        let Some(open) = rest.find('(') else { break };
        let suffix = &rest[..open];
        let args = rest[open + 1..].trim_start();
        match suffix.trim() {
            "" | "_os" => match args.strip_prefix('"').and_then(|a| a.split_once('"')) {
                Some((name, _)) => out.insert(name.to_string()),
                None => out.insert(format!("<non-literal in {file}>")),
            },
            "s" | "s_os" => out.insert(format!("<every variable in {file}>")),
            _ => continue,
        };
    }
}

#[test]
fn scanner_sees_every_read_form() {
    let source = r#"
        // std::env::var("IN_A_COMMENT") is not a read.
        let a = std::env::var("PLAIN");
        let b = env::var_os("OS_STRING");
        let c = std::env::var(
            "SPLIT_LINES",
        );
        let d = std::env::var(name);
        let e: Vec<_> = std::env::vars().collect();
    "#;
    let mut names = BTreeSet::new();
    env_reads(source, "f.rs", &mut names);
    let expected: BTreeSet<String> = [
        "OS_STRING",
        "PLAIN",
        "SPLIT_LINES",
        "<every variable in f.rs>",
        "<non-literal in f.rs>",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(names, expected);
}

#[test]
fn library_reads_exactly_the_operational_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let mut names = BTreeSet::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source");
        let rel = path.strip_prefix(root).unwrap_or(path);
        env_reads(&source, &rel.display().to_string(), &mut names);
    }
    let expected: BTreeSet<String> = KNOBS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        names, expected,
        "library environment reads differ from the documented knobs"
    );
}
