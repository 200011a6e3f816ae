//! `cohesion-lint` — determinism & concurrency invariant checker.
//!
//! Every headline result in this reproduction — frozen-hash session
//! equivalence, experiment rows independent of the thread count — rests
//! on invariants the compiler does not enforce: no wall clock
//! or entropy in the deterministic crates, no unordered-map iteration
//! feeding report output, all threading confined to one approved module.
//! This crate enforces them statically, as named, individually-testable
//! rules over a hand-rolled lexer (no `syn`; the offline `third_party/`
//! policy applies):
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no `HashMap`/`HashSet` iteration in deterministic code |
//! | D2   | no wall-clock reads outside `bench/src/sweep.rs` |
//! | D3   | no RNG construction from ambient entropy |
//! | D4   | concurrency confined to `bench/src/sweep.rs` |
//! | D5   | every `unsafe` block carries a `// SAFETY:` comment |
//! | D6   | no bare-`{}` float `Display` on row emission paths |
//!
//! Violations print rustc-style `file:line:col` diagnostics (or `--json`)
//! and can be suppressed only through the checked-in `lint.toml` allowlist,
//! where every entry requires a written justification. Runs as the
//! standalone `cohesion-lint` binary.
//!
//! The linter holds itself to its own rules: no dependencies, no threads,
//! no clocks, `BTreeMap` only, and a deterministic (sorted) file walk.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;

use config::AllowEntry;
use rules::{SourceFile, Violation};
use std::path::{Path, PathBuf};

/// Outcome of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Violations not covered by the allowlist, sorted by (path, line, col).
    pub violations: Vec<Violation>,
    /// Violations suppressed by a `lint.toml` entry.
    pub suppressed: Vec<Violation>,
    /// Allowlist entries that matched nothing — stale, worth deleting.
    pub stale_allows: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the tree is clean (stale allowlist entries only warn).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rustc-style rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}:{}: error[{}]: {}\n  hint: {}\n",
                v.path, v.line, v.col, v.rule, v.message, v.hint
            ));
        }
        for e in &self.stale_allows {
            out.push_str(&format!(
                "lint.toml:{}: warning: stale allowlist entry ({} for {}) matched nothing — delete it\n",
                e.line, e.rule, e.path
            ));
        }
        out.push_str(&format!(
            "cohesion-lint: {} file(s), {} violation(s), {} suppressed by lint.toml\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable rendering (one JSON object).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn violation_json(v: &Violation) -> String {
            format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"hint\":\"{}\"}}",
                v.rule,
                esc(&v.path),
                v.line,
                v.col,
                esc(&v.message),
                esc(&v.hint)
            )
        }
        let violations: Vec<String> = self.violations.iter().map(violation_json).collect();
        let suppressed: Vec<String> = self.suppressed.iter().map(violation_json).collect();
        let stale: Vec<String> = self
            .stale_allows
            .iter()
            .map(|e| {
                format!(
                    "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{}}}",
                    esc(&e.rule),
                    esc(&e.path),
                    e.line
                )
            })
            .collect();
        format!(
            "{{\"files_scanned\":{},\"violations\":[{}],\"suppressed\":[{}],\"stale_allowlist_entries\":[{}]}}\n",
            self.files_scanned,
            violations.join(","),
            suppressed.join(","),
            stale.join(",")
        )
    }
}

/// Lints one source string as if it lived at `rel`. This is the
/// fixture-test entry point.
pub fn check_source(rel: &str, source: &str) -> Vec<Violation> {
    rules::check_file(&SourceFile::parse(rel, source))
}

/// Lints the whole workspace rooted at `root` against `root/lint.toml`
/// (missing allowlist = empty allowlist).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let allows = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => config::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading lint.toml: {e}")),
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), root, &mut files)?;
    files.sort();

    let mut all = Vec::new();
    for rel in &files {
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        all.extend(rules::check_file(&SourceFile::parse(rel, &source)));
    }
    all.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let mut used = vec![false; allows.len()];
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for v in all {
        match allows
            .iter()
            .position(|a| a.rule == v.rule && a.path == v.path)
        {
            Some(i) => {
                used[i] = true;
                suppressed.push(v);
            }
            None => violations.push(v),
        }
    }
    let stale_allows = allows
        .into_iter()
        .zip(used)
        .filter_map(|(a, u)| (!u).then_some(a))
        .collect();

    Ok(LintReport {
        violations,
        suppressed,
        stale_allows,
        files_scanned: files.len(),
    })
}

/// Recursive, deterministic (sorted) walk for `.rs` files. `target/` build
/// output and `tests/fixtures/` lint fixtures are skipped.
fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs_files(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if !scope::excluded(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` until a directory
/// with both a `Cargo.toml` and a `crates/` subdirectory appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
