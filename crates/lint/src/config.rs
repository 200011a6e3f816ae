//! The `lint.toml` suppression allowlist.
//!
//! Format — a fixed TOML subset, parsed by hand (the offline policy rules
//! out a toml crate, and a fixed shape beats a lenient parser for an
//! auditable allowlist):
//!
//! ```toml
//! [[allow]]
//! rule = "D2"
//! path = "crates/bench/src/lookbench.rs"
//! justification = "benchmark harness: the wall clock is its output"
//! ```
//!
//! Every entry must carry a real `justification` — suppression without a
//! written reason is a parse error, not a warning.

/// One allowlist entry: suppresses `rule` for every match in `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub justification: String,
    /// Line of the `[[allow]]` header, for stale-entry reports.
    pub line: u32,
}

/// Justifications shorter than this are rejected: "perf" is not a reason.
const MIN_JUSTIFICATION_LEN: usize = 20;

/// Parses `lint.toml` content. Errors name the offending line.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<AllowEntry> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(done) = current.take() {
                validate(&done)?;
                entries.push(done);
            }
            current = Some(AllowEntry {
                rule: String::new(),
                path: String::new(),
                justification: String::new(),
                line: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "lint.toml:{lineno}: unknown table `{line}` (only `[[allow]]` entries are supported)"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "lint.toml:{lineno}: expected `key = \"value\"`, got `{line}`"
            ));
        };
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "lint.toml:{lineno}: `{}` outside an `[[allow]]` entry",
                key.trim()
            ));
        };
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| {
                format!(
                    "lint.toml:{lineno}: value for `{}` must be double-quoted",
                    key.trim()
                )
            })?;
        if value.contains('"') || value.contains('\\') {
            return Err(format!(
                "lint.toml:{lineno}: escapes are not supported in this TOML subset"
            ));
        }
        match key.trim() {
            "rule" => entry.rule = value.to_string(),
            "path" => entry.path = value.to_string(),
            "justification" => entry.justification = value.to_string(),
            other => {
                return Err(format!(
                    "lint.toml:{lineno}: unknown key `{other}` (expected rule/path/justification)"
                ));
            }
        }
    }
    if let Some(done) = current.take() {
        validate(&done)?;
        entries.push(done);
    }
    Ok(entries)
}

fn validate(entry: &AllowEntry) -> Result<(), String> {
    let known = ["D1", "D2", "D3", "D4", "D5", "D6"];
    if !known.contains(&entry.rule.as_str()) {
        return Err(format!(
            "lint.toml:{}: unknown rule `{}` (expected one of {})",
            entry.line,
            entry.rule,
            known.join("/")
        ));
    }
    if entry.path.is_empty() {
        return Err(format!("lint.toml:{}: entry is missing `path`", entry.line));
    }
    if entry.justification.trim().len() < MIN_JUSTIFICATION_LEN {
        return Err(format!(
            "lint.toml:{}: suppressing {} for {} requires a written justification \
             (≥ {MIN_JUSTIFICATION_LEN} characters explaining why the rule does not apply)",
            entry.line, entry.rule, entry.path
        ));
    }
    Ok(())
}
