//! The named invariant rules.
//!
//! Each rule is an independent token-level check over one file (D1–D6) or a
//! cross-file consistency check (P1). Which files a rule applies to is
//! decided by the path scopes in [`crate::scope`]; the checks here assume
//! scoping already happened and look only at tokens.

use crate::lexer::{Token, TokenKind};
use crate::scope;
use std::collections::BTreeMap;

/// One rule violation, positioned at the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `D1`…`D6`, `P1`.
    pub rule: &'static str,
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

/// A lexed file ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Full token stream (comments included — D5 needs them).
    pub tokens: Vec<Token>,
    /// Comment-free stream with `::`/`=>` merged.
    pub sig: Vec<Token>,
}

impl SourceFile {
    pub fn parse(rel: &str, source: &str) -> SourceFile {
        let tokens = crate::lexer::tokenize(source);
        let sig = crate::lexer::significant(&tokens);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            sig,
        }
    }
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

/// True when `sig[i..]` starts with the `::`-separated path `segs`
/// (e.g. `["Instant", "::", "now"]` expressed as `&["Instant", "now"]`).
fn path_seq(sig: &[Token], i: usize, segs: &[&str]) -> bool {
    let mut k = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !sig.get(k).is_some_and(|t| is_punct(t, "::")) {
                return false;
            }
            k += 1;
        }
        if !sig.get(k).is_some_and(|t| is_ident(t, seg)) {
            return false;
        }
        k += 1;
    }
    true
}

fn violation(
    rule: &'static str,
    file: &SourceFile,
    t: &Token,
    message: String,
    hint: &str,
) -> Violation {
    Violation {
        rule,
        path: file.rel.clone(),
        line: t.line,
        col: t.col,
        message,
        hint: hint.to_string(),
    }
}

/// Runs every per-file rule that is in scope for `file.rel`.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if scope::d1_applies(&file.rel) {
        out.extend(d1_unordered_iteration(file));
    }
    if scope::d2_applies(&file.rel) {
        out.extend(d2_wall_clock(file));
    }
    if scope::d3_applies(&file.rel) {
        out.extend(d3_entropy_rng(file));
    }
    if scope::d4_applies(&file.rel) {
        out.extend(d4_concurrency(file));
    }
    if scope::d5_applies(&file.rel) {
        out.extend(d5_unsafe_comment(file));
    }
    if scope::d6_applies(&file.rel) {
        out.extend(d6_float_format(file));
    }
    out
}

// ---------------------------------------------------------------------------
// D1 — no HashMap/HashSet iteration in deterministic code
// ---------------------------------------------------------------------------

const D1_HINT: &str = "use BTreeMap/BTreeSet or a sorted Vec; unordered iteration \
     order depends on the per-process RandomState seed";

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Flags iteration over bindings whose declared type (annotation or
/// `= HashMap::new()` style initializer) is `HashMap`/`HashSet`: iterator
/// method calls on them, and their appearance in a `for … in` head.
fn d1_unordered_iteration(file: &SourceFile) -> Vec<Violation> {
    let sig = &file.sig;
    // Pass 1: names bound to unordered maps/sets in this file (let
    // annotations, struct fields, fn params, and direct initializers).
    let mut bound: BTreeMap<String, String> = BTreeMap::new();
    for (i, t) in sig.iter().enumerate() {
        if !(is_ident(t, "HashMap") || is_ident(t, "HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut j = i;
        while j >= 2 && is_punct(&sig[j - 1], "::") && sig[j - 2].kind == TokenKind::Ident {
            j -= 2;
        }
        if j >= 2
            && (is_punct(&sig[j - 1], ":") || is_punct(&sig[j - 1], "="))
            && sig[j - 2].kind == TokenKind::Ident
        {
            bound.insert(sig[j - 2].text.clone(), t.text.clone());
        }
    }
    if bound.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    // Pass 2a: iterator-method calls on a bound name.
    for w in sig.windows(3) {
        let (recv, dot, method) = (&w[0], &w[1], &w[2]);
        if is_punct(dot, ".")
            && recv.kind == TokenKind::Ident
            && method.kind == TokenKind::Ident
            && ITER_METHODS.contains(&method.text.as_str())
        {
            if let Some(ty) = bound.get(&recv.text) {
                out.push(violation(
                    "D1",
                    file,
                    method,
                    format!(
                        "`.{}()` on the unordered {ty} `{}` in deterministic code",
                        method.text, recv.text
                    ),
                    D1_HINT,
                ));
            }
        }
    }
    // Pass 2b: a bound name in a `for … in` head.
    let mut i = 0;
    while i < sig.len() {
        if is_ident(&sig[i], "for") {
            // Find `in` at paren depth 0, then scan the iterable expression
            // up to the loop body brace.
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < sig.len() {
                let t = &sig[k];
                if is_punct(t, "(") {
                    depth += 1;
                } else if is_punct(t, ")") {
                    depth -= 1;
                } else if depth == 0 && is_ident(t, "in") {
                    break;
                } else if depth == 0 && (is_punct(t, "{") || is_punct(t, ";")) {
                    k = sig.len(); // not a for-loop head (e.g. `impl … for T`)
                }
                k += 1;
            }
            let mut m = k + 1;
            while m < sig.len() {
                let t = &sig[m];
                if is_punct(t, "(") {
                    depth += 1;
                } else if is_punct(t, ")") {
                    depth -= 1;
                } else if depth == 0 && is_punct(t, "{") {
                    break;
                } else if t.kind == TokenKind::Ident {
                    let called = sig.get(m + 1).is_some_and(|n| is_punct(n, "("));
                    if !called {
                        if let Some(ty) = bound.get(&t.text) {
                            out.push(violation(
                                "D1",
                                file,
                                t,
                                format!(
                                    "`for … in` over the unordered {ty} `{}` in deterministic code",
                                    t.text
                                ),
                                D1_HINT,
                            ));
                        }
                    }
                }
                m += 1;
            }
            i = m;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// D2 — no wall-clock reads outside the approved timing modules
// ---------------------------------------------------------------------------

const D2_HINT: &str = "thread time through as data, or move the timing into \
     bench/src/net/ or bench/src/sweep.rs; if the clock IS the output \
     (a benchmark harness), allowlist the file in lint.toml";

fn d2_wall_clock(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    const CLOCKS: &[&[&str]] = &[
        &["Instant", "now"],
        &["SystemTime", "now"],
        &["Utc", "now"],
        &["Local", "now"],
        &["OffsetDateTime", "now_utc"],
    ];
    for (i, t) in file.sig.iter().enumerate() {
        for path in CLOCKS {
            if t.text == path[0] && path_seq(&file.sig, i, path) {
                out.push(violation(
                    "D2",
                    file,
                    t,
                    format!(
                        "wall-clock read `{}` outside the approved timing modules",
                        path.join("::")
                    ),
                    D2_HINT,
                ));
            }
        }
        // chrono/time-style date types are wall-clock by construction.
        if is_ident(t, "Date") && file.sig.get(i + 1).is_some_and(|n| is_punct(n, "::")) {
            out.push(violation(
                "D2",
                file,
                t,
                "date construction outside the approved timing modules".to_string(),
                D2_HINT,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D3 — no RNG construction from ambient entropy
// ---------------------------------------------------------------------------

const D3_HINT: &str = "accept a seed and construct with seed_from_u64/from_seed; \
     seeds must flow in through builders so every run is replayable";

fn d3_entropy_rng(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    const ENTROPY_IDENTS: &[&str] = &[
        "from_entropy",
        "thread_rng",
        "OsRng",
        "from_os_rng",
        "getrandom",
    ];
    for (i, t) in file.sig.iter().enumerate() {
        if t.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(violation(
                "D3",
                file,
                t,
                format!("RNG constructed from ambient entropy via `{}`", t.text),
                D3_HINT,
            ));
        }
        if is_ident(t, "rand") && path_seq(&file.sig, i, &["rand", "random"]) {
            out.push(violation(
                "D3",
                file,
                t,
                "RNG constructed from ambient entropy via `rand::random`".to_string(),
                D3_HINT,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D4 — concurrency confined to the approved modules
// ---------------------------------------------------------------------------

const D4_HINT: &str = "keep crates single-threaded by construction; route \
     parallelism through SweepRunner (bench/src/sweep.rs) or the net layer \
     (bench/src/net/), or allowlist with a written justification";

fn d4_concurrency(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    const PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "mpsc"];
    for (i, t) in file.sig.iter().enumerate() {
        if t.kind == TokenKind::Ident && PRIMITIVES.contains(&t.text.as_str()) {
            out.push(violation(
                "D4",
                file,
                t,
                format!(
                    "concurrency primitive `{}` outside the approved concurrency modules",
                    t.text
                ),
                D4_HINT,
            ));
        }
        if is_ident(t, "thread") {
            for tail in ["spawn", "scope", "Builder"] {
                if path_seq(&file.sig, i, &["thread", tail]) {
                    out.push(violation(
                        "D4",
                        file,
                        t,
                        format!("`thread::{tail}` outside the approved concurrency modules"),
                        D4_HINT,
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D5 — every unsafe block carries a SAFETY comment
// ---------------------------------------------------------------------------

const D5_HINT: &str = "state the invariant that makes this sound in a \
     `// SAFETY:` comment directly above the block";

/// How many lines above an `unsafe` block a `// SAFETY:` comment may sit
/// (multi-line justifications push the marker line up).
const SAFETY_COMMENT_REACH: u32 = 3;

fn d5_unsafe_comment(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in file.sig.iter().enumerate() {
        if !is_ident(t, "unsafe") || !file.sig.get(i + 1).is_some_and(|n| is_punct(n, "{")) {
            continue;
        }
        let documented = file.tokens.iter().any(|c| {
            matches!(c.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && c.text.contains("SAFETY:")
                && c.line <= t.line
                && c.line + SAFETY_COMMENT_REACH >= t.line
        });
        if !documented {
            out.push(violation(
                "D5",
                file,
                t,
                "`unsafe` block without a `// SAFETY:` comment".to_string(),
                D5_HINT,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D6 — no bare float Display on emission paths
// ---------------------------------------------------------------------------

const D6_HINT: &str = "give the placeholder an explicit format — a precision \
     (`{:.6}`), scientific (`{:e}`), or round-trip Debug (`{:?}`); bare `{}` \
     on a float renders value-dependent widths on an emission surface";

const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
];

/// A float literal per the lexer's one-token numbers: a decimal point, an
/// exponent, or an `f32`/`f64` suffix (radix-prefixed literals are never
/// floats).
fn is_float_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    if lower.ends_with("f32") || lower.ends_with("f64") || lower.contains('.') {
        return true;
    }
    // An exponent is an `e` followed by an optional sign and a digit; the
    // `e` in an integer suffix (`3usize`) is not one.
    let bytes = lower.as_bytes();
    bytes.iter().enumerate().any(|(i, &b)| {
        b == b'e'
            && match bytes.get(i + 1) {
                Some(b'+') | Some(b'-') => bytes.get(i + 2).is_some_and(u8::is_ascii_digit),
                Some(d) => d.is_ascii_digit(),
                None => false,
            }
    })
}

/// One `{…}` placeholder of a format string: the argument reference (empty
/// for the next positional) and whether its spec pins the float rendering.
struct Placeholder {
    arg: String,
    pinned: bool,
}

/// Parses the placeholders out of a format-string body, honouring `{{`/`}}`
/// escapes. A spec pins the rendering when it asks for a precision (`.`),
/// scientific notation (`e`/`E`), or Debug (`?` — the shortest-round-trip
/// form serde uses for row floats).
fn placeholders(fmt: &str) -> Vec<Placeholder> {
    let mut out = Vec::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '}' {
            // `}}` escape (or a stray close — rustc rejects those anyway).
            chars.next_if_eq(&'}');
            continue;
        }
        if c != '{' {
            continue;
        }
        if chars.next_if_eq(&'{').is_some() {
            continue; // `{{` escape
        }
        let mut body = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            body.push(c);
        }
        let (arg, spec) = match body.split_once(':') {
            Some((a, s)) => (a, s),
            None => (body.as_str(), ""),
        };
        // `$` parameters (`{:prec$}`, `{:.1$}`) count as explicit too —
        // the caller named a width/precision, just dynamically.
        let pinned = spec.contains('.')
            || spec.contains('e')
            || spec.contains('E')
            || spec.contains('?')
            || spec.contains('$');
        out.push(Placeholder {
            arg: arg.to_string(),
            pinned,
        });
    }
    out
}

/// Splits the token span of a macro's arguments (everything between the
/// opening delimiter and its close) at top-level commas.
fn split_args(sig: &[Token], open: usize) -> (Vec<Vec<Token>>, usize) {
    let close_of = |s: &str| match s {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let open_text = sig[open].text.clone();
    let close_text = close_of(&open_text);
    let mut args: Vec<Vec<Token>> = Vec::new();
    let mut current: Vec<Token> = Vec::new();
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < sig.len() {
        let t = &sig[i];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
            if depth == 0 && t.text == close_text {
                break;
            }
        } else if depth == 1 && is_punct(t, ",") {
            args.push(std::mem::take(&mut current));
            i += 1;
            continue;
        }
        current.push(t.clone());
        i += 1;
    }
    if !current.is_empty() {
        args.push(current);
    }
    (args, i)
}

/// Whether an argument expression produces a float: a float literal, a
/// float-bound name used as a value (not called), or a duration-to-float
/// conversion.
fn expr_is_float(expr: &[Token], float_bound: &BTreeMap<String, u32>) -> bool {
    for (i, t) in expr.iter().enumerate() {
        match t.kind {
            TokenKind::Number if is_float_literal(&t.text) => return true,
            TokenKind::Ident => {
                if t.text == "as_secs_f64" || t.text == "as_secs_f32" {
                    return true;
                }
                let called = expr.get(i + 1).is_some_and(|n| is_punct(n, "("));
                if !called && float_bound.contains_key(&t.text) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Flags format-macro placeholders that render a float through bare `{}`
/// Display on an emission path. Two passes, the D1 shape: collect names
/// bound to floats (annotations and float-literal initializers), then walk
/// every `format!`-family call, match placeholders to their referents, and
/// flag float referents whose spec pins nothing.
fn d6_float_format(file: &SourceFile) -> Vec<Violation> {
    let sig = &file.sig;
    // Pass 1: float-bound names — `name: f64`, `name = 0.5`, and
    // `for name in [floats]`-free simple bindings are all covered by the
    // annotation/initializer shapes.
    let mut float_bound: BTreeMap<String, u32> = BTreeMap::new();
    for (i, t) in sig.iter().enumerate() {
        let binder = if is_ident(t, "f64") || is_ident(t, "f32") {
            ":"
        } else if t.kind == TokenKind::Number && is_float_literal(&t.text) {
            "="
        } else {
            continue;
        };
        if i >= 2 && is_punct(&sig[i - 1], binder) && sig[i - 2].kind == TokenKind::Ident {
            float_bound.insert(sig[i - 2].text.clone(), sig[i - 2].line);
        }
    }

    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < sig.len() {
        let (name, bang, open) = (&sig[i], &sig[i + 1], &sig[i + 2]);
        if !(name.kind == TokenKind::Ident
            && FORMAT_MACROS.contains(&name.text.as_str())
            && is_punct(bang, "!")
            && (is_punct(open, "(") || is_punct(open, "[") || is_punct(open, "{")))
        {
            i += 1;
            continue;
        }
        let (args, end) = split_args(sig, i + 2);
        // The format string is the first Str argument: `format!("…")` has
        // it first, `write!(out, "…")` second.
        let fmt_pos = args
            .iter()
            .position(|a| a.len() == 1 && a[0].kind == TokenKind::Str);
        let Some(fmt_pos) = fmt_pos else {
            i += 3;
            continue;
        };
        let fmt_token = args[fmt_pos][0].clone();
        let rest = &args[fmt_pos + 1..];
        // Named arguments (`name = expr`) and positional expressions.
        let mut named: BTreeMap<String, &[Token]> = BTreeMap::new();
        let mut positional: Vec<&[Token]> = Vec::new();
        for arg in rest {
            if arg.len() >= 3 && arg[0].kind == TokenKind::Ident && is_punct(&arg[1], "=") {
                named.insert(arg[0].text.clone(), &arg[2..]);
            } else {
                positional.push(arg.as_slice());
            }
        }
        let mut next_positional = 0usize;
        for ph in placeholders(fmt_token.str_content()) {
            let referent_is_float = if ph.arg.is_empty() {
                let expr = positional.get(next_positional).copied();
                next_positional += 1;
                expr.is_some_and(|e| expr_is_float(e, &float_bound))
            } else if let Ok(index) = ph.arg.parse::<usize>() {
                positional
                    .get(index)
                    .is_some_and(|e| expr_is_float(e, &float_bound))
            } else if let Some(expr) = named.get(&ph.arg) {
                expr_is_float(expr, &float_bound)
            } else {
                // Inline capture: `{name}` names a binding directly.
                float_bound.contains_key(&ph.arg)
            };
            if referent_is_float && !ph.pinned {
                out.push(violation(
                    "D6",
                    file,
                    &fmt_token,
                    format!(
                        "float rendered through a bare `{{}}` in `{}!` on an emission path",
                        name.text
                    ),
                    D6_HINT,
                ));
            }
        }
        i = end + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// P1 — protocol cross-file consistency
// ---------------------------------------------------------------------------

const P1_HINT_DECODE: &str = "add a `\"<Variant>\" => …` arm to `Message::from_value` \
     in net/protocol.rs";
const P1_HINT_ENCODE: &str = "derive `Serialize` on `enum Message` (or write an \
     explicit encode arm) so the variant can be framed";
const P1_HINT_TEST: &str = "add a `round_trip_<variant>` test to \
     crates/bench/tests/net.rs that encodes and decodes the variant";

/// Checks that every variant of `enum Message` in `protocol` has a decode
/// arm (its externally-tagged name matched as a string literal), an encode
/// path (`Serialize` in the enum's derive list), and a dedicated
/// `round_trip_*` test in `tests` that constructs the variant.
pub fn check_protocol(protocol: &SourceFile, tests: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some((variants, has_serialize)) = message_enum(protocol) else {
        // No `enum Message` — nothing to check (fixtures exercise both).
        return out;
    };

    // Decode arms: string literal "<Variant>" followed by `=>`.
    let mut decode_arms: Vec<String> = Vec::new();
    for w in protocol.sig.windows(2) {
        if w[0].kind == TokenKind::Str && is_punct(&w[1], "=>") {
            decode_arms.push(w[0].str_content().to_string());
        }
    }

    // Round-trip coverage: variants constructed inside `fn round_trip_*`.
    let covered = round_trip_coverage(tests);

    for v in &variants {
        if !has_serialize {
            out.push(violation(
                "P1",
                protocol,
                &v.token,
                format!(
                    "`Message::{}` has no encode arm (no `Serialize` derive on the enum)",
                    v.token.text
                ),
                P1_HINT_ENCODE,
            ));
        }
        if !decode_arms.iter().any(|a| a == &v.token.text) {
            out.push(violation(
                "P1",
                protocol,
                &v.token,
                format!(
                    "`Message::{}` has no decode arm in `from_value`",
                    v.token.text
                ),
                P1_HINT_DECODE,
            ));
        }
        if !covered.contains(&v.token.text) {
            out.push(violation(
                "P1",
                protocol,
                &v.token,
                format!(
                    "`Message::{}` has no `round_trip_*` test in {}",
                    v.token.text, tests.rel
                ),
                P1_HINT_TEST,
            ));
        }
    }
    out
}

struct Variant {
    token: Token,
}

/// Finds `enum Message { … }`, returning its variant name tokens and
/// whether the derive list directly above it contains `Serialize`.
fn message_enum(file: &SourceFile) -> Option<(Vec<Variant>, bool)> {
    let sig = &file.sig;
    let start = (0..sig.len()).find(|&i| {
        is_ident(&sig[i], "enum")
            && sig.get(i + 1).is_some_and(|t| is_ident(t, "Message"))
            && sig.get(i + 2).is_some_and(|t| is_punct(t, "{"))
    })?;

    // Derive list: scan the attribute tokens immediately before `enum`
    // (skipping doc comments happens for free — sig is comment-free).
    let mut has_serialize = false;
    let mut j = start;
    // Step back over a visibility modifier: `pub` or `pub(crate)`-style.
    if j >= 1 && is_punct(&sig[j - 1], ")") {
        let mut depth = 1i32;
        let mut k = j - 1;
        while k > 0 && depth > 0 {
            k -= 1;
            if is_punct(&sig[k], ")") {
                depth += 1;
            } else if is_punct(&sig[k], "(") {
                depth -= 1;
            }
        }
        if k >= 1 && is_ident(&sig[k - 1], "pub") {
            j = k - 1;
        }
    } else if j >= 1 && is_ident(&sig[j - 1], "pub") {
        j -= 1;
    }
    while j >= 2 && is_punct(&sig[j - 1], "]") {
        // Walk back to the matching `[` of this attribute.
        let mut depth = 1i32;
        let mut k = j - 1;
        while k > 0 && depth > 0 {
            k -= 1;
            if is_punct(&sig[k], "]") {
                depth += 1;
            } else if is_punct(&sig[k], "[") {
                depth -= 1;
            }
        }
        if k >= 1 && is_punct(&sig[k - 1], "#") {
            if sig[k..j].iter().any(|t| is_ident(t, "Serialize")) {
                has_serialize = true;
            }
            j = k - 1;
        } else {
            break;
        }
    }

    // Variant names: idents at brace depth 1 that open a variant (previous
    // significant token is `{`, `,`, or a variant-closing `}`/`)`), with
    // attribute spans skipped.
    let mut variants = Vec::new();
    let mut depth = 1i32; // the enum's own `{` is already open
    let mut i = start + 3;
    let mut prev_opens_variant = true; // right after the enum's `{`
    while i < sig.len() {
        let t = &sig[i];
        if is_punct(t, "{") || is_punct(t, "(") {
            depth += 1;
            prev_opens_variant = false;
        } else if is_punct(t, "}") || is_punct(t, ")") {
            depth -= 1;
            if depth == 0 {
                break; // end of the enum body
            }
            prev_opens_variant = false;
        } else if depth == 1 {
            if is_punct(t, "#") && sig.get(i + 1).is_some_and(|n| is_punct(n, "[")) {
                // Skip a variant attribute.
                let mut adepth = 0i32;
                i += 1;
                while i < sig.len() {
                    if is_punct(&sig[i], "[") {
                        adepth += 1;
                    } else if is_punct(&sig[i], "]") {
                        adepth -= 1;
                        if adepth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
            } else if t.kind == TokenKind::Ident && prev_opens_variant {
                variants.push(Variant { token: t.clone() });
                prev_opens_variant = false;
            } else if is_punct(t, ",") {
                prev_opens_variant = true;
            }
        }
        i += 1;
    }
    Some((variants, has_serialize))
}

/// The set of `Message::X` variant names referenced inside the body of any
/// function whose name starts with `round_trip`.
fn round_trip_coverage(tests: &SourceFile) -> Vec<String> {
    let sig = &tests.sig;
    let mut covered = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if is_ident(&sig[i], "fn")
            && sig
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text.starts_with("round_trip"))
        {
            // Find the body's opening brace, then its matching close.
            let mut k = i + 2;
            while k < sig.len() && !is_punct(&sig[k], "{") {
                k += 1;
            }
            let mut depth = 0i32;
            while k < sig.len() {
                let t = &sig[k];
                if is_punct(t, "{") {
                    depth += 1;
                } else if is_punct(t, "}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_ident(t, "Message")
                    && sig.get(k + 1).is_some_and(|n| is_punct(n, "::"))
                    && sig.get(k + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                {
                    covered.push(sig[k + 2].text.clone());
                }
                k += 1;
            }
            i = k;
        }
        i += 1;
    }
    covered.sort();
    covered.dedup();
    covered
}
