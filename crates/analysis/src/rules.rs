//! The lint rules.
//!
//! Each rule scans a [`MaskedSource`] and reports findings as
//! [`Diagnostic`] values with codes `lint/<rule-name>`, anchored at
//! `file:line:column`. All rules skip `#[cfg(test)]` regions — tests may
//! unwrap, compare floats exactly and panic at will.

use crate::lexer::{brace_match, MaskedSource};
use wide_nn::diag::{Diagnostic, Severity};

/// Files whose inner loops feed the paper's latency claims. Panics here
/// abort a whole training/inference run, so they are banned outright.
pub const HOT_PATHS: &[&str] = &[
    "crates/tensor/src/gemm.rs",
    "crates/quant/src/gemm.rs",
    "crates/tpu-sim/src/systolic.rs",
    "crates/nn/src/quantized.rs",
    "crates/hdc/src/encoder.rs",
];

/// Names of every rule, for `--help` output and allowlist validation.
pub const RULE_NAMES: &[&str] = &[
    "no-panic-in-hot-path",
    "no-float-eq",
    "no-unchecked-narrowing",
    "fallible-returns-result",
    "missing-must-use",
    "no-unseeded-rng",
    "no-adhoc-concurrency",
    "no-unpacked-bipolar-hot-path",
    "stale-allow",
];

/// Static metadata about one lint rule, surfaced by `hd-lint
/// --list-rules` and embedded in the SARIF rules array.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name; diagnostics carry the code `lint/<name>`.
    pub name: &'static str,
    /// Severity the rule emits at.
    pub severity: Severity,
    /// One-line description of what the rule forbids.
    pub description: &'static str,
}

/// Metadata for every rule, in [`RULE_NAMES`] order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-panic-in-hot-path",
        severity: Severity::Error,
        description: "no unwrap/expect/panic!/slice indexing in the latency-critical kernels",
    },
    RuleInfo {
        name: "no-float-eq",
        severity: Severity::Error,
        description: "no exact ==/!= comparison against float literals or constants outside tests",
    },
    RuleInfo {
        name: "no-unchecked-narrowing",
        severity: Severity::Error,
        description: "no bare `as i8`/`as u8`/`as i32` casts in hot-path kernels without a \
                      saturating, clamping, or checked wrapper",
    },
    RuleInfo {
        name: "fallible-returns-result",
        severity: Severity::Warning,
        description: "panicking pub fns must return Result or document `# Panics`",
    },
    RuleInfo {
        name: "missing-must-use",
        severity: Severity::Warning,
        description: "builder-style `pub fn .. -> Self` must be #[must_use]",
    },
    RuleInfo {
        name: "no-unseeded-rng",
        severity: Severity::Error,
        description: "no thread_rng/rand::random/from_entropy outside tests — every random \
                      stream must be seeded so runs (and fault traces) reproduce",
    },
    RuleInfo {
        name: "no-adhoc-concurrency",
        severity: Severity::Error,
        description: "no bare thread::spawn/thread::scope/thread::Builder or unbounded \
                      mpsc::channel() outside \
                      the declared schedule layer — overlap must be expressed as a verified \
                      SDF schedule (allowlisted sites carry the declaration)",
    },
    RuleInfo {
        name: "no-unpacked-bipolar-hot-path",
        severity: Severity::Error,
        description: "no PackedBipolar unpacking (`.to_signs()`/`.sign(`) in production code — \
                      scoring and bundling must stay on the packed word-level kernels",
    },
    RuleInfo {
        name: "stale-allow",
        severity: Severity::Warning,
        description: "every lint.toml [[allow]] entry must suppress a finding in a workspace run",
    },
];

/// Whether a workspace-relative path is test or bench code in its
/// entirety (integration tests, bench targets, the shared test-support
/// crate) — such files are exempt from every rule, like `#[cfg(test)]`
/// blocks are.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

/// Runs every rule over one file. `path` must be workspace-relative with
/// forward slashes (it selects hot-path handling and lands in the site).
pub fn lint_source(path: &str, source: &MaskedSource) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_test_path(path) {
        return out;
    }
    if HOT_PATHS.iter().any(|hp| path == *hp || path.ends_with(hp)) {
        no_panic_in_hot_path(path, source, &mut out);
        crate::absint::narrowing::no_unchecked_narrowing(path, source, &mut out);
    }
    no_float_eq(path, source, &mut out);
    fallible_returns_result(path, source, &mut out);
    missing_must_use(path, source, &mut out);
    no_unseeded_rng(path, source, &mut out);
    no_adhoc_concurrency(path, source, &mut out);
    no_unpacked_bipolar_hot_path(path, source, &mut out);
    out
}

pub(crate) fn at(diag: Diagnostic, path: &str, source: &MaskedSource, offset: usize) -> Diagnostic {
    let (line, column) = source.line_col(offset);
    diag.at_source(path, line, column)
}

/// Byte offsets of every occurrence of `needle` in `code` outside test
/// regions.
pub(crate) fn occurrences<'a>(
    source: &'a MaskedSource,
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let code = source.code();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = code[from..].find(needle) {
            let offset = from + pos;
            from = offset + needle.len();
            if !source.is_test(offset) {
                return Some(offset);
            }
        }
        None
    })
}

/// `no-panic-in-hot-path`: forbids `unwrap`/`expect`/panicking macros and
/// slice indexing in the files listed in [`HOT_PATHS`].
fn no_panic_in_hot_path(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    const CALLS: &[(&str, &str)] = &[
        (".unwrap()", "unwrap() panics on None/Err"),
        (".expect(", "expect() panics on None/Err"),
        ("panic!(", "explicit panic"),
        ("unreachable!(", "unreachable!() panics when reached"),
        ("todo!(", "todo!() always panics"),
        ("unimplemented!(", "unimplemented!() always panics"),
    ];
    for &(needle, why) in CALLS {
        for offset in occurrences(source, needle) {
            out.push(
                at(
                    Diagnostic::error(
                        "lint/no-panic-in-hot-path",
                        format!("{why} in a hot-path kernel"),
                    ),
                    path,
                    source,
                    offset,
                )
                .with_help("propagate a typed error instead; hot paths must not abort"),
            );
        }
    }

    // Slice-indexing heuristic: `[` directly preceded (modulo spaces) by an
    // identifier byte, `)` or `]` is an Index/IndexMut call, which panics
    // out of bounds. `#[attr]`, `&[T]`, `vec![..]` and array literals are
    // preceded by other punctuation and are not flagged.
    let bytes = source.code().as_bytes();
    for offset in occurrences(source, "[") {
        let mut k = offset;
        while k > 0 && bytes[k - 1] == b' ' {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let prev = bytes[k - 1];
        let is_index = prev == b')' || prev == b']' || prev.is_ascii_alphanumeric() || prev == b'_';
        if is_index {
            out.push(
                at(
                    Diagnostic::error(
                        "lint/no-panic-in-hot-path",
                        "slice indexing panics when out of bounds",
                    ),
                    path,
                    source,
                    offset,
                )
                .with_help(
                    "use get()/get_mut() or an iterator, or allowlist with a bounds argument",
                ),
            );
        }
    }
}

/// Is this token a float literal (or float constant path)?
fn is_float_token(token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
    let t = token.trim_start_matches('-');
    if t.starts_with("f32::") || t.starts_with("f64::") {
        return true;
    }
    let has_digit = t.bytes().any(|b| b.is_ascii_digit());
    let suffixed = t.ends_with("f32") || t.ends_with("f64");
    let dotted = {
        // A `.` between digits (or trailing), not part of a method call.
        t.bytes()
            .zip(t.bytes().skip(1).chain(std::iter::once(b' ')))
            .any(|(a, b)| a == b'.' && !b.is_ascii_alphabetic() && b != b'_')
            && t.bytes().next().is_some_and(|b| b.is_ascii_digit())
    };
    has_digit && (suffixed || dotted)
}

/// Grabs the operand token ending at `end` (scanning backwards).
fn token_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-') {
            i -= 1;
        } else {
            break;
        }
    }
    &code[i..stop]
}

/// Grabs the operand token starting at `start` (scanning forwards).
fn token_after(code: &str, start: usize) -> &str {
    let bytes = code.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-') {
            i += 1;
        } else {
            break;
        }
    }
    &code[begin..i]
}

/// `no-float-eq`: flags `==` / `!=` where either operand is a float
/// literal or `f32::`/`f64::` constant, outside tests. Exact float
/// comparison is almost always a correctness bug in numeric code; the
/// intentional exceptions (exact-zero sparsity tests) are allowlisted.
fn no_float_eq(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    let code = source.code();
    let bytes = code.as_bytes();
    for op in ["==", "!="] {
        for offset in occurrences(source, op) {
            // Reject compound operators: `<=`, `>=`, `..=`, `===` etc.
            let before = offset.checked_sub(1).map(|i| bytes[i]);
            let after = bytes.get(offset + op.len()).copied();
            if matches!(before, Some(b'<' | b'>' | b'=' | b'!' | b'.')) || after == Some(b'=') {
                continue;
            }
            let lhs = token_before(code, offset);
            let rhs = token_after(code, offset + op.len());
            if is_float_token(lhs) || is_float_token(rhs) {
                out.push(
                    at(
                        Diagnostic::error(
                            "lint/no-float-eq",
                            format!(
                                "exact float comparison `{} {op} {}`",
                                lhs.trim(),
                                rhs.trim()
                            ),
                        ),
                        path,
                        source,
                        offset,
                    )
                    .with_help(
                        "compare against a tolerance, or allowlist if exact-zero is intended",
                    ),
                );
            }
        }
    }
}

/// A `pub fn` item found in masked code.
struct PubFn<'a> {
    name: &'a str,
    /// Offset of the `fn` keyword.
    offset: usize,
    /// Text between `->` and the body (empty when the fn returns unit).
    return_type: &'a str,
    /// Body text (between the braces), empty for trait/extern decls.
    body: &'a str,
    /// Offset where the attribute/doc block above the item may start.
    attrs_start: usize,
}

/// Iterates `pub fn` / `pub(crate) fn` items outside test regions.
fn pub_fns<'a>(source: &'a MaskedSource) -> Vec<PubFn<'a>> {
    let code = source.code();
    let bytes = code.as_bytes();
    let mut fns = Vec::new();
    for offset in occurrences(source, "fn ") {
        // Must be the `fn` keyword, preceded by a `pub` visibility in the
        // same declaration header.
        if offset > 0 && (bytes[offset - 1].is_ascii_alphanumeric() || bytes[offset - 1] == b'_') {
            continue; // part of a longer identifier
        }
        let line_start = code[..offset].rfind('\n').map(|p| p + 1).unwrap_or(0);
        // The declaration header: from the last statement/item boundary on
        // this line (or the line start) up to the `fn` keyword.
        let header_start = code[line_start..offset]
            .rfind(['{', '}', ';'])
            .map(|p| line_start + p + 1)
            .unwrap_or(line_start);
        let header = code[header_start..offset].trim_start();
        if !header.starts_with("pub ") && !header.starts_with("pub(") {
            continue;
        }
        let name_end = code[offset + 3..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|p| offset + 3 + p)
            .unwrap_or(code.len());
        let name = &code[offset + 3..name_end];
        if name.is_empty() {
            continue;
        }
        // Signature runs to the first `{` or `;` at angle/paren depth 0.
        let mut depth = 0i32;
        let mut sig_end = code.len();
        let mut body_open = None;
        for (k, &b) in bytes[name_end..].iter().enumerate() {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    sig_end = name_end + k;
                    body_open = Some(name_end + k);
                    break;
                }
                b';' if depth == 0 => {
                    sig_end = name_end + k;
                    break;
                }
                _ => {}
            }
        }
        let signature = &code[name_end..sig_end];
        let return_type = signature
            .rfind("->")
            .map(|p| signature[p + 2..].trim())
            .unwrap_or("");
        let body = body_open
            .map(|open| {
                let close = brace_match(bytes, open);
                &code[open + 1..close.saturating_sub(1)]
            })
            .unwrap_or("");
        // Attributes and docs sit on the lines directly above the header.
        let mut attrs_start = line_start;
        while attrs_start > 0 {
            let prev_start = code[..attrs_start - 1]
                .rfind('\n')
                .map(|p| p + 1)
                .unwrap_or(0);
            let prev = source.raw()[prev_start..attrs_start - 1].trim_start();
            if prev.starts_with("#[") || prev.starts_with("///") || prev.starts_with("//") {
                attrs_start = prev_start;
            } else {
                break;
            }
        }
        fns.push(PubFn {
            name,
            offset,
            return_type,
            body,
            attrs_start,
        });
    }
    fns
}

/// `fallible-returns-result`: a public function that can panic (unwrap,
/// expect, panic!-family, assert!-family in its body) should either return
/// `Result` or document the contract under a `# Panics` heading.
fn fallible_returns_result(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    const PANICKY: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "assert!(",
        "assert_eq!(",
        "assert_ne!(",
    ];
    // `debug_assert!` is compiled out of release builds and does not count.
    let is_real_hit = |body: &str, needle: &str| {
        let mut from = 0;
        while let Some(pos) = body[from..].find(needle) {
            let offset = from + pos;
            if !body[..offset].ends_with("debug_") {
                return true;
            }
            from = offset + needle.len();
        }
        false
    };
    for f in pub_fns(source) {
        if f.return_type.contains("Result") || f.body.is_empty() {
            continue;
        }
        let Some(trigger) = PANICKY.iter().find(|p| is_real_hit(f.body, p)) else {
            continue;
        };
        let attr_block = &source.raw()[f.attrs_start..f.offset.min(source.raw().len())];
        if attr_block.contains("# Panics") {
            continue;
        }
        out.push(
            at(
                Diagnostic::warning(
                    "lint/fallible-returns-result",
                    format!(
                        "pub fn {} can panic (contains `{}`) but neither returns Result nor \
                         documents `# Panics`",
                        f.name,
                        trigger.trim_end_matches('('),
                    ),
                ),
                path,
                source,
                f.offset,
            )
            .with_help("return a typed error, or add a `/// # Panics` doc section"),
        );
    }
}

/// `missing-must-use`: builder-style `pub fn ... -> Self` without
/// `#[must_use]` — dropping the return value silently discards the
/// configured value.
fn missing_must_use(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    for f in pub_fns(source) {
        if f.return_type != "Self" {
            continue;
        }
        let attr_block = &source.raw()[f.attrs_start..f.offset.min(source.raw().len())];
        if attr_block.contains("#[must_use]") {
            continue;
        }
        out.push(
            at(
                Diagnostic::warning(
                    "lint/missing-must-use",
                    format!("pub fn {} returns Self but is not #[must_use]", f.name),
                ),
                path,
                source,
                f.offset,
            )
            .with_help("add #[must_use] so dropped builder chains are caught"),
        );
    }
}

/// `no-unseeded-rng`: forbids entropy-seeded random sources outside tests.
/// Every stochastic step in the pipeline (hypervector bases, bootstrap
/// sampling, fault schedules) flows from an explicit `DetRng` seed; a
/// single `thread_rng()` call would make runs — and their fault traces —
/// unreproducible.
fn no_unseeded_rng(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    const SOURCES: &[(&str, &str)] = &[
        ("thread_rng", "thread_rng() seeds from OS entropy"),
        (
            "rand::random",
            "rand::random() draws from the thread-local entropy RNG",
        ),
        ("from_entropy", "from_entropy() seeds from OS entropy"),
    ];
    let bytes = source.code().as_bytes();
    for &(needle, why) in SOURCES {
        for offset in occurrences(source, needle) {
            // Skip hits inside longer identifiers (`my_thread_rng`).
            if offset > 0
                && (bytes[offset - 1].is_ascii_alphanumeric() || bytes[offset - 1] == b'_')
            {
                continue;
            }
            let end = offset + needle.len();
            if bytes
                .get(end)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
            {
                continue;
            }
            out.push(
                at(
                    Diagnostic::error(
                        "lint/no-unseeded-rng",
                        format!("{why}; results cannot be reproduced from a seed"),
                    ),
                    path,
                    source,
                    offset,
                )
                .with_help("derive the stream from an explicit seed (DetRng::new) instead"),
            );
        }
    }
}

/// `no-adhoc-concurrency`: forbids bare `thread::spawn`/`thread::scope`,
/// `thread::Builder` (whose `spawn` starts the same free-running thread)
/// and unbounded `mpsc::channel()` outside tests. The bounded
/// `mpsc::sync_channel` is the rule's recommended remedy, so it stays
/// allowed. Overlapped execution
/// in this repository must flow through the declared-schedule layer
/// (`core::schedule`), where the SDF analyzer proves rate consistency,
/// deadlock-freedom and buffer bounds; the handful of sanctioned
/// scoped-thread sites carry `lint.toml` allowlist entries whose reasons
/// name the declared graph that covers them.
fn no_adhoc_concurrency(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    const SITES: &[(&str, &str)] = &[
        (
            "thread::spawn",
            "thread::spawn starts a free-running thread outside any declared schedule",
        ),
        (
            "thread::scope",
            "thread::scope introduces ad-hoc structured concurrency outside any declared schedule",
        ),
        (
            "thread::Builder",
            "thread::Builder spawns a free-running thread outside any declared schedule",
        ),
        (
            "mpsc::channel(",
            "mpsc::channel() is unbounded; backpressure cannot be verified statically",
        ),
    ];
    let bytes = source.code().as_bytes();
    for &(needle, why) in SITES {
        for offset in occurrences(source, needle) {
            // Skip hits inside longer identifiers. A preceding `:` is fine
            // (`std::thread::spawn` is still the needle).
            if offset > 0
                && (bytes[offset - 1].is_ascii_alphanumeric() || bytes[offset - 1] == b'_')
            {
                continue;
            }
            let end = offset + needle.len();
            if bytes
                .get(end)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
            {
                continue;
            }
            out.push(
                at(
                    Diagnostic::error("lint/no-adhoc-concurrency", why.to_string()),
                    path,
                    source,
                    offset,
                )
                .with_help(
                    "declare the overlap as an SDF graph in core::schedule (verified by \
                     `hyperedge verify --schedule`), use a bounded mpsc::sync_channel, or \
                     allowlist the site with the declaration that covers it",
                ),
            );
        }
    }
}

/// `no-unpacked-bipolar-hot-path`: forbids unpacking a `PackedBipolar`
/// back into scalar signs in production code. `.to_signs()` and
/// `.sign(i)` exist for debugging and for pinning tests against the
/// scalar reference semantics; a production call site re-inflates 1 bit
/// per component to an `f32` (a 32× blow-up) and silently trades the
/// word-level XOR+popcount kernels for scalar loops, undoing the packed
/// datapath's speedup. Scoring must go through `hamming`/`dot`/
/// `PackedClassHypervectors::predict_batch`, and bundling through
/// `majority_bundle`. The packed module itself is exempt: it defines the
/// accessors and implements the reference conversions.
fn no_unpacked_bipolar_hot_path(path: &str, source: &MaskedSource, out: &mut Vec<Diagnostic>) {
    if path == "crates/tensor/src/packed.rs" || path.ends_with("/tensor/src/packed.rs") {
        return;
    }
    const NEEDLES: &[&str] = &[".to_signs(", ".sign("];
    for needle in NEEDLES {
        for offset in occurrences(source, needle) {
            out.push(
                at(
                    Diagnostic::error(
                        "lint/no-unpacked-bipolar-hot-path",
                        format!(
                            "`{needle}..)` unpacks a bit-packed bipolar vector to scalars in \
                             production code",
                        ),
                    ),
                    path,
                    source,
                    offset,
                )
                .with_help(
                    "stay on the packed kernels: hamming/dot for similarity, \
                     PackedClassHypervectors::predict_batch for scoring, majority_bundle for \
                     bundling — unpack only in tests or debug output",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, &MaskedSource::new(src))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn unpacked_bipolar_flagged_outside_packed_module_only() {
        let src = "fn f(v: &PackedBipolar) { let s = v.to_signs(); let b = v.sign(3); }";
        let diags = lint("crates/hdc/src/bipolar.rs", src);
        assert_eq!(
            codes(&diags),
            vec![
                "lint/no-unpacked-bipolar-hot-path",
                "lint/no-unpacked-bipolar-hot-path"
            ]
        );
        // The packed module defines the accessors and reference paths.
        assert!(lint("crates/tensor/src/packed.rs", src).is_empty());
        // Test regions may unpack to pin the scalar reference semantics.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(v: &PackedBipolar) { v.to_signs(); }\n}";
        assert!(lint("crates/hdc/src/bipolar.rs", test_src).is_empty());
    }

    #[test]
    fn rule_metadata_matches_rule_names() {
        let meta: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(meta, RULE_NAMES);
        for r in RULES {
            assert!(!r.description.is_empty(), "{} has no description", r.name);
        }
    }

    #[test]
    fn unwrap_in_hot_path_flagged() {
        let diags = lint(
            "crates/tensor/src/gemm.rs",
            "fn k(v: Option<u32>) -> u32 { v.unwrap() }\n",
        );
        assert!(codes(&diags).contains(&"lint/no-panic-in-hot-path"));
    }

    #[test]
    fn unwrap_outside_hot_path_not_flagged() {
        let diags = lint(
            "crates/core/src/lib.rs",
            "fn k(v: Option<u32>) -> u32 { v.unwrap() }\n",
        );
        assert!(!codes(&diags).contains(&"lint/no-panic-in-hot-path"));
    }

    #[test]
    fn unwrap_in_tests_not_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        let diags = lint("crates/tensor/src/gemm.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn slice_indexing_flagged_but_attrs_and_types_are_not() {
        let src = "#[derive(Debug)]\nstruct S;\nfn k(a: &[f32], i: usize) -> f32 { a[i] }\n";
        let diags = lint("crates/quant/src/gemm.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "lint/no-panic-in-hot-path")
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("indexing"));
    }

    #[test]
    fn float_eq_flagged_with_position() {
        let src = "fn f(x: f32) -> bool {\n    x == 0.5\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        let hit = diags
            .iter()
            .find(|d| d.code == "lint/no-float-eq")
            .expect("finding");
        match &hit.site {
            wide_nn::Site::Source { line, .. } => assert_eq!(*line, 2),
            other => panic!("unexpected site {other:?}"),
        }
    }

    #[test]
    fn float_eq_catches_constants_and_suffixes() {
        let diags = lint(
            "crates/core/src/lib.rs",
            "fn f(x: f32) -> bool { x != f32::INFINITY }\nfn g(y: f64) -> bool { y == 1f64 }\n",
        );
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == "lint/no-float-eq")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn integer_and_range_comparisons_not_flagged() {
        let diags = lint(
            "crates/core/src/lib.rs",
            "fn f(x: usize) -> bool { x == 10 }\nfn g(x: usize) -> bool { matches!(x, 0..=9) }\n",
        );
        assert!(!codes(&diags).contains(&"lint/no-float-eq"), "{diags:?}");
    }

    #[test]
    fn float_eq_in_string_or_comment_not_flagged() {
        let diags = lint(
            "crates/core/src/lib.rs",
            "// x == 0.5 in prose\nfn f() -> &'static str { \"x == 0.5\" }\n",
        );
        assert!(!codes(&diags).contains(&"lint/no-float-eq"));
    }

    #[test]
    fn panicky_pub_fn_without_doc_warned() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.expect(\"set\")\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            codes(&diags).contains(&"lint/fallible-returns-result"),
            "{diags:?}"
        );
    }

    #[test]
    fn panics_doc_section_is_an_escape_hatch() {
        let src = "/// Does f.\n///\n/// # Panics\n///\n/// Panics if unset.\npub fn f(v: Option<u32>) -> u32 {\n    v.expect(\"set\")\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/fallible-returns-result"),
            "{diags:?}"
        );
    }

    #[test]
    fn result_returning_fn_not_warned() {
        let src = "pub fn f() -> Result<u32, String> {\n    assert!(true);\n    Ok(1)\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(!codes(&diags).contains(&"lint/fallible-returns-result"));
    }

    #[test]
    fn builder_without_must_use_warned() {
        let src = "impl B {\n    pub fn with_x(mut self, x: u32) -> Self {\n        self.x = x;\n        self\n    }\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            codes(&diags).contains(&"lint/missing-must-use"),
            "{diags:?}"
        );
    }

    #[test]
    fn must_use_attribute_satisfies_rule() {
        let src = "impl B {\n    #[must_use]\n    pub fn with_x(mut self, x: u32) -> Self {\n        self.x = x;\n        self\n    }\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/missing-must-use"),
            "{diags:?}"
        );
    }

    #[test]
    fn unseeded_rng_flagged() {
        let src = "fn f() -> u64 { let mut rng = rand::thread_rng(); rng.gen() }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(codes(&diags).contains(&"lint/no-unseeded-rng"), "{diags:?}");
        let diags = lint(
            "crates/core/src/lib.rs",
            "fn f() -> f64 { rand::random() }\n",
        );
        assert!(codes(&diags).contains(&"lint/no-unseeded-rng"), "{diags:?}");
        let diags = lint(
            "crates/core/src/lib.rs",
            "fn f() -> SmallRng { SmallRng::from_entropy() }\n",
        );
        assert!(codes(&diags).contains(&"lint/no-unseeded-rng"), "{diags:?}");
    }

    #[test]
    fn unseeded_rng_in_tests_or_strings_not_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = rand::thread_rng(); }\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-unseeded-rng"),
            "{diags:?}"
        );
        // Needles inside string literals and comments are masked out.
        let src = "// thread_rng is banned\nfn f() -> &'static str { \"from_entropy\" }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-unseeded-rng"),
            "{diags:?}"
        );
        // Longer identifiers that merely contain a needle are fine.
        let src = "fn my_thread_rng_shim() -> u64 { 4 }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-unseeded-rng"),
            "{diags:?}"
        );
    }

    #[test]
    fn seeded_rng_not_flagged() {
        let src = "fn f() -> u64 { let mut rng = DetRng::new(42); rng.next_u64() }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-unseeded-rng"),
            "{diags:?}"
        );
    }

    #[test]
    fn adhoc_concurrency_flagged() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        let src =
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); let _ = (tx, rx); }\n";
        // `channel::<u32>()` does not match `channel(` — turbofish form below.
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel(); let _ = (tx, rx); }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        // A `Builder`'s `spawn` starts the same free-running thread.
        let src = "fn f() {\n    let h = std::thread::Builder::new()\n        .name(\"w\".into())\n        \
                   .spawn(|| {})\n        .unwrap();\n    let _ = h.join();\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "lint/no-adhoc-concurrency"
                    && d.message.contains("thread::Builder")),
            "{diags:?}"
        );
    }

    #[test]
    fn bounded_channels_and_tests_not_flagged() {
        // sync_channel is bounded: the whole point of the rule.
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(2); let _ = (tx, rx); }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        // Tests may thread at will.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::Builder::new().spawn(|| {}).unwrap(); }\n}\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
        // Longer identifiers that merely contain a needle are fine.
        let src = "fn f() { my_thread::spawner(); }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(
            !codes(&diags).contains(&"lint/no-adhoc-concurrency"),
            "{diags:?}"
        );
    }

    #[test]
    fn private_fns_ignored_by_pub_rules() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\nfn b(self) -> Self { self }\n";
        let diags = lint("crates/core/src/lib.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
