//! The five workspace rules, applied to one file at a time.
//!
//! | rule | trigger | scope |
//! |------|---------|-------|
//! | `float-in-kernel` | `f32`/`f64` idents, float literals, float-returning std method calls | `region(int_kernel)` regions |
//! | `alloc-in-no-alloc` | `Vec::new`/`with_capacity`, `Box::new`, `String::from`, `.push/.collect/.to_vec/.to_owned/.clone`, `format!`, `vec!` | functions marked `no_alloc` |
//! | `panic-in-serving` | `.unwrap()`, `.expect()`, `panic!`, `assert!`/`assert_eq!`/`assert_ne!`, `todo!`, `unimplemented!`, `unreachable!` (`debug_assert!` stays legal) | non-test code of the serving modules |
//! | `crate-hygiene` | missing `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`) / standard deny set | crate roots |
//! | `unsafe-confined` | any `unsafe` token outside [`UNSAFE_KERNEL_MODULES`], or one inside them without a nearby `SAFETY:` comment | every file |
//!
//! Waivers: `// mirage-lint: allow(<key>) -- <reason>` on the offending
//! line (trailing) or on the line directly above (standalone) waives
//! that line's findings for the matching rule. The reason is mandatory.

use crate::directives::{parse_directives, Directive, DirectiveKind};
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::report::{Finding, Rule};
use crate::scan::{scan, ScanInfo};

/// The serving modules rule 3 protects (workspace-relative paths).
pub const SERVING_MODULES: [&str; 9] = [
    "crates/nn/src/compile.rs",
    "crates/nn/src/shard.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/session.rs",
    "crates/tensor/src/parallel.rs",
    "crates/tensor/src/faults.rs",
    "crates/tensor/src/engines/protected_rns.rs",
    "crates/tensor/src/engines/rns_bfp.rs",
    "crates/tensor/src/engines/epilogue.rs",
];

/// The standard crate-root attribute block rule 4 requires, in the
/// normalized (whitespace-free) form the scanner produces.
pub const REQUIRED_CRATE_ATTRS: [&str; 3] = [
    "#![forbid(unsafe_code)]",
    "#![deny(missing_docs)]",
    "#![deny(unused_must_use)]",
];

/// The only modules allowed to contain `unsafe` (rule 5): the explicit
/// SIMD kernels, which need `core::arch` intrinsics. Crates hosting one
/// of these demote `forbid(unsafe_code)` to `deny(unsafe_code)` at the
/// root (a command-line `forbid` cannot be re-allowed module-locally),
/// and this rule is what keeps the demotion honest: `unsafe` anywhere
/// else in the workspace is an active finding.
pub const UNSAFE_KERNEL_MODULES: [&str; 2] = ["crates/bfp/src/simd.rs", "crates/rns/src/simd.rs"];

/// How far above an `unsafe` token a `SAFETY:` comment may sit (in
/// lines) and still justify it. Covers the idiomatic
/// `// SAFETY: …` block directly above a multi-line `unsafe {` call.
const SAFETY_COMMENT_REACH: u32 = 6;

/// Region name with int-kernel (rule 1) semantics.
const INT_KERNEL: &str = "int_kernel";

/// Std float methods banned inside `int_kernel` regions (each returns a
/// float or only exists on floats).
const FLOAT_METHODS: [&str; 24] = [
    "powf",
    "powi",
    "sqrt",
    "cbrt",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "hypot",
    "to_degrees",
];

/// Methods banned inside `no_alloc` functions.
const ALLOC_METHODS: [&str; 5] = ["push", "collect", "to_vec", "to_owned", "clone"];

/// Macros banned in serving modules (`debug_assert*` is intentionally
/// absent: debug-only checks cost nothing in release serving builds).
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "todo",
    "unimplemented",
    "unreachable",
];

/// How a file participates in the path-scoped rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// The file is a crate root (`src/lib.rs` of a workspace member):
    /// rule 4 applies.
    pub crate_root: bool,
    /// The file is a serving module: rule 3 applies.
    pub serving: bool,
}

/// Classifies a workspace-relative path (forward-slash form).
pub fn classify(rel: &str) -> FileClass {
    let crate_root = rel == "src/lib.rs" || {
        let parts: Vec<&str> = rel.split('/').collect();
        parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs"
    };
    FileClass {
        crate_root,
        serving: SERVING_MODULES.contains(&rel),
    }
}

/// Lints one file's source, returning every finding (waived included).
pub fn lint_source(rel: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let lexed = lex(source);
    let info = scan(&lexed.tokens);
    let directives = parse_directives(&lexed.comments);
    let mut findings = Vec::new();

    directive_findings(rel, &directives, &mut findings);
    let regions = int_kernel_regions(rel, &directives, &mut findings);
    float_in_kernel(rel, &lexed.tokens, &regions, &mut findings);
    no_alloc(rel, &lexed.tokens, &info, &directives, &mut findings);
    if class.serving {
        panic_in_serving(rel, &lexed.tokens, &info, &mut findings);
    }
    if class.crate_root {
        crate_hygiene(rel, &info, &mut findings);
    }
    unsafe_confined(rel, &lexed.tokens, &lexed.comments, &mut findings);

    apply_waivers(&lexed.tokens, &directives, &mut findings);
    findings
}

/// Reports malformed directives and reason-less waivers.
fn directive_findings(rel: &str, directives: &[Directive], findings: &mut Vec<Finding>) {
    for d in directives {
        match &d.kind {
            DirectiveKind::Malformed(msg) => {
                findings.push(Finding::new(rel, d.line, Rule::Directive, msg.clone()));
            }
            DirectiveKind::Allow { key, reason: None } => {
                findings.push(Finding::new(
                    rel,
                    d.line,
                    Rule::Directive,
                    format!("allow({key}) without a reason: write `allow({key}) -- <why>`"),
                ));
            }
            _ => {}
        }
    }
}

/// Pairs `region(int_kernel)` / `end_region(int_kernel)` markers into
/// exclusive line intervals, reporting unbalanced markers.
fn int_kernel_regions(
    rel: &str,
    directives: &[Directive],
    findings: &mut Vec<Finding>,
) -> Vec<(u32, u32)> {
    let mut stack: Vec<u32> = Vec::new();
    let mut regions = Vec::new();
    for d in directives {
        match &d.kind {
            DirectiveKind::Region(name) if name == INT_KERNEL => stack.push(d.line),
            DirectiveKind::Region(name) => findings.push(Finding::new(
                rel,
                d.line,
                Rule::Directive,
                format!("unknown region {name:?} (known: {INT_KERNEL:?})"),
            )),
            DirectiveKind::EndRegion(name) if name == INT_KERNEL => match stack.pop() {
                Some(start) => regions.push((start, d.line)),
                None => findings.push(Finding::new(
                    rel,
                    d.line,
                    Rule::Directive,
                    "end_region(int_kernel) without a matching region marker",
                )),
            },
            DirectiveKind::EndRegion(name) => findings.push(Finding::new(
                rel,
                d.line,
                Rule::Directive,
                format!("unknown region {name:?} in end_region"),
            )),
            _ => {}
        }
    }
    for start in stack {
        findings.push(Finding::new(
            rel,
            start,
            Rule::Directive,
            "region(int_kernel) is never closed (missing end_region)",
        ));
    }
    regions
}

/// Rule 1: no float types, float literals, or float std calls inside
/// `int_kernel` regions.
fn float_in_kernel(
    rel: &str,
    tokens: &[Token],
    regions: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    if regions.is_empty() {
        return;
    }
    let in_region = |line: u32| {
        regions
            .iter()
            .any(|&(start, end)| line > start && line < end)
    };
    for (i, t) in tokens.iter().enumerate() {
        if !in_region(t.line) {
            continue;
        }
        match t.kind {
            TokenKind::Ident if t.text == "f32" || t.text == "f64" => {
                findings.push(Finding::new(
                    rel,
                    t.line,
                    Rule::FloatInKernel,
                    format!("float type `{}` inside an int_kernel region", t.text),
                ));
            }
            TokenKind::Ident
                if FLOAT_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && tokens[i - 1].text == "."
                    && tokens.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                findings.push(Finding::new(
                    rel,
                    t.line,
                    Rule::FloatInKernel,
                    format!(
                        "float-returning std call `.{}()` inside an int_kernel region",
                        t.text
                    ),
                ));
            }
            TokenKind::Float => {
                findings.push(Finding::new(
                    rel,
                    t.line,
                    Rule::FloatInKernel,
                    format!("float literal `{}` inside an int_kernel region", t.text),
                ));
            }
            _ => {}
        }
    }
}

/// Rule 2: `no_alloc` functions must not contain allocating calls.
fn no_alloc(
    rel: &str,
    tokens: &[Token],
    info: &ScanInfo,
    directives: &[Directive],
    findings: &mut Vec<Finding>,
) {
    for d in directives {
        if d.kind != DirectiveKind::NoAlloc {
            continue;
        }
        // The directive marks the next `fn` below it.
        let Some(f) = info
            .fns
            .iter()
            .filter(|f| f.line > d.line)
            .min_by_key(|f| f.line)
        else {
            findings.push(Finding::new(
                rel,
                d.line,
                Rule::Directive,
                "no_alloc directive is not followed by a function",
            ));
            continue;
        };
        let (start, end) = f.body;
        let body = &tokens[start..end.min(tokens.len())];
        for (i, t) in body.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| body[p].text.as_str());
            let next = body.get(i + 1).map(|n| n.text.as_str());
            let message = match t.text.as_str() {
                // `Vec::new`, `Vec::with_capacity`, `Box::new`,
                // `String::from`, `String::new` — path form.
                "Vec" | "Box" | "String"
                    if next == Some(":")
                        && matches!(
                            body.get(i + 3).map(|m| m.text.as_str()),
                            Some("new" | "with_capacity" | "from")
                        ) =>
                {
                    Some(format!(
                        "`{}::{}` allocates inside `{}` (marked no_alloc)",
                        t.text,
                        body[i + 3].text,
                        f.name
                    ))
                }
                // `.push(…)`, `.collect::<…>()`, `.to_vec()`, `.clone()`.
                m if ALLOC_METHODS.contains(&m)
                    && prev == Some(".")
                    && matches!(next, Some("(" | ":")) =>
                {
                    Some(format!(
                        "`.{}` allocates inside `{}` (marked no_alloc)",
                        t.text, f.name
                    ))
                }
                // `format!`, `vec!`.
                "format" | "vec" if next == Some("!") => Some(format!(
                    "`{}!` allocates inside `{}` (marked no_alloc)",
                    t.text, f.name
                )),
                _ => None,
            };
            if let Some(message) = message {
                findings.push(Finding::new(rel, t.line, Rule::AllocInNoAlloc, message));
            }
        }
    }
}

/// Rule 3: no panicking constructs in non-test serving code.
fn panic_in_serving(rel: &str, tokens: &[Token], info: &ScanInfo, findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || info.in_test_code(i) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        match t.text.as_str() {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => {
                findings.push(Finding::new(
                    rel,
                    t.line,
                    Rule::PanicInServing,
                    format!(
                        "`.{}()` can panic on the serving path — propagate an error instead",
                        t.text
                    ),
                ));
            }
            m if PANIC_MACROS.contains(&m) && next == Some("!") => {
                findings.push(Finding::new(
                    rel,
                    t.line,
                    Rule::PanicInServing,
                    format!(
                        "`{m}!` can panic on the serving path (debug_assert! is the \
                         permitted form for invariants)"
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Rule 4: crate roots carry the standard forbid/deny block. For the
/// unsafe-code attribute specifically, `#![deny(unsafe_code)]` is an
/// accepted alternative to `forbid`: crates hosting an allowlisted SIMD
/// kernel module must use `deny` so that module can open a local
/// `#![allow(unsafe_code)]` scope, and rule 5 (`unsafe-confined`)
/// guarantees the demotion cannot leak `unsafe` anywhere else.
fn crate_hygiene(rel: &str, info: &ScanInfo, findings: &mut Vec<Finding>) {
    const UNSAFE_ALTERNATIVES: [&str; 2] = ["#![forbid(unsafe_code)]", "#![deny(unsafe_code)]"];
    for required in REQUIRED_CRATE_ATTRS {
        let present = if required == UNSAFE_ALTERNATIVES[0] {
            info.inner_attrs
                .iter()
                .any(|a| UNSAFE_ALTERNATIVES.contains(&a.as_str()))
        } else {
            info.inner_attrs.iter().any(|a| a == required)
        };
        if !present {
            findings.push(Finding::new(
                rel,
                1,
                Rule::CrateHygiene,
                format!("crate root is missing `{required}`"),
            ));
        }
    }
}

/// Rule 5: `unsafe` is confined to the allowlisted SIMD kernel modules
/// ([`UNSAFE_KERNEL_MODULES`]), and every line using it there must be
/// justified — by a `// SAFETY:` comment (trailing on the same line or
/// standing within [`SAFETY_COMMENT_REACH`] lines above), or, for
/// `unsafe fn` declarations, by a rustdoc `# Safety` section (every
/// line of a contiguous comment run containing the header counts, so
/// the section reaches past its own prose and the attributes between
/// doc and `fn`).
fn unsafe_confined(rel: &str, tokens: &[Token], comments: &[Comment], findings: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_KERNEL_MODULES.contains(&rel);
    let mut safety_lines: Vec<u32> = Vec::new();
    let mut run_is_safety = false;
    let mut prev_line = 0u32;
    for c in comments {
        // A gap in own-line comment lines ends the current doc run.
        if !(c.own_line && c.line == prev_line + 1) {
            run_is_safety = false;
        }
        prev_line = c.line;
        run_is_safety = (run_is_safety && c.own_line) || c.text.contains("# Safety");
        if run_is_safety || c.text.contains("SAFETY:") {
            safety_lines.push(c.line);
        }
    }
    for t in tokens {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !allowlisted {
            findings.push(Finding::new(
                rel,
                t.line,
                Rule::UnsafeConfined,
                "`unsafe` outside the allowlisted SIMD kernel modules — the workspace \
                 confines unsafe code to the explicit-SIMD kernels",
            ));
            continue;
        }
        let justified = safety_lines
            .iter()
            .any(|&l| l <= t.line && t.line - l <= SAFETY_COMMENT_REACH);
        if !justified {
            findings.push(Finding::new(
                rel,
                t.line,
                Rule::UnsafeConfined,
                format!(
                    "`unsafe` without a `SAFETY:` comment on the same line or within \
                     {SAFETY_COMMENT_REACH} lines above"
                ),
            ));
        }
    }
}

/// Marks findings covered by a reasoned `allow(...)` directive as
/// waived. Waivers are line-scoped: a trailing directive covers its own
/// line, a standalone one covers the next code line. `hygiene_ok` alone
/// is file-scoped, since rule 4 findings anchor to the file itself.
fn apply_waivers(tokens: &[Token], directives: &[Directive], findings: &mut [Finding]) {
    struct Waiver<'a> {
        key: &'a str,
        reason: &'a str,
        covered_line: u32,
    }
    let mut waivers = Vec::new();
    for d in directives {
        if let DirectiveKind::Allow {
            key,
            reason: Some(reason),
        } = &d.kind
        {
            let covered_line = if d.own_line {
                tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > d.line)
                    .unwrap_or(d.line)
            } else {
                d.line
            };
            waivers.push(Waiver {
                key,
                reason,
                covered_line,
            });
        }
    }
    for f in findings.iter_mut() {
        let Some(key) = f.rule.waiver_key() else {
            continue;
        };
        let file_scoped = matches!(f.rule, Rule::CrateHygiene);
        if let Some(w) = waivers
            .iter()
            .find(|w| w.key == key && (file_scoped || w.covered_line == f.line))
        {
            f.waived = true;
            f.reason = Some(w.reason.to_string());
        }
    }
}
