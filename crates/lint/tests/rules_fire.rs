//! Every rule must fire on its failing fixture — a gate that cannot go
//! red proves nothing by being green — and reasoned waivers must come
//! back waived with the reason recorded.

use mirage_lint::{classify, lint_source, lint_workspace, FileClass, Finding, Rule};
use std::path::Path;

fn active(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.waived)
        .count()
}

fn waived(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.waived)
        .count()
}

#[test]
fn float_in_kernel_fires() {
    let src = include_str!("fixtures/float_in_kernel.rs");
    let findings = lint_source("crates/x/src/kernel.rs", src, FileClass::default());
    assert_eq!(active(&findings, Rule::FloatInKernel), 3, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::FloatInKernel), 1, "{findings:#?}");
    let w = findings.iter().find(|f| f.waived).expect("one waived");
    assert!(
        w.reason
            .as_deref()
            .unwrap_or("")
            .contains("reasoned waiver"),
        "waiver reason must be recorded, got {:?}",
        w.reason
    );
    // The `outside` fn's floats are not in any region: only the three
    // in-region tokens (return type, literal, `.sqrt()`) fire.
    assert!(findings
        .iter()
        .any(|f| f.message.contains(".sqrt()") && !f.waived));
}

#[test]
fn alloc_in_no_alloc_fires() {
    let src = include_str!("fixtures/alloc_in_no_alloc.rs");
    let findings = lint_source("crates/x/src/hot.rs", src, FileClass::default());
    assert_eq!(active(&findings, Rule::AllocInNoAlloc), 5, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::AllocInNoAlloc), 1, "{findings:#?}");
    // The unmarked `cold` fn allocates freely: every finding names `hot`.
    assert!(findings
        .iter()
        .filter(|f| f.rule == Rule::AllocInNoAlloc)
        .all(|f| f.message.contains("`hot`")));
}

#[test]
fn panic_in_serving_fires() {
    let src = include_str!("fixtures/panic_in_serving.rs");
    let rel = "crates/nn/src/compile.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::PanicInServing), 4, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::PanicInServing), 1, "{findings:#?}");
    // `debug_assert!` and the `#[cfg(test)]` module's unwrap stay
    // silent: no finding is *about* debug_assert (the `assert!` message
    // merely recommends it), and none lands past the test module start.
    assert!(!findings
        .iter()
        .any(|f| f.message.starts_with("`debug_assert")));
    let test_mod_line = src
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .expect("fixture has a test module") as u32
        + 1;
    assert!(findings.iter().all(|f| f.line < test_mod_line));
}

#[test]
fn panic_rule_is_path_scoped() {
    let src = include_str!("fixtures/panic_in_serving.rs");
    let rel = "crates/nn/src/train.rs"; // not a serving module
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::PanicInServing), 0, "{findings:#?}");
}

#[test]
fn crate_hygiene_fires_on_crate_roots_only() {
    let src = include_str!("fixtures/crate_hygiene.rs");
    let rel = "crates/demo/src/lib.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::CrateHygiene), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("deny(missing_docs)")));

    let module = lint_source(
        "crates/demo/src/other.rs",
        src,
        classify("crates/demo/src/other.rs"),
    );
    assert_eq!(active(&module, Rule::CrateHygiene), 0, "{module:#?}");
}

#[test]
fn deny_unsafe_code_satisfies_hygiene_in_place_of_forbid() {
    let src = "//! Docs.\n\
               #![deny(unsafe_code)]\n\
               #![deny(missing_docs)]\n\
               #![deny(unused_must_use)]\n\
               pub fn f() {}\n";
    let rel = "crates/demo/src/lib.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::CrateHygiene), 0, "{findings:#?}");

    // `allow(unsafe_code)` is NOT an accepted alternative.
    let loose = src.replace("#![deny(unsafe_code)]", "#![allow(unsafe_code)]");
    let findings = lint_source(rel, &loose, classify(rel));
    assert_eq!(active(&findings, Rule::CrateHygiene), 1, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("forbid(unsafe_code)")));
}

#[test]
fn unsafe_confined_fires() {
    let src = include_str!("fixtures/unsafe_confined.rs");

    // Allowlisted SIMD kernel module: `unsafe` is legal when justified
    // by a nearby `SAFETY:` comment.
    let rel = "crates/bfp/src/simd.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::UnsafeConfined), 2, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::UnsafeConfined), 1, "{findings:#?}");
    assert!(findings
        .iter()
        .filter(|f| f.rule == Rule::UnsafeConfined && !f.waived)
        .all(|f| f.message.contains("SAFETY:")));

    // Any other module: every `unsafe` fires, SAFETY comments or not
    // (the reasoned waiver still covers its one line).
    let rel = "crates/x/src/other.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::UnsafeConfined), 5, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::UnsafeConfined), 1, "{findings:#?}");
    assert!(findings
        .iter()
        .filter(|f| f.rule == Rule::UnsafeConfined && !f.waived)
        .all(|f| f.message.contains("outside the allowlisted")));
}

#[test]
fn hygiene_ok_waiver_is_file_scoped() {
    let src = "//! Docs.\n\
               // mirage-lint: allow(hygiene_ok) -- fixture: demo root opts out of the full block\n\
               pub fn f() {}\n";
    let rel = "crates/demo/src/lib.rs";
    let findings = lint_source(rel, src, classify(rel));
    assert_eq!(active(&findings, Rule::CrateHygiene), 0, "{findings:#?}");
    assert_eq!(waived(&findings, Rule::CrateHygiene), 3, "{findings:#?}");
}

#[test]
fn reasonless_allow_is_an_active_finding() {
    let src = "// mirage-lint: allow(float_ok)\npub fn f() {}\n";
    let findings = lint_source("a.rs", src, FileClass::default());
    assert_eq!(active(&findings, Rule::Directive), 1, "{findings:#?}");
    assert!(findings[0].message.contains("without a reason"));
}

#[test]
fn unbalanced_region_is_an_active_finding() {
    let open = "// mirage-lint: region(int_kernel)\npub fn f() {}\n";
    let findings = lint_source("a.rs", open, FileClass::default());
    assert_eq!(active(&findings, Rule::Directive), 1, "{findings:#?}");
    assert!(findings[0].message.contains("never closed"));

    let close = "pub fn f() {}\n// mirage-lint: end_region(int_kernel)\n";
    let findings = lint_source("a.rs", close, FileClass::default());
    assert_eq!(active(&findings, Rule::Directive), 1, "{findings:#?}");
    assert!(findings[0].message.contains("without a matching region"));
}

#[test]
fn unknown_waiver_key_is_an_active_finding() {
    let src = "// mirage-lint: allow(everything_ok) -- please\npub fn f() {}\n";
    let findings = lint_source("a.rs", src, FileClass::default());
    assert_eq!(active(&findings, Rule::Directive), 1, "{findings:#?}");
}

#[test]
fn seeded_workspace_turns_every_rule_red() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded");
    let report = lint_workspace(&root).expect("seeded workspace lints");
    for rule in [
        Rule::FloatInKernel,
        Rule::AllocInNoAlloc,
        Rule::PanicInServing,
        Rule::CrateHygiene,
        Rule::UnsafeConfined,
    ] {
        assert!(
            !report.active_for(rule).is_empty(),
            "{rule} produced no active finding in the seeded workspace"
        );
    }
    assert!(report.active_count() >= 5);
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"unsafe-confined\""));
}
