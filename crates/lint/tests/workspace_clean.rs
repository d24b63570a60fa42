//! The real workspace must lint clean: zero active findings, and every
//! waiver must carry a reason. This is the tier-1 embodiment of the
//! gate — a contract regression anywhere in the tree fails this test
//! even before CI runs the binary.

use mirage_lint::lint_workspace;
use std::path::Path;

#[test]
fn workspace_has_zero_active_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = lint_workspace(&root).expect("workspace lints");
    let active: Vec<_> = report.active().collect();
    assert!(
        active.is_empty(),
        "the workspace must lint clean; active findings:\n{}",
        active
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    for f in &report.findings {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()),
            "waived finding without a reason: {f}"
        );
    }
    assert!(
        report.files_scanned > 100,
        "the walk found suspiciously few files ({}); did SKIP_DIRS grow?",
        report.files_scanned
    );
}

#[test]
fn serving_contract_covers_the_online_server() {
    // The panic-free contract must extend to every serving-path module;
    // losing one from the list silently un-protects it.
    for file in [
        "crates/nn/src/compile.rs",
        "crates/nn/src/shard.rs",
        "crates/core/src/serve.rs",
        "crates/core/src/session.rs",
        "crates/tensor/src/parallel.rs",
        "crates/tensor/src/faults.rs",
        "crates/tensor/src/engines/protected_rns.rs",
        "crates/tensor/src/engines/rns_bfp.rs",
    ] {
        assert!(
            mirage_lint::rules::SERVING_MODULES.contains(&file),
            "{file} missing from the panic-in-serving file list"
        );
    }
}
