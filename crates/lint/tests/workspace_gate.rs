//! The tier-1 gate: the whole workspace must produce zero diagnostics.
//!
//! This is the same walk `cargo run -p medsec-lint` performs, wired
//! into `cargo test` so the invariants hold on every push, not just
//! when someone remembers to run the binary.

use std::path::PathBuf;

/// The workspace root, two levels above this crate's manifest. Cargo
/// sets `CARGO_MANIFEST_DIR` for the test process, so the gate lints
/// the tree it runs in even when a checkout moved together with its
/// `target/` and the binary was not rebuilt; the compile-time value is
/// the fallback.
fn workspace_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    assert!(
        root.join("lint.toml").is_file(),
        "lint.toml missing at {}",
        root.display()
    );
    let manifest = medsec_lint::load_manifest(&root).expect("manifest parses");
    let diags = medsec_lint::check_workspace(&root, &manifest);
    assert!(
        diags.is_empty(),
        "medsec-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn manifest_pins_the_expected_surfaces() {
    // The gate only means something while the core surfaces stay
    // pinned; removing them from lint.toml must fail loudly here.
    let root = workspace_root();
    let m = medsec_lint::load_manifest(&root).unwrap();
    for must_pin in [
        "crates/ec/src/ladder.rs",
        "crates/lwc/src/aes.rs",
        "crates/lwc/src/mac.rs",
        "crates/protocols/src/mutual.rs",
    ] {
        assert!(
            m.ct_modules.iter().any(|e| e == must_pin),
            "{must_pin} dropped from [ct] modules"
        );
    }
    assert!(m
        .hotpath_modules
        .iter()
        .any(|e| e == "crates/fleet/src/scheduler.rs"));
    assert!(m
        .wire_modules
        .iter()
        .any(|e| e == "crates/protocols/src/wire.rs"));
    assert!(m
        .unsafe_allow
        .iter()
        .any(|e| e == "crates/gf2m/src/clmul.rs"));
}
