//! Expected-exports guard for the facade crate and the entry points under
//! it.
//!
//! The PR-5 redesign collapsed a combinatorial `run*` facade into the
//! session/query API, and PR 15 collapsed the `x / x_with / x_bound /
//! x_bound_with / x_pooled_with / c_cubing_x*` cross product in the cuber
//! crates and the engine into one function per algorithm family taking a
//! `CubeRequest`; later the closed cube became one store type. This test
//! pins the facade's public surface (`src/lib.rs`, `src/session.rs`), the
//! five cuber entry files, the engine, the closed-cube store and the two
//! crates built on it (`ccube-delta`, `ccube-rules`) against a checked-in
//! snapshot, so a future PR cannot silently regrow `_with`/`_bound`
//! duplication, a second store type or a second partition descriptor in
//! any of them. It is a source-level guard
//! (no rustdoc JSON on the offline toolchain): every
//! `pub fn/struct/enum/const/trait/type/mod` above the `#[cfg(test)]`
//! marker is extracted and compared, in order, with
//! `tests/expected_public_api.txt`.
//!
//! To accept an intentional surface change, regenerate the snapshot:
//!
//! ```sh
//! CCUBE_BLESS=1 cargo test --test public_api
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

const SOURCES: [&str; 11] = [
    "src/lib.rs",
    "src/session.rs",
    "crates/baselines/src/buc.rs",
    "crates/baselines/src/qcdfs.rs",
    "crates/mm/src/cuber.rs",
    "crates/star/src/aggregate.rs",
    "crates/star/src/stararray.rs",
    "crates/engine/src/lib.rs",
    "crates/core/src/store.rs",
    "crates/delta/src/lib.rs",
    "crates/rules/src/lib.rs",
];
const SNAPSHOT: &str = "tests/expected_public_api.txt";

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Extract `kind name` lines for every public item of `source`, stopping at
/// the unit-test module. `pub(crate)`/`pub(super)` items are internal and
/// skipped (they don't start with `pub `).
fn public_items(rel: &str) -> Vec<String> {
    let source = std::fs::read_to_string(manifest_path(rel))
        .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
    let mut items = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        for kind in ["fn", "struct", "enum", "const", "trait", "type", "mod"] {
            if let Some(rest) = trimmed.strip_prefix(&format!("pub {kind} ")) {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    items.push(format!("{rel}: {kind} {name}"));
                }
            }
        }
    }
    items
}

fn current_surface() -> String {
    let mut out = String::from(
        "# Public API surface: facade, cuber entry files, engine, store, delta, rules — \
         regenerate with \
         `CCUBE_BLESS=1 cargo test --test public_api`.\n",
    );
    for rel in SOURCES {
        for item in public_items(rel) {
            writeln!(out, "{item}").expect("write to string");
        }
    }
    out
}

#[test]
fn facade_exports_match_the_checked_in_snapshot() {
    let current = current_surface();
    let snapshot_path = manifest_path(SNAPSHOT);
    if std::env::var_os("CCUBE_BLESS").is_some() {
        std::fs::write(&snapshot_path, &current).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!("missing snapshot {SNAPSHOT} ({e}); run CCUBE_BLESS=1 cargo test --test public_api")
    });
    assert_eq!(
        current, expected,
        "public surface changed; review the diff above and, if \
         intentional, re-bless with CCUBE_BLESS=1 cargo test --test public_api"
    );
}

#[test]
fn snapshot_covers_the_query_api() {
    // Belt and braces: the snapshot itself must mention the PR-5 types and
    // the entry points under them, so an accidentally emptied (or narrowed)
    // snapshot cannot pass silently.
    let expected = std::fs::read_to_string(manifest_path(SNAPSHOT)).expect("snapshot present");
    for needle in [
        "struct CubeSession",
        "struct CubeQuery",
        "struct CellStream",
        "struct TableStats",
        "fn recommend",
        "enum Algorithm",
        "stararray.rs: fn star_array_cube",
        "engine/src/lib.rs: fn run_partitioned",
        "store.rs: struct ClosedCube",
        "rules/src/lib.rs: fn mine_rules",
    ] {
        assert!(expected.contains(needle), "snapshot lost `{needle}`");
    }
}
