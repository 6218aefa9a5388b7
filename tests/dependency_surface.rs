//! The workspace's third-party surface is `proptest` alone.
//!
//! Every wire format is the repository's own text codec and every random
//! draw comes from `simcore::DetRng`, so the only outside API the code
//! needs is the property-test harness, provided by the in-tree stand-in
//! under `vendor/proptest`. This test reads the committed `Cargo.lock` and
//! fails if any other package appears, so a stand-in (or a registry crate)
//! cannot be vendored back in without this list being changed on purpose.

use std::collections::BTreeSet;
use std::path::Path;

/// The one package allowed besides the first-party crates.
const ALLOWED_THIRD_PARTY: &str = "proptest";

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The value of the first `key = "value"` line in `text`.
fn string_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(key)?.trim_start();
        rest.strip_prefix('=')?
            .trim()
            .strip_prefix('"')?
            .strip_suffix('"')
    })
}

/// The paths in the root manifest's `members = [...]` array.
fn member_paths(manifest: &str) -> Vec<String> {
    let start = manifest
        .find("members = [")
        .expect("workspace has a members list");
    let list = &manifest[start..];
    let list = &list[list.find('[').unwrap() + 1..list.find(']').unwrap()];
    list.split(',')
        .map(|item| item.trim().trim_matches('"').to_string())
        .filter(|item| !item.is_empty())
        .collect()
}

#[test]
fn lockfile_lists_only_workspace_crates_and_proptest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = read(&root.join("Cargo.toml"));

    // First-party crates: the root package plus every member outside
    // `vendor/`, named as their own manifests name them.
    let mut first_party = BTreeSet::new();
    first_party.insert(string_value(&manifest, "name").unwrap().to_string());
    for path in member_paths(&manifest) {
        if path.starts_with("vendor/") {
            continue;
        }
        let member = read(&root.join(&path).join("Cargo.toml"));
        first_party.insert(string_value(&member, "name").unwrap().to_string());
    }
    assert!(first_party.contains("simcore") && first_party.contains("calciom"));

    let lock = read(&root.join("Cargo.lock"));
    let packages: Vec<&str> = lock
        .split("[[package]]")
        .skip(1)
        .map(|entry| string_value(entry, "name").expect("every package has a name"))
        .collect();
    assert!(packages.contains(&ALLOWED_THIRD_PARTY));

    let unexpected: Vec<&str> = packages
        .iter()
        .copied()
        .filter(|name| *name != ALLOWED_THIRD_PARTY && !first_party.contains(*name))
        .collect();
    assert!(
        unexpected.is_empty(),
        "Cargo.lock lists packages that are neither workspace crates nor \
         {ALLOWED_THIRD_PARTY}: {unexpected:?}"
    );
}
