//! The `figures bless` flow: manifest bootstrap, audited epoch bumps,
//! dirty-tree refusal, the `--check` gate (over the real tree and over
//! tampered, unbumped and retired fixtures), and generator fidelity.
//!
//! The round-trip tests run against a scratch golden directory under
//! the OS temp dir so they never touch the real manifest; the fidelity
//! tests prove the in-process generators in `bench::bless` produce the
//! exact bytes sitting in `tests/golden/` today, so a future bless of
//! an unchanged fixture is a no-op.

use std::path::{Path, PathBuf};

use spotweb::telemetry::json::fnv1a64_hex;
use spotweb_bench::bless::{default_specs, run_bless, run_check, FixtureSpec};
use spotweb_bench::manifest::{self, Manifest};

fn scratch_root(test: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("spotweb-bless-{}-{test}", std::process::id()));
    // Start from nothing so reruns are deterministic.
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch root");
    root
}

/// A generator whose output is whatever `input.txt` in the scratch
/// root holds — lets a test change the "experiment result" between
/// blesses without any non-determinism.
fn gen_from_input(root: &Path) -> Result<String, String> {
    std::fs::read_to_string(root.join("input.txt")).map_err(|e| format!("read input: {e}"))
}

fn scratch_specs() -> Vec<FixtureSpec> {
    vec![
        FixtureSpec {
            name: "scratch.json",
            command: "figures scratch > tests/golden/scratch.json",
            generate: gen_from_input,
        },
        FixtureSpec {
            name: "other.json",
            command: "figures other > tests/golden/other.json",
            generate: |_| Ok("other\n".to_string()),
        },
    ]
}

fn read_manifest(root: &Path) -> Manifest {
    let text = std::fs::read_to_string(
        root.join(manifest::GOLDEN_DIR)
            .join(manifest::MANIFEST_NAME),
    )
    .expect("manifest on disk");
    Manifest::parse(&text).expect("manifest parses")
}

fn disk_bytes(root: &Path, name: &str) -> Vec<u8> {
    std::fs::read(root.join(manifest::GOLDEN_DIR).join(name)).expect("fixture on disk")
}

#[test]
fn bless_round_trip_records_matching_old_new_digests() {
    let root = scratch_root("roundtrip");
    let specs = scratch_specs();
    std::fs::write(root.join("input.txt"), "v1\n").expect("seed input");

    // First bless: new fixture, epoch 1, old digest "-".
    run_bless(&root, &specs, &["scratch.json".to_string()], false, "first").expect("first bless");
    let m = read_manifest(&root);
    let e = m.entry("scratch.json").expect("tracked");
    assert_eq!(e.epoch, 1);
    assert_eq!(e.digest, fnv1a64_hex(b"v1\n"));
    assert_eq!(disk_bytes(&root, "scratch.json"), b"v1\n");
    assert_eq!(e.history.len(), 1);
    assert_eq!(e.history[0].old, "-");
    assert_eq!(e.history[0].new, fnv1a64_hex(b"v1\n"));
    assert_eq!(e.history[0].note, "first");

    // Regenerate with changed content: the acceptance round-trip. The
    // recorded old→new pair must match the bytes that were/are on disk.
    std::fs::write(root.join("input.txt"), "v2\n").expect("change input");
    run_bless(&root, &specs, &["scratch.json".to_string()], false, "rerun").expect("second bless");
    let m = read_manifest(&root);
    let e = m.entry("scratch.json").expect("tracked");
    assert_eq!(e.epoch, 2);
    assert_eq!(e.history.len(), 2);
    assert_eq!(
        e.history[1].old,
        fnv1a64_hex(b"v1\n"),
        "old = previous on-disk digest"
    );
    assert_eq!(
        e.history[1].new,
        fnv1a64_hex(b"v2\n"),
        "new = current on-disk digest"
    );
    assert_eq!(
        fnv1a64_hex(&disk_bytes(&root, "scratch.json")),
        e.history[1].new
    );

    // The tree is manifest-consistent after every bless.
    let input = manifest::load_input(&root)
        .expect("load input")
        .expect("golden dir exists");
    assert!(manifest::check_input(&input).is_empty());

    // Blessing again without a content change is a no-op: no epoch
    // bump, no history entry.
    run_bless(&root, &specs, &["scratch.json".to_string()], false, "noop").expect("noop bless");
    let m = read_manifest(&root);
    let e = m.entry("scratch.json").expect("tracked");
    assert_eq!(e.epoch, 2);
    assert_eq!(e.history.len(), 2);
}

#[test]
fn init_imports_on_disk_bytes_at_epoch_one() {
    let root = scratch_root("init");
    let dir = root.join(manifest::GOLDEN_DIR);
    std::fs::create_dir_all(&dir).expect("golden dir");
    std::fs::write(dir.join("legacy.json"), "legacy\n").expect("legacy fixture");

    let log = run_bless(&root, &scratch_specs(), &[], true, "unused").expect("init");
    assert!(log.contains("imported legacy.json"));
    let m = read_manifest(&root);
    let e = m.entry("legacy.json").expect("imported");
    assert_eq!(e.epoch, 1);
    assert_eq!(e.digest, fnv1a64_hex(b"legacy\n"));
    assert_eq!(e.history[0].old, "-");
    assert_eq!(
        disk_bytes(&root, "legacy.json"),
        b"legacy\n",
        "init never rewrites bytes"
    );

    // Idempotent: a second init changes nothing.
    run_bless(&root, &scratch_specs(), &[], true, "unused").expect("re-init");
    assert_eq!(read_manifest(&root), m);
}

#[test]
fn bless_refuses_a_dirty_manifest_unless_the_fixture_is_named() {
    let root = scratch_root("dirty");
    let specs = scratch_specs();
    std::fs::write(root.join("input.txt"), "v1\n").expect("seed input");
    run_bless(&root, &specs, &["scratch.json".to_string()], false, "first").expect("first bless");

    // Hand-edit the fixture: the tree is now dirty.
    std::fs::write(
        root.join(manifest::GOLDEN_DIR).join("scratch.json"),
        "tampered\n",
    )
    .expect("tamper");

    // Blessing a *different* fixture must refuse and name the culprit.
    let err = run_bless(&root, &specs, &["other.json".to_string()], false, "other")
        .expect_err("dirty tree must refuse");
    assert!(err.contains("dirty manifest"), "{err}");
    assert!(err.contains("scratch.json"), "{err}");

    // Blessing the dirty fixture itself is the remedy.
    run_bless(&root, &specs, &["scratch.json".to_string()], false, "heal").expect("heal");
    let input = manifest::load_input(&root)
        .expect("load input")
        .expect("golden dir exists");
    assert!(manifest::check_input(&input).is_empty());
}

#[test]
fn unknown_fixture_name_is_an_error() {
    let root = scratch_root("unknown");
    let err = run_bless(
        &root,
        &scratch_specs(),
        &["nope.json".to_string()],
        false,
        "x",
    )
    .expect_err("unknown fixture");
    assert!(err.contains("no registered generator"), "{err}");
    assert!(
        err.contains("scratch.json"),
        "error lists known names: {err}"
    );
}

#[test]
fn registry_covers_exactly_the_tracked_goldens() {
    let names: Vec<&str> = default_specs().iter().map(|s| s.name).collect();
    let mut on_disk: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest::GOLDEN_DIR))
            .expect("golden dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != manifest::MANIFEST_NAME)
            .collect();
    on_disk.sort();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted, on_disk,
        "every golden fixture needs a bless generator and vice versa"
    );
}

#[test]
fn manifest_matches_every_golden_on_disk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Err(findings) = run_check(root, None, &[]) {
        panic!("tests/golden/ disagrees with its manifest:\n{findings}");
    }
    // The committed manifest is in the writer's own layout, so a bless
    // rewrites only the entries it bumps.
    let text = std::fs::read_to_string(
        root.join(manifest::GOLDEN_DIR)
            .join(manifest::MANIFEST_NAME),
    )
    .expect("manifest on disk");
    assert_eq!(Manifest::parse(&text).expect("parses").render(), text);
}

/// A scratch root with both scratch fixtures blessed at epoch 1:
/// `(root, golden dir, copy of the manifest as the merge base's)`.
fn blessed_scratch_tree(test: &str) -> (PathBuf, PathBuf, PathBuf) {
    let root = scratch_root(test);
    std::fs::write(root.join("input.txt"), "v1\n").expect("seed input");
    let both = ["scratch.json".to_string(), "other.json".to_string()];
    run_bless(&root, &scratch_specs(), &both, false, "first").expect("first bless");
    let dir = root.join(manifest::GOLDEN_DIR);
    let base = root.join("base-manifest.json");
    std::fs::copy(dir.join(manifest::MANIFEST_NAME), &base).expect("keep the base manifest");
    (root, dir, base)
}

#[test]
fn tampered_golden_without_epoch_bump_is_a_manifest_finding() {
    let (root, dir, base) = blessed_scratch_tree("tampered");
    run_check(&root, Some(&base), &[]).expect("a blessed tree is clean");

    // A hand edit: the digest check fires, names the bless command, and
    // leaves the consistent sibling alone.
    std::fs::write(dir.join("scratch.json"), "hand-edited\n").expect("tamper");
    let findings = run_check(&root, None, &[]).expect_err("tampered fixture");
    assert_eq!(findings.lines().count(), 1, "{findings}");
    assert!(
        findings.starts_with("tests/golden/scratch.json: "),
        "{findings}"
    );
    assert!(
        findings.contains("figures -- bless scratch.json"),
        "{findings}"
    );
    assert!(findings.contains("without a bless"), "{findings}");

    // A hand edit that also patches the manifest digest still fails the
    // diff gate: the epoch did not move past the merge base's.
    let mut m = read_manifest(&root);
    let mut entry = m.entry("scratch.json").expect("tracked").clone();
    entry.digest = fnv1a64_hex(b"hand-edited\n");
    entry.history[0].new = entry.digest.clone();
    m.upsert(entry);
    std::fs::write(dir.join(manifest::MANIFEST_NAME), m.render()).expect("patch manifest");
    run_check(&root, None, &[]).expect("digests agree again");
    let changed = ["tests/golden/scratch.json".to_string()];
    let findings = run_check(&root, Some(&base), &changed).expect_err("unbumped epoch");
    assert!(findings.contains("did not bump"), "{findings}");
}

#[test]
fn a_fixture_gone_from_disk_and_manifest_is_a_retirement() {
    let (root, dir, base) = blessed_scratch_tree("retire");
    let changed = [
        "tests/golden/other.json".to_string(),
        "tests/golden/MANIFEST.json".to_string(),
    ];

    // Half a retirement — the file deleted, the entry kept — names the
    // other half.
    std::fs::remove_file(dir.join("other.json")).expect("delete fixture");
    let findings = run_check(&root, Some(&base), &changed).expect_err("entry left behind");
    assert!(findings.contains("retire it by deleting"), "{findings}");

    let mut m = read_manifest(&root);
    m.fixtures.retain(|f| f.name != "other.json");
    std::fs::write(dir.join(manifest::MANIFEST_NAME), m.render()).expect("drop the entry");
    run_check(&root, Some(&base), &changed).expect("absent on both sides passes");
}

#[test]
fn generators_reproduce_the_on_disk_goldens() {
    // Byte-fidelity for the cheap generators: blessing an unchanged
    // fixture must be a digest no-op. (The sweep and scorecard
    // generators are exercised end-to-end by tests/golden.rs and
    // tests/scorecard.rs.)
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in [
        "fig4a.json",
        "fig6a.json",
        "chaos_reports.json",
        "trace_revocation_storm.jsonl",
        "profile_spans.json",
    ] {
        let spec_list = default_specs();
        let spec = spec_list
            .iter()
            .find(|s| s.name == name)
            .expect("registered");
        let generated = (spec.generate)(root).expect("generator runs");
        let on_disk = std::fs::read(root.join(manifest::GOLDEN_DIR).join(name)).expect("golden");
        assert_eq!(
            generated.as_bytes(),
            on_disk.as_slice(),
            "{name}: bless generator diverged from the on-disk golden"
        );
    }
}
