//! The `figures bless` flow: manifest bootstrap, audited epoch bumps,
//! dirty-tree refusal, and generator fidelity.
//!
//! The round-trip tests run against a scratch golden directory under
//! the OS temp dir so they never touch the real manifest; the fidelity
//! tests prove the in-process generators in `bench::bless` produce the
//! exact bytes sitting in `tests/golden/` today, so a future bless of
//! an unchanged fixture is a no-op.

use std::path::{Path, PathBuf};

use spotweb::telemetry::json::fnv1a64_hex;
use spotweb_bench::bless::{default_specs, run_bless, FixtureSpec};
use spotweb_lint::manifest::{self, Manifest};

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
    // The workspace lint report regenerates last: its content reflects
    // manifest consistency, so every other entry must settle first.
    assert_eq!(names.last(), Some(&"lint_report.json"));
}

#[test]
fn generators_reproduce_the_on_disk_goldens() {
    // Byte-fidelity for the cheap generators: blessing an unchanged
    // fixture must be a digest no-op. (The sweep/tournament generators
    // are exercised end-to-end by tests/runner_perf.rs and
    // tests/tournament.rs; the lint reports by tests/lint.rs.)
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
