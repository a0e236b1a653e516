//! Replays the frozen fuzz corpus in `tests/fuzz_corpus/`.
//!
//! Each case is a deterministic abuse of a golden snapshot (truncation,
//! magic/version/checksum tampering, directory corruption, tree-row
//! corruption — see `cc_analyze::fuzz::emit_corpus`), and `MANIFEST.tsv`
//! pins the *exact* typed error it must produce; a tree parent cycle,
//! which passes the section checks, instead pins how many routes the
//! loaded oracle refuses. A drift in any loader's rejection behavior — a
//! new panic, a weaker error, or a case that suddenly loads — fails here
//! with the case name. `proto__*.bin` cases are corrupt `ccd` wire
//! bursts (length-prefix lies, truncated batches, req_id collisions)
//! replayed through the framing validator instead of the snapshot
//! loaders. Regenerate intentionally with:
//! `cargo run -p cc-analyze -- fuzz --emit-corpus tests/fuzz_corpus`.

use std::path::Path;

use cc_core::DistOracle;

#[test]
fn every_frozen_case_reproduces_its_pinned_error() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let manifest =
        std::fs::read_to_string(dir.join("MANIFEST.tsv")).expect("tests/fuzz_corpus/MANIFEST.tsv");

    let mut cases = 0;
    let mut proto_cases = 0;
    let mut loaded_cases = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (file, expected) = line
            .split_once('\t')
            .unwrap_or_else(|| panic!("malformed manifest line: {line:?}"));
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));

        if file.starts_with("proto__") {
            match std::panic::catch_unwind(|| cc_analyze::fuzz::check_frames(&bytes)) {
                Ok(Err(e)) => assert_eq!(
                    e, expected,
                    "{file}: diagnostic drifted from the pinned manifest entry"
                ),
                Ok(Ok(n)) => panic!("{file}: corrupt burst parsed cleanly ({n} frames)"),
                Err(_) => panic!("{file}: framing validator panicked"),
            }
            cases += 1;
            proto_cases += 1;
            continue;
        }

        let got = std::panic::catch_unwind(|| cc_analyze::fuzz::load_outcome(&bytes));
        match got {
            Ok(Err(e)) => assert_eq!(
                e.to_string(),
                expected,
                "{file}: error drifted from the pinned manifest entry"
            ),
            // A parent cycle loads; its routes must be refused, as pinned.
            Ok(Ok(outcome)) => {
                assert_eq!(outcome, expected, "{file}: loaded with other routes");
                assert_ne!(
                    outcome,
                    cc_analyze::fuzz::loaded_outcome(0),
                    "{file}: corrupt snapshot loaded cleanly"
                );
                loaded_cases += 1;
            }
            Err(_) => panic!("{file}: loader panicked instead of returning a typed error"),
        }
        cases += 1;
    }
    assert_eq!(cases, 39, "corpus drifted: {cases} cases replayed");
    assert_eq!(loaded_cases, 1, "one case (the tree parent cycle) loads");
    assert!(
        proto_cases >= 6,
        "protocol corpus went missing: only {proto_cases} proto cases replayed"
    );
}

#[test]
fn golden_snapshots_still_load_cleanly() {
    // The inverse guard: the corpus generator's bases must stay valid, or
    // the abuse cases above are testing mutations of garbage.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut loaded = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/golden") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "snap") {
            let bytes = std::fs::read(&path).expect("read golden");
            // v255 is the deliberate future-version fixture; it must be
            // rejected, not loaded.
            if path.to_string_lossy().contains("v255") {
                assert!(DistOracle::from_snapshot_bytes(&bytes).is_err());
            } else {
                DistOracle::from_snapshot_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                loaded += 1;
            }
        }
    }
    assert_eq!(loaded, 3, "golden corpus drifted: {loaded} loaded");
}

/// Every single-bit flip of every loadable golden is refused with a typed
/// error and no panic: the checksum catches any change confined to one
/// aligned word, and flips of the magic or version are named as such.
#[test]
fn every_single_bit_flip_of_a_golden_is_refused() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in [
        "oracle_rowsparse_v4.snap",
        "oracle_symmetric_v4.snap",
        "paths_v4.snap",
    ] {
        let bytes = std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            let (at, mask) = (bit / 8, 1u8 << (bit % 8));
            flipped[at] ^= mask;
            match std::panic::catch_unwind(|| DistOracle::from_snapshot_bytes(&flipped)) {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!("{name}: bit {bit} flipped and the file still loaded"),
                Err(_) => panic!("{name}: bit {bit} flipped panicked the loader"),
            }
            flipped[at] ^= mask;
        }
    }
}
