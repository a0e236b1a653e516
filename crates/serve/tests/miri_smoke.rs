//! The mmap-free load path, provable under Miri.
//!
//! `cc_serve::mmap` is compiled out under Miri (`cfg(all(unix, not(miri)))`)
//! because raw `mmap(2)` is outside Miri's model; `open_owner` then takes
//! the `AlignedBytes` read-copy fallback. This test pins that contract
//! both ways: under Miri (run with `MIRIFLAGS=-Zmiri-disable-isolation`
//! for file access) the fallback must engage and serve byte-identical
//! answers; on a plain Unix host the real map must engage. Either way the
//! whole v2 zero-copy load path — open, sniff, section validation, typed
//! views — runs on top of whichever owner the platform provides.

use cc_core::{DistOracle, DistanceMatrix, Guarantee};
use cc_graphs::StorageKind;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cc_serve_miri_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn v2_snapshot_loads_and_answers_without_mmap() {
    let n = 6;
    let mut m = DistanceMatrix::new(n);
    for u in 0..n {
        for v in 0..n {
            m.improve(u, v, u.abs_diff(v) as cc_graphs::Dist);
        }
    }
    let oracle = DistOracle::from_matrix(&m, Guarantee::mult3(0.25), StorageKind::SymmetricPacked);

    let path = tmp_path("smoke_v2.snap");
    oracle.save_v2_to_path(&path).expect("write v2 snapshot");

    let opened = cc_serve::snapshot::open(&path).expect("open v2 snapshot");
    // Under Miri the mmap module does not exist, so the owner MUST be the
    // aligned read-copy; on a normal Unix host it must be the real map.
    if cfg!(miri) {
        assert!(
            !opened.mapped,
            "Miri build took an mmap path that cannot exist"
        );
    } else if cfg!(unix) {
        assert!(opened.mapped, "v2 load fell off the zero-copy fast path");
    }
    assert_eq!(opened.oracles.n(), n);

    // Answers through whichever owner engaged must match the source.
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                opened.oracles.dist(u, v).map(|e| e.dist),
                Some(u.abs_diff(v) as cc_graphs::Dist),
                "({u},{v})"
            );
        }
    }

    std::fs::remove_file(&path).ok();
}
