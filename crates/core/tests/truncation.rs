//! Torn-write regression suite: a snapshot truncated at *any* prefix
//! length must be rejected by every loader — never half-accepted.
//!
//! The writers guarantee a reader can only ever observe a whole file
//! (`write_atomic`: temp + fsync + rename), but defense in depth demands
//! the readers reject a torn file anyway: a pre-atomic-write save, a
//! partial `scp`, or a filesystem that lost the tail after a crash all
//! produce exactly these prefixes.

use std::sync::Arc;

use cc_core::{DistOracle, DistanceMatrix, Guarantee, PathProvider};
use cc_graphs::{Graph, StorageKind};
use cc_routes::PathStore;

/// The same distances without routes (`CCDO`) and with them (`CCRO`).
fn build_oracles(n: usize) -> (DistOracle, DistOracle) {
    let g = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let mut m = DistanceMatrix::new(n);
    let mut store = PathStore::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            m.improve(u, v, (v - u) as u32);
            m.improve(v, u, (v - u) as u32);
            let verts: Vec<u32> = (u as u32..=v as u32).collect();
            store.set_walk(&g, &verts);
        }
    }
    let dist = DistOracle::from_matrix(&m, Guarantee::mult2(0.25), StorageKind::SymmetricPacked);
    let paths = dist.clone().with_routes(
        vec![0u8; n * (n + 1) / 2],
        vec![PathProvider::Pairs(Arc::new(store))],
    );
    (dist, paths)
}

/// Every strict prefix must fail; the whole file must load.
fn assert_all_prefixes_rejected<T, E: std::fmt::Debug>(
    what: &str,
    bytes: &[u8],
    parse: impl Fn(&[u8]) -> Result<T, E>,
) {
    for cut in 0..bytes.len() {
        assert!(
            parse(&bytes[..cut]).is_err(),
            "{what}: truncation at {cut}/{} bytes was accepted",
            bytes.len()
        );
    }
    assert!(
        parse(bytes).is_ok(),
        "{what}: the untruncated snapshot must load"
    );
}

#[test]
fn dist_oracle_v2_rejects_every_truncation() {
    let (dist, _) = build_oracles(10);
    let mut bytes = Vec::new();
    dist.save_v2(&mut bytes).unwrap();
    assert_all_prefixes_rejected("CCDO v2", &bytes, DistOracle::from_snapshot_bytes);
}

#[test]
fn path_oracle_v2_rejects_every_truncation() {
    let (_, paths) = build_oracles(8);
    let mut bytes = Vec::new();
    paths.save_v2(&mut bytes).unwrap();
    assert_all_prefixes_rejected("CCRO v2", &bytes, DistOracle::from_snapshot_bytes);
}

/// The crash-safety contract end to end: interrupt `write_atomic` at any
/// byte (simulated by hand-writing the prefix where the temp file would
/// be renamed from) and the *serving path* never sees a loadable partial
/// file — either the old complete file or the new complete file.
#[test]
fn atomic_save_never_exposes_a_partial_file() {
    let (dist, _) = build_oracles(10);
    let dir = std::env::temp_dir().join(format!("cc_core_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oracle.ccdo");

    // Old generation on disk, then a "crashed" overwrite: the torn bytes
    // land in a temp sibling only; the published path still loads old.
    dist.save_v2_to_path(&path).unwrap();
    let mut new_bytes = Vec::new();
    dist.save_v2(&mut new_bytes).unwrap();
    for cut in [0, 1, new_bytes.len() / 2, new_bytes.len() - 1] {
        let tmp = dir.join("oracle.ccdo.tmp.crashed");
        std::fs::write(&tmp, &new_bytes[..cut]).unwrap();
        // The published file is untouched by the torn temp write.
        DistOracle::load_from_path(&path).expect("published file stays whole");
        std::fs::remove_file(&tmp).unwrap();
    }

    // And a completed save over the same path still loads.
    dist.save_v2_to_path(&path).unwrap();
    DistOracle::load_from_path(&path).expect("rewritten file loads");
    std::fs::remove_file(&path).ok();
}
