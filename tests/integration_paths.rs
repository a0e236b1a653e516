#![allow(clippy::needless_range_loop)]
//! End-to-end tests of the route-serving subsystem: every reconstructed
//! route is verified edge-by-edge against the input graph, weight-checked
//! against both the frozen estimate and the tagged guarantee (with
//! `dijkstra::sssp_tree` as the exact reference), served lock-free from
//! concurrent threads, and round-tripped through the versioned `CCRO`
//! snapshot format (including checked-in golden files).

use std::path::PathBuf;
use std::sync::Arc;

use congested_clique::core::oracle::{DistOracle, SnapshotError};
use congested_clique::core::path_oracle::PathProvider;
use congested_clique::graphs::dijkstra;
use congested_clique::prelude::*;
use congested_clique::routes::{PathStore, RowStore, TreeRows, Unroller};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Checks one route end-to-end: a real chained walk in `g` from `u` to `v`,
/// `weight` equal to the walk's exact weight in `G`, bounded by the tagged
/// estimate, and within the tagged guarantee of the exact distance (from the
/// shortest-path-tree reference).
fn assert_route(g: &Graph, tree: &dijkstra::ShortestPathTree, route: &Route, est: PointEstimate) {
    let (u, v) = (route.src as usize, route.dst as usize);
    assert_eq!(tree.src(), u, "caller passes the tree rooted at src");
    if u == v {
        assert!(route.edges.is_empty());
        assert_eq!(route.weight, 0);
        return;
    }
    assert_eq!(route.edges[0].0 as usize, u, "walk starts at src");
    assert_eq!(route.edges[route.edges.len() - 1].1 as usize, v);
    for w in route.edges.windows(2) {
        assert_eq!(w[0].1, w[1].0, "consecutive edges share their vertex");
    }
    for &(x, y) in &route.edges {
        assert!(
            g.has_edge(x as usize, y as usize),
            "({x},{y}) is not an edge of G"
        );
    }
    // Unweighted G: the exact weight of the walk is its edge count.
    assert_eq!(route.weight, route.edges.len() as Dist, "weight is exact");
    let exact = tree.dist(v);
    assert!(route.weight >= exact, "a real walk cannot undercut d_G");
    assert!(route.weight <= est.dist, "route heavier than its estimate");
    assert!(
        (route.weight as f64) <= est.guarantee.bound(exact) + 1e-9,
        "route at ({u},{v}) breaks its tagged guarantee: weight {} vs bound {}",
        route.weight,
        est.guarantee.bound(exact)
    );
    assert_eq!(route.guarantee, est.guarantee, "route and dist tags agree");
}

/// Routes from a full multi-pipeline session are verified pair-by-pair.
/// The random tree under the paper profile is the input whose apsp2 Case 3b
/// product (E'' border edges of low-degree vertices) is non-empty, so its
/// routes are assembled from the sparse kernel's witnesses.
#[test]
fn session_routes_are_verified_against_dijkstra() {
    let tree = generators::random_tree(48, &mut ChaCha8Rng::seed_from_u64(5));
    for (g, profile) in [
        (generators::caveman(7, 7), ParamProfile::Scaled),
        (tree, ParamProfile::Paper { levels: 2 }),
    ] {
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(21))
            .profile(profile)
            .record_paths(true)
            .build()
            .expect("valid configuration");
        solver.apsp_2eps().expect("apsp2");
        solver.apsp_near_additive().expect("additive");
        solver.mssp(&[0, 13, 26, 39]).expect("mssp");
        let oracle = solver.freeze().expect("paths recorded");
        let wg = WeightedGraph::from_unweighted(&g);
        for u in 0..g.n() {
            let tree = dijkstra::sssp_tree(&wg, u);
            for v in 0..g.n() {
                let est = oracle.dist(u, v);
                let route = oracle.path(u, v);
                assert_eq!(est.is_some(), route.is_some(), "coverage at ({u},{v})");
                if let (Some(route), Some(est)) = (route, est) {
                    assert_route(&g, &tree, &route, est);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Over random gnp / grid / caveman graphs and both execution modes:
    /// every `DistOracle::path(u, v)` is a real walk in G whose exact
    /// weight equals `Route::weight`, is ≤ the tagged `PointEstimate`, and
    /// satisfies the tagged guarantee vs the Dijkstra reference.
    #[test]
    fn every_route_is_a_real_guaranteed_walk(
        (family, size, seed, det) in (0usize..3, 0usize..4, 0u64..1 << 16, 0u8..2)
    ) {
        let deterministic = det == 1;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = match family {
            0 => generators::connected_gnp(24 + 6 * size, 0.09, &mut rng),
            1 => generators::grid(4 + size, 5),
            _ => generators::caveman(3 + size, 5),
        };
        let execution = if deterministic {
            Execution::Deterministic
        } else {
            Execution::Seeded(seed)
        };
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(execution)
            .record_paths(true)
            .build()
            .expect("valid configuration");
        // Alternate which pipelines feed the oracle.
        match seed % 3 {
            0 => {
                solver.apsp_3eps().expect("apsp3");
            }
            1 => {
                solver.apsp_2eps().expect("apsp2");
                solver.mssp(&[0, g.n() / 2]).expect("mssp");
            }
            _ => {
                solver.apsp_near_additive().expect("additive");
                solver.mssp(&[1, g.n() - 1]).expect("mssp");
            }
        }
        let oracle = solver.freeze().expect("paths recorded");
        let wg = WeightedGraph::from_unweighted(&g);
        for u in 0..g.n() {
            let tree = dijkstra::sssp_tree(&wg, u);
            for v in 0..g.n() {
                let est = oracle.dist(u, v);
                let route = oracle.path(u, v);
                prop_assert_eq!(est.is_some(), route.is_some(), "coverage ({},{})", u, v);
                if let (Some(route), Some(est)) = (route, est) {
                    assert_route(&g, &tree, &route, est);
                }
            }
        }
    }
}

/// Pseudo-random query pairs for thread `t` — reproducible, so a serial
/// replay regenerates exactly the same stream.
fn query_stream(t: u64, n: usize, queries: usize) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0A7 ^ t);
    (0..queries)
        .map(|_| (rng.gen_range(0..n + 2), rng.gen_range(0..n + 2)))
        .collect()
}

/// 8 threads hammer one `Arc<DistOracle>`; every answer stream (routes and
/// distances) must be bit-identical to a serial replay.
#[test]
fn concurrent_route_serving_is_bit_identical_to_serial_replay() {
    let g = generators::caveman(6, 6);
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(17))
        .record_paths(true)
        .build()
        .expect("valid configuration");
    solver.apsp_3eps().expect("apsp3");
    solver.mssp(&[0, 18]).expect("mssp");
    let oracle = Arc::new(solver.freeze().expect("paths recorded"));
    let n = oracle.n();
    let threads = 8u64;
    let queries = 300;
    let concurrent: Vec<Vec<Option<Route>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let oracle = Arc::clone(&oracle);
                scope.spawn(move || oracle.path_batch(&query_stream(t, n, queries)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in concurrent.into_iter().enumerate() {
        let want = oracle.path_batch(&query_stream(t as u64, n, queries));
        assert_eq!(got, want, "thread {t} diverged from the serial replay");
    }
}

// ── Snapshot format golden files ─────────────────────────────────────────
//
// `tests/golden/paths_v4.snap` gates the CCRO wire format the same way the
// `oracle_*_v4.snap` files gate CCDO: `load` must reproduce the reference
// oracle and `save_v2` must reproduce the file byte-for-byte. The reference is
// hand-constructed (not pipeline output), so it only changes when the
// *format* changes — which requires a version bump and fresh goldens
// (regenerate with `cargo test --test integration_paths -- --ignored`).

/// Deterministic hand-built reference: a 10-path with one pair store and
/// one row store, exercising every wire tag (None/Rec/Rec-rev/Via/Tree,
/// row None/Some, Edge/Cat/Rev nodes) and tree rows with a flagged hop:
/// the trees are the Dijkstra trees of the path plus a weight-2 shortcut
/// `(0, 3)`, whose route is the walk 0-1-2-3 in the store's arena.
fn reference_path_oracle() -> DistOracle {
    let n = 10;
    let g = generators::path(n);
    let mut pairs = PathStore::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if (u, v) == (0, 9) || (u + v) % 3 == 0 {
                continue; // witnessed below by a midpoint or a tree
            }
            let verts: Vec<u32> = (u as u32..=v as u32).collect();
            pairs.set_walk(&g, &verts);
        }
    }
    // Pin the Via wire tag: (0,9) decomposes through 4, whose two halves
    // are already witnessed.
    pairs.set_via(0, 9, 4);
    let mut shortcut = Unroller::new();
    let walk = shortcut.intern_walk(&g, &[0, 1, 2, 3]).expect("a G walk");
    shortcut.register(0, 3, walk);
    pairs.absorb_routes(&shortcut);
    let (_, hop, _) = pairs.routes().rec_between(0, 3).expect("absorbed");
    let mut over: Vec<(usize, usize, Dist)> = (0..n - 1).map(|v| (v, v + 1, 1)).collect();
    over.push((0, 3, 2));
    let over = WeightedGraph::from_edges(n, &over);
    let mut parents = vec![0u32; n * n];
    for (s, row) in parents.chunks_mut(n).enumerate() {
        TreeRows::write_row(row, &dijkstra::sssp_with_parents(&over, s).1, &g);
    }
    pairs.set_trees(Arc::new(TreeRows::new(n, parents, vec![(0, 3, hop)])));
    let mut rows = RowStore::new(n, &[3, 8]);
    for (i, s) in [3usize, 8].into_iter().enumerate() {
        for v in 0..n {
            if v == s {
                continue;
            }
            let verts: Vec<u32> = if v > s {
                (s as u32..=v as u32).collect()
            } else {
                (v as u32..=s as u32).rev().collect()
            };
            // Leave one cell unwitnessed per row to pin the None tag.
            if v != 9 - i {
                rows.set_walk(&g, i, &verts);
            }
        }
    }
    let mut m = DistanceMatrix::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                m.improve(u, v, u.abs_diff(v) as Dist);
            }
        }
    }
    let dist = DistOracle::from_matrix(&m, Guarantee::mult2(0.5), StorageKind::SymmetricPacked);
    // Pairs serve everything except the rows of source 3, which the row
    // store serves (provider 1).
    let mut origins = vec![0u8; n * (n + 1) / 2];
    for v in 0..n {
        if v != 3 && v != 6 {
            origins[DistStorage::packed_index(n, 3, v)] = 1;
        }
    }
    dist.with_routes(
        origins,
        vec![
            PathProvider::Pairs(Arc::new(pairs)),
            PathProvider::Rows(Arc::new(rows)),
        ],
    )
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The crafted v255 `CCDO` golden: a future-version snapshot must be turned
/// away as `UnsupportedVersion` with the pinned message — never reported as
/// a checksum mismatch (the old loader verified the checksum first and
/// produced exactly that misleading error).
#[test]
fn golden_v255_snapshot_reports_unsupported_version() {
    let path = golden_dir().join("oracle_v255.snap");
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); regenerate with \
             `cargo test --test integration_paths -- --ignored`"
        )
    });
    let err = DistOracle::from_snapshot_bytes(&bytes).expect_err("v255 must not load");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(255)),
        "got {err:?}"
    );
    assert_eq!(err.to_string(), "unsupported snapshot version 255");
    // The CCRO magic takes the same order.
    let mut ccro = bytes.clone();
    ccro[..4].copy_from_slice(b"CCRO");
    let err = DistOracle::from_snapshot_bytes(&ccro).expect_err("v255 must not load");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(255)));
}

/// The crafted v255 bytes: valid magic, version 255, an arbitrary body and
/// a trailing checksum a *future* format might or might not use — this
/// build must reject on version before ever looking at it.
fn crafted_v255_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"CCDO");
    bytes.extend_from_slice(&255u16.to_le_bytes());
    bytes.extend_from_slice(&[0x5A; 24]);
    bytes.extend_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
    bytes
}

/// The retired format-2 fixture, kept from before the checksum changed:
/// its version is refused before the checksum is computed, for both the
/// file's own `CCDO` magic and a `CCRO` one.
#[test]
fn retired_v2_golden_reports_unsupported_version() {
    let bytes = std::fs::read(golden_dir().join("retired/oracle_symmetric_v2.snap"))
        .expect("the retired v2 fixture");
    let err = DistOracle::from_snapshot_bytes(&bytes).expect_err("v2 must not load");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(2)),
        "got {err:?}"
    );
    assert_eq!(err.to_string(), "unsupported snapshot version 2");
    let mut ccro = bytes.clone();
    ccro[..4].copy_from_slice(b"CCRO");
    let err = DistOracle::from_snapshot_bytes(&ccro).expect_err("v2 must not load");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(2)));
}

/// The retired format-3 CCRO fixture, kept from before the tree sections
/// and the eight-lane checksum: refused by its version like v2.
#[test]
fn retired_v3_golden_reports_unsupported_version() {
    let bytes =
        std::fs::read(golden_dir().join("retired/paths_v3.snap")).expect("the retired v3 fixture");
    let err = DistOracle::from_snapshot_bytes(&bytes).expect_err("v3 must not load");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(3)),
        "got {err:?}"
    );
    assert_eq!(err.to_string(), "unsupported snapshot version 3");
}

/// The CCRO golden: bit-exact load and byte-exact re-save, and every route
/// of the loaded oracle the reference's, the tree routes over the flagged
/// hop included.
#[test]
fn golden_ccro_snapshot_round_trips_bit_identically() {
    let reference = reference_path_oracle();
    let tree_route = reference.path(6, 0).expect("a tree witness");
    assert_eq!(tree_route.vertices(), vec![6, 5, 4, 3, 2, 1, 0]);
    let path = golden_dir().join("paths_v4.snap");
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); regenerate with \
             `cargo test --test integration_paths -- --ignored`"
        )
    });
    let loaded = DistOracle::from_snapshot_bytes(&bytes).expect("v4 golden parses");
    assert_eq!(loaded, reference, "loaded oracle differs from reference");
    let mut resaved = Vec::new();
    reference.save_v2(&mut resaved).expect("save to memory");
    assert_eq!(
        resaved, bytes,
        "save_v2() output changed — snapshot format CCRO v4 is frozen; \
         bump the version instead"
    );
    for u in 0..reference.n() {
        for v in 0..reference.n() {
            assert_eq!(loaded.path(u, v), reference.path(u, v), "({u},{v})");
        }
    }
}

/// The one loader reads both golden magics: the `CCDO` file without
/// routes, the `CCRO` file with them.
#[test]
fn one_loader_reads_both_golden_magics() {
    for (file, routes) in [("oracle_symmetric_v4.snap", false), ("paths_v4.snap", true)] {
        let bytes = std::fs::read(golden_dir().join(file)).expect("golden file");
        let oracle = DistOracle::from_snapshot_bytes(&bytes).expect("golden loads");
        assert_eq!(oracle.paths().is_some(), routes, "{file}");
        let mut resaved = Vec::new();
        oracle.save_v2(&mut resaved).expect("save to memory");
        assert_eq!(resaved, bytes, "{file}: the saver picks the same magic");
    }
}

/// Regenerates the golden files. Only run deliberately (after a format
/// version bump): `cargo test --test integration_paths -- --ignored`.
#[test]
#[ignore = "writes tests/golden; run only to regenerate after a format bump"]
fn regenerate_golden_paths_snapshots() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let reference = reference_path_oracle();
    reference
        .save_v2_to_path(dir.join("paths_v4.snap"))
        .expect("write v4 golden");
    std::fs::write(dir.join("oracle_v255.snap"), crafted_v255_bytes()).expect("write golden");
}

/// CCRO snapshots survive a filesystem round trip for a real recorded
/// session (multi-pipeline, tagged).
#[test]
fn session_ccro_snapshot_round_trips_on_disk() {
    let g = generators::caveman(5, 5);
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(4))
        .record_paths(true)
        .build()
        .unwrap();
    solver.apsp_2eps().unwrap();
    solver.mssp(&[0, 12]).unwrap();
    let oracle = solver.freeze().unwrap();
    let path = std::env::temp_dir().join(format!("ccro_roundtrip_{}.snap", std::process::id()));
    oracle.save_v2_to_path(&path).expect("write snapshot");
    let back = DistOracle::load_from_path(&path).expect("read snapshot");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, oracle);
    for u in (0..back.n()).step_by(2) {
        for v in (0..back.n()).step_by(3) {
            assert_eq!(back.path(u, v), oracle.path(u, v), "({u},{v})");
        }
    }
}
