#![allow(clippy::needless_range_loop)]
//! End-to-end tests of the frozen `DistOracle` query layer: lock-free
//! concurrent reads, per-answer stretch guarantees against exact Dijkstra
//! ground truth across both storage layouts, and the versioned
//! snapshot format (including checked-in golden files).

use std::path::PathBuf;
use std::sync::Arc;

use congested_clique::core::oracle::{DistOracle, Guarantee};
use congested_clique::graphs::dijkstra;
use congested_clique::prelude::*;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Pseudo-random query pairs for thread `t` — reproducible, so a serial
/// replay can regenerate exactly the same stream.
fn query_stream(t: u64, n: usize, batches: usize, batch: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE ^ t);
    (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| (rng.gen_range(0..n + 2), rng.gen_range(0..n + 2)))
                .collect()
        })
        .collect()
}

/// ≥ 8 threads hammer one `Arc<DistOracle>` with randomized batches; every
/// answer stream must be bit-identical to a serial replay of the same
/// stream (values *and* provenance tags).
#[test]
fn concurrent_batches_are_bit_identical_to_serial_replay() {
    let g = generators::caveman(8, 8);
    let mut solver = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Seeded(42))
        .build()
        .expect("valid configuration");
    solver.apsp_2eps().expect("apsp2");
    solver.mssp(&[0, 9, 18, 27]).expect("mssp");
    let oracle = Arc::new(solver.freeze().expect("estimates computed"));
    let n = oracle.n();

    const THREADS: u64 = 8;
    const BATCHES: usize = 64;
    const BATCH: usize = 33;

    // Serial replay first: point queries, one at a time.
    let expected: Vec<Vec<Option<PointEstimate>>> = (0..THREADS)
        .map(|t| {
            query_stream(t, n, BATCHES, BATCH)
                .iter()
                .flat_map(|batch| batch.iter().map(|&(u, v)| oracle.dist(u, v)))
                .collect()
        })
        .collect();

    let answers: Vec<Vec<Option<PointEstimate>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let oracle = Arc::clone(&oracle);
                scope.spawn(move || {
                    query_stream(t, n, BATCHES, BATCH)
                        .iter()
                        .flat_map(|batch| oracle.dist_batch(batch))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });
    for (t, (got, want)) in answers.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "thread {t} diverged from the serial replay");
    }

    // Row and k-nearest queries are deterministic across threads too.
    let (a, b) = std::thread::scope(|scope| {
        let o1 = Arc::clone(&oracle);
        let o2 = Arc::clone(&oracle);
        let h1 = scope.spawn(move || {
            (0..o1.n())
                .map(|u| (o1.dists_from(u).into_owned(), o1.k_nearest(u, 5)))
                .collect::<Vec<_>>()
        });
        let h2 = scope.spawn(move || {
            (0..o2.n())
                .map(|u| (o2.dists_from(u).into_owned(), o2.k_nearest(u, 5)))
                .collect::<Vec<_>>()
        });
        (h1.join().expect("rows"), h2.join().expect("rows"))
    });
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random connected graphs, every frozen answer satisfies the
    /// stretch bound of the guarantee it is tagged with, against exact
    /// Dijkstra distances — in both storage layouts, which must also
    /// agree with each other bit-for-bit.
    #[test]
    fn frozen_answers_satisfy_their_tagged_guarantee(
        (n, p_mill, seed) in (24usize..48, 60u64..140, 0u64..500)
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p_mill as f64 / 1000.0, &mut rng);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(seed))
            .build()
            .unwrap();
        solver.apsp_near_additive().unwrap();
        solver.mssp(&[0, n / 2]).unwrap();
        let frozen = solver.freeze().unwrap();

        let wg = WeightedGraph::from_unweighted(&g);
        let exact: Vec<Vec<Dist>> = (0..n).map(|v| dijkstra::sssp(&wg, v)).collect();

        for kind in [StorageKind::SymmetricPacked, StorageKind::RowSparse] {
            let oracle = frozen.with_layout(kind);
            prop_assert_eq!(oracle.storage_kind(), kind);
            for u in 0..n {
                // Whole-row reads answer what point reads answer, so the
                // bounds checked below hold for them too.
                let row = oracle.dists_from(u);
                prop_assert_eq!(row.len(), n);
                for v in 0..n {
                    let answer = oracle.dist(u, v);
                    prop_assert_eq!(answer, frozen.dist(u, v), "layouts disagree");
                    let est = answer.expect("near-additive APSP covers every pair");
                    prop_assert_eq!(row[v], est.dist, "dists_from({})[{}]", u, v);
                    prop_assert!(
                        est.dist >= exact[u][v],
                        "undercut at ({},{}): {} < {}", u, v, est.dist, exact[u][v]
                    );
                    prop_assert!(
                        (est.dist as f64) <= est.guarantee.bound(exact[u][v]) + 1e-9,
                        "({},{}): estimate {} exceeds {} at d = {}",
                        u, v, est.dist, est.guarantee, exact[u][v]
                    );
                }
            }
        }
    }
}

// ── Snapshot format golden files ─────────────────────────────────────────
//
// The three checked-in `tests/golden/oracle_*_v2.snap` files gate the wire
// format: `load` must reproduce the reference oracle bit-for-bit and
// `save_v2` must reproduce the files byte-for-byte. The reference is
// hand-constructed (not pipeline output), so these only change when the
// *format* changes — which requires a version bump and fresh goldens
// (regenerate with `cargo test --test integration_oracle -- --ignored`).

/// Deterministic hand-built reference estimates (n = 12).
fn reference_matrix() -> DistanceMatrix {
    let mut m = DistanceMatrix::new(12);
    for u in 0..12 {
        for v in (u + 1)..12 {
            if (u * 7 + v * 3) % 5 != 0 {
                m.improve(u, v, ((u + v) % 9 + 1) as Dist);
            }
        }
    }
    m
}

/// The reference oracle for each golden layout, with a distinct guarantee
/// kind per file (`paths_v2.snap`'s embedded oracle pins `mult2`).
fn reference_oracles() -> Vec<(&'static str, DistOracle)> {
    let m = reference_matrix();
    let sym = DistOracle::from_matrix(
        &m,
        Guarantee::near_additive(0.25, 4.0),
        StorageKind::SymmetricPacked,
    );
    let sparse = DistOracle::from_storage(
        DistStorage::row_sparse(12, vec![1, 4, 7], {
            let mut rows = Vec::new();
            for s in [1usize, 4, 7] {
                rows.extend_from_slice(m.row(s));
            }
            rows
        }),
        Guarantee::mssp(0.1),
    );
    vec![("symmetric", sym), ("rowsparse", sparse)]
}

fn golden_v2_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("oracle_{label}_v2.snap"))
}

/// Bit-exact load and byte-exact re-save of every v2 golden.
#[test]
fn golden_v2_snapshots_round_trip_bit_identically() {
    for (label, reference) in reference_oracles() {
        let path = golden_v2_path(label);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); regenerate with `cargo test --test integration_oracle -- --ignored`"));
        let loaded = DistOracle::load(&mut &bytes[..])
            .unwrap_or_else(|e| panic!("{label}: v2 golden no longer parses: {e}"));
        assert_eq!(loaded, reference, "{label}: loaded oracle differs");
        let mut resaved = Vec::new();
        reference.save_v2(&mut resaved).expect("save to memory");
        assert_eq!(
            resaved, bytes,
            "{label}: save_v2() output changed — snapshot format v2 is \
             frozen; bump the version instead"
        );
        for u in 0..reference.n() {
            for v in 0..reference.n() {
                assert_eq!(loaded.dist(u, v), reference.dist(u, v));
            }
        }
    }
}

/// Regenerates the golden files. Only run deliberately (after a format
/// version bump): `cargo test --test integration_oracle -- --ignored`.
#[test]
#[ignore = "writes tests/golden; run only to regenerate after a format bump"]
fn regenerate_golden_snapshots() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for (label, reference) in reference_oracles() {
        reference
            .save_v2_to_path(golden_v2_path(label))
            .expect("write v2 golden");
    }
}

/// Snapshots survive a filesystem round trip in every layout, for a
/// multi-guarantee (tagged) oracle frozen from a real session.
#[test]
fn tagged_session_snapshot_round_trips_on_disk() {
    let g = generators::caveman(6, 6);
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(3))
        .build()
        .unwrap();
    solver.apsp_3eps().unwrap();
    solver.mssp(&[0, 12, 24]).unwrap();
    let frozen = solver.freeze().unwrap();
    assert!(
        frozen.guarantees().len() > 1,
        "session with two pipelines must freeze a tagged oracle"
    );
    let dir = std::env::temp_dir();
    for kind in [StorageKind::SymmetricPacked, StorageKind::RowSparse] {
        let oracle = frozen.with_layout(kind);
        let path = dir.join(format!("cc_oracle_rt_{}.snap", kind.label()));
        oracle.save_v2_to_path(&path).expect("save");
        let back = DistOracle::load_from_path(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, oracle, "{kind:?}");
    }
}
