//! Hot-reload semantics over loopback TCP: N clients querying across M
//! snapshot swaps, with exact accounting — every request answered, every
//! answer bit-identical to one of the published snapshot generations,
//! corrupt and resized files refused while the old generation serves.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cc_core::{DistOracle, DistanceMatrix, Guarantee, PointEstimate, SnapshotError};
use cc_graphs::StorageKind;
use cc_serve::{
    server, snapshot, Client, OpenError, ReloadConfig, ReloadError, ServerConfig, Status,
};

/// A CCDO oracle with `dist(u, v) = |u - v| * scale`: answers from
/// different `scale`s are bit-distinguishable, so a response proves which
/// snapshot generation produced it.
fn scaled_oracle(n: usize, scale: u32) -> DistOracle {
    let mut m = DistanceMatrix::new(n);
    for u in 0..n {
        for v in 0..n {
            m.improve(u, v, u.abs_diff(v) as u32 * scale);
        }
    }
    DistOracle::from_matrix(&m, Guarantee::mult2(0.25), StorageKind::SymmetricPacked)
}

/// Publishes `oracle` at `path` the way a deploy would: `save_v2_to_path`
/// is atomic (temp + fsync + rename), so a concurrent reload observes
/// either the old or the new file, never a torn one.
fn publish(oracle: &DistOracle, path: &Path) {
    oracle.save_v2_to_path(path).unwrap();
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc_serve_reload_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("oracle.ccdo")
}

fn serve_reloadable(
    path: &Path,
    config: ServerConfig,
) -> (server::ServerHandle, std::net::SocketAddr) {
    let opened = snapshot::open(path).unwrap();
    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            reload: Some(ReloadConfig::at(path)),
            ..config
        },
    )
    .unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn pairs_for(seed: u64, n: usize, count: usize) -> Vec<(u32, u32)> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let r = next();
            ((r % n as u64) as u32, ((r >> 32) % n as u64) as u32)
        })
        .collect()
}

/// Which reference a served batch matches, bit for bit. A batch that
/// matches neither — or mixes generations within one response — fails.
fn classify(
    got: &[Option<PointEstimate>],
    pairs: &[(u32, u32)],
    refs: &[DistOracle],
) -> Option<usize> {
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    refs.iter().position(|r| r.dist_batch(&upairs) == *got)
}

#[test]
fn clients_across_reloads_see_whole_generations_with_exact_accounting() {
    const N: usize = 64;
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 24;
    const RELOADS: u64 = 8;

    let gen_a = scaled_oracle(N, 1);
    let gen_b = scaled_oracle(N, 2);
    let path = temp_path("swap");
    publish(&gen_a, &path);
    let (handle, addr) = serve_reloadable(
        &path,
        ServerConfig {
            threads: 2,
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    );
    assert_eq!(handle.generation(), 1);

    // The reloader: publish B, A, B, … and swap after each publish.
    // Generations must come back strictly increasing.
    let reloader = {
        let path = path.clone();
        let gen_a = scaled_oracle(N, 1);
        let gen_b = scaled_oracle(N, 2);
        std::thread::spawn(move || {
            let mut admin = Client::connect(addr).unwrap();
            let mut last_gen = 1;
            for round in 0..RELOADS {
                publish(
                    if round.is_multiple_of(2) {
                        &gen_b
                    } else {
                        &gen_a
                    },
                    &path,
                );
                let info = admin
                    .reload()
                    .expect("admin transport")
                    .expect("valid snapshot accepted");
                assert!(info.generation > last_gen, "generations advance");
                assert_eq!(info.n as usize, N);
                last_gen = info.generation;
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let refs = vec![scaled_oracle(N, 1), scaled_oracle(N, 2)];
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0u64;
                for round in 0..ROUNDS {
                    let pairs = pairs_for(c * 7919 + round, N, 32);
                    let got = client
                        .dist_batch(&pairs, 0)
                        .expect("transport stays up — no faults in this suite")
                        .expect("queue sized to never shed");
                    assert!(
                        classify(&got, &pairs, &refs).is_some(),
                        "answers must match one whole generation, client {c} round {round}"
                    );
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    let mut total_ok = 0;
    for c in clients {
        total_ok += c.join().unwrap();
    }
    reloader.join().unwrap();

    // Exact reconciliation: every query answered Ok, none shed, none
    // dropped; every reload accepted; generation advanced once each.
    assert_eq!(total_ok, CLIENTS * ROUNDS);
    let stats = handle.stats();
    assert_eq!(stats.served, CLIENTS * ROUNDS);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.reloads_ok, RELOADS);
    assert_eq!(stats.reloads_rejected, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.generation, 1 + RELOADS);

    // Post-storm: a fresh query answers bit-identical to the last
    // published snapshot (B for even RELOADS…, which ended on round 7 → A).
    let last = if (RELOADS - 1).is_multiple_of(2) {
        &gen_b
    } else {
        &gen_a
    };
    let mut client = Client::connect(addr).unwrap();
    let pairs = pairs_for(0xfeed, N, 48);
    let got = client.dist_batch(&pairs, 0).unwrap().unwrap();
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    assert_eq!(got, last.dist_batch(&upairs), "post-swap serial replay");
    drop(gen_b);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_files_are_quarantined_and_the_old_generation_keeps_serving() {
    const N: usize = 32;
    let gen_a = scaled_oracle(N, 1);
    let path = temp_path("corrupt");
    publish(&gen_a, &path);
    let (handle, addr) = serve_reloadable(&path, ServerConfig::default());

    // Publish garbage *by rename*, like any publish: the serving
    // generation's mmap aliases the old inode, which must stay intact —
    // clobbering the serving path in place would SIGBUS every worker, and
    // is exactly what the atomic-write discipline exists to forbid.
    let garbage = path.with_file_name("garbage.tmp");
    std::fs::write(&garbage, b"CCDO\x02\x00garbage-that-is-not-a-snapshot").unwrap();
    std::fs::rename(&garbage, &path).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let refused = admin.reload().expect("transport");
    assert_eq!(refused, Err(Status::ReloadRejected));

    // The bad file was renamed aside; the old generation still serves.
    let quarantined = path.with_file_name("oracle.ccdo.quarantined");
    assert!(quarantined.exists(), "corrupt file quarantined aside");
    assert!(!path.exists(), "serving path is clean for the next publish");
    let pairs = pairs_for(7, N, 16);
    let got = admin.dist_batch(&pairs, 0).unwrap().unwrap();
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    assert_eq!(got, gen_a.dist_batch(&upairs));

    // A version-1 frame (the retired streaming format) is refused by its
    // version, which is checked before the checksum, and quarantined the
    // same way while the old generation keeps serving.
    let mut v1 = Vec::new();
    gen_a.save_v2(&mut v1).unwrap();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&garbage, &v1).unwrap();
    std::fs::rename(&garbage, &path).unwrap();
    match handle.trigger_reload() {
        Err(ReloadError::Open(OpenError::Quarantined {
            reason: SnapshotError::UnsupportedVersion(1),
            quarantined_to,
        })) => assert_eq!(quarantined_to, quarantined),
        other => panic!("version-1 frame was not refused by version: {other:?}"),
    }
    assert_eq!(std::fs::read(&quarantined).unwrap(), v1);
    assert!(!path.exists(), "serving path is clean for the next publish");
    let got = admin.dist_batch(&pairs, 0).unwrap().unwrap();
    assert_eq!(got, gen_a.dist_batch(&upairs));

    let stats = handle.stats();
    assert_eq!(stats.generation, 1, "no swap on refusal");
    assert_eq!(stats.reloads_ok, 0);
    assert_eq!(stats.reloads_rejected, 2);

    // Republish a good file at the (now clean) path: reload succeeds.
    publish(&gen_a, &path);
    let info = admin.reload().unwrap().expect("good file accepted");
    assert_eq!(info.generation, 2);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&quarantined).ok();
}

#[test]
fn resizes_are_refused_unless_explicitly_allowed() {
    const N: usize = 24;
    let gen_a = scaled_oracle(N, 1);
    let bigger = scaled_oracle(N + 16, 1);
    let path = temp_path("resize");
    publish(&gen_a, &path);

    // Default: a dimension change is refused and nothing is quarantined
    // (the file is valid — it is the *deploy* that looks wrong).
    let (handle, addr) = serve_reloadable(&path, ServerConfig::default());
    publish(&bigger, &path);
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.reload().unwrap(), Err(Status::ReloadRejected));
    assert!(path.exists(), "valid-but-resized file is not quarantined");
    let v = admin.version().unwrap();
    assert_eq!((v.generation, v.n as usize), (1, N));
    handle.shutdown();

    // Opt-in: --allow-resize accepts the same file.
    publish(&gen_a, &path);
    let opened = snapshot::open(&path).unwrap();
    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            reload: Some(ReloadConfig {
                allow_resize: true,
                ..ReloadConfig::at(&path)
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut admin = Client::connect(handle.addr()).unwrap();
    publish(&bigger, &path);
    let info = admin
        .reload()
        .unwrap()
        .expect("resize accepted when opted in");
    assert_eq!((info.generation, info.n as usize), (2, N + 16));
    let v = admin.version().unwrap();
    assert_eq!(v.n as usize, N + 16);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_op_reports_generation_and_dimensions() {
    const N: usize = 16;
    let gen_a = scaled_oracle(N, 1);
    let path = temp_path("version");
    publish(&gen_a, &path);
    let (handle, addr) = serve_reloadable(&path, ServerConfig::default());

    let mut client = Client::connect(addr).unwrap();
    let v = client.version().unwrap();
    assert_eq!((v.generation, v.n as usize), (1, N));
    publish(&gen_a, &path);
    client.reload().unwrap().expect("reload");
    let v = client.version().unwrap();
    assert_eq!((v.generation, v.n as usize), (2, N));
    assert_eq!(handle.generation(), 2);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
