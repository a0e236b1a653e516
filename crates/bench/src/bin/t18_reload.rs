//! T18 — hot snapshot reload under load: swap latency tax, zero dropped
//! requests, and a seeded chaos phase.
//!
//! Three phases against a `ccd` server over loopback, serving a
//! memory-mapped v2 `CCDO` snapshot:
//!
//! 1. **Baseline** — `C` clients send dist batches with no reloads;
//!    client-observed p50/p95/p99 is the reference.
//! 2. **Reload storm** — the same traffic while an admin connection
//!    performs ≥10 confirmed hot reloads, alternating between two
//!    bit-distinguishable snapshot generations (dist = `|u−v|` vs
//!    `2|u−v|`). Every response must be `Ok`, bit-identical to one
//!    *whole* generation — zero shed, zero transport errors, zero
//!    dropped in-flight requests — and the storm-phase p50 must stay
//!    within 1.2× of baseline (hot reload is not a stop-the-world).
//!    After the storm, a final reload publishes the base generation and
//!    a serial replay must match it bit for bit.
//! 3. **Seeded chaos** — a compact `FaultPlan` run (worker panics,
//!    connection resets, torn frames both ways) with retrying clients;
//!    the seed is printed as replay coordinates and every outcome is
//!    accounted.
//!
//! One JSON document on stdout; human-readable notes on stderr.
//!
//! Run with: `cargo run --release --bin t18_reload -- [--threads T] [--clients C] [--requests R] [--seed S] [--quick]`

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_core::{DistOracle, DistanceMatrix, Guarantee, PointEstimate};
use cc_graphs::StorageKind;
use cc_obs::{parse_exposition, HistSummary};
use cc_serve::{
    server, snapshot, Client, ClientError, FaultPlan, FaultSite, ReloadConfig, RetryPolicy,
    ServerConfig, Status,
};

/// Deterministic query-pair stream (splitmix-style, no RNG dependency).
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

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders a histogram summary as an all-integer JSON object (quantiles are
/// exact power-of-two bucket uppers, capped at the observed max).
fn hist_json(h: &HistSummary) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        h.count, h.p50, h.p90, h.p99, h.max
    )
}

/// `dist(u, v) = |u − v| * scale`: generations are bit-distinguishable.
fn scaled_oracle(n: usize, scale: u32) -> DistOracle {
    let mut m = DistanceMatrix::new(n);
    for u in 0..n {
        for v in 0..n {
            m.improve(u, v, u.abs_diff(v) as u32 * scale);
        }
    }
    DistOracle::from_matrix(&m, Guarantee::mult2(0.25), StorageKind::SymmetricPacked)
}

fn publish(oracle: &DistOracle, path: &Path) {
    oracle.save_v2_to_path(path).expect("atomic snapshot write");
}

fn matches_generation(
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

/// One client's latency samples for one phase; every answer verified
/// bitwise against a whole generation.
fn traffic_phase(
    addr: std::net::SocketAddr,
    refs: &[DistOracle],
    n: usize,
    id: u64,
    requests: usize,
    batch: usize,
) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut lat = Vec::with_capacity(requests);
    for round in 0..requests {
        let pairs = pairs_for(id * 100_000 + round as u64, n, batch);
        let start = Instant::now();
        let got = client
            .dist_batch(&pairs, 0)
            .expect("no transport faults in the timed phases")
            .expect("queue sized to never shed — zero dropped requests");
        lat.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches_generation(&got, &pairs, refs).is_some(),
            "client {id} round {round}: answer matches no whole snapshot generation"
        );
    }
    lat
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut server_threads = 4usize;
    let mut clients = 0usize;
    let mut requests = 0usize;
    let mut seed = 0x11u64;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                server_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
            }
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients N");
            }
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests N");
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--quick" => quick = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    if clients == 0 {
        clients = (server_threads * 2).max(4);
    }
    if requests == 0 {
        requests = if quick { 150 } else { 600 };
    }
    let n = if quick { 96 } else { 256 };
    let batch = 48usize;

    // ── Snapshot generations on disk. ─────────────────────────────────────
    let gen_a = scaled_oracle(n, 1);
    let snap_path = std::env::temp_dir().join(format!("t18_oracle_{}.ccdo", std::process::id()));
    publish(&gen_a, &snap_path);
    let snap_bytes = std::fs::metadata(&snap_path).expect("stat snapshot").len();
    let opened = snapshot::open(&snap_path).expect("open snapshot");
    let mapped = opened.mapped;

    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: server_threads,
            queue_capacity: 8192,
            batch_max: 64,
            reload: Some(ReloadConfig::at(&snap_path)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // ── Phase 1: baseline, no reloads. ────────────────────────────────────
    let refs_a = [scaled_oracle(n, 1)];
    let mut base_lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let refs_a = &refs_a;
                scope.spawn(move || traffic_phase(addr, refs_a, n, c as u64 + 1, requests, batch))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("baseline client"))
            .collect()
    });
    base_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let base_p50 = percentile(&base_lat, 0.50);

    // ── Phase 2: the same traffic under a reload storm. ───────────────────
    let storm_start = Instant::now();
    let refs_ab = [scaled_oracle(n, 1), scaled_oracle(n, 2)];
    let (mut storm_lat, confirmed_reloads): (Vec<f64>, u64) = std::thread::scope(|scope| {
        let reloader = {
            let snap_path = snap_path.clone();
            let gens = [scaled_oracle(n, 1), scaled_oracle(n, 2)];
            scope.spawn(move || {
                let mut admin = Client::connect(addr).expect("admin connect");
                let mut confirmed = 0u64;
                for round in 0..u64::MAX {
                    if confirmed >= 10 && storm_start.elapsed() > Duration::from_millis(50) {
                        break;
                    }
                    publish(&gens[(1 + round as usize) % 2], &snap_path);
                    let info = admin
                        .reload()
                        .expect("admin transport")
                        .expect("valid snapshot accepted");
                    assert_eq!(info.n as usize, n);
                    confirmed += 1;
                    std::thread::sleep(Duration::from_millis(3));
                }
                confirmed
            })
        };
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let refs_ab = &refs_ab;
                scope.spawn(move || {
                    traffic_phase(addr, refs_ab, n, 1000 + c as u64, requests, batch)
                })
            })
            .collect();
        let lat = handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm client"))
            .collect();
        (lat, reloader.join().expect("reloader"))
    });
    storm_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let storm_p50 = percentile(&storm_lat, 0.50);
    assert!(confirmed_reloads >= 10, "need ≥10 confirmed hot reloads");

    let stats = handle.stats();
    assert_eq!(
        stats.shed, 0,
        "zero dropped or shed requests during reloads"
    );
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.worker_panics, 0, "no faults armed yet");
    assert_eq!(
        stats.served,
        2 * (clients * requests) as u64,
        "every in-flight request during the storm was answered"
    );
    assert_eq!(stats.reloads_ok, confirmed_reloads);

    // The swap is a narrow Arc exchange; in-flight batches finish on
    // their pinned generation. p50 must not regress past 1.2× baseline
    // (a 25µs grace absorbs scheduler noise on near-zero baselines).
    let p50_ratio = storm_p50 / base_p50.max(1.0);
    assert!(
        storm_p50 <= base_p50 * 1.2 + 25.0,
        "reload-storm p50 {storm_p50:.1}us vs baseline {base_p50:.1}us exceeds the 1.2x budget"
    );

    // Post-storm: publish the base generation, reload, serial replay.
    publish(&gen_a, &snap_path);
    let mut probe = Client::connect(addr).expect("probe connect");
    probe.reload().expect("transport").expect("final reload");
    let final_gen = probe.version().expect("version").generation;
    let pairs = pairs_for(0xf17a1, n, 256);
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let got = probe.dist_batch(&pairs, 0).expect("probe").expect("ok");
    assert_eq!(
        got,
        gen_a.dist_batch(&upairs),
        "post-swap answers must be bit-identical to a serial replay"
    );

    // ── Phase 3: seeded chaos (compact; the full suite is `tests/chaos.rs`).
    eprintln!("t18: chaos phase seed {seed:#018x} (replay: --seed {seed})");
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_site(FaultSite::WorkerPanic, 120, 40)
            .with_site(FaultSite::ConnReset, 30, 100)
            .with_site(FaultSite::PartialWrite, 20, 100)
            .with_site(FaultSite::ClientTornWrite, 40, 80),
    );
    let opened = snapshot::open(&snap_path).expect("reopen snapshot");
    let chaos_handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            queue_capacity: 4096,
            batch_max: 4,
            reload: Some(ReloadConfig::at(&snap_path)),
            fault: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .expect("bind chaos server");
    let chaos_addr = chaos_handle.addr();
    let chaos_rounds = if quick { 60 } else { 120 };
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                let plan = Arc::clone(&plan);
                let refs = [scaled_oracle(n, 1)];
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 4,
                        base_delay: Duration::from_millis(1),
                        max_delay: Duration::from_millis(20),
                        jitter_seed: c,
                    };
                    let (mut ok, mut contained, mut unknown) = (0u64, 0u64, 0u64);
                    let mut client = Client::connect(chaos_addr).expect("connect");
                    client.set_fault(Arc::clone(&plan));
                    for round in 0..chaos_rounds {
                        let pairs = pairs_for(c * 7919 + round, n, 16);
                        match client.dist_batch_retry(&pairs, 0, &policy) {
                            Ok(Ok(items)) => {
                                assert!(
                                    matches_generation(&items, &pairs, &refs).is_some(),
                                    "chaos answer diverged (replay: --seed {})",
                                    plan.seed()
                                );
                                ok += 1;
                            }
                            Ok(Err(
                                Status::Internal
                                | Status::Overloaded
                                | Status::DeadlineExceeded
                                | Status::ShuttingDown,
                            )) => contained += 1,
                            Ok(Err(status)) => {
                                panic!("invalid chaos status {status:?} (--seed {})", plan.seed())
                            }
                            Err(ClientError::Protocol(msg)) => {
                                panic!(
                                    "protocol violation under chaos: {msg} (--seed {})",
                                    plan.seed()
                                )
                            }
                            Err(_transport) => {
                                unknown += 1;
                                let mut fresh = Client::connect(chaos_addr).expect("reconnect");
                                fresh.set_fault(Arc::clone(&plan));
                                client = fresh;
                            }
                        }
                    }
                    (ok, contained, unknown)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client"))
            .collect()
    });
    let chaos_ok: u64 = tallies.iter().map(|t| t.0).sum();
    let chaos_contained: u64 = tallies.iter().map(|t| t.1).sum();
    let chaos_unknown: u64 = tallies.iter().map(|t| t.2).sum();
    assert_eq!(chaos_ok + chaos_contained + chaos_unknown, 4 * chaos_rounds);
    let chaos_stats = chaos_handle.stats();
    assert_eq!(
        chaos_stats.worker_panics,
        plan.fires(FaultSite::WorkerPanic)
    );
    chaos_handle.shutdown();

    // Lifecycle histograms from the storm server (`Op::Metrics`): integer
    // exposition, exact bucket-rank quantiles.
    let metrics_text = probe.metrics().expect("metrics op");
    let samples = parse_exposition(&metrics_text);
    let queue_wait =
        cc_obs::text::histogram_summary(&samples, "ccd_queue_wait_ns").expect("histogram exposed");
    let oracle_batch = cc_obs::text::histogram_summary(&samples, "ccd_oracle_batch_ns")
        .expect("histogram exposed");
    assert!(
        queue_wait.count > 0 && oracle_batch.count > 0,
        "baseline + storm traffic must populate the lifecycle histograms"
    );
    handle.shutdown();
    std::fs::remove_file(&snap_path).ok();

    // ── Report. ───────────────────────────────────────────────────────────
    eprintln!(
        "t18: n={n} snapshot={snap_bytes}B mapped={mapped} clients={clients} requests={requests}"
    );
    eprintln!(
        "baseline p50={base_p50:.1}us; storm p50={storm_p50:.1}us over {confirmed_reloads} reloads (ratio {p50_ratio:.2})"
    );
    eprintln!(
        "chaos: ok={chaos_ok} contained={chaos_contained} unknown={chaos_unknown} panics={} resets={}",
        plan.fires(FaultSite::WorkerPanic),
        plan.fires(FaultSite::ConnReset)
    );

    let available_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"t18_reload\",\n");
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!("  \"available_cores\": {available_cores},\n"));
    json.push_str(&format!("  \"server_threads\": {server_threads},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"dist_batch\": {batch},\n"));
    json.push_str(&format!("  \"snapshot_bytes\": {snap_bytes},\n"));
    json.push_str(&format!("  \"snapshot_mapped\": {mapped},\n"));
    json.push_str(&format!("  \"reloads_confirmed\": {confirmed_reloads},\n"));
    json.push_str(&format!("  \"final_generation\": {final_gen},\n"));
    json.push_str(&format!(
        "  \"baseline_latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}},\n",
        percentile(&base_lat, 0.50),
        percentile(&base_lat, 0.95),
        percentile(&base_lat, 0.99)
    ));
    json.push_str(&format!(
        "  \"reload_storm_latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}},\n",
        percentile(&storm_lat, 0.50),
        percentile(&storm_lat, 0.95),
        percentile(&storm_lat, 0.99)
    ));
    json.push_str(&format!("  \"p50_ratio\": {p50_ratio:.3},\n"));
    json.push_str(&format!(
        "  \"queue_wait_ns\": {},\n",
        hist_json(&queue_wait)
    ));
    json.push_str(&format!(
        "  \"oracle_batch_ns\": {},\n",
        hist_json(&oracle_batch)
    ));
    json.push_str("  \"dropped_requests\": 0,\n");
    json.push_str(&format!(
        "  \"chaos\": {{\"seed\": {seed}, \"ok\": {chaos_ok}, \"contained\": {chaos_contained}, \"unknown\": {chaos_unknown}, \"worker_panics\": {}, \"conn_resets\": {}, \"torn_writes\": {}}},\n",
        plan.fires(FaultSite::WorkerPanic),
        plan.fires(FaultSite::ConnReset),
        plan.fires(FaultSite::PartialWrite) + plan.fires(FaultSite::ClientTornWrite)
    ));
    json.push_str("  \"bit_identical\": true\n");
    json.push('}');
    println!("{json}");
}
