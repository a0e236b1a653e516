//! The seeded chaos suite: injected connection resets, worker panics,
//! torn frames on both sides, and a hot-reload storm — concurrent with
//! query bursts — asserting the containment contract:
//!
//! * every request the transport delivered is answered exactly once, with
//!   a valid status (the client's req-id pairing enforces "exactly once";
//!   this suite enforces "valid status");
//! * every `Ok` answer is bit-identical to one *whole* published snapshot
//!   generation — never a torn or mixed view;
//! * worker panics are contained (counted, pool keeps serving);
//! * after the fault windows exhaust themselves the system self-quiesces
//!   and a clean phase reconciles exactly — and a post-storm reload
//!   serves answers bit-identical to a serial replay of the final
//!   snapshot.
//!
//! Every fault decision is a pure function of the printed seed
//! (`FaultPlan`), so a CI failure replays from its log line.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cc_core::{DistOracle, DistanceMatrix, Guarantee, PointEstimate};
use cc_graphs::StorageKind;
use cc_serve::{
    server, snapshot, Client, ClientError, FaultPlan, FaultSite, ReloadConfig, RetryPolicy,
    ServerConfig, Status,
};

const N: usize = 48;

fn scaled_oracle(scale: u32) -> DistOracle {
    let mut m = DistanceMatrix::new(N);
    for u in 0..N {
        for v in 0..N {
            m.improve(u, v, u.abs_diff(v) as u32 * scale);
        }
    }
    DistOracle::from_matrix(&m, Guarantee::mult2(0.25), StorageKind::SymmetricPacked)
}

fn temp_path(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc_serve_chaos_{seed:x}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("oracle.ccdo")
}

fn pairs_for(seed: u64, count: usize) -> Vec<(u32, u32)> {
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
            ((r % N as u64) as u32, ((r >> 32) % N as u64) as u32)
        })
        .collect()
}

/// `Some(scale index)` when `got` is bit-identical to one whole
/// generation's answers.
fn matches_whole_generation(
    got: &[Option<PointEstimate>],
    pairs: &[(u32, u32)],
    refs: &[DistOracle],
) -> bool {
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    refs.iter().any(|r| r.dist_batch(&upairs) == *got)
}

/// Per-client outcome tally; summed for the run's accounting.
#[derive(Debug, Default)]
struct Tally {
    ok: u64,
    /// Answered with a non-Ok status the containment contract allows.
    contained: u64,
    /// Transport died before/without a usable response; outcome unknown.
    /// Allowed only while faults are armed — the clean phase forbids it.
    unknown: u64,
}

fn publish(oracle: &DistOracle, path: &Path) {
    oracle.save_v2_to_path(path).unwrap();
}

fn run_chaos(seed: u64) {
    println!("chaos: seed {seed:#018x} (replay: CC_CHAOS_SEED={seed:#x})");
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_site(FaultSite::WorkerPanic, 120, 60)
            .with_site(FaultSite::ConnReset, 30, 150)
            .with_site(FaultSite::PartialWrite, 20, 150)
            .with_site(FaultSite::ClientTornWrite, 40, 100),
    );

    let gen_a = scaled_oracle(1);
    let path = temp_path(seed);
    publish(&gen_a, &path);
    let opened = snapshot::open(&path).unwrap();
    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            queue_capacity: 4096,
            batch_max: 4,
            write_timeout_ms: 2_000,
            reload: Some(ReloadConfig::at(&path)),
            fault: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // ── Reload storm: ≥10 confirmed hot swaps concurrent with traffic, on
    // a connection that is itself subject to injected resets. ────────────
    let reload_storm = {
        let path = path.clone();
        let gen_a = scaled_oracle(1);
        let gen_b = scaled_oracle(2);
        std::thread::spawn(move || {
            let mut confirmed = 0u64;
            let mut round = 0u64;
            let mut admin = Client::connect(addr).unwrap();
            while confirmed < 10 && round < 60 {
                publish(
                    if round.is_multiple_of(2) {
                        &gen_b
                    } else {
                        &gen_a
                    },
                    &path,
                );
                round += 1;
                match admin.reload() {
                    Ok(Ok(_info)) => confirmed += 1,
                    Ok(Err(status)) => {
                        panic!("reload refused with {status:?} for a valid snapshot")
                    }
                    Err(ClientError::Protocol(msg)) => panic!("admin protocol error: {msg}"),
                    Err(_transport) => {
                        // The fault plan killed the admin connection; the
                        // reload's outcome is unknown (it may have
                        // applied). Reconnect and keep going.
                        admin = Client::connect(addr).unwrap();
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            confirmed
        })
    };

    // ── Query burst: 4 clients, retrying idempotent queries through the
    // injected resets/tears, validating every Ok answer bitwise. ─────────
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let plan = Arc::clone(&plan);
            let refs = vec![scaled_oracle(1), scaled_oracle(2)];
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_retries: 4,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(20),
                    jitter_seed: c,
                };
                let mut tally = Tally::default();
                let mut client = Client::connect(addr).unwrap();
                client.set_fault(Arc::clone(&plan));
                for round in 0..80u64 {
                    let pairs = pairs_for(c * 7919 + round, 24);
                    match client.dist_batch_retry(&pairs, 0, &policy) {
                        Ok(Ok(items)) => {
                            assert!(
                                matches_whole_generation(&items, &pairs, &refs),
                                "client {c} round {round}: answer matches no whole generation"
                            );
                            tally.ok += 1;
                        }
                        Ok(Err(
                            Status::Internal
                            | Status::Overloaded
                            | Status::DeadlineExceeded
                            | Status::ShuttingDown,
                        )) => tally.contained += 1,
                        Ok(Err(status)) => {
                            panic!("client {c} round {round}: invalid error status {status:?}")
                        }
                        Err(ClientError::Protocol(msg)) => {
                            panic!("client {c} round {round}: protocol violation: {msg}")
                        }
                        Err(_transport) => {
                            // Torn response or retries exhausted mid-storm:
                            // outcome unknown, never blind-retried. Start a
                            // fresh connection for the next round.
                            tally.unknown += 1;
                            let mut fresh = Client::connect(addr).unwrap();
                            fresh.set_fault(Arc::clone(&plan));
                            client = fresh;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut total = Tally::default();
    for c in clients {
        let t = c.join().unwrap();
        total.ok += t.ok;
        total.contained += t.contained;
        total.unknown += t.unknown;
    }
    let confirmed_reloads = reload_storm.join().unwrap();

    // Every round resolved to exactly one of the three outcome classes.
    assert_eq!(total.ok + total.contained + total.unknown, 4 * 80);
    assert!(
        confirmed_reloads >= 10,
        "need ≥10 confirmed hot reloads, got {confirmed_reloads}"
    );

    // ── Drive any remaining fault windows dry, then reconcile. ──────────
    let mut pump = Client::connect(addr).unwrap();
    pump.set_fault(Arc::clone(&plan));
    for i in 0..400u64 {
        if plan.quiesced() {
            break;
        }
        let pairs = pairs_for(0xdead ^ i, 4);
        let _ = pump.dist_batch(&pairs, 0);
        if pump.ping().is_err() {
            pump = Client::connect(addr).unwrap();
            pump.set_fault(Arc::clone(&plan));
        }
    }
    assert!(plan.quiesced(), "fault windows must self-exhaust");

    // Containment bookkeeping: each injected worker panic was caught and
    // counted; the pool is still serving.
    let stats = {
        let mut c = Client::connect(addr).unwrap();
        c.stats().unwrap()
    };
    assert_eq!(
        stats.worker_panics,
        plan.fires(FaultSite::WorkerPanic),
        "every injected panic contained and counted ({})",
        plan.coordinates()
    );
    assert!(stats.malformed == 0, "tears must not read as malformed ops");

    // ── Clean phase: faults quiesced, so accounting is exact — every
    // request answers Ok, bit-identical to the final published snapshot.
    publish(&gen_a, &path);
    let mut clean = Client::connect(addr).unwrap();
    clean.reload().unwrap().expect("post-storm reload");
    let before = clean.stats().unwrap();
    for round in 0..40u64 {
        let pairs = pairs_for(0xc1ea ^ round, 24);
        let got = clean.dist_batch(&pairs, 0).unwrap().unwrap();
        let upairs: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        assert_eq!(
            got,
            gen_a.dist_batch(&upairs),
            "post-swap serial replay, round {round} ({})",
            plan.coordinates()
        );
    }
    let after = clean.stats().unwrap();
    assert_eq!(
        after.served - before.served,
        40,
        "clean phase reconciles exactly"
    );
    assert_eq!(after.shed, before.shed);
    assert_eq!(after.worker_panics, before.worker_panics);

    // ── Metrics reconciliation: `Client::stats` is a typed parse of
    // `Op::Metrics`, checked here against a raw parse of a separate
    // exposition read. With faults quiesced and no concurrent traffic
    // they must agree exactly, field for field, and the panic counter
    // must equal the fault plan's injected count.
    let exposition = clean.metrics().unwrap();
    let samples = cc_obs::parse_exposition(&exposition);
    let finals = clean.stats().unwrap();
    let sample = |name: &str| samples.get(name).copied();
    assert_eq!(sample("ccd_served_total"), Some(finals.served));
    assert_eq!(sample("ccd_shed_total"), Some(finals.shed));
    assert_eq!(
        sample("ccd_deadline_missed_total"),
        Some(finals.deadline_missed)
    );
    assert_eq!(sample("ccd_malformed_total"), Some(finals.malformed));
    assert_eq!(sample("ccd_queue_depth"), Some(finals.queue_depth));
    assert_eq!(sample("ccd_generation"), Some(finals.generation));
    assert_eq!(sample("ccd_reloads_ok_total"), Some(finals.reloads_ok));
    assert_eq!(
        sample("ccd_reloads_rejected_total"),
        Some(finals.reloads_rejected)
    );
    assert_eq!(
        sample("ccd_slow_disconnects_total"),
        Some(finals.slow_disconnects)
    );
    assert_eq!(
        sample("ccd_worker_panics_total"),
        Some(plan.fires(FaultSite::WorkerPanic)),
        "metrics must reconcile with the injected fault count ({})",
        plan.coordinates()
    );
    let queue_wait = cc_obs::text::histogram_summary(&samples, "ccd_queue_wait_ns")
        .expect("queue-wait histogram exposed");
    assert!(
        queue_wait.count >= finals.served,
        "every served request passed through the queue ({} waits, {} served)",
        queue_wait.count,
        finals.served
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The fixed-seed set CI always runs; deterministic per seed.
#[test]
fn chaos_fixed_seed_suite() {
    for seed in [0x11u64, 0xc0ffee, 0x5eed_f00d] {
        run_chaos(seed);
    }
}

/// One extra seed from the environment (CI passes a random one and logs
/// it; a failure replays by exporting the printed `CC_CHAOS_SEED`).
#[test]
fn chaos_env_seed() {
    let Ok(raw) = std::env::var("CC_CHAOS_SEED") else {
        return;
    };
    let raw = raw.trim();
    let seed = raw
        .strip_prefix("0x")
        .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16))
        .expect("CC_CHAOS_SEED must be a u64 (decimal or 0x-hex)");
    run_chaos(seed);
}
