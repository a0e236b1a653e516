//! T17 — the serving daemon end to end: mixed dist/path traffic over
//! loopback TCP from a memory-mapped v2 snapshot.
//!
//! The pipeline under test is the full deployment path: a `record_paths`
//! session solves near-additive APSP on a grid, freezes a `PathOracle`,
//! saves it as **snapshot format v2**, and the server re-opens that file
//! `mmap`'d — on little-endian hosts the distance entries, guarantee tags,
//! and route arenas are served in place, zero-copy (asserted). Then:
//!
//! 1. **Sustained load** — `C` concurrent clients send mixed traffic
//!    (batched dist and path requests) over loopback. Every response is
//!    compared against a serial in-process replay on the *pre-snapshot*
//!    oracle, so any divergence anywhere in the snapshot → mmap → scheduler
//!    → wire chain fails the run. Reports sustained qps (queries and
//!    requests per second) and client-observed p50/p95/p99 latency.
//! 2. **Oversubscription** — a second server with a deliberately tiny
//!    admission queue and one worker takes `2C` flooding clients; the
//!    bench asserts the overload is answered with explicit `Overloaded`
//!    responses (never silent drops: every request gets exactly one
//!    answer) while admitted work still serves bit-identically.
//!
//! One JSON document on stdout; human-readable notes on stderr.
//!
//! Run with: `cargo run --release --bin t17_serve -- [--threads T] [--clients C] [--requests R] [--quick] [--metrics-out FILE]`

#![forbid(unsafe_code)]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use cc_core::{Execution, PathOracle, SolverBuilder};
use cc_graphs::generators;
use cc_obs::{parse_exposition, HistSummary};
use cc_serve::protocol::{read_frame, write_frame, Op, Payload, Request, Response, Status};
use cc_serve::{server, snapshot, Client, ServerConfig};

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

/// One client's sustained-phase work: alternating dist/path batches, each
/// response verified against the in-process reference oracle.
#[allow(clippy::type_complexity)]
fn client_run(
    addr: std::net::SocketAddr,
    reference: &PathOracle,
    id: u64,
    n: usize,
    requests: usize,
    dist_batch: usize,
    path_batch: usize,
) -> (Vec<f64>, Vec<f64>, usize) {
    let mut client = Client::connect(addr).expect("connect");
    let mut dist_lat = Vec::with_capacity(requests / 2 + 1);
    let mut path_lat = Vec::with_capacity(requests / 2 + 1);
    let mut queries = 0usize;
    for round in 0..requests {
        if round % 2 == 0 {
            let pairs = pairs_for(id * 10_000 + round as u64, n, dist_batch);
            let start = Instant::now();
            let got = client
                .dist_batch(&pairs, 0)
                .expect("transport")
                .expect("no shedding in the sustained phase");
            dist_lat.push(start.elapsed().as_secs_f64() * 1e6);
            queries += pairs.len();
            let upairs: Vec<(usize, usize)> = pairs
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect();
            assert_eq!(
                got,
                reference.dist_oracle().dist_batch(&upairs),
                "served dists diverged from the serial replay"
            );
        } else {
            let pairs = pairs_for(id * 10_000 + round as u64, n, path_batch);
            let start = Instant::now();
            let got = client
                .path_batch(&pairs, 0)
                .expect("transport")
                .expect("no shedding in the sustained phase");
            path_lat.push(start.elapsed().as_secs_f64() * 1e6);
            queries += pairs.len();
            let upairs: Vec<(usize, usize)> = pairs
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect();
            let want = reference.path_batch(&upairs);
            for (g, w) in got.iter().zip(want.iter()) {
                match (g, w) {
                    (None, None) => {}
                    (Some((weight, guar, edges)), Some(route)) => {
                        assert_eq!(*weight, route.weight, "served route weight diverged");
                        assert_eq!(*guar, route.guarantee, "served guarantee diverged");
                        assert_eq!(*edges, route.edges, "served route edges diverged");
                    }
                    _ => panic!("served route presence diverged"),
                }
            }
        }
    }
    (dist_lat, path_lat, queries)
}

/// Renders a histogram summary as an all-integer JSON object (quantiles are
/// exact power-of-two bucket uppers, capped at the observed max).
fn hist_json(h: &HistSummary) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        h.count, h.p50, h.p90, h.p99, h.max
    )
}

fn main() {
    let mut server_threads = 4usize;
    let mut clients = 0usize; // 0 = derive from server_threads
    let mut requests = 0usize; // 0 = derive from --quick
    let mut quick = false;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out FILE"));
            }
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
            "--quick" => quick = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(server_threads >= 1, "--threads must be at least 1");
    if clients == 0 {
        clients = (server_threads * 2).max(4);
    }
    if requests == 0 {
        requests = if quick { 120 } else { 400 };
    }
    let side = if quick { 16 } else { 32 };
    let (dist_batch, path_batch) = (64usize, 16usize);

    // ── Freeze a route oracle from a real session. ────────────────────────
    let g = generators::grid(side, side);
    let n = g.n();
    let start = Instant::now();
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(17))
        .threads(server_threads)
        .record_paths(true)
        .build()
        .expect("valid configuration");
    solver.apsp_near_additive().expect("additive apsp");
    let reference = Arc::new(solver.freeze_with_paths().expect("paths recorded"));
    let solve_secs = start.elapsed().as_secs_f64();

    // ── Snapshot v2 on disk, reopened through the serving path. ───────────
    let snap_path = std::env::temp_dir().join(format!("t17_oracle_{}.ccro", std::process::id()));
    reference
        .save_v2_to_path(&snap_path)
        .expect("write snapshot");
    let snap_bytes = std::fs::metadata(&snap_path).expect("stat snapshot").len();
    let opened = snapshot::open(&snap_path).expect("open snapshot");
    let mapped = opened.mapped;
    let zero_copy = opened
        .oracles
        .paths()
        .expect("CCRO carries routes")
        .dist_oracle()
        .storage()
        .is_shared();
    if cfg!(target_endian = "little") && mapped {
        assert!(
            zero_copy,
            "v2 snapshot must serve its hot tables zero-copy on LE hosts"
        );
    }
    // The snapshot itself must answer identically to the in-process oracle.
    assert_eq!(
        **opened.oracles.paths().expect("routes"),
        *reference,
        "snapshot load diverged from the frozen oracle"
    );

    // ── Phase 1: sustained mixed load. ────────────────────────────────────
    let handle = server::serve(
        opened.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: server_threads,
            queue_capacity: 4096,
            batch_max: 64,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let wall_start = Instant::now();
    let outcomes: Vec<(Vec<f64>, Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let reference = Arc::clone(&reference);
                scope.spawn(move || {
                    client_run(
                        addr,
                        &reference,
                        c as u64 + 1,
                        n,
                        requests,
                        dist_batch,
                        path_batch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = wall_start.elapsed().as_secs_f64();
    let stats = handle.stats();
    assert_eq!(stats.shed, 0, "sustained phase must not shed");
    assert_eq!(stats.malformed, 0);

    // Drain the daemon's own request-lifecycle accounting over the wire
    // (`Op::Metrics`): integer text exposition, histogram quantiles as
    // exact bucket ranks — no floats anywhere in this path.
    let metrics_text = Client::connect(addr)
        .expect("metrics connect")
        .metrics()
        .expect("metrics op");
    let samples = parse_exposition(&metrics_text);
    let queue_wait =
        cc_obs::text::histogram_summary(&samples, "ccd_queue_wait_ns").expect("histogram exposed");
    let oracle_batch = cc_obs::text::histogram_summary(&samples, "ccd_oracle_batch_ns")
        .expect("histogram exposed");
    let outbox_write = cc_obs::text::histogram_summary(&samples, "ccd_outbox_write_ns")
        .expect("histogram exposed");
    assert!(
        queue_wait.count > 0 && oracle_batch.count > 0,
        "the sustained phase must populate the lifecycle histograms"
    );
    assert_eq!(
        samples.get("ccd_served_total").copied(),
        Some(stats.served),
        "metrics and ServerHandle::stats disagree on served count"
    );
    if let Some(path) = &metrics_out {
        std::fs::write(path, &metrics_text).expect("write --metrics-out");
        eprintln!("metrics dump: {path}");
    }
    handle.shutdown();

    let mut dist_lat: Vec<f64> = Vec::new();
    let mut path_lat: Vec<f64> = Vec::new();
    let mut total_queries = 0usize;
    for (d, p, q) in outcomes {
        dist_lat.extend(d);
        path_lat.extend(p);
        total_queries += q;
    }
    dist_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    path_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let total_requests = clients * requests;
    let rps = total_requests as f64 / wall;
    let qps = total_queries as f64 / wall;

    // ── Phase 2: 2× oversubscription must shed explicitly. ───────────────
    let opened2 = snapshot::open(&snap_path).expect("reopen snapshot");
    let handle2 = server::serve(
        opened2.oracles,
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            queue_capacity: 4,
            batch_max: 1,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr2 = handle2.addr();
    let flood_clients = clients * 2;
    let flood_requests = if quick { 24 } else { 48 };
    let heavy = pairs_for(99, n, 300);
    let heavy_upairs: Vec<(usize, usize)> = heavy
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let want_heavy = reference.path_batch(&heavy_upairs);

    let flood_counts: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..flood_clients)
            .map(|_| {
                let heavy = heavy.clone();
                let want_heavy = &want_heavy;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr2).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    for i in 0..flood_requests {
                        let req = Request {
                            req_id: i as u64,
                            op: Op::Path,
                            deadline_ms: 0,
                            pairs: heavy.clone(),
                        };
                        write_frame(&mut &stream, &req.encode()).expect("write");
                    }
                    let (mut ok, mut shed) = (0usize, 0usize);
                    for _ in 0..flood_requests {
                        let body = read_frame(&mut &stream)
                            .expect("read")
                            .expect("every request gets exactly one answer");
                        let resp = Response::decode(&body).expect("decodable response");
                        match resp.status {
                            Status::Ok => {
                                ok += 1;
                                let Payload::Paths(items) = resp.payload else {
                                    panic!("wrong payload kind");
                                };
                                for (g, w) in items.iter().zip(want_heavy.iter()) {
                                    assert_eq!(g.is_some(), w.is_some());
                                    if let (Some((weight, _, edges)), Some(route)) = (g, w) {
                                        assert_eq!(*weight, route.weight);
                                        assert_eq!(*edges, route.edges);
                                    }
                                }
                            }
                            Status::Overloaded => shed += 1,
                            other => panic!("unexpected status under overload: {other:?}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("flood client"))
            .collect()
    });
    let flood_ok: usize = flood_counts.iter().map(|&(ok, _)| ok).sum();
    let flood_shed: usize = flood_counts.iter().map(|&(_, s)| s).sum();
    assert_eq!(flood_ok + flood_shed, flood_clients * flood_requests);
    assert!(
        flood_shed > 0,
        "2x oversubscription against a 4-deep queue must shed"
    );
    assert!(flood_ok > 0, "admitted work must still be served");
    let stats2 = handle2.stats();
    assert_eq!(stats2.shed, flood_shed as u64);
    handle2.shutdown();
    std::fs::remove_file(&snap_path).ok();

    // ── Report. ───────────────────────────────────────────────────────────
    eprintln!(
        "t17: n={n} solve={solve_secs:.2}s snapshot={snap_bytes}B mapped={mapped} zero_copy={zero_copy}"
    );
    eprintln!(
        "sustained: {clients} clients x {requests} requests in {wall:.2}s -> {rps:.0} req/s, {qps:.0} queries/s"
    );
    eprintln!(
        "dist latency us: p50={:.0} p95={:.0} p99={:.0}",
        percentile(&dist_lat, 0.50),
        percentile(&dist_lat, 0.95),
        percentile(&dist_lat, 0.99)
    );
    eprintln!(
        "path latency us: p50={:.0} p95={:.0} p99={:.0}",
        percentile(&path_lat, 0.50),
        percentile(&path_lat, 0.95),
        percentile(&path_lat, 0.99)
    );
    eprintln!(
        "overload: {flood_clients} clients flooding -> ok={flood_ok} shed={flood_shed} (explicit Overloaded)"
    );

    let available_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"t17_serve\",\n");
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!("  \"available_cores\": {available_cores},\n"));
    json.push_str(&format!("  \"server_threads\": {server_threads},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"dist_batch\": {dist_batch},\n"));
    json.push_str(&format!("  \"path_batch\": {path_batch},\n"));
    json.push_str(&format!("  \"snapshot_bytes\": {snap_bytes},\n"));
    json.push_str(&format!("  \"snapshot_mapped\": {mapped},\n"));
    json.push_str(&format!("  \"zero_copy_storage\": {zero_copy},\n"));
    json.push_str(&format!("  \"solve_secs\": {solve_secs:.3},\n"));
    json.push_str(&format!("  \"wall_secs\": {wall:.3},\n"));
    json.push_str(&format!("  \"requests_per_sec\": {rps:.0},\n"));
    json.push_str(&format!("  \"queries_per_sec\": {qps:.0},\n"));
    json.push_str(&format!(
        "  \"dist_latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}},\n",
        percentile(&dist_lat, 0.50),
        percentile(&dist_lat, 0.95),
        percentile(&dist_lat, 0.99)
    ));
    json.push_str(&format!(
        "  \"path_latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}},\n",
        percentile(&path_lat, 0.50),
        percentile(&path_lat, 0.95),
        percentile(&path_lat, 0.99)
    ));
    json.push_str(&format!(
        "  \"queue_wait_ns\": {},\n",
        hist_json(&queue_wait)
    ));
    json.push_str(&format!(
        "  \"oracle_batch_ns\": {},\n",
        hist_json(&oracle_batch)
    ));
    json.push_str(&format!(
        "  \"outbox_write_ns\": {},\n",
        hist_json(&outbox_write)
    ));
    json.push_str(&format!(
        "  \"served_ok\": {},\n",
        stats.served + stats2.served
    ));
    json.push_str(&format!(
        "  \"overload\": {{\"clients\": {flood_clients}, \"requests\": {}, \"ok\": {flood_ok}, \"shed\": {flood_shed}}},\n",
        flood_clients * flood_requests
    ));
    json.push_str("  \"bit_identical\": true\n");
    json.push('}');
    println!("{json}");
}
