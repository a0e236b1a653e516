//! End-to-end serving tests over loopback TCP: concurrency bit-identity,
//! load-shedding, deadlines, graceful drain — all against a v2 snapshot
//! opened through the mmap path.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cc_core::{DistOracle, DistanceMatrix, Guarantee, PathOracle, PathProvider};
use cc_graphs::{Graph, StorageKind};
use cc_routes::PathStore;
use cc_serve::protocol::{read_frame, write_frame, Op, Request, Response, Status};
use cc_serve::{server, snapshot, Client, ServerConfig};

/// A path graph on `n` vertices with exact distances and full routes —
/// deterministic, and route length scales with `|u - v|` so big batches
/// are genuinely heavy.
fn build_path_oracle(n: usize) -> PathOracle {
    let g = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let mut m = DistanceMatrix::new(n);
    let mut store = PathStore::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            m.improve(u, v, (v - u) as u32);
            m.improve(v, u, (v - u) as u32);
            let verts: Vec<u32> = (u as u32..=v as u32).collect();
            store.offer_walk(&g, (v - u) as u32, &verts);
        }
    }
    let oracle = DistOracle::from_matrix(&m, Guarantee::mult2(0.25), StorageKind::SymmetricPacked);
    PathOracle::new(
        oracle,
        vec![0u8; n * (n + 1) / 2],
        vec![PathProvider::Pairs(Arc::new(store))],
    )
}

/// Saves the oracle as v2, reopens it via the serving path (mmap), and
/// returns the serving handle plus the in-process reference oracle.
fn serve_v2(n: usize, config: ServerConfig) -> (server::ServerHandle, Arc<PathOracle>, PathOracle) {
    // One directory per call: tests run in parallel within one process,
    // and two saves to one path would race on the shared temp sibling.
    static CALL: AtomicUsize = AtomicUsize::new(0);
    let call = CALL.fetch_add(1, Ordering::Relaxed);
    let reference = build_path_oracle(n);
    let dir = std::env::temp_dir().join(format!("cc_serve_it_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oracle.ccro");
    reference.save_v2_to_path(&path).unwrap();
    let opened = snapshot::open(&path).unwrap();
    let served = opened
        .oracles
        .paths()
        .expect("CCRO snapshot carries routes")
        .clone();
    assert!(
        *served == reference,
        "snapshot load diverged from the saved oracle"
    );
    // On little-endian hosts a mapped v2 file serves its tables zero-copy.
    if cfg!(target_endian = "little") && opened.mapped {
        assert!(served.dist_oracle().storage().is_shared());
    }
    let handle = server::serve(opened.oracles, "127.0.0.1:0", config).unwrap();
    (handle, served, reference)
}

fn pairs_for(seed: u64, n: usize, count: usize) -> Vec<(u32, u32)> {
    // Deterministic splitmix-style stream; no RNG dependency needed.
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

#[test]
fn eight_concurrent_clients_match_serial_replay_bit_for_bit() {
    let (handle, _served, reference) = serve_v2(
        128,
        ServerConfig {
            threads: 3,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let reference = Arc::new(reference);

    let clients: Vec<_> = (0..8)
        .map(|c| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                for round in 0..6u64 {
                    let pairs = pairs_for(c * 1000 + round, 128, 40);
                    let got = client
                        .dist_batch(&pairs, 0)
                        .unwrap()
                        .expect("no shedding at default capacity");
                    let upairs: Vec<(usize, usize)> = pairs
                        .iter()
                        .map(|&(u, v)| (u as usize, v as usize))
                        .collect();
                    // Bit-identical: PointEstimate carries the guarantee's
                    // f64s, and == here is bit-for-bit on these values.
                    assert_eq!(got, reference.dist_oracle().dist_batch(&upairs));

                    let got = client
                        .path_batch(&pairs, 0)
                        .unwrap()
                        .expect("no shedding at default capacity");
                    let want = reference.path_batch(&upairs);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(want.iter()) {
                        match (g, w) {
                            (None, None) => {}
                            (Some((weight, guar, edges)), Some(route)) => {
                                assert_eq!(*weight, route.weight);
                                assert_eq!(*guar, route.guarantee);
                                assert_eq!(*edges, route.edges);
                            }
                            _ => panic!("presence mismatch"),
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.malformed, 0);
    // Pings are answered inline and never counted as served.
    assert_eq!(stats.served, 8 * 6 * 2, "stats={stats:?}");
    handle.shutdown();
}

/// Floods one connection without reading responses: with a tiny queue and
/// one worker the server must shed explicitly — every request is answered,
/// either `Ok` (correct) or `Overloaded`, never dropped.
#[test]
fn oversubscription_sheds_with_explicit_overloaded() {
    let (handle, _served, reference) = serve_v2(
        128,
        ServerConfig {
            threads: 1,
            queue_capacity: 4,
            batch_max: 1,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
    );
    let total = 64usize;
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let pairs = pairs_for(7, 128, 300);
    for i in 0..total {
        let req = Request {
            req_id: i as u64,
            op: Op::Path,
            deadline_ms: 0,
            pairs: pairs.clone(),
        };
        write_frame(&mut &stream, &req.encode()).unwrap();
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut seen = vec![false; total];
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let want = reference.path_batch(&upairs);
    for _ in 0..total {
        let body = read_frame(&mut &stream)
            .unwrap()
            .expect("one response per request");
        let resp = Response::decode(&body).unwrap();
        let id = resp.req_id as usize;
        assert!(
            !std::mem::replace(&mut seen[id], true),
            "duplicate response"
        );
        match resp.status {
            Status::Ok => {
                ok += 1;
                let cc_serve::Payload::Paths(items) = resp.payload else {
                    panic!("wrong payload kind");
                };
                for (g, w) in items.iter().zip(want.iter()) {
                    assert_eq!(g.is_some(), w.is_some());
                    if let (Some((weight, _, edges)), Some(route)) = (g, w) {
                        assert_eq!(*weight, route.weight);
                        assert_eq!(*edges, route.edges);
                    }
                }
            }
            Status::Overloaded => shed += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(ok + shed, total);
    assert!(shed > 0, "16x queue oversubscription must shed");
    assert!(ok > 0, "admitted work must still be served");
    let stats = handle.stats();
    assert_eq!(stats.shed, shed as u64);
    handle.shutdown();
}

/// A request with a 1 ms budget queued behind a heavy backlog must answer
/// `DeadlineExceeded` — dequeued, not computed, not dropped.
#[test]
fn stale_requests_answer_deadline_exceeded() {
    let (handle, _served, _reference) = serve_v2(
        128,
        ServerConfig {
            threads: 1,
            queue_capacity: 256,
            batch_max: 1,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
    );
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let heavy = pairs_for(3, 128, 400);
    let backlog = 24usize;
    for i in 0..backlog {
        let req = Request {
            req_id: i as u64,
            op: Op::Path,
            deadline_ms: 0,
            pairs: heavy.clone(),
        };
        write_frame(&mut &stream, &req.encode()).unwrap();
    }
    let urgent = Request {
        req_id: 999,
        op: Op::Dist,
        deadline_ms: 1,
        pairs: vec![(0, 5)],
    };
    write_frame(&mut &stream, &urgent.encode()).unwrap();

    let mut urgent_status = None;
    for _ in 0..=backlog {
        let body = read_frame(&mut &stream).unwrap().expect("response");
        let resp = Response::decode(&body).unwrap();
        if resp.req_id == 999 {
            urgent_status = Some(resp.status);
        } else {
            assert_eq!(resp.status, Status::Ok);
        }
    }
    assert_eq!(urgent_status, Some(Status::DeadlineExceeded));
    assert!(handle.stats().deadline_missed >= 1);
    handle.shutdown();
}

/// Shutdown drains: every admitted request is answered before the threads
/// join, and the port stops accepting afterwards.
#[test]
fn graceful_shutdown_drains_admitted_work() {
    let (handle, _served, reference) = serve_v2(
        96,
        ServerConfig {
            threads: 1,
            queue_capacity: 64,
            batch_max: 2,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let pairs = pairs_for(11, 96, 200);
    let total = 6usize;
    for i in 0..total {
        let req = Request {
            req_id: i as u64,
            op: Op::Dist,
            deadline_ms: 0,
            pairs: pairs.clone(),
        };
        write_frame(&mut &stream, &req.encode()).unwrap();
    }
    // Let the reader admit everything, then shut down mid-drain.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let want = reference.dist_oracle().dist_batch(&upairs);
    let mut answered = 0usize;
    while let Ok(Some(body)) = read_frame(&mut &stream) {
        let resp = Response::decode(&body).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let cc_serve::Payload::Dists(items) = resp.payload else {
            panic!("wrong payload kind");
        };
        assert_eq!(items, want);
        answered += 1;
    }
    assert_eq!(answered, total, "drain must answer every admitted request");
    assert!(
        Client::connect(addr).is_err() || {
            // The listener thread is gone; a racing connect may still land in
            // the accept backlog but nobody will ever serve it.
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Some(Duration::from_millis(200))).unwrap();
            c.ping().is_err()
        }
    );
}

/// `Op::Metrics` and `Op::Trace` answer on the reader thread: the
/// exposition must parse, reconcile exactly with the in-process
/// `ServerHandle::stats` (one accounting substrate), expose the lifecycle
/// histograms, and never count as served; the trace ring drains one Ok
/// span per request and is destructive.
#[test]
fn metrics_and_trace_ops_reconcile_with_stats() {
    let (handle, _served, _reference) = serve_v2(96, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let pairs = pairs_for(21, 96, 16);
    for _ in 0..3 {
        client.dist_batch(&pairs, 0).unwrap().unwrap();
    }

    let text = client.metrics().unwrap();
    let samples = cc_obs::parse_exposition(&text);
    let stats = client.stats().unwrap();
    assert_eq!(samples.get("ccd_served_total").copied(), Some(stats.served));
    assert_eq!(stats, handle.stats(), "wire and in-process stats disagree");
    assert_eq!(
        stats.served, 3,
        "metrics/trace ops must not count as served"
    );
    for name in [
        "ccd_queue_wait_ns",
        "ccd_batch_jobs",
        "ccd_oracle_batch_ns",
        "ccd_outbox_write_ns",
    ] {
        let h = cc_obs::text::histogram_summary(&samples, name).expect("histogram exposed");
        assert!(h.count > 0, "{name} must have samples after 3 requests");
    }

    let trace = client.trace().unwrap();
    let spans: Vec<&str> = trace.lines().collect();
    assert_eq!(spans.len(), 3, "one span per dist request: {trace:?}");
    for (i, span) in spans.iter().enumerate() {
        let prefix = format!("span req_id={} op=1 status=0", i + 1);
        assert!(span.starts_with(&prefix), "span {i}: {span:?}");
    }
    assert_eq!(client.trace().unwrap(), "", "trace drain is destructive");
    handle.shutdown();
}

/// Malformed frames are answered (best effort) and counted, and the
/// connection survives for well-formed follow-ups.
#[test]
fn malformed_frames_are_counted_and_survivable() {
    let (handle, _served, _reference) = serve_v2(96, ServerConfig::default());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Valid frames whose bodies are garbage: an op byte that never
    // existed, and op 3 (the retired stats op, now unassigned).
    for (req_id, op) in [(77u64, 200u8), (79, 3)] {
        let mut body = vec![0u8; 18];
        body[..8].copy_from_slice(&req_id.to_le_bytes());
        body[8] = op;
        write_frame(&mut &stream, &body).unwrap();
        let resp = Response::decode(&read_frame(&mut &stream).unwrap().unwrap()).unwrap();
        assert_eq!(resp.req_id, req_id);
        assert_eq!(resp.status, Status::Malformed, "op byte {op}");
    }

    // The same connection still serves.
    let req = Request {
        req_id: 78,
        op: Op::Dist,
        deadline_ms: 0,
        pairs: vec![(1, 2)],
    };
    write_frame(&mut &stream, &req.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut &stream).unwrap().unwrap()).unwrap();
    assert_eq!((resp.req_id, resp.status), (78, Status::Ok));
    assert!(handle.stats().malformed >= 2);
    handle.shutdown();
}
