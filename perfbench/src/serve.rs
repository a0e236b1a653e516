//! `serve-mixed`: `ccd` on loopback, driven by two closed-loop clients.
//!
//! Prep (untimed): solve a 32 × 32 grid with path recording, freeze a
//! route oracle and save it as a v2 snapshot. Set-up (timed, several
//! times): open the snapshot, bind the server, answer the first ping —
//! `ccd`'s cold start. Phase A: reads only. Phase B: the same reads while
//! the benchmark re-publishes the snapshot and reloads it at a fixed
//! cadence. Served answers are digested per request and replayed against
//! the in-process reference oracle after the traffic.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_core::PathOracle;
use cc_graphs::{bfs, generators};
use cc_obs::{parse_exposition, text::histogram_summary};
use cc_serve::{
    server, snapshot, Client, Op as WireOp, Payload, ReloadConfig, Request, Response, ServerConfig,
    Status,
};

use crate::check::{digest_dists, digest_paths, expected_digest, Op, Stretch};
use crate::report::{median, quantile, Report};
use crate::trace::Tracer;

const SIDE: usize = 32;
const CLIENTS: u64 = 2;
const DIST_BATCH: usize = 64;
const PATH_BATCH: usize = 16;
/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: u64 = 5;
/// Share of `--seconds` spent in phase A (reads only); the rest is phase B.
const PHASE_A_SHARE: f64 = 0.6;
/// Phase B re-publishes and reloads the snapshot this often.
const RELOAD_PERIOD: Duration = Duration::from_millis(500);
/// Requests whose codec cost and in-process oracle cost are timed.
const LAYER_SAMPLES: u64 = 2000;
/// A traced run traces every other block of this many requests per client,
/// so the traced and untraced blocks see the same mix and the same drift.
const TRACE_BLOCK: u64 = 1024;

/// One request as a client saw it.
struct Sent {
    op: Op,
    /// Index in the client's stream.
    k: u64,
    key: u64,
    start: Instant,
    end: Instant,
    /// Digest of an `Ok` answer; `None` when shed, refused or lost.
    digest: Option<u64>,
}

/// One client's log for one phase.
struct ClientLog {
    sent: Vec<Sent>,
    /// Request spans recorded while tracing (every other block of phase A
    /// in a traced run): name, start, end, request key.
    spans: Vec<(&'static str, Instant, Instant, u64)>,
    /// Connection failures (each also ends the client's phase).
    errors: Vec<String>,
}

/// The request stream is a pure function of (seed, phase, client, index),
/// so answers can be replayed after the traffic. Three dist batches, then
/// one path batch: a path batch costs about twice a dist batch, and with a
/// 1:1 mix the median would sit in the gap between the two latency modes,
/// where it jumps between them from run to run. With 3:1 the median lies
/// inside the dist mode and the 90th percentile inside the path mode.
fn request(seed: u64, phase: u64, client: u64, k: u64) -> (Op, u64) {
    let op = if k % 4 == 3 { Op::Path } else { Op::Dist };
    (
        op,
        seed.wrapping_mul(0x1000_0000_01b3) ^ (phase << 62) ^ (client << 56) ^ k,
    )
}

fn batch_pairs(op: Op, key: u64, n: usize) -> Vec<(u32, u32)> {
    crate::pairs(
        key,
        n,
        if op == Op::Dist {
            DIST_BATCH
        } else {
            PATH_BATCH
        },
    )
}

/// Closed loop: send, wait for the answer, digest it, repeat until `until`.
fn client_loop(
    addr: SocketAddr,
    seed: u64,
    phase: u64,
    client: u64,
    n: usize,
    until: Instant,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog {
        sent: Vec::new(),
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut k = 0u64;
    while Instant::now() < until {
        let (op, key) = request(seed, phase, client, k);
        let pairs = batch_pairs(op, key, n);
        let start = Instant::now();
        let digest = match op {
            Op::Dist => conn
                .dist_batch(&pairs, 0)
                .map(|r| r.map(|a| digest_dists(&a))),
            Op::Path => conn
                .path_batch(&pairs, 0)
                .map(|r| r.map(|a| digest_paths(&a))),
        };
        let end = Instant::now();
        if traced && (k / TRACE_BLOCK) % 2 == 1 {
            let name = if op == Op::Dist {
                "client.dist"
            } else {
                "client.path"
            };
            log.spans.push((name, start, end, key));
        }
        let failed = digest.as_ref().err().map(ToString::to_string);
        log.sent.push(Sent {
            op,
            k,
            key,
            start,
            end,
            digest: digest.ok().and_then(Result::ok),
        });
        if let Some(e) = failed {
            log.errors.push(e);
            break;
        }
        k += 1;
    }
    log
}

/// Runs the clients of one phase; `during` runs on this thread meanwhile.
fn phase<T>(
    addr: SocketAddr,
    seed: u64,
    phase: u64,
    n: usize,
    until: Instant,
    traced: bool,
    during: impl FnOnce() -> T,
) -> (Vec<ClientLog>, T) {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client_loop(addr, seed, phase, c, n, until, traced)))
            .collect();
        let out = during();
        let logs = clients
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    sent: Vec::new(),
                    spans: Vec::new(),
                    errors: vec!["client thread panicked".into()],
                })
            })
            .collect();
        (logs, out)
    })
}

fn latencies_us(logs: &[ClientLog], keep: impl Fn(&Sent) -> bool) -> Vec<f64> {
    let mut out: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .filter(|s| s.digest.is_some() && keep(s))
        .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Replays every answered request against the reference, one thread per
/// client log; returns how many answers differ.
fn replay(logs: &[ClientLog], reference: &PathOracle, n: usize) -> u64 {
    let differs = |log: &ClientLog| {
        log.sent
            .iter()
            .filter(|s| {
                s.digest.is_some_and(|d| {
                    d != expected_digest(reference, s.op, &batch_pairs(s.op, s.key, n))
                })
            })
            .count() as u64
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = logs
            .iter()
            .map(|log| scope.spawn(move || differs(log)))
            .collect();
        // A replay thread that panicked checked nothing: count its log as wrong.
        workers
            .into_iter()
            .zip(logs)
            .map(|(w, log)| w.join().unwrap_or(log.sent.len() as u64))
            .sum()
    })
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let traced = tracer.is_on();

    // ── Prep (untimed). ──────────────────────────────────────────────────
    let prep = tracer.enter("prep", 0);
    let (g, generate) = tracer.time("graphs.generate", 0, || generators::grid(SIDE, SIDE));
    let n = g.n();
    let (exact, reference_d) = tracer.time("graphs.reference", 0, || bfs::apsp_exact(&g));
    let (solver, build) = tracer.time("core.build", 0, || {
        crate::solve::builder(g, true, traced).build()
    });
    let mut solver = match solver {
        Ok(s) => s,
        Err(e) => return prep_failed(report, tracer, format!("build: {e}")),
    };
    let (additive, additive_d) = tracer.time("core.additive", 0, || solver.apsp_near_additive());
    let (frozen, freeze_d) = tracer.time("core.freeze", 0, || solver.freeze_with_paths());
    let (additive, reference) = match (additive, frozen) {
        (Ok(a), Ok(f)) => (a, Arc::new(f)),
        (Err(e), _) | (_, Err(e)) => return prep_failed(report, tracer, format!("solve: {e}")),
    };
    let dir = crate::sys::out_dir();
    let path = dir.join(format!("serve-{}.ccro", std::process::id()));
    let (saved, save_d) = tracer.time("snapshot.save", 0, || {
        std::fs::create_dir_all(&dir).and_then(|()| reference.save_v2_to_path(&path))
    });
    let bytes = match saved.and_then(|()| std::fs::read(&path)) {
        Ok(b) => b,
        Err(e) => return prep_failed(report, tracer, format!("snapshot: {e}")),
    };
    tracer.exit(prep);
    let stretch = Stretch::of_oracle(reference.dist_oracle(), &exact);

    // ── Set-up: cold starts; the last server stays up. ───────────────────
    let config = ServerConfig {
        reload: Some(ReloadConfig::at(&path)),
        ..ServerConfig::default()
    };
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut handle: Option<server::ServerHandle> = None;
    let mut mapped = false;
    for i in 0..COLD_STARTS {
        if let Some(h) = handle.take() {
            h.shutdown();
        }
        let span = tracer.enter("setup", i);
        let (opened, open_d) = tracer.time("snapshot.open", i, || snapshot::open(&path));
        let started = opened.map_err(|e| e.to_string()).and_then(|o| {
            mapped = o.mapped;
            let (h, _) = tracer.time("serve.bind", i, || {
                server::serve(o.oracles, "127.0.0.1:0", config.clone())
            });
            let h = h.map_err(|e| e.to_string())?;
            let (pong, _) = tracer.time("client.ping", i, || {
                Client::connect(h.addr())
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.ping().map_err(|e| e.to_string()))
            });
            pong.map(|()| h)
        });
        let took = tracer.exit(span);
        match started {
            Ok(h) => {
                setups.push(took.as_secs_f64());
                opens.push(open_d.as_secs_f64() * 1e3);
                handle = Some(h);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                return prep_failed(report, tracer, format!("cold start: {e}"));
            }
        }
    }
    let Some(handle) = handle else {
        return prep_failed(report, tracer, "no cold start".into());
    };
    let addr = handle.addr();

    // ── Phase A: reads only. ─────────────────────────────────────────────
    let a_start = Instant::now();
    let a_until = a_start + Duration::from_secs_f64(seconds * PHASE_A_SHARE);
    let a_span = tracer.enter("phase_a", 0);
    let (a_logs, ()) = phase(addr, seed, 0, n, a_until, traced, || ());
    let a_wall = tracer.exit(a_span);
    for log in &a_logs {
        for &(name, start, end, key) in &log.spans {
            tracer.adopt(name, start, end, key);
        }
    }
    let metrics_text = if traced {
        Client::connect(addr)
            .ok()
            .and_then(|mut c| c.metrics().ok())
    } else {
        None
    };

    // ── Phase B: the same reads beside re-publish + reload. ──────────────
    let b_until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - PHASE_A_SHARE));
    let b_span = tracer.enter("phase_b", 1);
    let (b_logs, reloads) = phase(addr, seed, 1, n, b_until, false, || {
        let mut reloads: Vec<Result<Duration, String>> = Vec::new();
        let mut next = Instant::now() + RELOAD_PERIOD / 2;
        while reloads.is_empty() || next < b_until {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            next += RELOAD_PERIOD;
            if let Err(e) = cc_core::snapshot::write_atomic(&path, &bytes) {
                reloads.push(Err(format!("publish: {e}")));
                continue;
            }
            let started = Instant::now();
            let outcome = handle.trigger_reload();
            reloads.push(
                outcome
                    .map(|_| started.elapsed())
                    .map_err(|e| format!("reload: {e:?}")),
            );
        }
        reloads
    });
    tracer.exit(b_span);

    // ── Checks (untimed). ────────────────────────────────────────────────
    let check = tracer.enter("check", 0);
    let reload_ok: Vec<f64> = reloads
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let reload_errors: Vec<&String> = reloads.iter().filter_map(|r| r.as_ref().err()).collect();
    let stats = handle.stats();
    let generation = handle.generation();
    // After the last reload the served generation must be the published
    // one, answering bit for bit like the reference.
    let (final_attempted, final_failed) = final_generation_check(addr, &reference, seed, n);
    let generation_ok = generation == 1 + reload_ok.len() as u64;
    handle.shutdown();
    let mismatches = replay(&a_logs, &reference, n) + replay(&b_logs, &reference, n);
    tracer.exit(check);

    let all_logs = a_logs.iter().chain(&b_logs);
    let sent: u64 = all_logs.clone().map(|l| l.sent.len() as u64).sum();
    let unanswered: u64 = all_logs
        .clone()
        .flat_map(|l| &l.sent)
        .filter(|s| s.digest.is_none())
        .count() as u64;
    let client_errors: Vec<&String> = all_logs.flat_map(|l| &l.errors).collect();
    report.attempted = sent + final_attempted + reloads.len() as u64 + 1;
    report.failed = unanswered
        + mismatches
        + final_failed
        + reload_errors.len() as u64
        + u64::from(!generation_ok);

    let a_lat = latencies_us(&a_logs, |_| true);
    let b_lat = latencies_us(&b_logs, |_| true);
    let throughput = a_lat.len() as f64 / a_wall.as_secs_f64();
    report.set("setup_s", median(&setups));
    if !a_lat.is_empty() {
        report.set("latency_p50_ms", quantile(&a_lat, 0.5) / 1e3);
    }
    report.set("rounds_total", solver.total_rounds() as f64);
    report.set("stretch_max", stretch.max);
    report.set("stretch_mean", stretch.mean());
    report.set(
        "ok_rate",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
    );

    report.detail("n", n.to_string());
    report.detail("clients", CLIENTS.to_string());
    report.detail("phase_a_requests", a_lat.len().to_string());
    report.detail("phase_b_requests", b_lat.len().to_string());
    report.detail("phase_a_wall_s", a_wall.as_secs_f64().to_string());
    report.detail("throughput_per_s", throughput.to_string());
    report.detail("latency_p90_us", quantile(&a_lat, 0.9).to_string());
    report.detail("latency_p99_us", quantile(&a_lat, 0.99).to_string());
    report.detail("reloads", reload_ok.len().to_string());
    report.detail("reload_ms", format!("{reload_ok:?}"));
    report.detail("setup_s", format!("{setups:?}"));
    report.detail("snapshot_bytes", bytes.len().to_string());
    report.detail("snapshot_mapped", mapped.to_string());
    report.detail("served", stats.served.to_string());
    report.detail("shed", stats.shed.to_string());
    report.detail("mismatches", mismatches.to_string());
    report.detail("generation", generation.to_string());
    if !client_errors.is_empty() || !reload_errors.is_empty() {
        let errors: Vec<String> = client_errors
            .iter()
            .chain(&reload_errors)
            .map(|e| e.to_string())
            .collect();
        report.detail("errors", crate::report::json_str(&errors.join("; ")));
    }

    if traced {
        for (name, value) in crate::solve::solver_layers(&solver, additive.emulator.m()) {
            report.set(name, value);
        }
        report.set("graphs.generate_s", generate.as_secs_f64());
        report.set("graphs.reference_s", reference_d.as_secs_f64());
        report.set("core.build_s", build.as_secs_f64());
        report.set("core.additive_s", additive_d.as_secs_f64());
        report.set("core.freeze_s", freeze_d.as_secs_f64());
        report.set(
            "core.oracle_bytes",
            reference.dist_oracle().storage_bytes() as f64,
        );
        report.set("routes.witness_bytes", reference.witness_bytes() as f64);
        report.set("check.violations", mismatches as f64);
        report.set("snapshot.bytes", bytes.len() as f64);
        report.set("snapshot.save_s", save_d.as_secs_f64());
        report.set("snapshot.open_ms", median(&opens));
        let dist = latencies_us(&a_logs, |s| s.op == Op::Dist);
        let paths = latencies_us(&a_logs, |s| s.op == Op::Path);
        report.set("client.dist_p50_us", quantile(&dist, 0.5));
        report.set("client.path_p50_us", quantile(&paths, 0.5));
        report.set("client.latency_p90_us", quantile(&a_lat, 0.9));
        report.set("client.latency_p99_us", quantile(&a_lat, 0.99));
        report.set("client.throughput_per_s", throughput);
        report.set("serve.reload_p50_ms", median(&reload_ok));
        report.set("serve.storm_latency_p50_us", quantile(&b_lat, 0.5));
        report.set("serve.reloads", reload_ok.len() as f64);
        report.set("serve.final_generation", generation as f64);
        in_process_layers(&path, seed, n, tracer, report);
        if let Some(text) = &metrics_text {
            ccd_layers(text, &a_logs, report);
            tracer.note("ccd_metrics", text.clone());
        }
        // Tracing overhead: traced blocks of phase A against untraced ones.
        let in_traced_block = |s: &Sent| (s.k / TRACE_BLOCK) % 2 == 1;
        let plain = latencies_us(&a_logs, |s| !in_traced_block(s));
        let spanned = latencies_us(&a_logs, in_traced_block);
        if !plain.is_empty() && !spanned.is_empty() {
            report.set(
                "trace.overhead_share",
                quantile(&spanned, 0.5) / quantile(&plain, 0.5) - 1.0,
            );
        }
        // Share of the traced blocks' client time the request spans cover
        // (the rest is the client's own pair generation and digesting).
        let mut blocks: BTreeMap<(usize, u64), (Instant, Instant)> = BTreeMap::new();
        for (c, log) in a_logs.iter().enumerate() {
            for s in log.sent.iter().filter(|s| in_traced_block(s)) {
                blocks
                    .entry((c, s.k / TRACE_BLOCK))
                    .or_insert((s.start, s.end))
                    .1 = s.end;
            }
        }
        let wall: f64 = blocks.values().map(|&(s, e)| (e - s).as_secs_f64()).sum();
        let covered: f64 = a_logs
            .iter()
            .flat_map(|l| &l.spans)
            .map(|&(_, s, e, _)| (e - s).as_secs_f64())
            .sum();
        if wall > 0.0 {
            report.set("trace.span_sum_share", covered / wall);
        }
        tracer.note("profile_exposition", solver.profile_exposition());
        tracer.note("ledger", solver.ledger().report());
    }
    let _ = std::fs::remove_file(&path);
}

fn prep_failed(report: &mut Report, tracer: &mut Tracer, error: String) {
    tracer.close_all();
    report.attempted = 1;
    report.failed = 1;
    report.detail("errors", crate::report::json_str(&error));
}

/// Replays fixed batches on a fresh connection and compares every answer
/// with the reference in full. Returns (attempted, failed).
fn final_generation_check(
    addr: SocketAddr,
    reference: &PathOracle,
    seed: u64,
    n: usize,
) -> (u64, u64) {
    let Ok(mut conn) = Client::connect(addr) else {
        return (1, 1);
    };
    let mut failed = 0;
    let rounds = 16u64;
    for k in 0..rounds {
        let (op, key) = request(seed, 2, 0, k);
        let pairs = batch_pairs(op, key, n);
        let upairs = crate::widen(&pairs);
        let same = match op {
            Op::Dist => conn.dist_batch(&pairs, 0).is_ok_and(|r| {
                r.is_ok_and(|got| got == reference.dist_oracle().dist_batch(&upairs))
            }),
            Op::Path => conn.path_batch(&pairs, 0).is_ok_and(|r| {
                r.is_ok_and(|got| {
                    let want = reference.path_batch(&upairs);
                    got.len() == want.len()
                        && got.iter().zip(&want).all(|(g, w)| match (g, w) {
                            (None, None) => true,
                            (Some((weight, guarantee, edges)), Some(route)) => {
                                *weight == route.weight
                                    && *guarantee == route.guarantee
                                    && *edges == route.edges
                            }
                            _ => false,
                        })
                })
            }),
        };
        failed += u64::from(!same);
    }
    (rounds, failed)
}

/// Codec cost and in-process oracle cost on the payloads phase A sent,
/// the latter on the served snapshot opened (memory-mapped) once more.
fn in_process_layers(
    path: &std::path::Path,
    seed: u64,
    n: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let Ok(opened) = snapshot::open(path) else {
        return;
    };
    let Some(served) = opened.oracles.paths() else {
        return;
    };
    let span = tracer.enter("in_process", 0);
    let (mut codec, mut dist, mut route) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut dists, mut routes) = (0u32, 0u32);
    for k in 0..LAYER_SAMPLES {
        let (op, key) = request(seed, 0, 0, k);
        let pairs = batch_pairs(op, key, n);
        let upairs = crate::widen(&pairs);
        let (wire_op, payload) = match op {
            Op::Dist => {
                let started = Instant::now();
                let answers = served.dist_oracle().dist_batch(&upairs);
                dist += started.elapsed();
                dists += 1;
                (WireOp::Dist, Payload::Dists(answers))
            }
            Op::Path => {
                let started = Instant::now();
                let answers = served.path_batch(&upairs);
                route += started.elapsed();
                routes += 1;
                let items = answers
                    .into_iter()
                    .map(|r| r.map(|r| (r.weight, r.guarantee, r.edges)))
                    .collect();
                (WireOp::Path, Payload::Paths(items))
            }
        };
        let req = Request {
            req_id: k,
            op: wire_op,
            deadline_ms: 0,
            pairs,
        };
        let body = Response {
            req_id: k,
            status: Status::Ok,
            op: wire_op,
            payload,
        }
        .encode();
        let started = Instant::now();
        std::hint::black_box(req.encode());
        std::hint::black_box(Response::decode(&body));
        codec += started.elapsed();
    }
    tracer.exit(span);
    report.set(
        "protocol.codec_us",
        codec.as_secs_f64() * 1e6 / LAYER_SAMPLES as f64,
    );
    report.set(
        "oracle.dist_batch_us",
        dist.as_secs_f64() * 1e6 / f64::from(dists.max(1)),
    );
    report.set(
        "routes.path_batch_us",
        route.as_secs_f64() * 1e6 / f64::from(routes.max(1)),
    );
}

/// Server-side layers from the `Op::Metrics` exposition taken after
/// phase A, and the share of client round-trip time they do not explain.
fn ccd_layers(text: &str, a_logs: &[ClientLog], report: &mut Report) {
    let samples = parse_exposition(text);
    let hist = |name: &str| histogram_summary(&samples, name).unwrap_or_default();
    let mean_us = |h: cc_obs::HistSummary| {
        if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64 / 1e3
        }
    };
    let (wait, jobs, sweep, write) = (
        hist("ccd_queue_wait_ns"),
        hist("ccd_batch_jobs"),
        hist("ccd_oracle_batch_ns"),
        hist("ccd_outbox_write_ns"),
    );
    report.set("ccd.queue_wait_us", mean_us(wait));
    report.set("ccd.oracle_batch_us", mean_us(sweep));
    report.set("ccd.outbox_write_us", mean_us(write));
    report.set(
        "ccd.batch_jobs_mean",
        if jobs.count == 0 {
            0.0
        } else {
            jobs.sum as f64 / jobs.count as f64
        },
    );
    let client_ns: f64 = a_logs
        .iter()
        .flat_map(|l| &l.sent)
        .map(|s| (s.end - s.start).as_secs_f64() * 1e9)
        .sum();
    let server_ns = (wait.sum + sweep.sum + write.sum) as f64;
    if client_ns > 0.0 {
        report.set("ccd.unattributed_share", 1.0 - server_ns / client_ns);
    }
}
