//! The serving daemon: threaded TCP front-end, batching scheduler,
//! admission control, hot snapshot reload, and fault containment.
//!
//! Per connection, a reader thread decodes frames and classifies them:
//! `ping`/`version`/`reload`/`metrics`/`trace` are answered
//! inline; `dist`/`path` become jobs on the bounded [`BoundedQueue`]. A
//! full queue answers
//! [`Status::Overloaded`] immediately — the load-shedding contract is
//! *explicit refusal*, never a silent drop or an unbounded backlog.
//!
//! Worker threads drain the queue in batches ([`ServerConfig::batch_max`]
//! jobs per lock hold), so queries that arrive together — from any mix of
//! connections — coalesce into single [`cc_core::DistOracle::dist_batch_into`] /
//! [`cc_core::DistOracle::path_into`] sweeps over per-worker scratch buffers.
//!
//! **Hot reload** ([`crate::slot::SnapshotSlot`]): each batch pins the
//! current snapshot generation once and answers entirely against it, so
//! an `Op::Reload` (or `SIGHUP`, when configured) that swaps in
//! generation *k+1* is invisible to in-flight batches — they finish on
//! *k*, whose mapping stays alive until the last pin drops. The reload
//! path validates the new file first ([`crate::snapshot::open_quarantining`]:
//! checksum via the loaders, dimension check here) under a dedicated
//! reload lock; a refused reload answers [`Status::ReloadRejected`] and
//! the old generation keeps serving.
//!
//! **Containment**: workers run each batch under `catch_unwind` — a
//! panic answers the batch's unanswered requests with
//! [`Status::Internal`], the panic is counted, and the worker continues
//! with fresh scratch (a respawn without the thread churn). Responses
//! are not written by workers at all: each connection has a bounded
//! byte-capped outbox drained by a dedicated writer thread with a write
//! timeout, so a slow-reading client overflows its outbox (or times out)
//! and is disconnected — counted in `ccd_slow_disconnects_total` — instead of wedging a
//! worker. Reader threads treat a torn frame as that connection's
//! problem only.
//!
//! Deadlines are checked at dequeue: a job that waited past its budget
//! answers [`Status::DeadlineExceeded`] without touching the oracle, so a
//! backlog burns off at queue speed instead of compute speed.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is drain-first: intake closes
//! (new requests answer [`Status::ShuttingDown`]), workers finish every
//! admitted job, writers flush every queued response, then all threads
//! join.
//!
//! **Observability** (`ServeMetrics`, internal): every counter
//! behind [`ServerHandle::stats`] and the request-lifecycle histograms (queue wait,
//! batch size, oracle sweep time, outbox write time) live in one `cc_obs`
//! registry, rendered by `Op::Metrics`. Each connection additionally
//! keeps a bounded trace ring of span events — pushed *before* the
//! response frame is enqueued, so a client that has its answer can always
//! drain its own span via `Op::Trace`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cc_core::{DistOracle, EmitStack, PointEstimate};
use cc_obs::{SpanEvent, TraceRing};

use crate::fault::{FaultPlan, FaultSite};
use crate::lock_recovering;
use crate::metrics::{elapsed_ns, ServeMetrics, StatsSnapshot, TRACE_RING_CAPACITY};
use crate::protocol::{
    encode_dist_item, encode_header, encode_path_item, wire_count, Op, Payload, Request, Response,
    Status, VersionInfo, MAX_FRAME,
};
use crate::queue::{BoundedQueue, PushError};
use crate::slot::SnapshotSlot;
use crate::snapshot::{open_quarantining, OpenError};

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker (scheduler) threads.
    pub threads: usize,
    /// Bounded queue capacity, in requests; beyond it, requests shed.
    pub queue_capacity: usize,
    /// Max jobs one worker drains per batch.
    pub batch_max: usize,
    /// Default per-request deadline when the client sends `0`; `0` here
    /// means "no deadline".
    pub default_deadline_ms: u32,
    /// Per-connection socket write timeout in milliseconds; a response
    /// write that stalls past it disconnects the slow client. `0`
    /// disables the timeout.
    pub write_timeout_ms: u32,
    /// Per-connection outbox byte cap: queued-but-unwritten response
    /// bytes beyond it disconnect the slow client instead of buffering
    /// without bound or blocking a worker.
    pub outbox_cap_bytes: usize,
    /// Hot-reload configuration; `None` rejects `Op::Reload`.
    pub reload: Option<ReloadConfig>,
    /// Deterministic fault injection (tests only); `None` in production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 2,
            queue_capacity: 1024,
            batch_max: 64,
            default_deadline_ms: 0,
            write_timeout_ms: 2_000,
            outbox_cap_bytes: 8 << 20,
            reload: None,
            fault: None,
        }
    }
}

/// Where and how hot reloads happen.
#[derive(Clone, Debug)]
pub struct ReloadConfig {
    /// The snapshot path reloads re-open. Publishing a new snapshot means
    /// atomically replacing this file ([`cc_core::snapshot::write_atomic`])
    /// and then triggering a reload.
    pub path: PathBuf,
    /// Accept a snapshot whose vertex count differs from the serving one.
    /// Off by default: a dimension change is usually a deploy mistake.
    pub allow_resize: bool,
    /// Also reload on `SIGHUP` (Unix; polled by the acceptor).
    pub on_sighup: bool,
}

impl ReloadConfig {
    /// Reload-on-admin-op config for `path` with the safe defaults.
    pub fn at<P: Into<PathBuf>>(path: P) -> Self {
        ReloadConfig {
            path: path.into(),
            allow_resize: false,
            on_sighup: false,
        }
    }
}

/// Why a reload was refused. The previous generation keeps serving in
/// every case.
#[derive(Debug)]
pub enum ReloadError {
    /// The server was started without a [`ReloadConfig`].
    NotConfigured,
    /// The new file failed to open or validate (validation failures are
    /// quarantined — see [`OpenError`]).
    Open(OpenError),
    /// The new snapshot's vertex count differs and
    /// [`ReloadConfig::allow_resize`] is off.
    Resize {
        /// Serving snapshot's vertex count.
        current: usize,
        /// Refused snapshot's vertex count.
        new: usize,
    },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::NotConfigured => write!(f, "reload is not configured"),
            ReloadError::Open(e) => write!(f, "reload refused: {e}"),
            ReloadError::Resize { current, new } => write!(
                f,
                "reload refused: snapshot is n={new} but serving n={current} \
                 (pass --allow-resize to accept)"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Everything the server's threads share.
struct Shared {
    slot: SnapshotSlot,
    queue: BoundedQueue<Job>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    reload_ctl: Option<ReloadCtl>,
    fault: Option<Arc<FaultPlan>>,
    default_deadline_ms: u32,
    write_timeout: Option<Duration>,
    outbox_cap: usize,
}

/// Serializes reloads: the open/validate/swap sequence runs under this
/// lock (file I/O included — never under the slot lock, which stays
/// narrow).
struct ReloadCtl {
    reload: Mutex<ReloadConfig>,
}

impl Shared {
    fn fault_fires(&self, site: FaultSite) -> bool {
        self.fault.as_ref().is_some_and(|f| f.fire(site))
    }

    fn fault_coordinates(&self) -> String {
        self.fault
            .as_ref()
            .map_or_else(String::new, |f| f.coordinates())
    }
}

/// The validated hot-reload path: open the configured file (quarantining
/// a corrupt one), check dimensions against the serving snapshot, swap.
/// Serialized by the reload lock; concurrent callers queue up and each
/// gets a definite outcome.
fn try_reload(shared: &Shared) -> Result<VersionInfo, ReloadError> {
    let outcome = (|| {
        let Some(ctl) = &shared.reload_ctl else {
            return Err(ReloadError::NotConfigured);
        };
        let reload = lock_recovering(&ctl.reload);
        let opened = open_quarantining(&reload.path).map_err(ReloadError::Open)?;
        let new_n = opened.oracles.n();
        let current_n = shared.slot.pin().oracle.n();
        if new_n != current_n && !reload.allow_resize {
            return Err(ReloadError::Resize {
                current: current_n,
                new: new_n,
            });
        }
        let generation = shared.slot.swap(opened.oracles);
        drop(reload);
        Ok(VersionInfo {
            generation,
            n: new_n as u64,
        })
    })();
    match &outcome {
        Ok(_) => shared.metrics.reloads_ok.inc(),
        Err(_) => shared.metrics.reloads_rejected.inc(),
    };
    outcome
}

/// The [`ServerHandle::stats`] answer, read from the same `cc_obs`
/// counters the `Op::Metrics` exposition renders — one accounting
/// substrate, so the two views reconcile exactly.
fn stats_snapshot(shared: &Shared) -> StatsSnapshot {
    let m = &shared.metrics;
    StatsSnapshot {
        served: m.served.get(),
        shed: m.shed.get(),
        deadline_missed: m.deadline_missed.get(),
        malformed: m.malformed.get(),
        queue_depth: shared.queue.depth() as u64,
        generation: shared.slot.generation(),
        reloads_ok: m.reloads_ok.get(),
        reloads_rejected: m.reloads_rejected.get(),
        worker_panics: m.worker_panics.get(),
        slow_disconnects: m.slow_disconnects.get(),
        spawn_refused: m.spawn_refused.get(),
    }
}

/// The `Op::Metrics` answer: refresh the point-in-time gauges, then
/// render the whole registry as integer text exposition.
fn metrics_text(shared: &Shared) -> String {
    let m = &shared.metrics;
    m.queue_depth.set(shared.queue.depth() as u64);
    m.generation.set(shared.slot.generation());
    m.registry.render()
}

/// Queued-but-unwritten response frames for one connection.
#[derive(Debug, Default)]
struct OutboxState {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
}

/// One accepted connection. The reader thread pulls frames; workers and
/// the reader enqueue whole encoded response frames into the bounded
/// outbox; a dedicated writer thread drains it to the socket. Nothing but
/// the writer ever blocks on this socket's send side.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    outbox: Mutex<OutboxState>,
    outbox_ready: Condvar,
    /// Torn down (peer dead, slow-client kill, injected reset): writes
    /// and enqueues become no-ops.
    dead: AtomicBool,
    /// The reader has exited; once in-flight jobs drain to zero the
    /// writer flushes and exits too.
    reader_done: AtomicBool,
    /// Jobs admitted for this connection and not yet answered.
    inflight: AtomicU64,
    /// Span events for this connection's last requests, drained by
    /// `Op::Trace`. Events are pushed before the response frame is
    /// enqueued, so an answered request's span is always drainable.
    trace: TraceRing,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            outbox: Mutex::new(OutboxState::default()),
            outbox_ready: Condvar::new(),
            dead: AtomicBool::new(false),
            reader_done: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            trace: TraceRing::new(TRACE_RING_CAPACITY),
        }
    }

    /// Queues one encoded response frame for the writer. `false` when the
    /// connection is dead or the frame would overflow the outbox cap — in
    /// which case the client is disconnected (slow-reader containment),
    /// never blocked on.
    fn enqueue_frame(&self, body: &[u8], cap: usize, metrics: &ServeMetrics) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let mut outbox = lock_recovering(&self.outbox);
        if outbox.bytes.saturating_add(body.len()) > cap {
            drop(outbox);
            metrics.slow_disconnects.inc();
            self.kill();
            return false;
        }
        outbox.bytes = outbox.bytes.saturating_add(body.len());
        outbox.frames.push_back(body.to_vec());
        drop(outbox);
        self.outbox_ready.notify_one();
        true
    }

    fn enqueue_response(&self, resp: &Response, cap: usize, metrics: &ServeMetrics) -> bool {
        self.enqueue_frame(&resp.encode(), cap, metrics)
    }

    /// Tears the connection down: both socket halves shut (unblocking the
    /// reader), the writer woken to exit. Idempotent.
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.stream.shutdown(Shutdown::Both);
        // Take-and-drop the outbox lock so a writer mid-condition-check
        // cannot miss the wakeup (classic lost-notify fence).
        drop(lock_recovering(&self.outbox));
        self.outbox_ready.notify_all();
    }

    /// One admitted job finished (answered or refused); the writer
    /// re-evaluates its exit condition.
    fn job_done(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        drop(lock_recovering(&self.outbox));
        self.outbox_ready.notify_all();
    }

    /// The reader exited; the writer drains what remains and then exits.
    fn reader_finished(&self) {
        self.reader_done.store(true, Ordering::Relaxed);
        drop(lock_recovering(&self.outbox));
        self.outbox_ready.notify_all();
    }
}

/// A queued query batch (one request).
struct Job {
    conn: Arc<Conn>,
    req_id: u64,
    op: Op,
    deadline: Option<Instant>,
    /// When the reader admitted the job — the queue-wait histogram
    /// measures from here to batch pickup.
    enqueued_at: Instant,
    pairs: Vec<(u32, u32)>,
}

impl Job {
    /// The span event recorded for this job's outcome (trace ring).
    fn span(&self, status: Status, wait_ns: u64, batch: u64) -> SpanEvent {
        SpanEvent {
            req_id: self.req_id,
            op: self.op.wire(),
            status: status.wire(),
            wait_ns,
            batch,
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A racy snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        stats_snapshot(&self.shared)
    }

    /// The serving snapshot generation (`1` at boot, `+1` per reload).
    pub fn generation(&self) -> u64 {
        self.shared.slot.generation()
    }

    /// Runs the hot-reload path in the caller's thread — what `SIGHUP`
    /// and `Op::Reload` trigger, callable directly (tests, embedding).
    ///
    /// # Errors
    ///
    /// [`ReloadError`] when the reload is refused; the previous snapshot
    /// generation keeps serving.
    pub fn trigger_reload(&self) -> Result<VersionInfo, ReloadError> {
        try_reload(&self.shared)
    }

    /// Graceful shutdown: close intake, drain admitted work, flush
    /// outboxes, join every thread. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Workers first: every admitted job gets its answer enqueued.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Readers exit on the shutdown flag; writers exit once their
        // reader is done, in-flight hits zero, and the outbox is drained.
        let conn_threads = std::mem::take(&mut *lock_recovering(&self.conn_threads));
        for h in conn_threads {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// The longest the acceptor waits before it looks at the shutdown and
/// `SIGHUP` flags again, and its back-off after a failed `accept`.
const ACCEPT_WAIT: Duration = Duration::from_millis(5);

/// Binds `addr` and starts accepting. Returns once the listener is live.
///
/// # Errors
///
/// Propagates the bind failure, or the OS's refusal to start a worker or
/// the acceptor (the threads already started are stopped and joined).
pub fn serve(
    oracle: Arc<DistOracle>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let write_timeout = (config.write_timeout_ms != 0)
        .then(|| Duration::from_millis(u64::from(config.write_timeout_ms)));
    let sighup = config
        .reload
        .as_ref()
        .is_some_and(|r| r.on_sighup)
        .then(crate::mmap::sighup_flag);
    let shared = Arc::new(Shared {
        slot: SnapshotSlot::new(oracle),
        queue: BoundedQueue::new(config.queue_capacity),
        metrics: ServeMetrics::new(),
        shutdown: AtomicBool::new(false),
        reload_ctl: config.reload.map(|r| ReloadCtl {
            reload: Mutex::new(r),
        }),
        fault: config.fault,
        default_deadline_ms: config.default_deadline_ms,
        write_timeout,
        outbox_cap: config.outbox_cap_bytes.max(1024),
    });
    // Built first, so that an early return drops it and its `Drop` stops
    // and joins whatever had started.
    let mut handle = ServerHandle {
        addr,
        shared: Arc::clone(&shared),
        acceptor: None,
        workers: Vec::new(),
        conn_threads: Arc::new(Mutex::new(Vec::new())),
    };

    for _ in 0..config.threads.max(1) {
        let shared = Arc::clone(&shared);
        let batch_max = config.batch_max.max(1);
        let worker = std::thread::Builder::new().spawn(move || worker_loop(&shared, batch_max))?;
        handle.workers.push(worker);
    }

    let conn_threads = Arc::clone(&handle.conn_threads);
    let acceptor = std::thread::Builder::new().spawn(move || {
        while !shared.shutdown.load(Ordering::Relaxed) {
            if let Some(flag) = sighup {
                if flag.swap(false, Ordering::AcqRel) {
                    // Outcome lands in the reload counters and the
                    // generation gauge (`Op::Metrics`, `Op::Version`).
                    // A refusal keeps the old generation.
                    let _ = try_reload(&shared);
                }
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                    let _ = stream.set_write_timeout(shared.write_timeout);
                    let conn = Arc::new(Conn::new(stream));
                    let mut started = Vec::with_capacity(2);
                    if start_conn(&shared, &conn, &mut started).is_err() {
                        // Drop the connection; a reader that did start
                        // exits on the kill and is reaped like any other.
                        shared.metrics.spawn_refused.inc();
                        conn.kill();
                    }
                    let mut conn_threads = lock_recovering(&conn_threads);
                    // Reap finished connections so churn cannot grow
                    // the handle list without bound.
                    conn_threads.retain(|h| !h.is_finished());
                    conn_threads.extend(started);
                }
                // Nothing to accept: wait for a connection, waking at
                // least every 5 ms for the shutdown and `SIGHUP` flags.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    crate::mmap::wait_acceptable(&listener, ACCEPT_WAIT);
                }
                // A failed accept (out of descriptors, say) would fail
                // again at once: back off instead of spinning.
                Err(_) => std::thread::sleep(ACCEPT_WAIT),
            }
        }
    })?;
    handle.acceptor = Some(acceptor);
    Ok(handle)
}

/// Starts `conn`'s reader, then its writer, pushing each started thread
/// onto `started`; stops at the first spawn that is refused (by the OS,
/// or by [`FaultSite::SpawnRefused`] in its place).
fn start_conn(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    started: &mut Vec<JoinHandle<()>>,
) -> std::io::Result<()> {
    for reader in [true, false] {
        if shared.fault_fires(FaultSite::SpawnRefused) {
            return Err(std::io::Error::other("injected thread spawn refusal"));
        }
        let (conn, shared) = (Arc::clone(conn), Arc::clone(shared));
        started.push(std::thread::Builder::new().spawn(move || {
            if reader {
                reader_loop(&conn, &shared);
                conn.reader_finished();
            } else {
                writer_loop(&conn, &shared);
            }
        })?);
    }
    Ok(())
}

/// Reads `buf.len()` bytes, polling the shutdown flag across read
/// timeouts. `Ok(false)`: clean stop (EOF at a frame boundary, or
/// shutdown). Mid-frame EOF is an error.
fn read_full(
    stream: &TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    at_boundary: bool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let window = buf.get_mut(filled..).unwrap_or_default();
        match (&*stream).read(window) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn reader_loop(conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let cap = shared.outbox_cap;
    let metrics = &shared.metrics;
    loop {
        // Injected reset: the mid-stream disconnect clients must survive.
        if shared.fault_fires(FaultSite::ConnReset) {
            conn.kill();
            return;
        }
        let mut len_buf = [0u8; 4];
        match read_full(&conn.stream, &mut len_buf, &shared.shutdown, true) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            metrics.malformed.inc();
            // Frame boundary is lost; the connection cannot continue
            // reading — but queued responses still flush.
            return;
        }
        let mut body = vec![0u8; len];
        match read_full(&conn.stream, &mut body, &shared.shutdown, false) {
            Ok(true) => {}
            // A torn frame mid-stream ends this connection's intake and
            // nothing else: the writer drains, the server keeps serving.
            Ok(false) | Err(_) => return,
        }
        let Some(req) = Request::decode(&body) else {
            metrics.malformed.inc();
            // Best effort: the id prefix may still be intact.
            let req_id = body
                .first_chunk::<8>()
                .map(|b| u64::from_le_bytes(*b))
                .unwrap_or(0);
            conn.enqueue_response(
                &Response::error(req_id, Op::Ping, Status::Malformed),
                cap,
                metrics,
            );
            continue;
        };
        match req.op {
            Op::Ping => {
                conn.enqueue_response(
                    &Response {
                        req_id: req.req_id,
                        status: Status::Ok,
                        op: Op::Ping,
                        payload: Payload::Empty,
                    },
                    cap,
                    metrics,
                );
            }
            Op::Metrics => {
                conn.enqueue_response(
                    &Response {
                        req_id: req.req_id,
                        status: Status::Ok,
                        op: Op::Metrics,
                        payload: Payload::Text(metrics_text(shared)),
                    },
                    cap,
                    metrics,
                );
            }
            Op::Trace => {
                conn.enqueue_response(
                    &Response {
                        req_id: req.req_id,
                        status: Status::Ok,
                        op: Op::Trace,
                        payload: Payload::Text(conn.trace.drain_text()),
                    },
                    cap,
                    metrics,
                );
            }
            Op::Version => {
                let pinned = shared.slot.pin();
                conn.enqueue_response(
                    &Response {
                        req_id: req.req_id,
                        status: Status::Ok,
                        op: Op::Version,
                        payload: Payload::Version(VersionInfo {
                            generation: pinned.generation,
                            n: pinned.oracle.n() as u64,
                        }),
                    },
                    cap,
                    metrics,
                );
            }
            Op::Reload => {
                let resp = match try_reload(shared) {
                    Ok(info) => Response {
                        req_id: req.req_id,
                        status: Status::Ok,
                        op: Op::Reload,
                        payload: Payload::Version(info),
                    },
                    Err(_) => Response::error(req.req_id, Op::Reload, Status::ReloadRejected),
                };
                conn.enqueue_response(&resp, cap, metrics);
            }
            Op::Dist | Op::Path => {
                let effective_ms = if req.deadline_ms != 0 {
                    req.deadline_ms
                } else {
                    shared.default_deadline_ms
                };
                let now = Instant::now();
                let deadline = (effective_ms != 0)
                    .then(|| now + Duration::from_millis(u64::from(effective_ms)));
                let job = Job {
                    conn: Arc::clone(conn),
                    req_id: req.req_id,
                    op: req.op,
                    deadline,
                    enqueued_at: now,
                    pairs: req.pairs,
                };
                conn.inflight.fetch_add(1, Ordering::Relaxed);
                match shared.queue.try_push(job) {
                    Ok(()) => {}
                    Err((job, PushError::Full)) => {
                        metrics.shed.inc();
                        job.conn.trace.push(job.span(Status::Overloaded, 0, 0));
                        job.conn.enqueue_response(
                            &Response::error(job.req_id, job.op, Status::Overloaded),
                            cap,
                            metrics,
                        );
                        job.conn.job_done();
                    }
                    Err((job, PushError::Closed)) => {
                        job.conn.trace.push(job.span(Status::ShuttingDown, 0, 0));
                        job.conn.enqueue_response(
                            &Response::error(job.req_id, job.op, Status::ShuttingDown),
                            cap,
                            metrics,
                        );
                        job.conn.job_done();
                    }
                }
            }
        }
    }
}

/// Drains one connection's outbox to its socket. Exits when the
/// connection dies, or when the reader is done *and* no admitted job is
/// still in flight *and* the outbox is empty — the drain-first shutdown
/// contract: every enqueued response is flushed before the thread leaves.
fn writer_loop(conn: &Arc<Conn>, shared: &Shared) {
    let mut pending: Vec<Vec<u8>> = Vec::new();
    loop {
        {
            let mut outbox = lock_recovering(&conn.outbox);
            loop {
                if !outbox.frames.is_empty() {
                    pending.extend(outbox.frames.drain(..));
                    outbox.bytes = 0;
                    break;
                }
                if conn.dead.load(Ordering::Relaxed) {
                    return;
                }
                if conn.reader_done.load(Ordering::Relaxed)
                    && conn.inflight.load(Ordering::Relaxed) == 0
                {
                    return;
                }
                outbox = conn
                    .outbox_ready
                    .wait(outbox)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        for body in pending.drain(..) {
            if conn.dead.load(Ordering::Relaxed) {
                return;
            }
            if shared.fault_fires(FaultSite::PartialWrite) {
                // Write a deliberately torn frame, then kill: the client
                // must treat the torn tail as fatal for this request.
                let mut frame = Vec::with_capacity(4 + body.len());
                frame.extend_from_slice(&wire_count(body.len()).to_le_bytes());
                frame.extend_from_slice(&body);
                let torn = frame.len() / 2;
                let _ = (&conn.stream).write_all(frame.get(..torn).unwrap_or_default());
                conn.kill();
                return;
            }
            let write_started = Instant::now();
            if let Err(e) = crate::protocol::write_frame(&mut (&conn.stream), &body) {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    // The peer stopped reading: slow-client containment.
                    shared.metrics.slow_disconnects.inc();
                }
                conn.kill();
                return;
            }
            shared
                .metrics
                .outbox_write_ns
                .record(elapsed_ns(write_started));
        }
    }
}

/// Per-worker reusable buffers — scratch survives across batches and is
/// reset wholesale after a contained panic (the "respawn").
struct Scratch {
    jobs: Vec<Job>,
    /// Which jobs in the batch have been answered (any status); a panic
    /// answers the rest `Internal`.
    answered: Vec<bool>,
    /// Concatenated pairs of every dist job in the batch.
    dist_pairs: Vec<(usize, usize)>,
    /// `(job index in batch, start in dist_pairs, len)`.
    dist_slots: Vec<(usize, usize, usize)>,
    dist_out: Vec<Option<PointEstimate>>,
    edges: Vec<(u32, u32)>,
    /// Route emission's work stacks; each emission starts by clearing them.
    stack: EmitStack,
    body: Vec<u8>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            jobs: Vec::new(),
            answered: Vec::new(),
            dist_pairs: Vec::new(),
            dist_slots: Vec::new(),
            dist_out: Vec::new(),
            edges: Vec::new(),
            stack: EmitStack::default(),
            body: Vec::new(),
        }
    }

    /// Post-panic reset: every buffer except `jobs`/`answered` (which the
    /// recovery path still needs) may be mid-operation garbage.
    fn reset_buffers(&mut self) {
        self.dist_pairs.clear();
        self.dist_slots.clear();
        self.dist_out.clear();
        self.edges.clear();
        self.body.clear();
    }
}

fn worker_loop(shared: &Arc<Shared>, batch_max: usize) {
    let mut s = Scratch::new();
    loop {
        shared.queue.pop_batch(batch_max, &mut s.jobs);
        if s.jobs.is_empty() {
            return; // closed and drained
        }
        s.answered.clear();
        s.answered.resize(s.jobs.len(), false);
        // Containment: a panic anywhere in the batch — oracle bug,
        // injected fault — answers the unanswered jobs `Internal` and the
        // worker continues with fresh scratch. Unwind safety: the scratch
        // is reset below and the shared structures are poison-recovering,
        // so observing interrupted state is by design.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(shared, &mut s);
        }));
        if outcome.is_err() {
            shared.metrics.worker_panics.inc();
            for (i, job) in s.jobs.iter().enumerate() {
                if s.answered.get(i).copied().unwrap_or(true) {
                    continue;
                }
                job.conn.trace.push(job.span(Status::Internal, 0, 0));
                job.conn.enqueue_response(
                    &Response::error(job.req_id, job.op, Status::Internal),
                    shared.outbox_cap,
                    &shared.metrics,
                );
            }
            s.reset_buffers();
        }
        // Exactly one in-flight decrement per admitted job, on every
        // path — success, error answer, or contained panic.
        for job in &s.jobs {
            job.conn.job_done();
        }
        s.jobs.clear();
    }
}

fn process_batch(shared: &Shared, s: &mut Scratch) {
    if shared.fault_fires(FaultSite::WorkerPanic) {
        panic!(
            "injected worker panic (replay: {})",
            shared.fault_coordinates()
        );
    }
    // Pin one generation for the whole batch: a concurrent reload swaps
    // the slot but this batch keeps answering against its pinned tables.
    let pinned = shared.slot.pin();
    let oracle = &pinned.oracle;
    let metrics = &shared.metrics;
    let cap = shared.outbox_cap;
    let now = Instant::now();
    let batch = s.jobs.len() as u64;
    metrics.batch_jobs.record(batch);
    // Coalesce every live dist job in this batch into one oracle call.
    s.dist_pairs.clear();
    s.dist_slots.clear();
    for (i, job) in s.jobs.iter().enumerate() {
        if job.op != Op::Dist || job.deadline.is_some_and(|d| d < now) {
            continue;
        }
        let start = s.dist_pairs.len();
        s.dist_pairs
            .extend(job.pairs.iter().map(|&(u, v)| (u as usize, v as usize)));
        s.dist_slots.push((i, start, job.pairs.len()));
    }
    if !s.dist_pairs.is_empty() {
        let sweep_started = Instant::now();
        oracle.dist_batch_into(&s.dist_pairs, &mut s.dist_out);
        metrics.oracle_batch_ns.record(elapsed_ns(sweep_started));
    }
    let mut slot = 0;
    for (i, job) in s.jobs.iter().enumerate() {
        let wait_ns = u64::try_from(now.saturating_duration_since(job.enqueued_at).as_nanos())
            .unwrap_or(u64::MAX);
        metrics.queue_wait_ns.record(wait_ns);
        if job.deadline.is_some_and(|d| d < now) {
            metrics.deadline_missed.inc();
            job.conn
                .trace
                .push(job.span(Status::DeadlineExceeded, wait_ns, batch));
            job.conn.enqueue_response(
                &Response::error(job.req_id, job.op, Status::DeadlineExceeded),
                cap,
                metrics,
            );
            if let Some(a) = s.answered.get_mut(i) {
                *a = true;
            }
            continue;
        }
        // `served` counts *before* the enqueue: once the frame is in the
        // outbox the writer may deliver it and the client may act on it
        // ahead of any code after this point, and a stats probe racing
        // that window must already see the request counted.
        match job.op {
            Op::Dist => {
                // Slots were built from this batch two loops up, so the
                // lookups cannot miss; a miss (a bug) sheds the one
                // request as Malformed instead of killing the worker.
                let entry = s.dist_slots.get(slot).copied();
                slot += 1;
                let answers = entry.and_then(|(j, start, len)| {
                    debug_assert_eq!(j, i);
                    start
                        .checked_add(len)
                        .and_then(|end| s.dist_out.get(start..end))
                });
                match answers {
                    Some(answers) => {
                        encode_dist_body(&mut s.body, job.req_id, answers);
                        metrics.served.inc();
                        job.conn.trace.push(job.span(Status::Ok, wait_ns, batch));
                        job.conn.enqueue_frame(&s.body, cap, metrics);
                    }
                    None => {
                        job.conn
                            .trace
                            .push(job.span(Status::Malformed, wait_ns, batch));
                        job.conn.enqueue_response(
                            &Response::error(job.req_id, job.op, Status::Malformed),
                            cap,
                            metrics,
                        );
                    }
                }
            }
            Op::Path => {
                let (edges, stack) = (&mut s.edges, &mut s.stack);
                encode_path_body(&mut s.body, job.req_id, &job.pairs, oracle, edges, stack);
                metrics.served.inc();
                job.conn.trace.push(job.span(Status::Ok, wait_ns, batch));
                job.conn.enqueue_frame(&s.body, cap, metrics);
            }
            // The reader answers these inline and never enqueues them;
            // nothing is owed here.
            Op::Ping | Op::Reload | Op::Version | Op::Metrics | Op::Trace => {}
        }
        if let Some(a) = s.answered.get_mut(i) {
            *a = true;
        }
    }
}

/// The body `Response { status: Ok, payload: Dists(..) }.encode()` gives,
/// written into the reused `body` without building the response.
fn encode_dist_body(body: &mut Vec<u8>, req_id: u64, answers: &[Option<PointEstimate>]) {
    body.clear();
    encode_header(body, req_id, Status::Ok, Op::Dist, answers.len());
    for a in answers {
        encode_dist_item(body, a.as_ref());
    }
}

/// The body `Response { status: Ok, payload: Paths(..) }.encode()` gives,
/// written into the reused `body` with each route unrolled into the reused
/// `edges` over the reused work `stack`. A snapshot without routes answers
/// every pair `absent` ([`DistOracle::path_into`] is `None` throughout) —
/// same shape a disconnected pair has, so clients need no special case.
fn encode_path_body(
    body: &mut Vec<u8>,
    req_id: u64,
    pairs: &[(u32, u32)],
    oracle: &DistOracle,
    edges: &mut Vec<(u32, u32)>,
    stack: &mut EmitStack,
) {
    body.clear();
    encode_header(body, req_id, Status::Ok, Op::Path, pairs.len());
    for &(u, v) in pairs {
        edges.clear();
        let item = oracle.path_into(u as usize, v as usize, edges, stack);
        encode_path_item(body, item, edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use cc_core::{DistanceMatrix, Guarantee, PathProvider};
    use cc_graphs::{Graph, StorageKind};
    use cc_routes::PathStore;
    use std::io::ErrorKind;

    fn tiny_oracle() -> Arc<DistOracle> {
        let mut m = DistanceMatrix::new(4);
        m.improve(0, 1, 1);
        Arc::new(DistOracle::from_matrix(
            &m,
            Guarantee::mult2(0.5),
            StorageKind::SymmetricPacked,
        ))
    }

    /// The dist and path bodies the workers write are the bytes
    /// `Response::encode` gives for the same answers, absent and present
    /// ones mixed: routes on a path of four vertices, and a fifth vertex
    /// that reaches none of them.
    #[test]
    fn served_bodies_equal_response_encode() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut m = DistanceMatrix::new(5);
        let mut store = PathStore::new(5);
        for u in 0..4u32 {
            for v in u + 1..4 {
                m.improve(u as usize, v as usize, v - u);
                store.set_walk(&g, &(u..=v).collect::<Vec<_>>());
            }
        }
        let oracle =
            DistOracle::from_matrix(&m, Guarantee::mult2(0.5), StorageKind::SymmetricPacked)
                .with_routes(vec![0; 15], vec![PathProvider::Pairs(Arc::new(store))]);
        let pairs = [(0, 3), (4, 1), (2, 2), (3, 1), (0, 4)];
        let wide: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        let response = |req_id, op, payload| Response {
            req_id,
            status: Status::Ok,
            op,
            payload,
        };

        let answers = oracle.dist_batch(&wide);
        assert!(answers.iter().any(Option::is_none) && answers.iter().any(Option::is_some));
        let mut body = Vec::new();
        encode_dist_body(&mut body, 7, &answers);
        assert_eq!(
            body,
            response(7, Op::Dist, Payload::Dists(answers)).encode()
        );

        let routes: Vec<_> = oracle
            .path_batch(&wide)
            .into_iter()
            .map(|r| r.map(|r| (r.weight, r.guarantee, r.edges)))
            .collect();
        assert!(routes.iter().any(Option::is_none) && routes.iter().any(Option::is_some));
        let stack = &mut EmitStack::default();
        encode_path_body(&mut body, 8, &pairs, &oracle, &mut Vec::new(), stack);
        assert_eq!(body, response(8, Op::Path, Payload::Paths(routes)).encode());
    }

    #[test]
    fn connection_churn_does_not_pile_up_thread_handles() {
        let handle = serve(tiny_oracle(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let held = || lock_recovering(&handle.conn_threads).len();
        let mut peak = 0;
        for _ in 0..200 {
            let mut client = Client::connect(handle.addr()).unwrap();
            client.ping().unwrap();
            drop(client);
            peak = peak.max(held());
        }
        assert!(peak <= 32, "{peak} handles held during churn");
        // Once the churned connections have finished, the next accept
        // reaps them all: only the live connection's two threads remain.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut client = Client::connect(handle.addr()).unwrap();
            client.ping().unwrap();
            if held() <= 4 {
                break;
            }
            assert!(Instant::now() < deadline, "{} handles still held", held());
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
    }

    /// A refused connection-thread spawn drops that connection and counts
    /// it, and the acceptor lives on to serve the next one: first with the
    /// first `K` connections refused at their reader, then with a reader
    /// started and the writer refused, so the kill must stop the reader.
    /// The refusals are injected: the test starts no thread beyond the
    /// server's own.
    #[test]
    fn refused_spawns_drop_the_connection_and_keep_the_acceptor() {
        const K: u64 = 3;
        let site = FaultSite::SpawnRefused;
        // A seed whose first draw at rate 1/2 passes and second fires.
        let writer_refused = (0..)
            .find(|&seed| {
                let plan = FaultPlan::new(seed).with_site(site, 500, 2);
                !plan.fire(site) && plan.fire(site)
            })
            .expect("some seed passes, then fires");
        for (plan, refused) in [
            (FaultPlan::new(1).with_site(site, 1000, K), K),
            (FaultPlan::new(writer_refused).with_site(site, 500, 2), 1),
        ] {
            let plan = Arc::new(plan);
            let at = plan.coordinates();
            let config = ServerConfig {
                fault: Some(Arc::clone(&plan)),
                ..ServerConfig::default()
            };
            let handle = serve(tiny_oracle(), "127.0.0.1:0", config).unwrap();
            for k in 1..=refused {
                let mut stream = TcpStream::connect(handle.addr()).unwrap();
                let timeout = Some(Duration::from_secs(10));
                stream.set_read_timeout(timeout).unwrap();
                // Dropped: the read ends at EOF or a reset, not a timeout.
                match stream.read(&mut [0u8; 1]) {
                    Ok(n) => assert_eq!(n, 0, "{at}: connection {k} answered"),
                    Err(e) => assert!(
                        !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                        "{at}: connection {k} still open"
                    ),
                }
                assert_eq!(handle.stats().spawn_refused, k, "{at}");
            }
            let mut client = Client::connect(handle.addr()).unwrap();
            client.ping().unwrap();
            assert_eq!(client.stats().unwrap().spawn_refused, refused, "{at}");
            assert_eq!(plan.fires(site), refused, "{at}");
            drop(client);
            handle.shutdown();
        }
    }
}
