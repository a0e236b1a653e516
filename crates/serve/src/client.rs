//! A blocking client for the `ccd` protocol — one request in flight per
//! connection. The integration tests and perfbench's `serve-mixed`
//! workload drive the server through this.
//!
//! ## Failure semantics
//!
//! [`ClientError`] separates *retryable* failures (connect refused, send
//! failed before any response byte arrived, clean disconnect at a frame
//! boundary) from *fatal* ones (an error mid-response, a protocol
//! violation). The distinction carries the exactly-once discipline: a
//! request whose response was partially read may or may not have executed,
//! so the client never blind-retries it — [`ClientError::is_retryable`]
//! is `false` and the retrying helpers give up.
//!
//! [`Client::dist_batch_retry`] reconnects and retries the **idempotent**
//! distance query under a [`RetryPolicy`] (bounded attempts, exponential
//! backoff, deterministic jitter). Admin ops —
//! `reload` in particular — are never retried by this module: a reload
//! may have been applied even when its response was lost.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use cc_core::PointEstimate;

use crate::fault::{FaultPlan, FaultSite};
use crate::metrics::{stats_from_exposition, StatsSnapshot};
use crate::protocol::{
    read_frame, write_frame, Op, Payload, Request, Response, Status, VersionInfo,
};

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    next_id: u64,
    read_timeout: Option<Duration>,
    fault: Option<Arc<FaultPlan>>,
}

/// A client-side failure, split by *what it implies about the request*.
#[derive(Debug)]
pub enum ClientError {
    /// Could not (re)connect. Retryable — nothing was sent.
    Connect(std::io::Error),
    /// The request failed to send. Retryable for idempotent ops: the
    /// server may have received it, but re-asking a pure query is safe.
    Send(std::io::Error),
    /// The connection closed cleanly before any response byte. Retryable
    /// for idempotent ops, same reasoning as [`ClientError::Send`].
    Disconnected,
    /// I/O failed *mid-response* (torn frame, timeout after partial
    /// read). **Fatal**: the request's outcome is unknown and the stream
    /// position is lost; never blind-retried.
    Recv(std::io::Error),
    /// The server's bytes did not decode, or answered the wrong request.
    /// Fatal.
    Protocol(&'static str),
}

impl ClientError {
    /// Whether a *pure, idempotent* request that failed this way is safe
    /// to retry on a fresh connection.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Connect(_) | ClientError::Send(_) | ClientError::Disconnected
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Send(e) => write!(f, "send failed: {e}"),
            ClientError::Disconnected => write!(f, "connection closed before a response"),
            ClientError::Recv(e) => write!(f, "receive failed mid-response: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Bounded reconnect-and-retry for idempotent queries: exponential
/// backoff from [`RetryPolicy::base_delay`] capped at
/// [`RetryPolicy::max_delay`], with deterministic jitter drawn from
/// [`RetryPolicy::jitter_seed`] — two clients with different seeds spread
/// their retries instead of stampeding in lockstep, and a test replays a
/// schedule exactly from the seed.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`3` ⇒ up to 4 attempts).
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0x5eed,
        }
    }
}

/// SplitMix64 finalizer (same mix as [`crate::fault`]).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based): `base * 2^attempt`
    /// capped at `max_delay`, then jittered to 50–100% of that value.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_delay);
        let nanos = capped.as_nanos().min(u128::from(u64::MAX)) as u64;
        let jittered = nanos / 2 + mix(self.jitter_seed ^ u64::from(attempt)) % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

impl Client {
    /// Connects (with `TCP_NODELAY` — the protocol is request/response).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            next_id: 1,
            read_timeout: None,
            fault: None,
        })
    }

    /// Drops the current socket and dials the same address again. Request
    /// ids keep counting up, so responses from the old connection can
    /// never be confused with the new one's.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the dial fails.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr).map_err(ClientError::Connect)?;
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(self.read_timeout)
            .map_err(ClientError::Connect)?;
        self.stream = stream;
        Ok(())
    }

    /// Sets the receive timeout (`None` blocks forever); remembered
    /// across [`Client::reconnect`].
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Arms the client-side fault seam (torn request writes). Tests only.
    pub fn set_fault(&mut self, fault: Arc<FaultPlan>) {
        self.fault = Some(fault);
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let body = req.encode();
        if self
            .fault
            .as_ref()
            .is_some_and(|f| f.fire(FaultSite::ClientTornWrite))
        {
            // Write a deliberately torn frame and drop the connection:
            // the server's reader must shrug off the mid-stream EOF.
            let mut frame = Vec::with_capacity(4 + body.len());
            frame.extend_from_slice(&crate::protocol::wire_count(body.len()).to_le_bytes());
            frame.extend_from_slice(&body);
            let torn = frame.len() / 2;
            use std::io::Write;
            let _ = (&self.stream).write_all(frame.get(..torn).unwrap_or_default());
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            return Err(ClientError::Send(std::io::Error::other(
                "injected torn request write",
            )));
        }
        write_frame(&mut &self.stream, &body).map_err(ClientError::Send)?;
        let body = read_frame(&mut &self.stream)
            .map_err(ClientError::Recv)?
            .ok_or(ClientError::Disconnected)?;
        let resp = Response::decode(&body).ok_or(ClientError::Protocol("undecodable response"))?;
        if resp.req_id != req.req_id {
            return Err(ClientError::Protocol("response id mismatch"));
        }
        Ok(resp)
    }

    fn next_request(&mut self, op: Op, deadline_ms: u32, pairs: Vec<(u32, u32)>) -> Request {
        let req_id = self.next_id;
        self.next_id += 1;
        Request {
            req_id,
            op,
            deadline_ms,
            pairs,
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let req = self.next_request(Op::Ping, 0, Vec::new());
        let resp = self.roundtrip(&req)?;
        if resp.status == Status::Ok {
            Ok(())
        } else {
            Err(ClientError::Protocol("ping refused"))
        }
    }

    /// Batched point distances. On [`Status::Ok`] the answers align with
    /// `pairs`; any other status returns the raw response for the caller
    /// to interpret (back-off on `Overloaded`, …).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn dist_batch(
        &mut self,
        pairs: &[(u32, u32)],
        deadline_ms: u32,
    ) -> Result<Result<Vec<Option<PointEstimate>>, Status>, ClientError> {
        let req = self.next_request(Op::Dist, deadline_ms, pairs.to_vec());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Dists(items)) => {
                if items.len() != pairs.len() {
                    return Err(ClientError::Protocol("answer count mismatch"));
                }
                Ok(Ok(items))
            }
            (Status::Ok, _) => Err(ClientError::Protocol("wrong payload kind")),
            (status, _) => Ok(Err(status)),
        }
    }

    /// [`Client::dist_batch`] with reconnect-and-retry on retryable
    /// failures — safe because a distance query is pure. On a retryable
    /// error it backs off, reconnects and re-asks; on anything else —
    /// including an error after response bytes arrived — it gives up at
    /// once.
    ///
    /// # Errors
    ///
    /// The final attempt's error once retries are exhausted, or the first
    /// non-retryable error immediately.
    pub fn dist_batch_retry(
        &mut self,
        pairs: &[(u32, u32)],
        deadline_ms: u32,
        policy: &RetryPolicy,
    ) -> Result<Result<Vec<Option<PointEstimate>>, Status>, ClientError> {
        let mut attempt = 0;
        loop {
            match self.dist_batch(pairs, deadline_ms) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                    // A failed reconnect consumes this attempt; keep the
                    // old (dead) socket and let the next lap try again.
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Batched routes; items are `(weight, guarantee, edges)`.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn path_batch(
        &mut self,
        pairs: &[(u32, u32)],
        deadline_ms: u32,
    ) -> Result<Result<Vec<Option<crate::protocol::PathItem>>, Status>, ClientError> {
        let req = self.next_request(Op::Path, deadline_ms, pairs.to_vec());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Paths(items)) => {
                if items.len() != pairs.len() {
                    return Err(ClientError::Protocol("answer count mismatch"));
                }
                Ok(Ok(items))
            }
            (Status::Ok, _) => Err(ClientError::Protocol("wrong payload kind")),
            (status, _) => Ok(Err(status)),
        }
    }

    /// Server counters, parsed from the [`Client::metrics`] exposition.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures; [`ClientError::Protocol`] when any
    /// of the eleven counter samples is missing from the exposition.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let text = self.metrics()?;
        stats_from_exposition(&text).ok_or(ClientError::Protocol("stats samples missing"))
    }

    /// The full metrics text exposition (counters, gauges, request
    /// lifecycle histograms) — parseable with `cc_obs::parse_exposition`.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let req = self.next_request(Op::Metrics, 0, Vec::new());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Text(t)) => Ok(t),
            _ => Err(ClientError::Protocol("metrics refused")),
        }
    }

    /// Drains this connection's trace ring: one `span …` line per
    /// recorded request, oldest first. Draining consumes the events.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn trace(&mut self) -> Result<String, ClientError> {
        let req = self.next_request(Op::Trace, 0, Vec::new());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Text(t)) => Ok(t),
            _ => Err(ClientError::Protocol("trace refused")),
        }
    }

    /// The serving snapshot generation and vertex count.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn version(&mut self) -> Result<VersionInfo, ClientError> {
        let req = self.next_request(Op::Version, 0, Vec::new());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Version(v)) => Ok(v),
            _ => Err(ClientError::Protocol("version refused")),
        }
    }

    /// Asks the server to hot-reload its snapshot file. `Ok(Ok(info))`:
    /// the new generation is serving. `Ok(Err(status))`: the server
    /// refused (`ReloadRejected` — bad file, dimension change, reload not
    /// configured) and the previous generation keeps serving.
    ///
    /// Never retried by this module: a lost response leaves the reload's
    /// outcome unknown, and re-asking could double-apply.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn reload(&mut self) -> Result<Result<VersionInfo, Status>, ClientError> {
        let req = self.next_request(Op::Reload, 0, Vec::new());
        let resp = self.roundtrip(&req)?;
        match (resp.status, resp.payload) {
            (Status::Ok, Payload::Version(v)) => Ok(Ok(v)),
            (Status::Ok, _) => Err(ClientError::Protocol("wrong payload kind")),
            (status, _) => Ok(Err(status)),
        }
    }
}
