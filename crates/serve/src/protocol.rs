//! The `ccd` wire protocol: length-prefixed binary frames over TCP.
//!
//! Everything is little-endian. A frame is a `u32` body length followed by
//! the body (capped at [`MAX_FRAME`] — oversized frames are a protocol
//! error, not an allocation):
//!
//! ```text
//! request   req_id u64 | op u8 | flags u8 | deadline_ms u32 |
//!           count u32 | count × (u u32, v u32)
//! response  req_id u64 | status u8 | op u8 | count u32 | payload
//! ```
//!
//! Ops: `0` ping, `1` dist, `2` path, `3` reserved (decodes as unknown;
//! the server answers [`Status::Malformed`]), `4` reload (admin),
//! `5` version, `6` metrics, `7` trace. Response payloads:
//!
//! * **dist** — per pair: `present u8`, then (when present) `dist u32`,
//!   `kind u8`, `eps f64`, `additive f64`. The guarantee travels bit-exact
//!   so a served answer compares `==` against a local
//!   [`cc_core::PointEstimate`].
//! * **path** — per pair: `present u8`, then `dist u32`, `kind u8`,
//!   `eps f64`, `additive f64`, `edge_count u32`, `edge_count × (u32, u32)`.
//! * **metrics / trace** — `count` UTF-8 bytes (`count` is the byte
//!   length): the full metrics text exposition, or one `span …` line per
//!   drained trace-ring event for this connection.
//! * **version / reload** — `generation u64 | n u64`: the snapshot
//!   generation now serving (after the swap, for a successful reload) and
//!   its vertex count. A refused reload answers
//!   [`Status::ReloadRejected`] with an empty payload; the previous
//!   generation keeps serving.
//!
//! `deadline_ms` is the client's patience budget: `0` means the server
//! default. A request the scheduler dequeues after the deadline answers
//! [`Status::DeadlineExceeded`] without touching the oracle.

use std::io::{Read, Write};

use cc_core::{Guarantee, GuaranteeKind, PointEstimate};

/// The largest frame either side will read (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Request operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Liveness probe; empty response payload.
    Ping,
    /// Batched point distance queries.
    Dist,
    /// Batched route queries.
    Path,
    /// Admin: reload the serving snapshot from its configured path. The
    /// server answers with the post-swap [`VersionInfo`] on success, or
    /// [`Status::ReloadRejected`] (old snapshot keeps serving) on refusal.
    Reload,
    /// The serving snapshot's generation and vertex count.
    Version,
    /// The full metrics text exposition (counters, gauges, request
    /// lifecycle histograms) from the server's `cc_obs` registry.
    Metrics,
    /// Drains this connection's trace ring: one `span …` text line per
    /// recorded request (oldest first). Draining consumes the events.
    Trace,
}

impl Op {
    pub(crate) fn wire(self) -> u8 {
        match self {
            Op::Ping => 0,
            Op::Dist => 1,
            Op::Path => 2,
            Op::Reload => 4,
            Op::Version => 5,
            Op::Metrics => 6,
            Op::Trace => 7,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0 => Op::Ping,
            1 => Op::Dist,
            2 => Op::Path,
            4 => Op::Reload,
            5 => Op::Version,
            6 => Op::Metrics,
            7 => Op::Trace,
            _ => return None,
        })
    }
}

/// Response status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Served.
    Ok,
    /// Admission control shed the request: the bounded queue was full.
    /// Explicit — the client knows to back off; nothing is silently
    /// dropped.
    Overloaded,
    /// Dequeued after its deadline; not computed.
    DeadlineExceeded,
    /// The request could not be decoded or asked for out-of-range work.
    Malformed,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// A worker panicked while computing this batch. The request was not
    /// served, but the connection and the server survive; the panic is
    /// counted in `ccd_worker_panics_total` and the worker respawns.
    Internal,
    /// A reload was refused (corrupt file, dimension mismatch, or reload
    /// not configured); the previous snapshot generation keeps serving.
    ReloadRejected,
}

impl Status {
    pub(crate) fn wire(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::DeadlineExceeded => 2,
            Status::Malformed => 3,
            Status::ShuttingDown => 4,
            Status::Internal => 5,
            Status::ReloadRejected => 6,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::DeadlineExceeded,
            3 => Status::Malformed,
            4 => Status::ShuttingDown,
            5 => Status::Internal,
            6 => Status::ReloadRejected,
            _ => return None,
        })
    }
}

/// A decoded request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Client-chosen id echoed on the response.
    pub req_id: u64,
    /// What to do.
    pub op: Op,
    /// Patience in milliseconds; `0` = server default.
    pub deadline_ms: u32,
    /// Query pairs (empty for ping and the admin/text ops).
    pub pairs: Vec<(u32, u32)>,
}

/// Encodes a collection count for the wire. Counts are `u32`; any
/// saturated (impossibly large) count produces a body that
/// [`write_frame`]'s `MAX_FRAME` bound rejects, so a lying frame is never
/// emitted.
pub(crate) fn wire_count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl Request {
    /// Encodes the request body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(18 + 8 * self.pairs.len());
        b.extend_from_slice(&self.req_id.to_le_bytes());
        b.push(self.op.wire());
        b.push(0); // flags, reserved
        b.extend_from_slice(&self.deadline_ms.to_le_bytes());
        b.extend_from_slice(&wire_count(self.pairs.len()).to_le_bytes());
        for &(u, v) in &self.pairs {
            b.extend_from_slice(&u.to_le_bytes());
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Decodes a request body. `None` on any structural violation — the
    /// server answers [`Status::Malformed`] (when it can recover the id)
    /// rather than dropping the connection.
    pub fn decode(body: &[u8]) -> Option<Request> {
        let mut c = Dec::new(body);
        let req_id = c.u64()?;
        let op = Op::from_wire(c.u8()?)?;
        let _flags = c.u8()?;
        let deadline_ms = c.u32()?;
        let count = c.u32()? as usize;
        // Body length bounds the claimed count before the allocation.
        if c.remaining() != count.checked_mul(8)? {
            return None;
        }
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            pairs.push((c.u32()?, c.u32()?));
        }
        Some(Request {
            req_id,
            op,
            deadline_ms,
            pairs,
        })
    }
}

/// One served route answer: `(weight, guarantee, edges)`.
pub type PathItem = (u32, Guarantee, Vec<(u32, u32)>);

/// A decoded response payload.
#[derive(Clone, PartialEq, Debug)]
pub enum Payload {
    /// Ping / error responses: nothing.
    Empty,
    /// Per-pair distance answers.
    Dists(Vec<Option<PointEstimate>>),
    /// Per-pair route answers.
    Paths(Vec<Option<PathItem>>),
    /// Snapshot generation facts ([`Op::Version`], successful
    /// [`Op::Reload`]).
    Version(VersionInfo),
    /// UTF-8 text ([`Op::Metrics`] exposition, [`Op::Trace`] span lines).
    Text(String),
}

/// What [`Op::Version`] (and a successful [`Op::Reload`]) reports about
/// the serving snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VersionInfo {
    /// Monotonic snapshot generation: `1` at boot, `+1` per successful
    /// hot reload. A rejected reload does not advance it.
    pub generation: u64,
    /// Vertex count of the serving snapshot.
    pub n: u64,
}

/// A decoded response.
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    /// Echo of [`Request::req_id`].
    pub req_id: u64,
    /// Outcome.
    pub status: Status,
    /// Echo of the request op.
    pub op: Op,
    /// The answers (meaningful for [`Status::Ok`] only).
    pub payload: Payload,
}

/// Appends a response header: `req_id | status | op | count`.
pub(crate) fn encode_header(b: &mut Vec<u8>, req_id: u64, status: Status, op: Op, count: usize) {
    b.extend_from_slice(&req_id.to_le_bytes());
    b.push(status.wire());
    b.push(op.wire());
    b.extend_from_slice(&wire_count(count).to_le_bytes());
}

/// Appends one dist answer: `present u8`, then the estimate when present.
pub(crate) fn encode_dist_item(b: &mut Vec<u8>, item: Option<&PointEstimate>) {
    match item {
        None => b.push(0),
        Some(est) => {
            b.push(1);
            b.extend_from_slice(&est.dist.to_le_bytes());
            encode_guarantee(b, est.guarantee);
        }
    }
}

/// Appends one path answer: `present u8`, then, when present, the
/// weight, the guarantee and `edges` (ignored when absent).
pub(crate) fn encode_path_item(
    b: &mut Vec<u8>,
    item: Option<(u32, Guarantee)>,
    edges: &[(u32, u32)],
) {
    match item {
        None => b.push(0),
        Some((weight, g)) => {
            b.push(1);
            b.extend_from_slice(&weight.to_le_bytes());
            encode_guarantee(b, g);
            b.extend_from_slice(&wire_count(edges.len()).to_le_bytes());
            for &(x, y) in edges {
                b.extend_from_slice(&x.to_le_bytes());
                b.extend_from_slice(&y.to_le_bytes());
            }
        }
    }
}

fn encode_guarantee(b: &mut Vec<u8>, g: Guarantee) {
    b.push(guarantee_kind_wire(g.kind));
    b.extend_from_slice(&g.eps.to_bits().to_le_bytes());
    b.extend_from_slice(&g.additive.to_bits().to_le_bytes());
}

fn decode_guarantee(c: &mut Dec<'_>) -> Option<Guarantee> {
    let kind = guarantee_kind_from_wire(c.u8()?)?;
    let eps = f64::from_bits(c.u64()?);
    let additive = f64::from_bits(c.u64()?);
    Some(Guarantee {
        kind,
        eps,
        additive,
    })
}

pub(crate) fn guarantee_kind_wire(k: GuaranteeKind) -> u8 {
    match k {
        GuaranteeKind::Mult2Eps => 0,
        GuaranteeKind::Mult3Eps => 1,
        GuaranteeKind::NearAdditive => 2,
        GuaranteeKind::Mssp => 3,
    }
}

fn guarantee_kind_from_wire(b: u8) -> Option<GuaranteeKind> {
    Some(match b {
        0 => GuaranteeKind::Mult2Eps,
        1 => GuaranteeKind::Mult3Eps,
        2 => GuaranteeKind::NearAdditive,
        3 => GuaranteeKind::Mssp,
        _ => return None,
    })
}

impl Response {
    /// An error response (no payload).
    pub fn error(req_id: u64, op: Op, status: Status) -> Response {
        Response {
            req_id,
            status,
            op,
            payload: Payload::Empty,
        }
    }

    /// Encodes the response body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        let count = match &self.payload {
            Payload::Empty => 0,
            Payload::Dists(items) => items.len(),
            Payload::Paths(items) => items.len(),
            Payload::Version(_) => 2,
            Payload::Text(t) => t.len(),
        };
        encode_header(&mut b, self.req_id, self.status, self.op, count);
        match &self.payload {
            Payload::Empty => {}
            Payload::Dists(items) => {
                for item in items {
                    encode_dist_item(&mut b, item.as_ref());
                }
            }
            Payload::Paths(items) => {
                for item in items {
                    match item {
                        None => encode_path_item(&mut b, None, &[]),
                        Some((weight, g, edges)) => {
                            encode_path_item(&mut b, Some((*weight, *g)), edges)
                        }
                    }
                }
            }
            Payload::Version(v) => {
                b.extend_from_slice(&v.generation.to_le_bytes());
                b.extend_from_slice(&v.n.to_le_bytes());
            }
            Payload::Text(t) => b.extend_from_slice(t.as_bytes()),
        }
        b
    }

    /// Decodes a response body.
    pub fn decode(body: &[u8]) -> Option<Response> {
        let mut c = Dec::new(body);
        let req_id = c.u64()?;
        let status = Status::from_wire(c.u8()?)?;
        let op = Op::from_wire(c.u8()?)?;
        let count = c.u32()? as usize;
        let payload = if status != Status::Ok {
            Payload::Empty
        } else {
            match op {
                Op::Ping => Payload::Empty,
                Op::Dist => {
                    let mut items = Vec::with_capacity(count.min(MAX_FRAME / 8));
                    for _ in 0..count {
                        items.push(match c.u8()? {
                            0 => None,
                            1 => Some(PointEstimate {
                                dist: c.u32()?,
                                guarantee: decode_guarantee(&mut c)?,
                            }),
                            _ => return None,
                        });
                    }
                    Payload::Dists(items)
                }
                Op::Path => {
                    let mut items = Vec::with_capacity(count.min(MAX_FRAME / 8));
                    for _ in 0..count {
                        items.push(match c.u8()? {
                            0 => None,
                            1 => {
                                let weight = c.u32()?;
                                let g = decode_guarantee(&mut c)?;
                                let edge_count = c.u32()? as usize;
                                if c.remaining() < edge_count.checked_mul(8)? {
                                    return None;
                                }
                                let mut edges = Vec::with_capacity(edge_count);
                                for _ in 0..edge_count {
                                    edges.push((c.u32()?, c.u32()?));
                                }
                                Some((weight, g, edges))
                            }
                            _ => return None,
                        });
                    }
                    Payload::Paths(items)
                }
                Op::Reload | Op::Version => {
                    if count != 2 {
                        return None;
                    }
                    Payload::Version(VersionInfo {
                        generation: c.u64()?,
                        n: c.u64()?,
                    })
                }
                Op::Metrics | Op::Trace => {
                    // For text payloads `count` is the byte length.
                    let bytes = c.take(count)?;
                    Payload::Text(String::from_utf8(bytes.to_vec()).ok()?)
                }
            }
        };
        if !c.at_end() {
            return None;
        }
        Some(Response {
            req_id,
            status,
            op,
            payload,
        })
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized bodies.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::other("frame exceeds MAX_FRAME"));
    }
    let len =
        u32::try_from(body.len()).map_err(|_| std::io::Error::other("frame length exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::other("frame exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Minimal little-endian slice reader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let r = Request {
            req_id: 42,
            op: Op::Dist,
            deadline_ms: 250,
            pairs: vec![(0, 1), (7, 3)],
        };
        assert_eq!(Request::decode(&r.encode()), Some(r.clone()));
        // Truncated and over-counted bodies are rejected.
        let enc = r.encode();
        assert_eq!(Request::decode(&enc[..enc.len() - 1]), None);
        let mut padded = enc.clone();
        padded.push(0);
        assert_eq!(Request::decode(&padded), None);
        // Op 3 is the retired stats op; 9 was never assigned.
        for op in [3, 9] {
            let mut bad_op = enc.clone();
            bad_op[8] = op;
            assert_eq!(Request::decode(&bad_op), None, "op byte {op}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let g = Guarantee {
            kind: GuaranteeKind::NearAdditive,
            eps: 0.25,
            additive: 6.0,
        };
        let resp = Response {
            req_id: 7,
            status: Status::Ok,
            op: Op::Path,
            payload: Payload::Paths(vec![None, Some((3, g, vec![(0, 1), (1, 2), (2, 3)]))]),
        };
        assert_eq!(Response::decode(&resp.encode()), Some(resp.clone()));

        let dists = Response {
            req_id: 8,
            status: Status::Ok,
            op: Op::Dist,
            payload: Payload::Dists(vec![
                Some(PointEstimate {
                    dist: 5,
                    guarantee: g,
                }),
                None,
            ]),
        };
        assert_eq!(Response::decode(&dists.encode()), Some(dists));

        let err = Response::error(9, Op::Dist, Status::Overloaded);
        assert_eq!(Response::decode(&err.encode()), Some(err));
    }

    #[test]
    fn admin_ops_and_fault_statuses_round_trip() {
        for op in [Op::Reload, Op::Version] {
            let resp = Response {
                req_id: 11,
                status: Status::Ok,
                op,
                payload: Payload::Version(VersionInfo {
                    generation: 3,
                    n: 96,
                }),
            };
            assert_eq!(Response::decode(&resp.encode()), Some(resp.clone()));
            let req = Request {
                req_id: 12,
                op,
                deadline_ms: 0,
                pairs: vec![],
            };
            assert_eq!(Request::decode(&req.encode()), Some(req));
        }
        for status in [Status::Internal, Status::ReloadRejected] {
            let resp = Response::error(13, Op::Reload, status);
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }
        // A truncated version payload is rejected, not misread.
        let good = Response {
            req_id: 14,
            status: Status::Ok,
            op: Op::Version,
            payload: Payload::Version(VersionInfo::default()),
        }
        .encode();
        assert_eq!(Response::decode(&good[..good.len() - 1]), None);
    }

    #[test]
    fn text_payloads_round_trip() {
        for op in [Op::Metrics, Op::Trace] {
            let resp = Response {
                req_id: 15,
                status: Status::Ok,
                op,
                payload: Payload::Text("ccd_served_total 5\nspan req_id=1\n".to_string()),
            };
            assert_eq!(Response::decode(&resp.encode()), Some(resp.clone()));
            let req = Request {
                req_id: 16,
                op,
                deadline_ms: 0,
                pairs: vec![],
            };
            assert_eq!(Request::decode(&req.encode()), Some(req));
            // Truncated text is rejected, not misread.
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc[..enc.len() - 1]), None);
            // Invalid UTF-8 is rejected.
            let mut bad = enc;
            let last = bad.len() - 1;
            bad[last] = 0xff;
            assert_eq!(Response::decode(&bad), None);
        }
        let empty = Response {
            req_id: 17,
            status: Status::Ok,
            op: Op::Metrics,
            payload: Payload::Text(String::new()),
        };
        assert_eq!(Response::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }
}
