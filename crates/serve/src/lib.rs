//! Oracle serving: a TCP daemon over frozen [`cc_core`] oracles.
//!
//! The research pipeline ends with a frozen [`cc_core::DistOracle`]
//! snapshot on disk (`CCDO`, or `CCRO` when it carries routes). This crate
//! turns one of those files into a network service, `ccd`:
//!
//! * [`snapshot`] opens files, served **zero-copy**: the file is `mmap`'d
//!   ([`mmap`]) and the oracle's hot tables (distance entries, guarantee
//!   tags, route arenas) are typed views straight into the mapping, no
//!   deserialization.
//! * [`server`] is the daemon: per-connection reader threads feed a
//!   bounded queue; worker threads drain it in batches, coalescing
//!   co-arriving queries into single oracle batch calls over per-worker
//!   scratch. Admission control is explicit — a full queue answers
//!   `Overloaded`, deadlines expire to `DeadlineExceeded`, shutdown drains
//!   admitted work and answers `ShuttingDown` to the rest.
//! * [`slot`] is the hot-reload swap point: workers pin a snapshot
//!   generation per batch, so `SIGHUP` / `Op::Reload` swaps in a new
//!   (validated — [`snapshot::open_quarantining`]) file while in-flight
//!   batches finish on the old one.
//! * [`fault`] is a seeded, replayable fault-injection plan threaded
//!   through test-only seams — worker panics, connection resets, torn
//!   frames — for the chaos suite.
//! * [`protocol`] is the length-prefixed little-endian wire format, and
//!   [`client`] a blocking client (with bounded reconnect-retry for
//!   idempotent ops) for tests and benches.
//! * `metrics` (internal) backs every served counter and the request-lifecycle
//!   histograms (queue wait, batch size, oracle sweep, outbox write) with
//!   one `cc_obs` registry. `Op::Metrics` renders it as integer text
//!   exposition, which [`Client::stats`] parses into a [`StatsSnapshot`];
//!   `Op::Trace` drains the connection's span-event ring.
//!
//! ```no_run
//! use cc_serve::{server, snapshot};
//!
//! let opened = snapshot::open("oracle.ccro")?;
//! let handle = server::serve(opened.oracles, "127.0.0.1:0", Default::default())?;
//! println!("serving on {}", handle.addr());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `unsafe` is confined to the mmap module (raw mmap/munmap and the
// mapping-backed slice view); everything else is checked Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub(crate) mod metrics;
pub mod mmap;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod slot;
pub mod snapshot;

pub use client::{Client, ClientError, RetryPolicy};
pub use fault::{FaultPlan, FaultSite};
pub use metrics::StatsSnapshot;
pub use protocol::{Op, PathItem, Payload, Request, Response, Status, VersionInfo};
pub use server::{serve, ReloadConfig, ReloadError, ServerConfig, ServerHandle};
pub use snapshot::{open, open_quarantining, OpenError, OpenedSnapshot};

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking. Every mutex in this crate guards state that is valid after
/// any interrupted operation (queues of owned frames, a `VecDeque` plus a
/// flag, an `Arc` slot, a config struct), so a panicked holder must not
/// take the serving path down with it.
pub(crate) fn lock_recovering<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
