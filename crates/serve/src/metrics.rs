//! The daemon's metric set: the eleven [`StatsSnapshot`] counters and
//! gauges, backed by the `cc_obs` registry, plus the request-lifecycle
//! histograms.
//!
//! One accounting substrate: `ServerHandle::stats` reads the *same*
//! atomics the `Op::Metrics` exposition renders, and `Client::stats`
//! parses that exposition back through [`stats_from_exposition`], so the
//! views can never disagree (the chaos suite asserts exact
//! reconciliation). This module is the only one that knows the sample
//! names. Handles are registered once at server construction — nothing on
//! the serving hot path ever touches the registry's name map.

use cc_obs::{Counter, Gauge, Histogram, Registry};

pub(crate) const SERVED: &str = "ccd_served_total";
pub(crate) const SHED: &str = "ccd_shed_total";
pub(crate) const DEADLINE_MISSED: &str = "ccd_deadline_missed_total";
pub(crate) const MALFORMED: &str = "ccd_malformed_total";
pub(crate) const QUEUE_DEPTH: &str = "ccd_queue_depth";
pub(crate) const GENERATION: &str = "ccd_generation";
pub(crate) const RELOADS_OK: &str = "ccd_reloads_ok_total";
pub(crate) const RELOADS_REJECTED: &str = "ccd_reloads_rejected_total";
pub(crate) const WORKER_PANICS: &str = "ccd_worker_panics_total";
pub(crate) const SLOW_DISCONNECTS: &str = "ccd_slow_disconnects_total";
pub(crate) const SPAWN_REFUSED: &str = "ccd_spawn_refused_total";

/// The server's counters at one instant: in-process from
/// `ServerHandle::stats`, or over the wire from `Client::stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// Requests answered `Ok`.
    pub served: u64,
    /// Requests answered `Overloaded` (queue full).
    pub shed: u64,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_missed: u64,
    /// Requests answered `Malformed`.
    pub malformed: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Serving snapshot generation (`1` at boot; `+1` per hot reload).
    pub generation: u64,
    /// Hot reloads that validated and swapped in.
    pub reloads_ok: u64,
    /// Hot reloads refused (corrupt file, dimension mismatch); the
    /// previous generation kept serving.
    pub reloads_rejected: u64,
    /// Worker panics contained by `catch_unwind` (each answered its batch
    /// with `Status::Internal` and the worker respawned).
    pub worker_panics: u64,
    /// Connections dropped for reading too slowly (outbox overflow or
    /// write timeout) instead of blocking workers.
    pub slow_disconnects: u64,
    /// Connections dropped because the OS refused to start one of their
    /// threads; the acceptor kept accepting.
    pub spawn_refused: u64,
}

/// Reads the eleven [`StatsSnapshot`] samples out of an `Op::Metrics`
/// exposition; `None` if any is missing.
pub(crate) fn stats_from_exposition(text: &str) -> Option<StatsSnapshot> {
    let samples = cc_obs::parse_exposition(text);
    let get = |name: &str| samples.get(name).copied();
    Some(StatsSnapshot {
        served: get(SERVED)?,
        shed: get(SHED)?,
        deadline_missed: get(DEADLINE_MISSED)?,
        malformed: get(MALFORMED)?,
        queue_depth: get(QUEUE_DEPTH)?,
        generation: get(GENERATION)?,
        reloads_ok: get(RELOADS_OK)?,
        reloads_rejected: get(RELOADS_REJECTED)?,
        worker_panics: get(WORKER_PANICS)?,
        slow_disconnects: get(SLOW_DISCONNECTS)?,
        spawn_refused: get(SPAWN_REFUSED)?,
    })
}

/// Capacity of each connection's trace ring (span events kept for
/// `Op::Trace`).
pub(crate) const TRACE_RING_CAPACITY: usize = 64;

/// Registry-backed server metrics, shared by readers, writers, workers.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// The registry that owns every handle below; renders the exposition.
    pub registry: Registry,
    /// Requests answered `Ok`.
    pub served: Counter,
    /// Requests answered `Overloaded` (queue full).
    pub shed: Counter,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_missed: Counter,
    /// Requests answered `Malformed`.
    pub malformed: Counter,
    /// Hot reloads that validated and swapped in.
    pub reloads_ok: Counter,
    /// Hot reloads refused.
    pub reloads_rejected: Counter,
    /// Worker panics contained by `catch_unwind`.
    pub worker_panics: Counter,
    /// Connections dropped for reading too slowly.
    pub slow_disconnects: Counter,
    /// Connections dropped on a refused thread spawn.
    pub spawn_refused: Counter,
    /// Queue depth at exposition time.
    pub queue_depth: Gauge,
    /// Serving snapshot generation at exposition time.
    pub generation: Gauge,
    /// Nanoseconds a job waited queued before a worker picked it up.
    pub queue_wait_ns: Histogram,
    /// Jobs coalesced per worker batch.
    pub batch_jobs: Histogram,
    /// Nanoseconds per coalesced `dist_batch_into` oracle sweep.
    pub oracle_batch_ns: Histogram,
    /// Nanoseconds per response frame write (outbox drain to socket).
    pub outbox_write_ns: Histogram,
}

impl ServeMetrics {
    pub(crate) fn new() -> ServeMetrics {
        let registry = Registry::new();
        ServeMetrics {
            served: registry.counter(SERVED),
            shed: registry.counter(SHED),
            deadline_missed: registry.counter(DEADLINE_MISSED),
            malformed: registry.counter(MALFORMED),
            reloads_ok: registry.counter(RELOADS_OK),
            reloads_rejected: registry.counter(RELOADS_REJECTED),
            worker_panics: registry.counter(WORKER_PANICS),
            slow_disconnects: registry.counter(SLOW_DISCONNECTS),
            spawn_refused: registry.counter(SPAWN_REFUSED),
            queue_depth: registry.gauge(QUEUE_DEPTH),
            generation: registry.gauge(GENERATION),
            queue_wait_ns: registry.histogram("ccd_queue_wait_ns"),
            batch_jobs: registry.histogram("ccd_batch_jobs"),
            oracle_batch_ns: registry.histogram("ccd_oracle_batch_ns"),
            outbox_write_ns: registry.histogram("ccd_outbox_write_ns"),
            registry,
        }
    }
}

/// Elapsed nanoseconds since `start`, saturating into `u64`.
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_parse_reads_every_sample_and_needs_all_eleven() {
        let m = ServeMetrics::new();
        m.served.add(5);
        m.worker_panics.inc();
        m.generation.set(3);
        let text = m.registry.render();
        let parsed = stats_from_exposition(&text).expect("all eleven samples present");
        assert_eq!(
            parsed,
            StatsSnapshot {
                served: 5,
                worker_panics: 1,
                generation: 3,
                ..StatsSnapshot::default()
            }
        );
        for name in [
            SERVED,
            SHED,
            DEADLINE_MISSED,
            MALFORMED,
            QUEUE_DEPTH,
            GENERATION,
            RELOADS_OK,
            RELOADS_REJECTED,
            WORKER_PANICS,
            SLOW_DISCONNECTS,
            SPAWN_REFUSED,
        ] {
            let without: String = text
                .lines()
                .filter(|l| l.split_whitespace().next() != Some(name))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(stats_from_exposition(&without), None, "{name} missing");
        }
    }
}
