//! Dependency-free observability substrate for the congested-clique
//! workspace.
//!
//! Everything here is integer-only (`u64` counts and nanoseconds — the
//! workspace float-ban extends to this crate) and allocation-light:
//!
//! * [`registry`] — a named registry of atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-boundary power-of-two [`Histogram`]s, rendered as
//!   Prometheus-style text exposition with integer sample values.
//! * [`trace`] — a bounded per-connection [`TraceRing`] of [`SpanEvent`]s:
//!   writers `try_lock` a slot and drop the event on contention, so the
//!   hot path never blocks on an observer.
//! * [`stage`] — [`StageTimes`], gated wall-clock stage accounting for the
//!   solver pipelines; disabled recorders never read the clock.
//! * [`text`] — a parser for the exposition format plus exact bucket-rank
//!   quantile extraction, shared by tests, `Client::stats` and perfbench.
//!
//! Metric names are `&'static str` by construction: the registry cannot be
//! fed a formatted (per-request) name, which keeps lookups out of hot
//! paths and the exposition bounded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod stage;
pub mod text;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use stage::{StageStat, StageTimes};
pub use text::{parse_exposition, HistSummary};
pub use trace::{SpanEvent, TraceRing};
