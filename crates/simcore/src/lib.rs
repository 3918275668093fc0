#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # simcore — deterministic discrete-event simulation engine
//!
//! Foundation for the HPBD reproduction suite. Every other crate in this
//! workspace (the InfiniBand fabric, the TCP stack, the block layer, the VM
//! subsystem, the HPBD client/server) is built on the primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time in integer nanoseconds.
//! * [`Engine`] — a single-threaded event queue with deterministic ordering.
//!   Events are boxed closures; components hold a cloned [`Engine`] handle
//!   and schedule follow-up events from inside event callbacks. The queue
//!   is a binary heap of `(time, seq, node)` entries over a slab of
//!   recycled event nodes ([`SchedulerKind::SlabHeap`]); the seed heap
//!   stays selectable as a differential oracle
//!   ([`SchedulerKind::ReferenceHeap`]).
//! * [`Resource`] — a serially-reusable timing resource (a CPU core, a DMA
//!   engine, a wire). Reserving a duration returns the start/end times after
//!   FIFO queueing, which is how contention and overlap are modeled.
//! * [`Signal`] / [`Latch`] — completion flags that the driver loop can run
//!   the engine against ("run until this swap-in finished").
//! * [`rng`] — a small deterministic RNG so identical seeds give identical
//!   simulations.
//! * [`stats`] — online statistics and histograms used by the experiment
//!   harness.
//!
//! The engine also carries the suite's observability handles: a
//! [`simtrace::Tracer`] (disabled by default, installed by harnesses
//! that want a Chrome trace) and a [`simtrace::MetricsRegistry`] that
//! instrumented components record into. Holding them on the [`Engine`]
//! means every layer can reach them without extra plumbing.
//!
//! The engine is deliberately single-threaded (`Rc`-based): determinism is a
//! core requirement for reproducing the paper's figures exactly and for
//! property-based testing. Parallelism lives one layer up: the bench
//! harness runs whole, independent simulations on worker threads and
//! reassembles their results in a fixed order.

pub mod engine;
pub mod resource;
pub mod rng;
mod sched;
pub mod signal;
pub mod stats;
pub mod time;

pub use engine::{default_scheduler, set_default_scheduler, Engine, EventId, SchedulerKind};
pub use resource::{MultiResource, Resource};
pub use rng::SimRng;
pub use signal::{Counter, Latch, Signal};
pub use simtrace::{
    FlightSummary, LifecycleHub, MetricsRegistry, MetricsSnapshot, TraceSession, Tracer,
};
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
