//! # dsmpm2-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the execution substrate on which the DSM-PM2
//! reproduction runs. The original system executes on real clusters with the
//! PM2 user-level thread package; here, "cluster nodes" and "PM2 threads" are
//! simulated. One scheduler thread — the OS thread that calls
//! [`Engine::run`] — pops events from a virtual-time queue and passes control
//! to exactly one simulated thread at a time. By default a simulated thread
//! is a *continuation*: a stackful coroutine whose slices execute on the
//! scheduler thread itself, mirroring how Marcel multiplexes user-level
//! threads onto a kernel thread. Each continuation has its own guard-paged
//! stack (1 MiB by default, sized per thread with
//! [`SpawnOptions::stack_bytes`]). On targets without continuations every
//! thread runs on a dedicated OS thread with a futex-style baton hand-off
//! ([`SpawnOptions::baton`]), which is also the conformance baseline;
//! [`SimTuning`] selects the default for a whole engine. Both substrates
//! produce the same fully
//! deterministic execution in *virtual time*, which is what the benchmark
//! harness measures.
//!
//! ## Programming model
//!
//! ```
//! use dsmpm2_sim::{Engine, SimDuration};
//!
//! let mut engine = Engine::new();
//! engine.spawn("worker", |h| {
//!     h.charge(SimDuration::from_micros(10)); // local compute
//!     h.sleep(SimDuration::from_micros(5));   // yield + advance time
//!     assert_eq!(h.now().as_micros_f64(), 15.0);
//! });
//! engine.run().unwrap();
//! ```
//!
//! Key pieces:
//!
//! * [`Engine`] — owns the event queue and the scheduler loop.
//! * [`SimHandle`] — per-thread handle: virtual clock, compute charging,
//!   sleeping, parking, spawning.
//! * [`WaitSet`] — condition-variable-like wait queues for building blocking
//!   primitives (used by DSM page waits, locks, barriers).
//! * [`channel`] — virtual-time message channels with per-message delivery
//!   delays (used by the Madeleine transport model).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod channel;
mod continuation;
mod engine;
mod error;
mod handle;
mod thread;
mod time;
mod wait;

pub use channel::{channel, channel_on, SimReceiver, SimSender, TickOutbox};
pub use engine::{
    BlockReason, Engine, EngineConfig, EngineCtl, EventChoice, HandoffMode, RunReport,
    ScheduleController, SimTuning, SliceOutcome, SpawnOptions,
};
pub use error::SimError;
pub use handle::SimHandle;
pub use thread::ThreadId;
pub use time::{SimDuration, SimTime};
pub use wait::WaitSet;
