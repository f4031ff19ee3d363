//! Wall-clock measurement of the scheduler/thread hand-off.
//!
//! Unlike every other number in this harness, this one is *real* time, not
//! virtual time: the hand-off is the simulator's own hot path (one grant and
//! one return per simulated step), so its cost is pure wall-clock overhead
//! that scales every simulation. The measurement runs one simulated thread
//! that yields `steps` times and divides the elapsed wall-clock time by the
//! step count. Both substrates are measured: the continuation mode (the
//! slice runs as a coroutine on the scheduler's own OS thread — two stack
//! switches, no OS scheduling) and the futex-style OS-thread baton (two
//! futex wake-ups).

use std::time::Instant;

use dsmpm2_sim::{Engine, EngineConfig, HandoffMode, SimTuning};
use serde::Serialize;

/// Result of measuring the hand-off substrates.
#[derive(Clone, Debug, Serialize)]
pub struct HandoffMeasurement {
    /// Simulated yield steps per trial.
    pub steps: u64,
    /// Best-of-trials wall-clock nanoseconds per step, continuation mode.
    pub continuation_ns_per_step: f64,
    /// Best-of-trials wall-clock nanoseconds per step, futex baton.
    pub futex_ns_per_step: f64,
    /// `futex_ns_per_step / continuation_ns_per_step` (the PR 6 envelope:
    /// how much cheaper a continuation grant is than an OS-thread baton).
    pub continuation_speedup: f64,
    /// Threads yielding in lockstep in the burst measurement.
    pub burst_threads: u64,
    /// Best-of-trials wall-clock nanoseconds per grant when wakes arrive in
    /// same-instant, same-shard bursts (`burst_threads` continuation
    /// threads yielding in lockstep on one shard), as after a barrier
    /// release.
    pub burst_ns_per_grant: f64,
}

/// Wall-clock ns/step of one hand-off implementation (best of `trials`).
pub fn measure_handoff_mode(mode: HandoffMode, steps: u64, trials: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let mut engine = Engine::with_config(EngineConfig {
            tuning: SimTuning::default().with_handoff(mode),
            ..EngineConfig::default()
        });
        engine.spawn("stepper", move |h| {
            for _ in 0..steps {
                h.yield_now();
            }
        });
        let start = Instant::now();
        engine.run().expect("handoff benchmark must complete");
        let ns = start.elapsed().as_nanos() as f64 / steps as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Wall-clock ns/grant of a same-instant, same-shard wake burst: `threads`
/// continuation threads all yield in lockstep, so every instant the
/// scheduler drains one burst of `threads` wakes back to back. Best of
/// `trials`.
pub fn measure_handoff_burst(threads: u64, steps_per_thread: u64, trials: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let mut engine = Engine::with_config(EngineConfig {
            tuning: SimTuning::default().with_handoff(HandoffMode::Continuation),
            ..EngineConfig::default()
        });
        for t in 0..threads {
            engine.spawn(format!("burst-{t}"), move |h| {
                for _ in 0..steps_per_thread {
                    h.yield_now();
                }
            });
        }
        let start = Instant::now();
        engine.run().expect("handoff burst benchmark must complete");
        let ns = start.elapsed().as_nanos() as f64 / (threads * steps_per_thread) as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Measure both hand-offs back to back (a warm-up trial of each runs first
/// so neither pays first-touch costs).
pub fn measure_handoff(steps: u64, trials: u32) -> HandoffMeasurement {
    for mode in [HandoffMode::Continuation, HandoffMode::Baton] {
        measure_handoff_mode(mode, steps / 4, 1);
    }
    let continuation = measure_handoff_mode(HandoffMode::Continuation, steps, trials);
    let futex = measure_handoff_mode(HandoffMode::Baton, steps, trials);
    let burst_threads = 64u64;
    let burst = measure_handoff_burst(burst_threads, (steps / burst_threads).max(1), trials);
    HandoffMeasurement {
        steps,
        continuation_ns_per_step: continuation,
        futex_ns_per_step: futex,
        continuation_speedup: futex / continuation,
        burst_threads,
        burst_ns_per_grant: burst,
    }
}
