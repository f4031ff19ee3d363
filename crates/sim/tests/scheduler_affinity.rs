//! Regression test for the engine's thread-affinity invariant: a started
//! continuation is only ever resumed on the OS thread running
//! [`Engine::run`].
//!
//! The invariant is what makes thread-locals safe inside a slice. The
//! compiler may cache a thread-local's address across the stack switch
//! (it sees an ordinary call on one OS thread), so a continuation resumed
//! on another OS thread would read and write that thread's slots. The
//! engine here is built, and all its threads spawned, on the test's own OS
//! thread, then moved to a second OS thread that calls `run()`. Every
//! continuation records the OS thread it executes on before and after each
//! of many parks — yields, sleeps and wait-set blocks woken by baton
//! threads and by scheduler callbacks — and every record must name the
//! `run()` thread. Baton threads, in contrast, must run on OS threads of
//! their own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId as OsThreadId;

use parking_lot::Mutex;

use dsmpm2_sim::{
    Engine, EngineConfig, HandoffMode, SimDuration, SimTime, SimTuning, SpawnOptions, WaitSet,
};

const CONTINUATIONS: u64 = 6;
const PARKS: u64 = 200;

/// The calling OS thread's id. Kept out of line so every call reads the
/// thread-local afresh instead of reusing an address computed before a
/// park.
#[inline(never)]
fn os_thread() -> OsThreadId {
    std::thread::current().id()
}

#[test]
fn continuations_resume_only_on_the_run_thread() {
    if HandoffMode::Continuation.effective() != HandoffMode::Continuation {
        // No stack switch on this target: every thread is a baton thread
        // and the invariant has nothing to constrain.
        return;
    }
    let engine = Engine::with_config(EngineConfig {
        tuning: SimTuning::default().with_handoff(HandoffMode::Continuation),
        ..EngineConfig::default()
    });
    let ctl = engine.ctl();
    let in_continuations: Arc<Mutex<Vec<OsThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let in_calls: Arc<Mutex<Vec<OsThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let in_batons: Arc<Mutex<Vec<OsThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let ticks = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));
    let ws = Arc::new(WaitSet::new());

    for i in 0..CONTINUATIONS {
        let seen = Arc::clone(&in_continuations);
        let ticks = Arc::clone(&ticks);
        let finished = Arc::clone(&finished);
        let ws = Arc::clone(&ws);
        engine.spawn_on(i % 3, format!("cont{i}"), move |h| {
            for step in 0..PARKS {
                seen.lock().push(os_thread());
                match (step + i) % 3 {
                    0 => h.yield_now(),
                    1 => h.sleep(SimDuration::from_nanos(100 + (step * 37 + i) % 900)),
                    _ => {
                        // Block until the next tick of a baton thread or a
                        // scheduler callback.
                        let next = ticks.load(Ordering::SeqCst) + 1;
                        ws.wait_until(h, || ticks.load(Ordering::SeqCst) >= next);
                    }
                }
                seen.lock().push(os_thread());
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Two baton tickers on dedicated OS threads wake the blocked
    // continuations until every continuation is done.
    for b in 0..2u64 {
        let seen = Arc::clone(&in_batons);
        let ticks = Arc::clone(&ticks);
        let finished = Arc::clone(&finished);
        let ws = Arc::clone(&ws);
        engine.spawn_with(format!("baton{b}"), SpawnOptions::baton(), move |h| {
            while finished.load(Ordering::SeqCst) < CONTINUATIONS {
                seen.lock().push(os_thread());
                h.sleep(SimDuration::from_micros(2 + b));
                ticks.fetch_add(1, Ordering::SeqCst);
                ws.notify_all(&h.ctl(), SimDuration::ZERO);
            }
        });
    }

    // Scheduler callbacks tick too, interleaved with both kinds of thread.
    for k in 0..50u64 {
        let seen = Arc::clone(&in_calls);
        let ticks = Arc::clone(&ticks);
        let ws = Arc::clone(&ws);
        ctl.call_at(SimTime::from_nanos(1_500 * k + 700), move |ctl| {
            seen.lock().push(os_thread());
            ticks.fetch_add(1, Ordering::SeqCst);
            ws.notify_all(ctl, SimDuration::ZERO);
        });
    }

    let spawner = os_thread();
    let (run_thread, result) = std::thread::spawn(move || {
        let mut engine = engine;
        (os_thread(), engine.run())
    })
    .join()
    .expect("run() thread must not panic");
    let report = result.expect("run must complete");
    assert_ne!(run_thread, spawner);
    assert!(report.context_switches > CONTINUATIONS * PARKS);

    let in_continuations = in_continuations.lock();
    assert_eq!(
        in_continuations.len() as u64,
        2 * CONTINUATIONS * PARKS,
        "every continuation ran to completion"
    );
    for (i, id) in in_continuations.iter().enumerate() {
        assert_eq!(
            *id, run_thread,
            "record {i}: a continuation executed off the run() thread"
        );
    }
    let in_calls = in_calls.lock();
    assert_eq!(in_calls.len(), 50);
    assert!(in_calls.iter().all(|id| *id == run_thread));
    let in_batons = in_batons.lock();
    assert!(!in_batons.is_empty());
    assert!(in_batons
        .iter()
        .all(|id| *id != run_thread && *id != spawner));
}
