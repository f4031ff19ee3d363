//! Stress test of the scheduler/thread hand-off: many short-lived simulated
//! threads with pseudo-random sleeps, yields and nested spawns, run under
//! both hand-off substrates. Continuations on the scheduler's OS thread and
//! the futex-style OS-thread baton must produce *identical* runs — same
//! final virtual time, same event and context-switch counts — because the
//! hand-off is purely a wall-clock mechanism and must never influence
//! simulated behaviour. A mixed-mode storm additionally pins individual
//! threads onto the OS-thread baton via [`SpawnOptions`] while the engine
//! default stays on continuations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsmpm2_sim::{Engine, EngineConfig, RunReport, SimDuration, SimTuning, SpawnOptions, WaitSet};

/// Deterministic xorshift so both runs see the same "random" schedule.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn engine(tuning: SimTuning) -> Engine {
    Engine::with_config(EngineConfig {
        tuning,
        ..EngineConfig::default()
    })
}

/// Both engine-wide hand-off substrates, continuation first (the default
/// and the comparison baseline).
fn all_tunings() -> [SimTuning; 2] {
    [SimTuning::default(), SimTuning::baton()]
}

fn storm(tuning: SimTuning, mixed: bool) -> (RunReport, u64) {
    let mut engine = engine(tuning);
    let work_done = Arc::new(AtomicU64::new(0));
    // A root thread spawns waves of short-lived children; each child does a
    // pseudo-random mix of yields, sleeps and compute charges, and every
    // eighth child spawns a grandchild. This exercises spawn-park races
    // (Created -> Parked while the scheduler waits), rapid re-grants and the
    // finished-thread reaper. In mixed mode every third child is pinned to
    // the futex baton, so continuation slices interleave with OS-thread
    // hand-offs in the same run.
    let wd = work_done.clone();
    engine.spawn("root", move |h| {
        let mut rng = 0x9E3779B97F4A7C15u64;
        for wave in 0..20u64 {
            for child in 0..25u64 {
                let seed = xorshift(&mut rng);
                let wd = wd.clone();
                let opts = if mixed && child % 3 == 0 {
                    SpawnOptions::baton()
                } else {
                    SpawnOptions::default()
                };
                h.spawn_with(format!("w{wave}-c{child}"), opts, move |h| {
                    let mut rng = seed | 1;
                    for _ in 0..(rng % 7) + 1 {
                        match xorshift(&mut rng) % 3 {
                            0 => h.yield_now(),
                            1 => h.sleep(SimDuration::from_nanos(xorshift(&mut rng) % 900 + 1)),
                            _ => h.charge(SimDuration::from_nanos(xorshift(&mut rng) % 300)),
                        }
                    }
                    if seed.is_multiple_of(8) {
                        let wd2 = wd.clone();
                        h.spawn("grandchild", move |h| {
                            h.sleep(SimDuration::from_nanos(5));
                            wd2.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    wd.fetch_add(1, Ordering::SeqCst);
                });
            }
            h.sleep(SimDuration::from_micros(1));
        }
    });
    let report = engine.run().expect("storm must complete");
    (report, work_done.load(Ordering::SeqCst))
}

#[test]
fn thread_storm_is_identical_under_all_handoffs() {
    let (base, base_work) = storm(SimTuning::default(), false);
    assert!(base.threads_spawned > 500, "storm must actually spawn");
    let (run, work) = storm(SimTuning::baton(), false);
    assert_eq!(base_work, work, "baton: work count diverged");
    assert_eq!(
        base.final_time, run.final_time,
        "baton: virtual time diverged"
    );
    assert_eq!(base.events, run.events, "baton: event count diverged");
    assert_eq!(
        base.context_switches, run.context_switches,
        "baton: context-switch count diverged"
    );
    assert_eq!(base.threads_spawned, run.threads_spawned);
}

/// The same storm with per-thread hand-off overrides: continuations and
/// futex-baton threads coexisting in one engine must still produce the run
/// the all-continuation engine produces.
#[test]
fn mixed_mode_storm_matches_pure_continuation_run() {
    let (base, base_work) = storm(SimTuning::default(), false);
    let (mixed, mixed_work) = storm(SimTuning::default(), true);
    assert_eq!(base_work, mixed_work, "mixed: work count diverged");
    assert_eq!(base.final_time, mixed.final_time, "mixed: time diverged");
    assert_eq!(base.events, mixed.events, "mixed: event count diverged");
    assert_eq!(
        base.context_switches, mixed.context_switches,
        "mixed: context-switch count diverged"
    );
    assert_eq!(base.threads_spawned, mixed.threads_spawned);
}

/// WaitSet ping-pong across a crowd of waiters: notify_one/notify_all wake
/// identical thread sets in identical virtual order under every hand-off.
#[test]
fn waitset_crowd_is_identical_under_all_handoffs() {
    let run = |tuning: SimTuning| -> (RunReport, Vec<u64>) {
        let mut engine = engine(tuning);
        let ws = Arc::new(WaitSet::new());
        let token = Arc::new(AtomicU64::new(0));
        // Completion virtual time per waiter, recorded into the waiter's own
        // slot.
        let done_at: Arc<Vec<AtomicU64>> = Arc::new((0..40).map(|_| AtomicU64::new(0)).collect());
        for i in 0..40u64 {
            let ws = ws.clone();
            let token = token.clone();
            let done_at = done_at.clone();
            engine.spawn(format!("waiter{i}"), move |h| {
                ws.wait_until(h, || token.load(Ordering::SeqCst) > i);
                done_at[i as usize].store(h.now().as_nanos(), Ordering::SeqCst);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("driver", move |h| {
            for round in 0..40u64 {
                h.sleep(SimDuration::from_micros(3));
                token.store(round + 1, Ordering::SeqCst);
                if round % 5 == 0 {
                    ws2.notify_all(&h.ctl(), SimDuration::ZERO);
                } else {
                    ws2.notify_one(&h.ctl(), SimDuration::ZERO);
                    ws2.notify_one(&h.ctl(), SimDuration::ZERO);
                }
            }
            // Flush any stragglers.
            h.sleep(SimDuration::from_micros(3));
            ws2.notify_all(&h.ctl(), SimDuration::ZERO);
        });
        let report = engine.run().expect("crowd must complete");
        let times = done_at.iter().map(|t| t.load(Ordering::SeqCst)).collect();
        (report, times)
    };
    let (base, base_times) = run(SimTuning::default());
    assert!(base_times.iter().all(|&t| t > 0), "every waiter completed");
    let (r, times) = run(SimTuning::baton());
    assert_eq!(base_times, times, "baton: wake times diverged");
    assert_eq!(base.final_time, r.final_time, "baton");
    assert_eq!(base.events, r.events, "baton");
}

/// Teardown under fire: a panic in one thread while hundreds of others are
/// parked or runnable must reclaim every baton and report the panic, under
/// every hand-off substrate.
#[test]
fn panic_amid_storm_tears_down_under_all_handoffs() {
    for tuning in all_tunings() {
        let mut engine = engine(tuning);
        for i in 0..100u64 {
            engine.spawn(format!("spinner{i}"), move |h| loop {
                h.sleep(SimDuration::from_micros(i % 9 + 1));
            });
        }
        engine.spawn("bomb", |h| {
            h.sleep(SimDuration::from_micros(40));
            panic!("storm bomb");
        });
        match engine.run() {
            Err(dsmpm2_sim::SimError::ThreadPanic { thread, message }) => {
                assert_eq!(thread, "bomb");
                assert!(message.contains("storm bomb"));
            }
            other => panic!("{tuning:?}: expected panic error, got {other:?}"),
        }
    }
}

/// A panic *inside a continuation slice* unwinds across the coroutine stack,
/// not the scheduler's: the run must record the panicking thread's name and
/// payload, tear down parked continuation/baton threads of the same run, and
/// leave the engine joinable (no hang, no abort). Regression for the
/// continuation backing's catch_unwind seam.
#[test]
fn panic_inside_continuation_slice_is_recorded_not_propagated() {
    let mut engine = engine(SimTuning::default());
    // A parked continuation that teardown must unwind quietly.
    engine.spawn("parked-cont", |h| {
        h.park();
        unreachable!("never woken");
    });
    // A parked OS-thread baton riding along in the same run.
    engine.spawn_with("parked-baton", SpawnOptions::baton(), |h| {
        h.park();
        unreachable!("never woken");
    });
    engine.spawn("bomb", |h| {
        h.sleep(SimDuration::from_micros(7));
        panic!("continuation bomb");
    });
    match engine.run() {
        Err(dsmpm2_sim::SimError::ThreadPanic { thread, message }) => {
            assert_eq!(thread, "bomb");
            assert!(message.contains("continuation bomb"), "got '{message}'");
        }
        other => panic!("expected ThreadPanic, got {other:?}"),
    }
}

/// Deep call stacks overflow a fixed-size continuation stack; the
/// [`SpawnOptions`] escape hatches — a bigger private stack, or the
/// guard-paged OS-thread baton — must both carry a recursion the default
/// continuation stack could not.
#[test]
fn deep_recursion_runs_on_baton_or_big_stack() {
    fn burn(depth: usize) -> u64 {
        // ~1 KiB of live frame per level, kept alive across the recursion.
        let pad = [depth as u64; 128];
        if depth == 0 {
            return pad[0];
        }
        burn(depth - 1) + std::hint::black_box(pad[64])
    }
    for opts in [
        SpawnOptions::baton().with_stack_bytes(32 * 1024 * 1024),
        SpawnOptions::default().with_stack_bytes(32 * 1024 * 1024),
    ] {
        let mut engine = engine(SimTuning::default());
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        engine.spawn_with("deep", opts, move |h| {
            h.sleep(SimDuration::from_micros(1));
            o.store(burn(8_000), Ordering::SeqCst);
        });
        engine.run().expect("deep recursion must complete");
        assert!(out.load(Ordering::SeqCst) > 0);
    }
}
