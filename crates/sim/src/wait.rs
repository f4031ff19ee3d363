//! Wait sets: the building block for blocking simulation primitives.
//!
//! A [`WaitSet`] records the identities of simulated threads that are blocked
//! waiting for some condition. Because at most one simulated thread executes
//! at a time, "register then park" is atomic with respect to all other
//! simulated threads, so the classic lost-wake-up race cannot occur as long
//! as waiters re-check their condition in a loop (spurious wake-ups are
//! allowed and harmless).
//!
//! The park itself goes through the scheduler baton
//! ([`SimHandle::park`] → `ThreadSlot`), so wait sets automatically inherit
//! whichever hand-off implementation the engine was configured with
//! ([`crate::SimTuning`]); nothing here depends on the baton's mechanics.
//!
//! Waiters are ordered by a *canonical key* — the `(time, sequence number)`
//! of the event whose execution registered them, plus an emission index
//! within that event. Without a schedule controller events execute in
//! exactly that order, so this is the registration FIFO; registrations
//! made outside any event (setup code) sort last.

use parking_lot::Mutex;

use crate::engine::{next_order_key, BlockReason, EngineCtl};
use crate::handle::SimHandle;
use crate::thread::ThreadId;
use crate::time::SimDuration;

/// A set of blocked simulated threads, FIFO in canonical event order.
#[derive(Default)]
pub struct WaitSet {
    /// Waiters keyed by `(parent event time, parent event seq, emission
    /// index)` — the engine's execution order — kept sorted ascending (keys
    /// are unique). The waiter's shard key is captured at registration so
    /// wake-ups skip the engine's thread-table lookup (a parked thread
    /// cannot migrate, so the key cannot go stale while registered).
    waiters: Mutex<Vec<(OrderKey, ThreadId, u64)>>,
}

type OrderKey = (u64, u64, u64);

impl WaitSet {
    /// Creates an empty wait set.
    pub fn new() -> Self {
        WaitSet {
            waiters: Mutex::new(Vec::new()),
        }
    }

    /// Number of registered waiters.
    pub fn len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// True if no thread is registered.
    pub fn is_empty(&self) -> bool {
        self.waiters.lock().is_empty()
    }

    /// Register the calling thread as a waiter. Must be followed by
    /// [`SimHandle::park`] inside a condition re-check loop.
    pub fn register(&self, handle: &SimHandle) {
        let key = next_order_key();
        let mut waiters = self.waiters.lock();
        let at = waiters.partition_point(|(k, _, _)| *k < key);
        waiters.insert(at, (key, handle.id(), handle.shard()));
    }

    /// Remove the calling thread from the set (used when a waiter gives up,
    /// e.g. after its condition became true through another path).
    pub fn deregister(&self, handle: &SimHandle) {
        self.waiters.lock().retain(|&(_, t, _)| t != handle.id());
    }

    /// Wake the canonically oldest waiter (if any) after `delay`, removing
    /// it from the set. Returns the thread that was woken.
    pub fn notify_one(&self, ctl: &EngineCtl, delay: SimDuration) -> Option<ThreadId> {
        let woken = {
            let mut waiters = self.waiters.lock();
            if waiters.is_empty() {
                None
            } else {
                let (_, tid, shard) = waiters.remove(0);
                Some((tid, shard))
            }
        };
        if let Some((tid, shard)) = woken {
            let at = ctl.now() + delay;
            ctl.shared.schedule_wake_keyed(tid, at, shard);
        }
        woken.map(|(tid, _)| tid)
    }

    /// Wake every registered waiter after `delay`, clearing the set.
    /// Returns the number of threads woken.
    pub fn notify_all(&self, ctl: &EngineCtl, delay: SimDuration) -> usize {
        let drained: Vec<(OrderKey, ThreadId, u64)> = std::mem::take(&mut *self.waiters.lock());
        let at = ctl.now() + delay;
        for &(_, tid, shard) in &drained {
            ctl.shared.schedule_wake_keyed(tid, at, shard);
        }
        drained.len()
    }

    /// Block the calling thread on this wait set until `condition` returns
    /// true. The condition is re-evaluated after every wake-up.
    pub fn wait_until<F: FnMut() -> bool>(&self, handle: &mut SimHandle, condition: F) {
        self.wait_until_why(handle, BlockReason::WaitSet, condition);
    }

    /// [`WaitSet::wait_until`] with a reified blocking reason: callers
    /// annotate *what* the wait models (a DSM page fault, an ack round, a
    /// barrier...) so the engine's block profile attributes the park to the
    /// right cause instead of a generic wait-set entry.
    pub fn wait_until_why<F: FnMut() -> bool>(
        &self,
        handle: &mut SimHandle,
        reason: BlockReason,
        mut condition: F,
    ) {
        loop {
            if condition() {
                return;
            }
            self.register(handle);
            handle.park_with(reason);
            // The park may return spuriously (or after a flush); deregister so
            // we never leave a stale entry if the condition is now true.
            self.deregister(handle);
        }
    }
}

impl std::fmt::Debug for WaitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WaitSet({} waiters)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn wait_until_blocks_until_condition() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let done_at = Arc::new(AtomicUsize::new(0));

        let ws2 = ws.clone();
        let flag2 = flag.clone();
        let done2 = done_at.clone();
        engine.spawn("waiter", move |h| {
            ws2.wait_until(h, || flag2.load(Ordering::SeqCst));
            done2.store(h.global_now().as_nanos() as usize, Ordering::SeqCst);
        });

        let ws3 = ws.clone();
        engine.spawn("setter", move |h| {
            h.sleep(SimDuration::from_micros(40));
            flag.store(true, Ordering::SeqCst);
            ws3.notify_one(&h.ctl(), SimDuration::ZERO);
        });

        engine.run().unwrap();
        assert_eq!(done_at.load(Ordering::SeqCst), 40_000);
        assert!(ws.is_empty());
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let woken = Arc::new(AtomicUsize::new(0));

        for i in 0..5 {
            let ws = ws.clone();
            let flag = flag.clone();
            let woken = woken.clone();
            engine.spawn(format!("waiter{i}"), move |h| {
                ws.wait_until(h, || flag.load(Ordering::SeqCst));
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("broadcaster", move |h| {
            h.sleep(SimDuration::from_micros(10));
            flag.store(true, Ordering::SeqCst);
            ws2.notify_all(&h.ctl(), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn spurious_wakeup_is_harmless() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let ws2 = ws.clone();
        let flag2 = flag.clone();
        let order2 = order.clone();
        let waiter = engine.spawn("waiter", move |h| {
            ws2.wait_until(h, || flag2.load(Ordering::SeqCst));
            order2.lock().push("woken-for-real");
        });

        let ws3 = ws.clone();
        engine.spawn("noisy", move |h| {
            // Wake the waiter directly without making the condition true.
            h.sleep(SimDuration::from_micros(5));
            h.wake(waiter, SimDuration::ZERO);
            h.sleep(SimDuration::from_micros(5));
            flag.store(true, Ordering::SeqCst);
            ws3.notify_one(&h.ctl(), SimDuration::ZERO);
        });

        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec!["woken-for-real"]);
    }

    #[test]
    fn registration_order_follows_execution_order_across_instants() {
        // "late" is spawned first (its wake event gets the lower sequence
        // number) but sleeps longer, so "early" registers first in execution
        // order. notify_one must wake "early" — the historical wall-clock
        // FIFO — not the thread with the smaller event sequence number.
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (name, sleep_us) in [("late", 100u64), ("early", 50)] {
            let ws = ws.clone();
            let order = order.clone();
            engine.spawn(name, move |h| {
                h.sleep(SimDuration::from_micros(sleep_us));
                ws.register(h);
                h.park();
                ws.deregister(h);
                order.lock().push(name);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(200));
            ws2.notify_one(&h.ctl(), SimDuration::ZERO);
            h.sleep(SimDuration::from_micros(10));
            ws2.notify_one(&h.ctl(), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec!["early", "late"]);
    }

    #[test]
    fn deregister_removes_specific_thread() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let ws2 = ws.clone();
        engine.spawn("t", move |h| {
            ws2.register(h);
            assert_eq!(ws2.len(), 1);
            ws2.deregister(h);
            assert!(ws2.is_empty());
        });
        engine.run().unwrap();
    }
}
