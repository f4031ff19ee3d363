//! The per-thread handle through which simulated code interacts with the
//! virtual clock and the scheduler.
//!
//! A [`SimHandle`] is passed (by mutable reference) into every simulated
//! thread body. It is intentionally *not* `Clone` and not `Send`: it belongs
//! to exactly one simulated thread, mirroring how a PM2 thread owns its own
//! Marcel descriptor.

use std::panic;
use std::sync::Arc;

use crate::engine::{BlockReason, EngineCtl, Shared, ShutdownUnwind, SliceOutcome, SpawnOptions};
use crate::thread::{ThreadId, ThreadSlot};
use crate::time::{SimDuration, SimTime};

/// Handle owned by a simulated thread.
pub struct SimHandle {
    shared: Arc<Shared>,
    tid: ThreadId,
    slot: Arc<ThreadSlot>,
    /// Locally accumulated compute time not yet reflected in the global clock.
    pending: SimDuration,
}

impl SimHandle {
    pub(crate) fn new(shared: Arc<Shared>, tid: ThreadId, slot: Arc<ThreadSlot>) -> Self {
        SimHandle {
            shared,
            tid,
            slot,
            pending: SimDuration::ZERO,
        }
    }

    /// The identity of this simulated thread.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// The name this thread was spawned with.
    pub fn name(&self) -> &str {
        &self.slot.name
    }

    /// The thread's local view of virtual time: the global clock plus any
    /// compute charged since the last yield.
    pub fn now(&self) -> SimTime {
        self.shared.now() + self.pending
    }

    /// The global clock, excluding locally pending compute.
    pub fn global_now(&self) -> SimTime {
        self.shared.now()
    }

    /// Compute time charged locally but not yet flushed to the global clock.
    pub fn pending(&self) -> SimDuration {
        self.pending
    }

    /// Charge `d` of local compute time. The charge is folded into the global
    /// clock at the next yield point (sleep, park, flush, message send...),
    /// so hot loops pay no scheduler round-trip per charge.
    pub fn charge(&mut self, d: SimDuration) {
        self.pending += d;
    }

    /// Force pending compute into the global clock by yielding.
    pub fn flush(&mut self) {
        if !self.pending.is_zero() {
            self.sleep(SimDuration::ZERO);
        }
    }

    /// The shard key this thread is currently bound to: all its wake-ups
    /// carry that key. Defaults to the key it was spawned with (the
    /// spawner's shard, or the thread id).
    pub fn shard(&self) -> u64 {
        self.slot.shard_key()
    }

    /// Re-home this thread onto shard `key`. Layers call this when a thread
    /// migrates between cluster nodes, *before* the migration's sleep, so
    /// the post-migration wake-up already carries the destination node's
    /// key.
    pub fn set_shard(&mut self, key: u64) {
        self.slot.set_shard_key(key);
        crate::engine::set_instant_ctx_shard(key);
    }

    /// Advance virtual time by `d` (plus any pending compute), yielding to the
    /// scheduler so other threads and messages can make progress.
    pub fn sleep(&mut self, d: SimDuration) {
        let wake_at = self.shared.now() + self.pending + d;
        self.pending = SimDuration::ZERO;
        self.shared.schedule_wake_cached(&self.slot, wake_at);
        // Reified slice outcome: we advanced time and scheduled our own wake.
        self.slot.record_outcome(SliceOutcome::Yielded(wake_at));
        self.park_raw();
    }

    /// Yield the baton without advancing time (other events scheduled at the
    /// current instant get a chance to run first).
    pub fn yield_now(&mut self) {
        self.sleep(SimDuration::ZERO);
    }

    /// Park this thread until some other party wakes it via
    /// [`EngineCtl::wake_at`]/[`EngineCtl::wake_after`].
    ///
    /// Spurious wake-ups are possible (and harmless): every caller must
    /// re-check its wait condition in a loop. If compute time is pending, the
    /// call first behaves like `flush()` and returns, so the caller's loop
    /// re-evaluates its condition at the correct virtual time before really
    /// blocking.
    pub fn park(&mut self) {
        self.park_with(BlockReason::Other);
    }

    /// [`SimHandle::park`] with a reified blocking reason: the yield site
    /// annotates *why* the thread blocks (DSM page fault, ack wait, RPC
    /// reply, barrier...), feeding the engine's
    /// [`crate::Engine::block_profile`]. Blocking primitives
    /// ([`crate::WaitSet::wait_until_why`], channel receives) thread their
    /// reason through here.
    pub fn park_with(&mut self, reason: BlockReason) {
        if !self.pending.is_zero() {
            self.flush();
            return;
        }
        self.slot.record_outcome(SliceOutcome::Blocked(reason));
        self.shared.record_block(reason);
        self.park_raw();
    }

    fn park_raw(&mut self) {
        if !self.slot.park_and_wait() {
            // Engine teardown: unwind the user stack quietly. resume_unwind
            // (rather than panic!) skips the panic hook, so teardown does not
            // spam stderr with backtraces.
            panic::resume_unwind(Box::new(ShutdownUnwind));
        }
    }

    /// Schedule a wake-up for another simulated thread after `delay` measured
    /// from this thread's local time.
    pub fn wake(&self, tid: ThreadId, delay: SimDuration) {
        self.shared.schedule_wake(tid, self.now() + delay);
    }

    /// Spawn a new simulated thread that becomes runnable at this thread's
    /// current local time, on this thread's shard.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.spawn_with(name, SpawnOptions::default(), f)
    }

    /// Spawn a new simulated thread with per-thread [`SpawnOptions`] (force
    /// the OS-thread baton for deep recursion, size the continuation stack),
    /// runnable at this thread's current local time, on this thread's shard.
    pub fn spawn_with<F>(&mut self, name: impl Into<String>, opts: SpawnOptions, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let start_at = self.now();
        let key = self.slot.shard_key();
        self.shared
            .spawn_thread(name.into(), start_at, false, Some(key), opts, f)
    }

    /// Spawn a new simulated thread bound to an explicit shard (see
    /// [`crate::Engine::spawn_on`]), runnable at this thread's local time.
    pub fn spawn_on<F>(&mut self, shard_key: u64, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let start_at = self.now();
        self.shared.spawn_thread(
            name.into(),
            start_at,
            false,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Spawn a daemon thread (see [`crate::Engine::spawn_daemon`]) starting at
    /// this thread's current local time, on this thread's shard.
    pub fn spawn_daemon<F>(&mut self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let start_at = self.now();
        let key = self.slot.shard_key();
        self.shared.spawn_thread(
            name.into(),
            start_at,
            true,
            Some(key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Schedule a closure to run on the scheduler after `delay` from this
    /// thread's local time (used to model message delivery). The closure
    /// executes on this thread's shard; use [`SimHandle::call_after_on`] to
    /// pin it elsewhere.
    pub fn call_after<F>(&self, delay: SimDuration, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared
            .schedule_call(self.now() + delay, Some(self.slot.shard_key()), Box::new(f));
    }

    /// Schedule a closure on an explicit shard after `delay` from this
    /// thread's local time.
    pub fn call_after_on<F>(&self, shard_key: u64, delay: SimDuration, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared
            .schedule_call(self.now() + delay, Some(shard_key), Box::new(f));
    }

    /// A cloneable controller over the engine, usable from shared data
    /// structures (channels, wait queues, RPC reply slots).
    pub fn ctl(&self) -> EngineCtl {
        EngineCtl {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimHandle({} '{}' now={})",
            self.tid,
            self.name(),
            self.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn handle_reports_identity() {
        let mut engine = Engine::new();
        engine.spawn("alpha", |h| {
            assert_eq!(h.name(), "alpha");
            assert_eq!(h.id().as_u64(), 0);
            assert_eq!(h.pending(), SimDuration::ZERO);
        });
        engine.run().unwrap();
    }

    #[test]
    fn park_with_pending_charge_flushes_first() {
        let mut engine = Engine::new();
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        engine.spawn("t", move |h| {
            h.charge(SimDuration::from_micros(9));
            // park() must not lose the 9us of compute and must not block
            // forever (it flushes and returns, letting us re-check).
            h.park();
            s.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 9_000);
    }

    #[test]
    fn wake_uses_local_time_of_waker() {
        let mut engine = Engine::new();
        let ctl = engine.ctl();
        let when = Arc::new(AtomicU64::new(0));
        let w = when.clone();
        let sleeper = engine.spawn("sleeper", move |h| {
            h.park();
            w.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        let _ = ctl;
        engine.spawn("waker", move |h| {
            h.charge(SimDuration::from_micros(12));
            h.wake(sleeper, SimDuration::from_micros(3));
            h.flush();
        });
        engine.run().unwrap();
        assert_eq!(when.load(Ordering::SeqCst), 15_000);
    }

    #[test]
    fn call_after_runs_relative_to_local_time() {
        let mut engine = Engine::new();
        let when = Arc::new(AtomicU64::new(0));
        let w = when.clone();
        engine.spawn("t", move |h| {
            h.charge(SimDuration::from_micros(5));
            let w2 = w.clone();
            h.call_after(SimDuration::from_micros(10), move |ctl| {
                w2.store(ctl.now().as_nanos(), Ordering::SeqCst);
            });
            h.flush();
        });
        engine.run().unwrap();
        assert_eq!(when.load(Ordering::SeqCst), 15_000);
    }
}
