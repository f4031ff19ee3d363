//! Simulated thread identity and the scheduler/thread hand-off slot.
//!
//! At most one simulated thread executes at any wall-clock instant: the
//! scheduler thread (the OS thread running [`crate::Engine::run`]) hands
//! control to the thread chosen by the event queue and regains it when the
//! thread parks again. This makes every run fully deterministic while
//! letting user code be written as ordinary imperative Rust (the PM2
//! programming model).
//!
//! Two hand-off implementations ([`crate::HandoffMode`]) share one slot type
//! and one atomic [`Phase`] word:
//!
//! * **Continuation** (default): the thread's slices run as a stackful
//!   coroutine *on the scheduler thread itself* — a grant is a
//!   ~dozen-instruction stack switch into [`crate::continuation::Coro`], a
//!   park is the switch back. No OS thread wakes up, and the phase word is
//!   a record for deadlock reports rather than a synchronisation point.
//! * **Baton** (futex-style): the thread is backed by a dedicated OS thread.
//!   The scheduler grants with one phase store plus one `unpark`; the thread
//!   parks with one phase store plus one `unpark` of the scheduler. Each
//!   side spins briefly ([`baton_spin`]) before parking. Kept as the
//!   substrate of targets without continuations and as the conformance
//!   baseline.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use crate::continuation::Coro;
use crate::engine::{
    set_instant_ctx, BlockReason, HandoffMode, InstantCtx, SliceOutcome, BLOCK_REASONS,
};
use crate::time::SimTime;

/// Identifier of a simulated thread, unique within one [`crate::Engine`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub(crate) u64);

impl ThreadId {
    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild a thread id from the raw value of [`ThreadId::as_u64`].
    ///
    /// The verify layer uses this to key recorded schedules and access logs
    /// by thread across replays; an id that never came from `as_u64` simply
    /// won't match any live thread.
    pub fn from_u64(raw: u64) -> ThreadId {
        ThreadId(raw)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Life-cycle of a simulated thread with respect to the scheduler grant,
/// stored as a `u32` in the slot's phase word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// Baton OS thread spawned but has not yet reached its first park
    /// (continuation slots skip this: they are born `Parked`).
    Created = 0,
    /// Waiting for the scheduler to grant a slice.
    Parked = 1,
    /// The scheduler granted a slice; the thread owns the baton until it
    /// stores `Parked` or `Finished`.
    Running = 2,
    /// The thread body returned (or panicked); it will never run again.
    Finished = 3,
}

impl Phase {
    fn from_u32(v: u32) -> Phase {
        match v {
            0 => Phase::Created,
            1 => Phase::Parked,
            2 => Phase::Running,
            3 => Phase::Finished,
            other => unreachable!("invalid phase word {other}"),
        }
    }
}

/// Iterations of `spin_loop` either side of a baton hand-off burns before
/// parking its OS thread. Spinning pays off only when the peer can make
/// progress on another core right now; on a single-CPU host every
/// iteration burns the quantum the peer needs, so both sides park at once.
/// Only wall-clock speed depends on it, never simulated behaviour.
fn baton_spin() -> u32 {
    static SPIN: OnceLock<u32> = OnceLock::new();
    *SPIN.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 64,
        _ => 0,
    })
}

/// Sentinel for "no slice outcome recorded yet".
const OUTCOME_NONE: u32 = u32::MAX;

/// Hand-off slot shared between the scheduler and one simulated thread.
pub(crate) struct ThreadSlot {
    pub id: ThreadId,
    pub name: String,
    /// Execution substrate backing this thread: the effective
    /// [`HandoffMode`] at spawn time (engine tuning, or a per-thread
    /// [`crate::SpawnOptions`] override).
    mode: HandoffMode,
    /// Identity of the owning engine (for the instant context).
    engine_token: usize,
    /// Current shard key of the thread (updated on migration).
    shard: AtomicU64,
    /// The atomic phase word ([`Phase`] as u32).
    phase: AtomicU32,
    /// Teardown flag; checked by the thread before resuming user code.
    shutdown: AtomicBool,
    // ----- baton path --------------------------------------------------------
    /// Handle of the backing OS thread, set by that thread before its first
    /// `Parked` store (the SeqCst phase word publishes it to the scheduler).
    /// Never set for continuation slots.
    os_thread: OnceLock<Thread>,
    /// The scheduler thread's handle, captured when `Engine::run` starts
    /// (shared by every slot of the engine).
    scheduler: Arc<OnceLock<Thread>>,
    // ----- continuation path -------------------------------------------------
    /// The coroutine carrying this thread's slices. Only the scheduler
    /// thread touches it (see the `Send`/`Sync` justification below).
    coro: UnsafeCell<Option<Coro>>,
    // ----- grant context (stored by the scheduler before each grant, read
    // by the thread when it resumes) -----------------------------------------
    grant_time: AtomicU64,
    grant_seq: AtomicU64,
    // ----- slice outcome (reified yield site, written by the thread itself
    // right before it parks — single writer, racing readers see a torn pair
    // at worst, which profiling tolerates) -----------------------------------
    outcome_kind: AtomicU32,
    outcome_arg: AtomicU64,
}

// SAFETY: every field but `coro` is Sync by construction. The `UnsafeCell`
// around the coroutine is only dereferenced on the OS thread running
// `Engine::run` — by a grant (which also drops a completed coroutine), by
// the coroutine body itself while that grant is blocked in `Coro::resume`,
// and by teardown after the events — plus once by the spawn path before the
// slot is shared, and by the teardown of an engine that never ran (no
// coroutine started). The scheduler is the only granter and runs one event
// at a time, so these accesses never overlap. A slot may be created on
// another OS thread (setup code spawns before `run`), which is why the slot
// must be `Send`.
unsafe impl Send for ThreadSlot {}
// SAFETY: see the Send justification above — every access to the one
// non-Sync field (`coro`) happens on the scheduler thread, one at a time.
unsafe impl Sync for ThreadSlot {}

impl ThreadSlot {
    pub fn new(
        id: ThreadId,
        name: String,
        mode: HandoffMode,
        scheduler: Arc<OnceLock<Thread>>,
        engine_token: usize,
        shard: u64,
    ) -> Self {
        ThreadSlot {
            id,
            name,
            mode,
            engine_token,
            shard: AtomicU64::new(shard),
            phase: AtomicU32::new(Phase::Created as u32),
            shutdown: AtomicBool::new(false),
            os_thread: OnceLock::new(),
            scheduler,
            coro: UnsafeCell::new(None),
            grant_time: AtomicU64::new(0),
            grant_seq: AtomicU64::new(0),
            outcome_kind: AtomicU32::new(OUTCOME_NONE),
            outcome_arg: AtomicU64::new(0),
        }
    }

    /// The thread's current shard key.
    pub fn shard_key(&self) -> u64 {
        self.shard.load(Ordering::SeqCst)
    }

    /// Re-home the thread onto another shard (thread migration). Takes
    /// effect for wake-ups scheduled after this call.
    pub fn set_shard_key(&self, key: u64) {
        self.shard.store(key, Ordering::SeqCst);
    }

    /// Record the reified outcome of the current slice (the thread is about
    /// to yield). Relaxed: single writer (the thread itself), and readers
    /// only profile.
    pub fn record_outcome(&self, outcome: SliceOutcome) {
        let (kind, arg) = match outcome {
            SliceOutcome::Yielded(t) => (0, t.as_nanos()),
            SliceOutcome::Blocked(r) => (1, r as u64),
            SliceOutcome::Done => (2, 0),
        };
        self.outcome_arg.store(arg, Ordering::Relaxed);
        self.outcome_kind.store(kind, Ordering::Relaxed);
    }

    /// The most recently recorded slice outcome, if any.
    pub fn last_outcome(&self) -> Option<SliceOutcome> {
        let arg = self.outcome_arg.load(Ordering::Relaxed);
        match self.outcome_kind.load(Ordering::Relaxed) {
            0 => Some(SliceOutcome::Yielded(SimTime::from_nanos(arg))),
            1 => Some(SliceOutcome::Blocked(
                BLOCK_REASONS[(arg as usize).min(BLOCK_REASONS.len() - 1)],
            )),
            2 => Some(SliceOutcome::Done),
            _ => None,
        }
    }

    /// Baton side: wake the scheduler after a `Parked`/`Finished` store.
    /// Before `Engine::run` has published its handle nobody can be waiting;
    /// the fence pairs with the one after that publication, so either this
    /// load sees the handle or the scheduler's next phase load sees the
    /// store that preceded it.
    fn wake_scheduler(&self) {
        fence(Ordering::SeqCst);
        if let Some(scheduler) = self.scheduler.get() {
            scheduler.unpark();
        }
    }

    // ----- continuation backing ---------------------------------------------

    /// Install the coroutine carrying this thread's slices. Called by the
    /// spawn path before the slot is shared with the scheduler, so the
    /// plain store is exclusive; the `Parked` store makes the slot
    /// immediately grantable (continuations have no Created window).
    pub fn init_continuation(&self, coro: Coro) {
        debug_assert_eq!(self.mode, HandoffMode::Continuation);
        // SAFETY: called before the slot is shared (spawn path), so this
        // plain store through the UnsafeCell is exclusive.
        unsafe { *self.coro.get() = Some(coro) };
        self.phase.store(Phase::Parked as u32, Ordering::SeqCst);
    }

    /// First entry of a continuation body: the scheduler has already
    /// recorded the grant context and switched onto our stack. Returns
    /// `false` when the engine is tearing down (the body must return without
    /// running user code).
    pub fn continuation_first_grant(&self) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.install_grant_ctx();
        true
    }

    fn park_and_wait_continuation(&self) -> bool {
        // SAFETY: we are the running coroutine (this is its park path), so
        // the scheduler is blocked in `Coro::resume` on this very OS thread
        // and nothing else touches the cell until we switch back.
        let coro = unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
        // SAFETY: on this coroutine's private stack — the precondition of
        // yield_to_scheduler.
        unsafe { coro.yield_to_scheduler() };
        // The scheduler granted us a new slice — or teardown is unwinding us.
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Grant one continuation slice: run it right here, on the scheduler
    /// thread, via a coroutine switch. The phase word only records the
    /// slice for deadlock reports, so its transitions are Relaxed.
    fn grant_continuation(&self) -> bool {
        match Phase::from_u32(self.phase.load(Ordering::Relaxed)) {
            Phase::Finished => return false,
            Phase::Parked => {}
            other => unreachable!("continuation granted while {other:?}"),
        }
        self.phase.store(Phase::Running as u32, Ordering::Relaxed);
        let done = {
            // SAFETY: the scheduler thread is the only granter and runs one
            // event at a time, so this access is exclusive until the resume
            // returns.
            let cell = unsafe { &mut *self.coro.get() };
            let coro = cell.as_mut().expect("continuation present");
            // SAFETY: same exclusivity; the slot was Parked, so the
            // coroutine is suspended and resumable.
            let done = unsafe { coro.resume() };
            if done {
                // No frame is left on the private stack: drop the coroutine
                // now, so its stack is back on the free list for the next
                // spawn instead of waiting for the finished slot's reaping.
                *cell = None;
            }
            done
        };
        if done {
            self.record_outcome(SliceOutcome::Done);
        }
        self.phase.store(
            if done { Phase::Finished } else { Phase::Parked } as u32,
            Ordering::Relaxed,
        );
        true
    }

    /// Drive a suspended continuation through its shutdown unwind and drop
    /// it. Called by engine teardown *after* the scheduler loop stopped, on
    /// the same OS thread, so the access is exclusive. Dropping the
    /// coroutine also releases a never-started body's captured state — which
    /// includes an `Arc` back to the engine's `Shared` (the cycle must be
    /// broken here or the engine leaks).
    pub fn teardown_continuation(&self) {
        if self.mode != HandoffMode::Continuation {
            return;
        }
        // SAFETY: teardown runs after the scheduler loop stopped, so no
        // grant or coroutine can touch the cell anymore.
        let cell = unsafe { &mut *self.coro.get() };
        if let Some(coro) = cell.as_mut() {
            if coro.is_started() && !coro.is_done() {
                // The shutdown flag is set: the resumed park observes it,
                // returns false, and the body unwinds via ShutdownUnwind,
                // running the destructors of every frame parked on the
                // private stack.
                // SAFETY: exclusive access (see above); the coroutine is
                // suspended, started, and not done — exactly resumable.
                let _ = unsafe { coro.resume() };
            }
        }
        *cell = None;
        self.phase.store(Phase::Finished as u32, Ordering::SeqCst);
    }

    // ----- baton backing -----------------------------------------------------

    fn park_and_wait_baton(&self) -> bool {
        // Publish our handle before the Parked store so the scheduler can
        // unpark us as soon as it observes the phase.
        let _ = self.os_thread.set(std::thread::current());
        self.phase.store(Phase::Parked as u32, Ordering::SeqCst);
        self.wake_scheduler();
        let spin = baton_spin();
        let mut spins = 0u32;
        while self.phase.load(Ordering::SeqCst) != Phase::Running as u32 {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if spins < spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Scheduler side: spin-then-park until the baton thread's phase is
    /// `Parked` or `Finished`, returning the phase observed. The thread
    /// unparks the scheduler after each of those stores.
    fn await_parked_or_finished(&self) -> Phase {
        let spin = baton_spin();
        let mut spins = 0u32;
        loop {
            let phase = Phase::from_u32(self.phase.load(Ordering::SeqCst));
            if matches!(phase, Phase::Parked | Phase::Finished) {
                return phase;
            }
            if spins < spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }

    /// Grant one baton slice: wait for the thread's park (right after spawn
    /// its OS thread may not have started yet), then a phase store plus an
    /// unpark, then wait for the next park or the finish.
    fn grant_baton(&self) -> bool {
        if self.await_parked_or_finished() == Phase::Finished {
            return false;
        }
        self.phase.store(Phase::Running as u32, Ordering::SeqCst);
        self.os_thread
            .get()
            .expect("parked thread published its handle")
            .unpark();
        self.await_parked_or_finished();
        true
    }

    /// Called by the baton's OS thread when its body has returned or
    /// panicked (a continuation's completion is recorded by the grant that
    /// drove its final slice).
    pub fn mark_finished(&self) {
        set_instant_ctx(None);
        self.record_outcome(SliceOutcome::Done);
        self.phase.store(Phase::Finished as u32, Ordering::SeqCst);
        self.wake_scheduler();
    }

    // ----- shared entry points ----------------------------------------------

    /// Install the instant context of the granting event, so pushes made by
    /// user code inherit its shard and order.
    fn install_grant_ctx(&self) {
        set_instant_ctx(Some(InstantCtx {
            engine: self.engine_token,
            parent_time: self.grant_time.load(Ordering::Relaxed),
            parent_seq: self.grant_seq.load(Ordering::Relaxed),
            shard: self.shard.load(Ordering::SeqCst),
            sub: 0,
        }));
    }

    /// Called by the simulated thread: announce that we are parked and wait
    /// until the scheduler grants the next slice. Returns `false` if the
    /// engine is shutting down and the thread must unwind without running
    /// user code. On `true`, the instant context of the granting event has
    /// been installed in the executing OS thread's thread-local slot.
    pub fn park_and_wait(&self) -> bool {
        // We are about to stop executing the current event.
        set_instant_ctx(None);
        let granted = match self.mode {
            HandoffMode::Continuation => self.park_and_wait_continuation(),
            HandoffMode::Baton => self.park_and_wait_baton(),
        };
        if !granted {
            return false;
        }
        // Resuming on behalf of the granting event.
        self.install_grant_ctx();
        true
    }

    /// Called by the scheduler: grant a slice to the parked thread and block
    /// until it parks again or finishes. `parent_time`/`parent_seq` identify
    /// the granting event; the resumed thread installs them as its instant
    /// context. Returns `false` if the thread was already finished (stale
    /// wake event).
    pub fn grant_and_wait(&self, parent_time: u64, parent_seq: u64) -> bool {
        // Relaxed: the continuation reads these on this same OS thread after
        // the resume; a baton thread reads them after observing the SeqCst
        // `Running` store that follows.
        self.grant_time.store(parent_time, Ordering::Relaxed);
        self.grant_seq.store(parent_seq, Ordering::Relaxed);
        match self.mode {
            HandoffMode::Continuation => self.grant_continuation(),
            HandoffMode::Baton => self.grant_baton(),
        }
    }

    /// Called during teardown: release any thread that is still waiting for
    /// the baton so its OS thread can exit. (Continuation slots only take
    /// the flag here; their unwind is driven by `teardown_continuation`.)
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.os_thread.get() {
            thread.unpark();
        }
        // A thread that has not yet published its handle has not parked
        // either: it will observe the shutdown flag before its first park.
    }

    /// True if the thread is currently parked (used for deadlock reporting).
    pub fn is_parked(&self) -> bool {
        matches!(
            Phase::from_u32(self.phase.load(Ordering::SeqCst)),
            Phase::Parked | Phase::Created
        )
    }

    /// True if the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.phase.load(Ordering::SeqCst) == Phase::Finished as u32
    }

    /// A blocked-on label for diagnostics (deadlock reports).
    pub fn blocked_on(&self) -> Option<BlockReason> {
        match self.last_outcome() {
            Some(SliceOutcome::Blocked(r)) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baton slot whose scheduler is the calling (test) thread. The
    /// continuation path cannot be driven by a bare OS thread calling
    /// `park_and_wait` — it is exercised through the engine tests instead.
    fn slot(id: u64) -> Arc<ThreadSlot> {
        Arc::new(ThreadSlot::new(
            ThreadId(id),
            "t".into(),
            HandoffMode::Baton,
            Arc::new(OnceLock::from(std::thread::current())),
            0,
            id,
        ))
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(format!("{}", ThreadId(3)), "T3");
        assert_eq!(format!("{:?}", ThreadId(3)), "T3");
        assert_eq!(ThreadId(9).as_u64(), 9);
    }

    #[test]
    fn slot_handoff_roundtrip() {
        let slot = slot(1);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            // First park, then run once, then finish.
            assert!(s2.park_and_wait());
            s2.mark_finished();
        });
        slot.await_parked_or_finished();
        assert!(slot.is_parked() || slot.is_finished());
        assert!(slot.grant_and_wait(0, 0));
        assert!(slot.is_finished());
        // A second grant on a finished thread reports staleness.
        assert!(!slot.grant_and_wait(0, 0));
        h.join().unwrap();
    }

    #[test]
    fn shutdown_releases_parked_thread() {
        let slot = slot(2);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            let resumed = s2.park_and_wait();
            assert!(!resumed);
            s2.mark_finished();
        });
        slot.await_parked_or_finished();
        slot.request_shutdown();
        h.join().unwrap();
        assert!(slot.is_finished());
    }

    #[test]
    fn many_handoffs_roundtrip_quickly() {
        let slot = slot(3);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                if !s2.park_and_wait() {
                    break;
                }
            }
            s2.mark_finished();
        });
        for seq in 0..10_000 {
            assert!(slot.grant_and_wait(0, seq));
        }
        slot.request_shutdown();
        let _ = slot.grant_and_wait(0, 10_000);
        h.join().unwrap();
    }

    #[test]
    fn shard_key_is_updatable() {
        let slot = slot(7);
        assert_eq!(slot.shard_key(), 7);
        slot.set_shard_key(2);
        assert_eq!(slot.shard_key(), 2);
    }

    #[test]
    fn outcome_roundtrips_through_the_slot() {
        let slot = slot(9);
        assert_eq!(slot.last_outcome(), None);
        slot.record_outcome(SliceOutcome::Yielded(SimTime::from_nanos(42)));
        assert_eq!(
            slot.last_outcome(),
            Some(SliceOutcome::Yielded(SimTime::from_nanos(42)))
        );
        slot.record_outcome(SliceOutcome::Blocked(BlockReason::PageFault));
        assert_eq!(slot.blocked_on(), Some(BlockReason::PageFault));
        slot.record_outcome(SliceOutcome::Done);
        assert_eq!(slot.last_outcome(), Some(SliceOutcome::Done));
    }
}
