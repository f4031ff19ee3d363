//! The discrete-event scheduler.
//!
//! The engine owns one priority queue of events ordered by `(virtual time,
//! sequence number)` and one scheduler loop. Whichever OS thread calls
//! [`Engine::run`] becomes the scheduler thread: it pops the smallest event
//! and either runs a scheduler callback or hands control to exactly one
//! simulated thread for one slice, waiting until that thread parks again.
//! At most one piece of simulated code runs at any wall-clock instant, so a
//! run is a pure function of the program: the same program gives the same
//! memory, virtual time, event count and context switches every time.
//!
//! A simulated thread's slice runs on one of two hand-off substrates
//! ([`HandoffMode`]):
//!
//! * a **continuation** (the default) executes on the scheduler thread
//!   itself, on a private stack, the way PM2's Marcel multiplexes user-level
//!   threads onto one kernel thread;
//! * the **baton** backs the simulated thread with a dedicated OS thread and
//!   passes control with a phase store plus an `unpark` on each side. It
//!   serves deep-recursion bodies (guard-paged OS stacks) and targets
//!   without a stack switch.
//!
//! Every event carries a *shard key* (upper layers use the cluster node id).
//! Keys do not affect the canonical order; they name the per-node groups a
//! [`ScheduleController`] may interleave at a same-instant choice point.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;

use crate::continuation::{Coro, DEFAULT_STACK_BYTES};
use crate::error::SimError;
use crate::handle::SimHandle;
use crate::thread::{ThreadId, ThreadSlot};
use crate::time::{SimDuration, SimTime};

/// Cap on the number of recycled continuation stacks kept around. Beyond
/// this, finished stacks are simply freed.
const STACK_POOL_CAP: usize = 32;

/// Marker panic payload used to unwind simulated threads during teardown.
pub(crate) struct ShutdownUnwind;

/// Best-effort extraction of a human-readable message from a panic payload,
/// so the payload is propagated as the run's error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Instant context: which event is executing on this OS thread.
// ---------------------------------------------------------------------------

/// Per-OS-thread record of the event currently executing. Installed when the
/// scheduler runs a callback or when a granted simulated thread resumes
/// (on the scheduler thread for a continuation, on its own OS thread for a
/// baton); cleared when the thread parks again. Spawns and key-less calls
/// read it to inherit the executing event's shard key, and wait sets and
/// tick outboxes read it to order their entries.
#[derive(Clone, Copy)]
pub(crate) struct InstantCtx {
    /// Identity of the engine (`Arc::as_ptr` of its `Shared`), so a spawn
    /// into a *different* engine never inherits this one's shard key.
    pub engine: usize,
    /// Scheduled time of the parent event (its heap key, which together
    /// with `parent_seq` is the engine's execution order).
    pub parent_time: u64,
    /// Global sequence number of the parent event.
    pub parent_seq: u64,
    /// Shard key of the parent event (inherited by key-less pushes).
    pub shard: u64,
    /// Monotone counter of ordered emissions (wait-set registrations) made
    /// by the parent event so far.
    pub sub: u64,
}

// The accessors below are reachable from inside a continuation slice, i.e.
// on both sides of a stack switch (`raw_switch` in `continuation.rs`). The
// compiler may cache the address of a thread-local across that call, since
// it sees an ordinary function call on one OS thread. That is sound here
// because a started continuation is only ever resumed on the OS thread that
// runs `Engine::run` (see `Coro`'s `Send` justification): the cached
// address always names the current thread's slot. Baton threads touch only
// their own OS thread's slot. The same argument covers the `PARKER`
// thread-local of the vendored `parking_lot` shim, which a slice reaches
// through any contended `Mutex`.
thread_local! {
    static INSTANT_CTX: Cell<Option<InstantCtx>> = const { Cell::new(None) };
}
pub(crate) fn set_instant_ctx(ctx: Option<InstantCtx>) {
    INSTANT_CTX.with(|c| c.set(ctx));
}

pub(crate) fn instant_ctx() -> Option<InstantCtx> {
    INSTANT_CTX.with(|c| c.get())
}

/// Update the shard key recorded in the current instant context (thread
/// migration re-homes a running thread mid-event).
pub(crate) fn set_instant_ctx_shard(shard: u64) {
    INSTANT_CTX.with(|c| {
        if let Some(mut ctx) = c.get() {
            ctx.shard = shard;
            c.set(Some(ctx));
        }
    });
}

/// Fallback for ordered emissions made outside any simulated context.
static EXTERNAL_ORDER: AtomicU64 = AtomicU64::new(0);

/// A totally ordered key identifying one "emission point" in the canonical
/// execution order: `(parent event time, parent event sequence, emission
/// index within the event)` — the first two components are exactly the
/// event heap's ordering, i.e. the order events *execute* in (an event
/// scheduled early for a late instant executes after a later-scheduled
/// event for an earlier instant). Emissions from outside the engine (setup
/// code) sort last, in program order. Used by [`crate::WaitSet`] and
/// [`crate::TickOutbox`] so that waiter and bucket order is a pure function
/// of the canonical execution order.
pub(crate) fn next_order_key() -> (u64, u64, u64) {
    INSTANT_CTX.with(|c| match c.get() {
        Some(mut ctx) => {
            let key = (ctx.parent_time, ctx.parent_seq, ctx.sub);
            ctx.sub += 1;
            c.set(Some(ctx));
            key
        }
        None => (
            u64::MAX,
            u64::MAX,
            EXTERNAL_ORDER.fetch_add(1, Ordering::SeqCst),
        ),
    })
}

// ---------------------------------------------------------------------------
// Tuning / configuration
// ---------------------------------------------------------------------------

/// How the scheduler hands control to a simulated thread for one slice.
///
/// The mode is purely a wall-clock mechanism: the virtual-time behaviour of
/// a run — final memory, virtual time, event order — is bit-identical across
/// both, which the conformance matrix asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HandoffMode {
    /// Run the slice as a stackful continuation on the scheduler's own OS
    /// thread: a grant is a ~dozen-instruction stack switch, no OS thread
    /// wakes up. The default. Unsupported targets (non-x86-64) silently
    /// fall back to [`HandoffMode::Baton`].
    #[default]
    Continuation,
    /// The futex-style baton: each simulated thread is backed by a
    /// dedicated OS thread; grant/park are one atomic store plus one
    /// `unpark` per side. Kept as the per-thread fallback for workloads a
    /// fixed-size private stack cannot carry (deep recursion), as the
    /// substrate of targets without a stack switch, and as a conformance
    /// baseline.
    Baton,
}

impl HandoffMode {
    /// The mode that will actually be used on this target: continuations
    /// downgrade to the OS-thread baton where no stack switch exists.
    pub fn effective(self) -> HandoffMode {
        match self {
            HandoffMode::Continuation if !crate::continuation::SUPPORTED => HandoffMode::Baton,
            mode => mode,
        }
    }
}

/// Tuning knobs of the simulation engine itself (as opposed to the DSM-layer
/// knobs on `Pm2Config`). The default is the continuation hand-off; the
/// baton stays selectable so conformance tests can assert both produce
/// bit-identical runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTuning {
    /// Scheduler/thread hand-off implementation for threads spawned without
    /// a per-thread override ([`SpawnOptions::handoff`]).
    pub handoff: HandoffMode,
}

impl SimTuning {
    /// The OS-thread futex baton (otherwise default tuning). Used by
    /// conformance-matrix rows and the hand-off microbenchmark.
    pub fn baton() -> Self {
        SimTuning::default().with_handoff(HandoffMode::Baton)
    }

    /// This tuning with an explicit hand-off mode.
    pub fn with_handoff(mut self, handoff: HandoffMode) -> Self {
        self.handoff = handoff;
        self
    }
}

// ---------------------------------------------------------------------------
// Spawn options and slice outcomes
// ---------------------------------------------------------------------------

/// Per-thread overrides for [`Engine::spawn_with`] /
/// [`crate::SimHandle::spawn_with`]. The defaults follow the engine tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpawnOptions {
    /// Force a hand-off mode for this thread regardless of the engine-wide
    /// [`SimTuning::handoff`]. The designed use is
    /// `Some(HandoffMode::Baton)`: an escape hatch for bodies a fixed-size
    /// continuation stack cannot carry (deep recursion), which then run on
    /// a dedicated OS thread with a guard page while the rest of the
    /// simulation stays on continuations.
    pub handoff: Option<HandoffMode>,
    /// Private stack size for this thread: the continuation's coroutine
    /// stack (default 1 MiB, committed lazily) or the backing OS thread's
    /// stack when combined with an OS-thread hand-off.
    pub stack_bytes: Option<usize>,
}

impl SpawnOptions {
    /// Options forcing the OS-thread baton for this thread.
    pub fn baton() -> Self {
        SpawnOptions {
            handoff: Some(HandoffMode::Baton),
            ..SpawnOptions::default()
        }
    }

    /// This set of options with an explicit continuation stack size.
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = Some(bytes);
        self
    }
}

/// Why a simulated thread yielded its slice back to the scheduler. Reified
/// at every yield site (sleep, wait sets, channels, DSM faults) so the
/// scheduler — and the profiling surface, [`Engine::block_profile`] — can
/// see *what* the simulation spends its blocking on, independent of the
/// hand-off mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BlockReason {
    /// Generic park with no annotated cause.
    Other = 0,
    /// Blocked on a [`crate::WaitSet`] without a finer-grained annotation.
    WaitSet = 1,
    /// Blocked receiving from a simulation channel.
    Channel = 2,
    /// Blocked on a DSM page fault (waiting for a page or diff to arrive).
    PageFault = 3,
    /// Blocked waiting for protocol acknowledgements (release/flush).
    Ack = 4,
    /// Blocked on an RPC reply.
    Rpc = 5,
    /// Blocked in a barrier round.
    Barrier = 6,
}

/// All reasons, in discriminant order (the [`Engine::block_profile`] rows).
pub(crate) const BLOCK_REASONS: [BlockReason; 7] = [
    BlockReason::Other,
    BlockReason::WaitSet,
    BlockReason::Channel,
    BlockReason::PageFault,
    BlockReason::Ack,
    BlockReason::Rpc,
    BlockReason::Barrier,
];

/// What a slice reported when it yielded: the scheduler-visible outcome of
/// one resumption of a simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The thread advanced virtual time and scheduled its own wake-up.
    Yielded(SimTime),
    /// The thread blocked for `reason`; some other party will wake it.
    Blocked(BlockReason),
    /// The thread's body completed; it will never run again.
    Done,
}

/// Configuration for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Upper bound on the number of processed events before the run aborts.
    /// Guards against runaway simulations in tests and benchmarks.
    pub max_events: u64,
    /// Human-readable label used in traces.
    pub name: String,
    /// Engine tuning knobs (the default hand-off substrate).
    pub tuning: SimTuning,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_events: 50_000_000,
            name: "sim".to_string(),
            tuning: SimTuning::default(),
        }
    }
}

/// Summary of a completed simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time at which the last event was processed.
    pub final_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Number of times the baton was handed to a simulated thread.
    pub context_switches: u64,
    /// Total number of simulated threads spawned over the run.
    pub threads_spawned: u64,
}

// ---------------------------------------------------------------------------
// Schedule control (the dsm-verify exploration seam)
// ---------------------------------------------------------------------------

/// One runnable alternative at a same-instant schedule choice point: the
/// lowest-sequence pending event of one shard key at the current virtual
/// instant. Executing any candidate preserves per-key (per-node) program
/// order; the *cross*-key order is exactly what a schedule explorer varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventChoice {
    /// Shard key of the candidate (upper layers use the cluster node id).
    pub shard_key: u64,
    /// Global sequence number of the candidate event. The candidate with the
    /// smallest sequence number is what the uncontrolled engine would run;
    /// candidates are presented in ascending sequence order, so index 0 is
    /// always the canonical choice.
    pub seq: u64,
    /// Thread the event would wake (`None` for scheduler calls such as
    /// message deliveries).
    pub wakes: Option<ThreadId>,
}

/// A hook consulted by the engine — and by permutation-aware transport
/// backends — at points where several orders are admissible and the engine
/// would otherwise resolve the tie canonically. Installing a controller
/// ([`Engine::set_controller`]) turns the deterministic engine into a
/// *controllable* one: a driver (the `dsm-verify` explorer) can replay a
/// recorded sequence of decisions and then deviate, enumerating the schedule
/// space of a program without touching the program itself.
///
/// Returning the canonical choice everywhere reproduces the uncontrolled run
/// bit for bit; that is what the replay proptest asserts.
pub trait ScheduleController: Send + Sync {
    /// Choose which same-instant event executes next. `choices` holds one
    /// candidate per shard key with pending events at the current instant, in
    /// ascending sequence order (index 0 = canonical). Only called when
    /// `choices.len() > 1`. The return value is an index into `choices`;
    /// out-of-range values are clamped to the last candidate.
    fn choose_event(&self, now: SimTime, choices: &[EventChoice]) -> usize;

    /// Choose a delivery slot for one message on a permutation-aware
    /// transport (`TransportBackend::Permuted`): a value in `0..options`,
    /// where 0 is the canonical (ideal) delivery and higher values add
    /// bounded extra arrival slack, permuting cross-link delivery order
    /// while per-link FIFO is preserved by the transport itself.
    fn choose_delivery(&self, now: SimTime, from: u64, to: u64, options: u32) -> u32;
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum EventKind {
    /// Hand the baton to a parked simulated thread. The slot pointer is a
    /// cache: a thread scheduling its *own* wake-up embeds its slot so the
    /// hot path (one wake per simulated step) skips the global thread-map
    /// lock. Cross-thread wakes pass `None` and resolve through the map.
    Wake(ThreadId, Option<Arc<ThreadSlot>>),
    /// Execute a closure on the scheduler (used for delayed message delivery).
    Call(Box<dyn FnOnce(&EngineCtl) + Send>),
}

struct Event {
    time: u64,
    seq: u64,
    /// Shard key the event was scheduled with (inherited by key-less pushes
    /// made while it executes).
    shard: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct ThreadEntry {
    slot: Arc<ThreadSlot>,
    join: Option<JoinHandle<()>>,
    /// Daemon threads (network dispatchers, protocol service loops) do not
    /// keep the simulation alive and are not reported as deadlocked.
    daemon: bool,
}

pub(crate) struct Shared {
    now: AtomicU64,
    seq: AtomicU64,
    queue: Mutex<BinaryHeap<Reverse<Event>>>,
    /// The OS thread running [`Engine::run`], captured when the run starts.
    /// Baton threads unpark it when they park or finish.
    scheduler: Arc<OnceLock<Thread>>,
    threads: Mutex<HashMap<u64, ThreadEntry>>,
    next_tid: AtomicU64,
    panic_info: Mutex<Option<(String, String)>>,
    /// Raised when `panic_info` holds something: lets the scheduler loop
    /// poll a plain atomic per event instead of taking the mutex.
    panic_flag: AtomicBool,
    context_switches: AtomicU64,
    events_processed: AtomicU64,
    threads_spawned: AtomicU64,
    /// Recycled private stacks of finished continuations.
    stack_pool: Mutex<Vec<Vec<u8>>>,
    /// Count of parks per [`BlockReason`] (indexed by discriminant) — the
    /// data behind [`Engine::block_profile`].
    block_counts: [AtomicU64; BLOCK_REASONS.len()],
    /// The installed [`ScheduleController`], if any (dsm-verify exploration).
    controller: Mutex<Option<Arc<dyn ScheduleController>>>,
    /// Raised when `controller` holds something, so the per-event scheduler
    /// loop and the transport hot paths poll one atomic instead of a mutex.
    controlled: AtomicBool,
    config: EngineConfig,
}

impl Shared {
    fn token(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.load(Ordering::SeqCst))
    }

    /// Append an event to the queue with a fresh global sequence number.
    /// Every push happens on whichever OS thread holds the baton, one at a
    /// time, so sequence assignment order is deterministic.
    fn push(&self, time: SimTime, kind: EventKind, shard_key: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().push(Reverse(Event {
            time: time.as_nanos(),
            seq,
            shard: shard_key,
            kind,
        }));
    }

    /// Shard key of `tid`: its slot's current key, falling back to the raw
    /// thread id for threads already reaped (stale wakes are no-ops anyway).
    fn shard_key_of(&self, tid: ThreadId) -> u64 {
        self.threads
            .lock()
            .get(&tid.0)
            .map(|e| e.slot.shard_key())
            .unwrap_or(tid.0)
    }

    pub(crate) fn schedule_wake(&self, tid: ThreadId, at: SimTime) {
        let key = self.shard_key_of(tid);
        self.push(at, EventKind::Wake(tid, None), key);
    }

    /// Wake with a known shard key (a thread scheduling its own wake-up).
    pub(crate) fn schedule_wake_keyed(&self, tid: ThreadId, at: SimTime, key: u64) {
        self.push(at, EventKind::Wake(tid, None), key);
    }

    /// Self-wake with the slot embedded in the event: the scheduler grants
    /// straight off the cached `Arc` instead of taking the thread-map lock.
    /// This is the per-step hot path (`sleep`/`yield_now`/`flush`).
    pub(crate) fn schedule_wake_cached(&self, slot: &Arc<ThreadSlot>, at: SimTime) {
        self.push(
            at,
            EventKind::Wake(slot.id, Some(Arc::clone(slot))),
            slot.shard_key(),
        );
    }

    pub(crate) fn schedule_call(
        &self,
        at: SimTime,
        key: Option<u64>,
        f: Box<dyn FnOnce(&EngineCtl) + Send>,
    ) {
        // Key-less calls inherit the executing event's shard; outside any
        // event they default to shard 0.
        let key = key.or_else(|| instant_ctx().map(|c| c.shard)).unwrap_or(0);
        self.push(at, EventKind::Call(f), key);
    }

    pub(crate) fn record_panic(&self, thread: String, message: String) {
        let mut info = self.panic_info.lock();
        if info.is_none() {
            *info = Some((thread, message));
        }
        self.panic_flag.store(true, Ordering::SeqCst);
    }

    pub(crate) fn spawn_thread<F>(
        self: &Arc<Self>,
        name: String,
        start_at: SimTime,
        daemon: bool,
        shard_key: Option<u64>,
        opts: SpawnOptions,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let tid = ThreadId(self.next_tid.fetch_add(1, Ordering::SeqCst));
        // Key preference: explicit > inherited from the spawning event >
        // the thread's own id.
        let key = shard_key
            .or_else(|| {
                instant_ctx()
                    .filter(|c| c.engine == self.token())
                    .map(|c| c.shard)
            })
            .unwrap_or(tid.0);
        let mode = opts
            .handoff
            .unwrap_or(self.config.tuning.handoff)
            .effective();
        let slot = Arc::new(ThreadSlot::new(
            tid,
            name.clone(),
            mode,
            Arc::clone(&self.scheduler),
            self.token(),
            key,
        ));
        let shared = Arc::clone(self);
        let slot_for_thread = Arc::clone(&slot);
        let join = match mode {
            HandoffMode::Continuation => {
                // The thread is a coroutine: the body runs on the scheduler
                // thread, switching onto a private stack. No OS thread is
                // created.
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    // The first resume IS the first grant: the scheduler has
                    // already recorded the grant context.
                    if !slot_for_thread.continuation_first_grant() {
                        return;
                    }
                    let mut handle =
                        SimHandle::new(Arc::clone(&shared), tid, Arc::clone(&slot_for_thread));
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        f(&mut handle);
                        // Fold any compute charged after the last yield into
                        // the global clock, so completion times are accurate.
                        handle.flush();
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ShutdownUnwind>().is_none() {
                            shared.record_panic(
                                slot_for_thread.name.clone(),
                                panic_message(&*payload),
                            );
                        }
                    }
                    set_instant_ctx(None);
                });
                let stack_bytes = opts.stack_bytes.unwrap_or(DEFAULT_STACK_BYTES);
                let recycled = self.stack_pool.lock().pop();
                slot.init_continuation(Coro::new(body, stack_bytes, recycled));
                None
            }
            HandoffMode::Baton => {
                let mut builder = std::thread::Builder::new().name(format!("sim-{name}"));
                if let Some(bytes) = opts.stack_bytes {
                    builder = builder.stack_size(bytes);
                }
                let join = builder
                    .spawn(move || {
                        // Wait for the first grant before touching user code.
                        if !slot_for_thread.park_and_wait() {
                            slot_for_thread.mark_finished();
                            return;
                        }
                        let mut handle =
                            SimHandle::new(Arc::clone(&shared), tid, Arc::clone(&slot_for_thread));
                        let result = panic::catch_unwind(AssertUnwindSafe(|| {
                            f(&mut handle);
                            handle.flush();
                        }));
                        if let Err(payload) = result {
                            if payload.downcast_ref::<ShutdownUnwind>().is_none() {
                                shared.record_panic(
                                    slot_for_thread.name.clone(),
                                    panic_message(&*payload),
                                );
                            }
                        }
                        slot_for_thread.mark_finished();
                    })
                    .expect("failed to spawn backing OS thread for simulated thread");
                Some(join)
            }
        };

        self.threads
            .lock()
            .insert(tid.0, ThreadEntry { slot, join, daemon });
        self.threads_spawned.fetch_add(1, Ordering::SeqCst);
        self.schedule_wake_keyed(tid, start_at, key);
        tid
    }

    /// Bump the engine-wide profile counter for `reason`.
    pub(crate) fn record_block(&self, reason: BlockReason) {
        // Relaxed: pure statistics counter, read only after `run()` returned
        // (the thread join inside `run` is the happens-before edge to the
        // reader); no other memory is published under it.
        self.block_counts[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The installed schedule controller, if any. One atomic flag guards the
    /// mutex so uncontrolled runs (the default) pay a single relaxed-ish
    /// load per query.
    pub(crate) fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        if !self.controlled.load(Ordering::SeqCst) {
            return None;
        }
        self.controller.lock().clone()
    }

    /// Pop the next event under schedule control: drain every pending event
    /// of the current minimum instant, present the per-shard-key heads to the
    /// controller (ascending sequence order, so index 0 is the canonical
    /// pick), execute the chosen head and reinsert the rest. Per-key
    /// sequence order — per-node program order and per-link FIFO — is
    /// preserved by construction; only the cross-key interleaving varies.
    fn pop_controlled(&self, controller: &Arc<dyn ScheduleController>) -> Option<Event> {
        let mut queue = self.queue.lock();
        let head_time = queue.peek()?.0.time;
        // Heap pops yield ascending (time, seq): `batch` ends up sorted by
        // sequence number.
        let mut batch: Vec<Event> = Vec::new();
        while queue.peek().is_some_and(|r| r.0.time == head_time) {
            batch.push(queue.pop().expect("peeked event").0);
        }
        drop(queue);
        // Index (into `batch`) of the lowest-sequence event of each distinct
        // shard key, in ascending sequence order. Choice points are tiny
        // (2–4 nodes), so the quadratic scan beats a hash map.
        let mut heads: Vec<usize> = Vec::new();
        for (i, e) in batch.iter().enumerate() {
            if !heads.iter().any(|&h| batch[h].shard == e.shard) {
                heads.push(i);
            }
        }
        let pick = if heads.len() > 1 {
            let choices: Vec<EventChoice> = heads
                .iter()
                .map(|&h| EventChoice {
                    shard_key: batch[h].shard,
                    seq: batch[h].seq,
                    wakes: match &batch[h].kind {
                        EventKind::Wake(tid, _) => Some(*tid),
                        EventKind::Call(_) => None,
                    },
                })
                .collect();
            let idx = controller.choose_event(SimTime::from_nanos(head_time), &choices);
            heads[idx.min(heads.len() - 1)]
        } else {
            heads[0]
        };
        let chosen = batch.swap_remove(pick);
        let mut queue = self.queue.lock();
        for e in batch {
            queue.push(Reverse(e));
        }
        Some(chosen)
    }

    /// Join and drop the backing OS threads of simulated threads that have
    /// finished. Message-driven workloads spawn one short-lived handler
    /// thread per request; without eager reaping a long run accumulates tens
    /// of thousands of exited-but-unjoined OS threads and eventually exhausts
    /// the process's thread quota.
    fn reap_finished(&self) {
        let mut handles = Vec::new();
        let mut stacks = Vec::new();
        {
            let mut threads = self.threads.lock();
            let finished: Vec<u64> = threads
                .iter()
                .filter(|(_, e)| e.slot.is_finished())
                .map(|(&tid, _)| tid)
                .collect();
            for tid in finished {
                if let Some(entry) = threads.remove(&tid) {
                    // Recycle the private stack of a finished continuation
                    // (also breaks the body's Arc cycle back to this Shared).
                    if let Some(stack) = entry.slot.reclaim_stack() {
                        stacks.push(stack);
                    }
                    handles.push(entry.join);
                }
            }
        }
        if !stacks.is_empty() {
            let mut pool = self.stack_pool.lock();
            for stack in stacks {
                if pool.len() < STACK_POOL_CAP {
                    pool.push(stack);
                }
            }
        }
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

/// A lightweight, cloneable controller over the engine. It is handed to
/// scheduler callbacks and embedded in simulation-aware data structures
/// (channels, wait queues) so they can schedule wake-ups.
#[derive(Clone)]
pub struct EngineCtl {
    pub(crate) shared: Arc<Shared>,
}

impl EngineCtl {
    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Schedule a wake-up for `tid` at absolute virtual time `at`. Stale
    /// wake-ups (the thread finished, or is running when the event fires) are
    /// ignored, so spurious wakes are harmless; all blocking primitives
    /// re-check their condition in a loop.
    pub fn wake_at(&self, tid: ThreadId, at: SimTime) {
        self.shared.schedule_wake(tid, at);
    }

    /// Schedule a wake-up for `tid` after `delay` from the current global time.
    pub fn wake_after(&self, tid: ThreadId, delay: SimDuration) {
        let at = self.now() + delay;
        self.shared.schedule_wake(tid, at);
    }

    /// Schedule a closure to run on the scheduler at absolute time `at`. The
    /// event inherits the shard of the context scheduling it (shard 0 when
    /// scheduled from outside the simulation).
    pub fn call_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, None, Box::new(f));
    }

    /// Schedule a closure on an explicit shard. Layers use this to tag
    /// callbacks that touch a node's state with the node's shard (e.g.
    /// transport delivery at the receiver), so a [`ScheduleController`]
    /// sees them in that node's group.
    pub fn call_at_on<F>(&self, shard_key: u64, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, Some(shard_key), Box::new(f));
    }

    /// Spawn a simulated thread that becomes runnable at the current global
    /// time. Mirrors [`Engine::spawn`] for code that only holds a controller.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, false, None, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` (see
    /// [`Engine::spawn_on`]).
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.spawn_on_with(shard_key, name, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` with per-thread
    /// [`SpawnOptions`] (hand-off override, continuation stack size). Upper
    /// layers use this to keep deep-recursion workloads on the OS-thread
    /// baton while the rest of the simulation runs on continuations.
    pub fn spawn_on_with<F>(
        &self,
        shard_key: u64,
        name: impl Into<String>,
        opts: SpawnOptions,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, false, Some(shard_key), opts, f)
    }

    /// Spawn a daemon thread (see [`Engine::spawn_daemon`]) from a controller.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, true, None, SpawnOptions::default(), f)
    }

    /// Spawn a daemon thread bound to shard `shard_key`.
    pub fn spawn_daemon_on<F>(&self, shard_key: u64, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            true,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// The engine's installed [`ScheduleController`], if any. Transport
    /// backends with controllable delivery order (`Permuted`) query this on
    /// every submit; the common uncontrolled case is one atomic load.
    pub fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        self.shared.controller()
    }
}

impl std::fmt::Debug for EngineCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineCtl(now={})", self.now())
    }
}

// ---------------------------------------------------------------------------
// The engine proper
// ---------------------------------------------------------------------------

/// The discrete-event simulation engine.
pub struct Engine {
    shared: Arc<Shared>,
    ran: bool,
}

impl Engine {
    /// Create a new engine with the default configuration.
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// Create a new engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            shared: Arc::new(Shared {
                now: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                queue: Mutex::new(BinaryHeap::new()),
                scheduler: Arc::new(OnceLock::new()),
                threads: Mutex::new(HashMap::new()),
                next_tid: AtomicU64::new(0),
                panic_info: Mutex::new(None),
                panic_flag: AtomicBool::new(false),
                context_switches: AtomicU64::new(0),
                events_processed: AtomicU64::new(0),
                threads_spawned: AtomicU64::new(0),
                stack_pool: Mutex::new(Vec::new()),
                block_counts: std::array::from_fn(|_| AtomicU64::new(0)),
                controller: Mutex::new(None),
                controlled: AtomicBool::new(false),
                config,
            }),
            ran: false,
        }
    }

    /// A controller that can be stored in simulation-aware data structures.
    pub fn ctl(&self) -> EngineCtl {
        EngineCtl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawn a simulated thread that becomes runnable at virtual time zero
    /// (or at the current time if the engine is already running).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.spawn_with(name, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread with per-thread [`SpawnOptions`]: force a
    /// hand-off mode (the baton escape hatch for deep recursion) or size the
    /// continuation's private stack.
    pub fn spawn_with<F>(&self, name: impl Into<String>, opts: SpawnOptions, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared
            .spawn_thread(name.into(), now, false, None, opts, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key`: all its wake-ups
    /// carry that key. Upper layers pass the cluster node id, so a
    /// [`ScheduleController`] sees each node's activity as one group.
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            false,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Spawn a daemon thread: it behaves like a normal simulated thread but
    /// does not keep the simulation alive. Used for service loops such as RPC
    /// dispatchers, which block on their incoming queue forever.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared
            .spawn_thread(name.into(), now, true, None, SpawnOptions::default(), f)
    }

    /// Spawn a daemon thread bound to shard `shard_key`.
    pub fn spawn_daemon_on<F>(&self, shard_key: u64, name: impl Into<String>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            true,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Install a [`ScheduleController`]: every same-instant event-order tie
    /// (and every delivery on a `Permuted` transport) is resolved by the
    /// controller instead of canonically.
    pub fn set_controller(&self, controller: Arc<dyn ScheduleController>) {
        *self.shared.controller.lock() = Some(controller);
        self.shared.controlled.store(true, Ordering::SeqCst);
    }

    /// Engine-wide count of parks per [`BlockReason`] so far: what the
    /// simulation spends its blocking on (page faults, acks, RPC replies,
    /// barriers, channels...). Purely observational — deliberately *not*
    /// part of [`RunReport`], whose cross-mode equality the conformance
    /// matrix asserts.
    pub fn block_profile(&self) -> Vec<(BlockReason, u64)> {
        BLOCK_REASONS
            .iter()
            .map(|&r| {
                (
                    r,
                    self.shared.block_counts[r as usize].load(Ordering::SeqCst),
                )
            })
            .collect()
    }

    /// Run the simulation to completion.
    ///
    /// Returns a [`RunReport`] on success, or a [`SimError`] if the simulated
    /// program deadlocked, a thread panicked, or the event budget was hit.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        if self.ran {
            return Err(SimError::AlreadyRan);
        }
        self.ran = true;
        // The scheduler loop itself must never skip teardown: a panic that
        // escaped run_inner (e.g. a bug in the engine) would otherwise leave
        // simulated threads parked forever with no one holding the baton.
        // Tear every slot down first, then re-raise.
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.run_inner()));
        self.teardown();
        match result {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Verdict once the event queue is empty: clean completion (`Ok`) or
    /// a deadlock report naming each parked non-daemon thread and, when the
    /// slot recorded one, the [`BlockReason`] it is stuck on.
    fn drained_verdict(&self) -> Result<(), SimError> {
        let shared = &self.shared;
        let mut parked: Vec<String> = shared
            .threads
            .lock()
            .values()
            .filter(|e| !e.daemon && e.slot.is_parked() && !e.slot.is_finished())
            .map(|e| match e.slot.blocked_on() {
                Some(reason) => {
                    format!("{} ({}) blocked on {:?}", e.slot.name, e.slot.id, reason)
                }
                None => format!("{} ({})", e.slot.name, e.slot.id),
            })
            .collect();
        if parked.is_empty() {
            return Ok(());
        }
        parked.sort();
        Err(SimError::Deadlock {
            at: shared.now(),
            parked_threads: parked,
        })
    }

    fn run_inner(&self) -> Result<RunReport, SimError> {
        let shared = &self.shared;
        // This OS thread is the scheduler from here on: every continuation
        // is resumed on it. Publish its handle before the first grant so
        // baton threads can wake it. The fence pairs with the one in
        // `ThreadSlot::wake_scheduler`: a baton thread that stored `Parked`
        // before this point either sees the handle or its store is visible
        // to the scheduler's first phase load.
        let _ = shared.scheduler.set(std::thread::current());
        fence(Ordering::SeqCst);
        // Events processed since the last reap of finished OS threads.
        let mut since_reap = 0u64;
        loop {
            // The mutex is only taken once the flag says there is something
            // to read — the loop head runs once per event.
            if shared.panic_flag.load(Ordering::SeqCst) {
                if let Some((thread, message)) = shared.panic_info.lock().take() {
                    return Err(SimError::ThreadPanic { thread, message });
                }
            }

            // Periodically reclaim the OS threads of finished simulated
            // threads so message-heavy runs do not exhaust the thread quota.
            if since_reap >= 512 {
                since_reap = 0;
                shared.reap_finished();
            }

            // Under an installed controller (dsm-verify exploration) the pop
            // consults the controller at every same-instant choice point.
            let popped = match shared.controller() {
                Some(controller) => shared.pop_controlled(&controller),
                None => shared.queue.lock().pop().map(|Reverse(e)| e),
            };
            let Some(event) = popped else {
                return self.drained_verdict().map(|()| self.report());
            };
            // The clock never moves backwards: events scheduled "in the
            // past" (e.g. zero-delay wake-ups racing with compute charges)
            // are processed at the current time.
            if event.time > shared.now.load(Ordering::SeqCst) {
                shared.now.store(event.time, Ordering::SeqCst);
            }
            let processed = shared.events_processed.fetch_add(1, Ordering::SeqCst) + 1;
            if processed > shared.config.max_events {
                return Err(SimError::EventLimitExceeded {
                    limit: shared.config.max_events,
                });
            }
            since_reap += 1;
            execute_event(shared, event);
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            final_time: self.shared.now(),
            events: self.shared.events_processed.load(Ordering::SeqCst),
            context_switches: self.shared.context_switches.load(Ordering::SeqCst),
            threads_spawned: self.shared.threads_spawned.load(Ordering::SeqCst),
        }
    }

    fn teardown(&self) {
        // Release every thread still waiting for the baton so its OS thread
        // can exit, then join them all. Runs after the scheduler loop ended,
        // so this thread owns every slot.
        let mut entries: Vec<(Arc<ThreadSlot>, Option<JoinHandle<()>>)> = Vec::new();
        {
            let mut threads = self.shared.threads.lock();
            for entry in threads.values_mut() {
                entries.push((Arc::clone(&entry.slot), entry.join.take()));
            }
        }
        for (slot, _) in &entries {
            slot.request_shutdown();
        }
        for (slot, _) in &entries {
            // Unwind suspended continuations (destructors of the frames
            // parked on their private stacks must run) and drop never-started
            // bodies — both hold an Arc cycle back to `Shared`.
            slot.teardown_continuation();
            let _ = slot.reclaim_stack();
        }
        for (_, join) in entries {
            if let Some(handle) = join {
                let _ = handle.join();
            }
        }
    }
}

/// Execute one event. For `Wake` events the baton goes to the slot for one
/// slice; for `Call` events the closure runs right here with the instant
/// context installed, so its pushes inherit the event's shard.
fn execute_event(shared: &Arc<Shared>, event: Event) {
    match event.kind {
        EventKind::Wake(tid, cached) => {
            let slot = match cached {
                Some(slot) => Some(slot),
                None => shared
                    .threads
                    .lock()
                    .get(&tid.0)
                    .map(|e| Arc::clone(&e.slot)),
            };
            if let Some(slot) = slot {
                if slot.grant_and_wait(event.time, event.seq) {
                    shared.context_switches.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        EventKind::Call(f) => {
            let ctl = EngineCtl {
                shared: Arc::clone(shared),
            };
            set_instant_ctx(Some(InstantCtx {
                engine: shared.token(),
                parent_time: event.time,
                parent_seq: event.seq,
                shard: event.shard,
                sub: 0,
            }));
            // A panicking scheduler callback must not take down the
            // scheduler loop (teardown would never release the other
            // threads' batons); record it like a thread panic and let the
            // loop head convert it into the run's error.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(&ctl))) {
                shared.record_panic("scheduler-call".to_string(), panic_message(&*payload));
            }
            set_instant_ctx(None);
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.ran {
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_engine_runs_to_completion() {
        let mut engine = Engine::new();
        let report = engine.run().unwrap();
        assert_eq!(report.final_time, SimTime::ZERO);
        assert_eq!(report.threads_spawned, 0);
    }

    #[test]
    fn single_thread_advances_virtual_time() {
        let mut engine = Engine::new();
        let observed = Arc::new(AtomicU64::new(0));
        let obs = observed.clone();
        engine.spawn("worker", move |h| {
            h.sleep(SimDuration::from_micros(100));
            obs.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        let report = engine.run().unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 100_000);
        assert_eq!(report.final_time, SimTime::from_micros(100));
        assert_eq!(report.threads_spawned, 1);
    }

    #[test]
    fn threads_interleave_deterministically_by_time() {
        let mut engine = Engine::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("late", 30u64), ("early", 10), ("mid", 20)] {
            let order = order.clone();
            engine.spawn(name, move |h| {
                h.sleep(SimDuration::from_micros(delay));
                order.lock().push(name.to_string());
            });
        }
        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn spawn_inside_thread_starts_child() {
        let mut engine = Engine::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        engine.spawn("parent", move |h| {
            let c2 = c.clone();
            h.spawn("child", move |h| {
                h.sleep(SimDuration::from_micros(5));
                c2.fetch_add(1, Ordering::SeqCst);
            });
            c.fetch_add(1, Ordering::SeqCst);
        });
        let report = engine.run().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(report.threads_spawned, 2);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut engine = Engine::new();
        engine.spawn("stuck", |h| {
            // Park with no one to ever wake us.
            h.park();
        });
        match engine.run() {
            Err(SimError::Deadlock { parked_threads, .. }) => {
                assert_eq!(parked_threads.len(), 1);
                assert!(parked_threads[0].starts_with("stuck"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn thread_panic_is_reported() {
        let mut engine = Engine::new();
        engine.spawn("bad", |_h| panic!("intentional test panic"));
        match engine.run() {
            Err(SimError::ThreadPanic { thread, message }) => {
                assert_eq!(thread, "bad");
                assert!(message.contains("intentional"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guard_triggers() {
        let mut engine = Engine::with_config(EngineConfig {
            max_events: 10,
            name: "tiny".into(),
            ..EngineConfig::default()
        });
        engine.spawn("spinner", |h| loop {
            h.sleep(SimDuration::from_micros(1));
        });
        match engine.run() {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 10),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn run_twice_is_an_error() {
        let mut engine = Engine::new();
        engine.run().unwrap();
        assert!(matches!(engine.run(), Err(SimError::AlreadyRan)));
    }

    #[test]
    fn wake_between_threads() {
        let mut engine = Engine::new();
        let ctl = engine.ctl();
        let woken_at = Arc::new(AtomicU64::new(0));
        let w = woken_at.clone();
        let sleeper = engine.spawn("sleeper", move |h| {
            h.park();
            w.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("waker", move |h| {
            h.sleep(SimDuration::from_micros(50));
            ctl.wake_at(sleeper, h.now());
        });
        engine.run().unwrap();
        assert_eq!(woken_at.load(Ordering::SeqCst), 50_000);
    }

    #[test]
    fn scheduled_call_runs_at_requested_time() {
        let mut engine = Engine::new();
        let ctl = engine.ctl();
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        ctl.call_at(SimTime::from_micros(25), move |c| {
            s.store(c.now().as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 25_000);
    }

    #[test]
    fn charge_accumulates_until_yield() {
        let mut engine = Engine::new();
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        engine.spawn("computer", move |h| {
            h.charge(SimDuration::from_micros(3));
            h.charge(SimDuration::from_micros(4));
            // Local view includes pending compute.
            assert_eq!(h.now().as_nanos(), 7_000);
            h.flush();
            t2.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(t.load(Ordering::SeqCst), 7_000);
    }
}
