//! Stackful continuations: run a simulated thread's slice on the
//! scheduler's own OS thread.
//!
//! The PR 3 baton pays two OS context switches per simulated step (grant =
//! unpark the thread's OS thread + park ours; park = the reverse). This
//! module removes the OS scheduler from that path entirely: each simulated
//! thread owns a private call stack, and the scheduler *switches onto it*
//! with a ~dozen-instruction register swap, runs the slice to its next yield
//! point, and switches back. Blocking points (`WaitSet`, channels, DSM
//! faults) become resumption points on the coroutine's saved stack — the
//! user-visible programming model (ordinary imperative Rust against
//! [`crate::SimHandle`]) is unchanged.
//!
//! ## The switch
//!
//! x86-64 SysV: a context is fully described by the callee-saved registers
//! (`rbx`, `rbp`, `r12`–`r15`) plus the stack pointer. [`raw_switch`] pushes
//! the six registers, stores `rsp` through its first argument, installs the
//! `rsp` passed as its second, pops six registers and returns — landing in
//! whatever `raw_switch` call (or bootstrap frame) last saved that stack.
//!
//! A fresh coroutine's stack is seeded with a hand-built frame: six register
//! slots (with `r12` = pointer to the [`Coro`]) below the address of a
//! naked trampoline that moves `r12` into the first-argument register and
//! calls [`coro_entry`]. `rbp` is seeded as zero so frame-pointer walkers
//! stop at the stack boundary.
//!
//! ## Safety rules (enforced by the caller, `ThreadSlot` and the engine)
//!
//! * A started coroutine is only ever resumed on the OS thread running
//!   `Engine::run`, and never while it is already running. Thread-locals
//!   touched inside a slice (the engine's instant context, the parking-lot
//!   shim's parker) may have their addresses cached across the switch, so
//!   resuming on another OS thread would read and write the wrong thread's
//!   slots.
//! * A started coroutine must be driven to completion (normally, or by the
//!   shutdown unwind during teardown) before it is dropped, so the
//!   destructors of the frames parked on its stack run.
//! * The body is built by whichever OS thread spawns the simulated thread
//!   (setup code may run before, and on another thread than, `Engine::run`),
//!   which is why spawn closures are `Send`.
//!
//! Panics never cross the switch: the slice body runs under
//! `catch_unwind` *inside* the coroutine, and [`coro_entry`] adds a
//! belt-and-braces catch so no unwind can reach the bootstrap frame.
//!
//! ## The stack
//!
//! A private stack is an anonymous `mmap` whose lowest page is mapped
//! `PROT_NONE` ([`Stack`]), the same layout an OS thread's stack has: a
//! coroutine that runs off the low end faults on the guard page (SIGSEGV)
//! instead of silently overwriting whatever lies below. Rust probes every
//! frame larger than a page, so no frame can step over the guard. The
//! kernel commits pages only as the coroutine grows into them. Finished
//! stacks go back to one bounded, process-wide free list, so spawning a
//! continuation costs no system call in steady state.

use std::panic::{self, AssertUnwindSafe};

use parking_lot::Mutex;

/// Whether this target has a stack-switching implementation: the x86-64
/// switch plus the Linux guard-paged stack. When false the engine silently
/// downgrades `HandoffMode::Continuation` to the OS-thread baton, so the
/// programming model and determinism are preserved everywhere.
/// `--cfg dsm_force_no_coro` forces the fallback even where both exist, so
/// CI can exercise the downgrade on x86-64 Linux hosts.
pub(crate) const SUPPORTED: bool = cfg!(all(
    target_arch = "x86_64",
    target_os = "linux",
    not(dsm_force_no_coro)
));

/// Default private stack size of one continuation. Committed lazily by the
/// kernel, so the cost of an oversized default is address space, not
/// memory. Recursion deeper than this reaches the guard page and kills the
/// process with SIGSEGV; raise it per thread with
/// `SpawnOptions::stack_bytes`.
pub(crate) const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Smallest private stack handed out, whatever the caller asks for.
const MIN_STACK_BYTES: usize = 64 * 1024;

/// Size of the `PROT_NONE` guard page below every stack (the x86-64 page).
const GUARD_BYTES: usize = 4096;

/// Most finished stacks the process-wide free list keeps; beyond this a
/// finished stack is unmapped.
const STACK_POOL_CAP: usize = 64;

/// Magic word written at the low end of the usable stack, just above the
/// guard page; checked after every slice. The guard page catches an
/// overflow as it happens; the canary is a cheap second check that also
/// trips when a slice wrote the stack's last word without reaching the
/// guard.
const CANARY: u64 = 0xDEAD_57AC_C0DE_F00D;

/// One stack mapping: its base (the guard page) and total length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Mapping {
    base: usize,
    len: usize,
}

/// The process-wide free list of finished stacks, at most
/// [`STACK_POOL_CAP`] long. A leaf lock: nothing is locked while it is held.
static POOL: Mutex<Vec<Mapping>> = Mutex::new(Vec::new());

/// A continuation's private stack: an anonymous mapping whose lowest
/// [`GUARD_BYTES`] are `PROT_NONE`. Taken from the process-wide free list
/// when one there is big enough, else freshly mapped; dropping it returns
/// it to the free list, or unmaps it when the list is full.
pub(crate) struct Stack {
    map: Mapping,
}

impl Stack {
    /// A stack with at least `bytes` usable bytes above its guard page.
    pub fn take(bytes: usize) -> Stack {
        let len = bytes
            .max(MIN_STACK_BYTES)
            .checked_next_multiple_of(GUARD_BYTES)
            .and_then(|usable| usable.checked_add(GUARD_BYTES))
            .expect("continuation stack size overflows the address space");
        let recycled = {
            let mut pool = POOL.lock();
            pool.iter()
                .position(|m| m.len >= len)
                .map(|i| pool.swap_remove(i))
        };
        Stack {
            map: recycled.unwrap_or_else(|| sys::map_guarded(len)),
        }
    }

    /// Lowest usable address (just above the guard page).
    fn low(&self) -> usize {
        self.map.base + GUARD_BYTES
    }

    /// One past the highest usable address; page-aligned.
    fn top(&self) -> usize {
        self.map.base + self.map.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let mut pool = POOL.lock();
        if pool.len() < STACK_POOL_CAP {
            pool.push(self.map);
        } else {
            drop(pool);
            sys::unmap(self.map);
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(dsm_force_no_coro)))]
mod sys {
    //! The three memory-mapping calls a guarded stack needs, declared here
    //! against the C library (x86-64 Linux constants and `off_t`).
    use std::ffi::{c_int, c_void};

    use super::{Mapping, GUARD_BYTES};

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_STACK: c_int = 0x2_0000;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Map `len` bytes of lazily committed read-write memory and turn its
    /// lowest page into the guard.
    pub(super) fn map_guarded(len: usize) -> Mapping {
        // SAFETY: an anonymous private mapping at an address the kernel
        // chooses aliases no memory the program already uses; every argument
        // is a plain value.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mapping a {len}-byte continuation stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `base..base + GUARD_BYTES` is the first page of the mapping
        // just created; nothing references it yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "protecting a continuation stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Mapping {
            base: base as usize,
            len,
        }
    }

    /// Unmap a stack that no coroutine runs on any more. Called from
    /// `Drop`, so a failure (which would only leak address space) is
    /// ignored rather than raised.
    pub(super) fn unmap(map: Mapping) {
        // SAFETY: `map` is exactly one mapping made by `map_guarded`, owned
        // by a `Stack` being dropped and not in the free list, so no live
        // reference points into it.
        let _ = unsafe { munmap(map.base as *mut c_void, map.len) };
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(dsm_force_no_coro))))]
mod sys {
    //! Stub for targets without guarded stacks: never reached, because
    //! `SUPPORTED == false` downgrades every continuation spawn to the
    //! OS-thread baton before a `Stack` is taken.
    use super::Mapping;

    pub(super) fn map_guarded(_len: usize) -> Mapping {
        unreachable!("continuation stacks are not supported on this target");
    }

    pub(super) fn unmap(_map: Mapping) {
        unreachable!("continuation stacks are not supported on this target");
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    /// Switch stacks: save the current continuation at `*save_sp`, resume
    /// the one saved at `new_sp`. Returns when somebody switches back to
    /// `*save_sp`.
    ///
    /// # Safety
    /// `new_sp` must be a stack pointer previously produced by this function
    /// (or by [`bootstrap`]), whose continuation is suspended and owned by
    /// the caller.
    #[unsafe(naked)]
    pub(super) unsafe extern "sysv64" fn raw_switch(save_sp: *mut usize, new_sp: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of a fresh coroutine: `raw_switch`'s `ret` lands here
    /// with `r12` = the `Coro` pointer seeded by [`bootstrap`]. Forward it
    /// as the first argument and enter Rust. `coro_entry` never returns (it
    /// switches away for good); trap if it somehow does.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym super::coro_entry,
        )
    }

    /// Seed a fresh stack so that switching to the returned `rsp` enters
    /// [`trampoline`] with `r12 = coro`. `top` must be 16-byte aligned.
    ///
    /// Layout (descending): trampoline return address at `top - 8`, then the
    /// six register slots popped by `raw_switch`. After the six pops and the
    /// `ret`, `rsp == top`, so the `call` inside the trampoline meets the
    /// SysV 16-byte alignment rule.
    pub(super) unsafe fn bootstrap(top: usize, coro: *mut super::Coro) -> usize {
        debug_assert_eq!(top % 16, 0);
        let sp = top - 7 * 8;
        let slots = sp as *mut u64;
        // SAFETY: the caller passes `top` inside a live stack buffer at
        // least 7 words deep, so `slots..slots+7` is in-bounds, writable
        // memory owned by the Coro; nothing else references it yet.
        unsafe {
            slots.add(0).write(0); // r15
            slots.add(1).write(0); // r14
            slots.add(2).write(0); // r13
            slots.add(3).write(coro as u64); // r12 -> first argument
            slots.add(4).write(0); // rbx
            slots.add(5).write(0); // rbp (stop frame walkers here)
            slots.add(6).write(trampoline as *const () as usize as u64); // ret target
        }
        sp
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    //! Stub for targets without a switch implementation: never reached,
    //! because `SUPPORTED == false` downgrades every continuation spawn to
    //! the OS-thread baton before a `Coro` is created.
    pub(super) unsafe extern "C" fn raw_switch(_save_sp: *mut usize, _new_sp: usize) {
        unreachable!("continuation hand-off is not supported on this target");
    }
    pub(super) unsafe fn bootstrap(_top: usize, _coro: *mut super::Coro) -> usize {
        unreachable!("continuation hand-off is not supported on this target");
    }
}

/// A stackful coroutine: a private stack plus the saved stack pointers of
/// the two sides of the switch. Owned by a `ThreadSlot`; every resume
/// happens on the scheduler thread (exactly one resumer at a time, never
/// concurrent with the coroutine itself).
pub(crate) struct Coro {
    /// The private stack; back to the free list when the `Coro` drops.
    stack: Stack,
    /// Saved `rsp` of the suspended coroutine (valid while `started` and
    /// not `done`, or before the first resume as the bootstrap frame).
    coro_sp: usize,
    /// Saved `rsp` of whoever resumed the coroutine (valid while the
    /// coroutine runs; where `yield_to_scheduler` switches back to).
    sched_sp: usize,
    /// The slice body; taken by `coro_entry` on first resume.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// The coroutine has been resumed at least once.
    started: bool,
    /// The body has returned (or been fully unwound); the stack holds no
    /// live frames and the coroutine must never be resumed again.
    done: bool,
}

// SAFETY: a Coro may be created on one OS thread (the spawning setup code)
// and moved to another, but it is only *resumed* on the OS thread running
// `Engine::run`: the scheduler is the only granter, and teardown resumes
// started coroutines on that same thread after the loop stopped. An engine
// that never ran drops its coroutines unstarted, running no frames. So no
// frame on the private stack ever executes on two OS threads, and moving
// the not-yet-started body is sound because it is `Send`; the stack mapping
// is private memory.
unsafe impl Send for Coro {}

impl Coro {
    /// Create a suspended coroutine that will run `body` on a private stack
    /// of at least `stack_bytes` when first resumed.
    pub fn new(body: Box<dyn FnOnce() + Send>, stack_bytes: usize) -> Self {
        // Compile-time constant per target; the engine checks `SUPPORTED`
        // before choosing this backing, so reaching here unsupported is a
        // bug.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(
                SUPPORTED,
                "continuation hand-off unsupported on this target"
            );
        }
        let stack = Stack::take(stack_bytes);
        // SAFETY: `stack.low()` is the page-aligned low end of the stack's
        // read-write region, exclusively owned here (a recycled stack has
        // no coroutine left on it).
        unsafe { (stack.low() as *mut u64).write(CANARY) };
        // The bootstrap frame needs the Coro's *final* address (it captures
        // a self-pointer), so it is seeded on first resume, after the owner
        // has stored the Coro at its permanent location.
        Coro {
            stack,
            coro_sp: 0,
            sched_sp: 0,
            body: Some(body),
            started: false,
            done: false,
        }
    }

    /// Resume the coroutine until its next yield (or completion). Returns
    /// `true` when the body has completed and the coroutine must not be
    /// resumed again.
    ///
    /// # Safety
    /// The caller must hold exclusive execution rights (a scheduler grant,
    /// or teardown after the scheduler loop stopped) on the OS thread that
    /// resumed the coroutine before, if any, and the coroutine must be
    /// suspended and not `done`.
    pub unsafe fn resume(&mut self) -> bool {
        debug_assert!(!self.done, "resumed a completed coroutine");
        // Seed the bootstrap frame lazily so it captures the Coro's settled
        // address; the Coro must not move between resumes (the slot stores
        // it in place for its whole life).
        if !self.started {
            self.started = true;
            // SAFETY: `self.stack.top()` is the page-aligned top of this
            // Coro's own stack, and `self` sits at its permanent address
            // (the slot never moves it between resumes).
            self.coro_sp = unsafe { arch::bootstrap(self.stack.top(), self as *mut Coro) };
        }
        // SAFETY: `self.coro_sp` was produced by `bootstrap` (first resume)
        // or by the coroutine's own `raw_switch` save (later resumes); the
        // caller's exclusivity contract guarantees the continuation is
        // suspended and owned by us.
        unsafe { arch::raw_switch(&mut self.sched_sp, self.coro_sp) };
        // Back on the scheduler stack. The coroutine either parked (saved
        // its sp via yield_to_scheduler) or completed (set `done`).
        assert!(
            // SAFETY: the low word of the live stack's read-write region,
            // written once in `new`; reading it races with nothing (the
            // coroutine just suspended on this very OS thread).
            unsafe { (self.stack.low() as *const u64).read() } == CANARY,
            "simulated-thread stack overflow: the continuation overwrote the bottom \
             of its private stack (raise SpawnOptions::stack_bytes)"
        );
        self.done
    }

    /// Park the running coroutine: save its continuation and switch back to
    /// the scheduler side. Returns when somebody resumes it.
    ///
    /// # Safety
    /// Must be called *from inside* this coroutine (on its private stack).
    pub unsafe fn yield_to_scheduler(&mut self) {
        // SAFETY: we are running *on* this coroutine's stack (the caller's
        // contract), so `sched_sp` is the suspended resumer saved by the
        // `raw_switch` that entered us; switching back to it is the exact
        // inverse of that switch.
        unsafe { arch::raw_switch(&mut self.coro_sp, self.sched_sp) };
    }

    /// True once the body has run to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True if the coroutine was resumed at least once.
    pub fn is_started(&self) -> bool {
        self.started
    }
}

impl Drop for Coro {
    fn drop(&mut self) {
        // A started-but-unfinished coroutine still has live frames (and
        // their destructors) parked on its stack. Dropping it would leak
        // them silently (and recycle the stack under them); the engine's
        // teardown path is responsible for resuming it under the shutdown
        // flag first. Make the violation loud in tests without aborting
        // production teardown.
        debug_assert!(
            !self.started || self.done,
            "dropped a suspended continuation without unwinding it"
        );
    }
}

/// Rust-side entry of a fresh coroutine (reached through the naked
/// trampoline). Runs the body, marks completion, and switches away for good.
pub(crate) extern "sysv64" fn coro_entry(coro: *mut Coro) -> ! {
    // SAFETY: `coro` is the pointer seeded by `bootstrap`; the resumer gave
    // us exclusive access by switching here.
    let coro = unsafe { &mut *coro };
    if let Some(body) = coro.body.take() {
        // The body performs its own panic handling (catch_unwind +
        // record_panic); this outer catch only guarantees no unwind ever
        // reaches the bootstrap frame, which has no landing pads.
        let _ = panic::catch_unwind(AssertUnwindSafe(body));
    }
    coro.done = true;
    // SAFETY: still on this coroutine's private stack — the precondition of
    // yield_to_scheduler; the final switch back to the resumer.
    unsafe { coro.yield_to_scheduler() };
    // A completed coroutine must never be resumed.
    std::process::abort();
}

#[cfg(all(
    test,
    target_arch = "x86_64",
    target_os = "linux",
    not(dsm_force_no_coro)
))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Drive a coroutine that yields through a shared cell, without any
    /// engine machinery: resume/yield alternation and completion flags.
    #[test]
    fn coroutine_roundtrip_counts() {
        let hits = Arc::new(AtomicUsize::new(0));
        // The body needs to call yield_to_scheduler on its own Coro; thread
        // the pointer through a cell the same way ThreadSlot does.
        let shared: Arc<std::sync::atomic::AtomicPtr<Coro>> =
            Arc::new(std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()));
        let h2 = hits.clone();
        let s2 = shared.clone();
        let body = Box::new(move || {
            for _ in 0..5 {
                h2.fetch_add(1, Ordering::SeqCst);
                let p = s2.load(Ordering::SeqCst);
                // SAFETY: `p` points at the pinned Boxed Coro this body runs
                // on; we are on its stack, exactly the yield precondition.
                unsafe { (*p).yield_to_scheduler() };
            }
        });
        let mut coro = Box::new(Coro::new(body, 256 * 1024));
        shared.store(&mut *coro, Ordering::SeqCst);
        let mut resumes = 0;
        // SAFETY: single-threaded test — this loop is the only resumer, and
        // the loop condition stops at completion.
        while !unsafe { coro.resume() } {
            resumes += 1;
            assert!(resumes <= 6, "coroutine failed to complete");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(resumes, 5);
        assert!(coro.is_done());
    }

    #[test]
    fn panic_inside_body_is_contained() {
        let body = Box::new(|| {
            let caught = panic::catch_unwind(|| panic!("inner"));
            assert!(caught.is_err());
        });
        let mut coro = Box::new(Coro::new(body, 256 * 1024));
        // SAFETY: sole resumer of a fresh suspended coroutine.
        assert!(unsafe { coro.resume() });
    }

    #[test]
    fn unstarted_coroutine_drops_body_without_running() {
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = Guard(drops.clone());
        let coro = Box::new(Coro::new(
            Box::new(move || {
                let _g = &guard;
                unreachable!("body must not run");
            }),
            128 * 1024,
        ));
        assert!(!coro.is_started());
        drop(coro);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "captured state must drop");
    }

    /// Set in a re-exec of this test binary to the name of the test whose
    /// child half should run.
    const CHILD_ENV: &str = "DSM_CORO_TEST_CHILD";

    /// Whether this process is the child half of `test`.
    fn is_child(test: &str) -> bool {
        std::env::var(CHILD_ENV).as_deref() == Ok(test)
    }

    /// Re-run this test binary on `test` alone (in this module), with
    /// [`CHILD_ENV`] naming it; return how the child exited and its output.
    fn run_child(test: &str) -> (std::process::ExitStatus, String) {
        let module = module_path!().split_once("::").expect("crate-qualified").1;
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([&format!("{module}::{test}"), "--exact", "--test-threads=1"])
            .env(CHILD_ENV, test)
            .output()
            .expect("re-exec the test binary");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        (out.status, text.into_owned())
    }

    /// The permission string (`rw-p`, `---p`, ...) of the mapping holding
    /// `addr`, from `/proc/self/maps`.
    fn perms_at(addr: usize) -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        maps.lines().find_map(|line| {
            let (range, rest) = line.split_once(' ')?;
            let (lo, hi) = range.split_once('-')?;
            let lo = usize::from_str_radix(lo, 16).ok()?;
            let hi = usize::from_str_radix(hi, 16).ok()?;
            (lo <= addr && addr < hi).then(|| rest.get(..4).unwrap_or(rest).to_string())
        })
    }

    #[test]
    fn stack_has_a_guard_page_below_its_usable_region() {
        let stack = Stack::take(MIN_STACK_BYTES);
        assert_eq!(stack.low() - stack.map.base, GUARD_BYTES);
        assert_eq!(perms_at(stack.map.base).as_deref(), Some("---p"));
        assert_eq!(perms_at(stack.low() - 1).as_deref(), Some("---p"));
        assert_eq!(perms_at(stack.low()).as_deref(), Some("rw-p"));
        assert_eq!(perms_at(stack.top() - 1).as_deref(), Some("rw-p"));
    }

    /// A continuation that recurses without bound on a 64 KiB stack runs
    /// into the guard page: the process dies by SIGSEGV rather than
    /// overwriting the memory below the stack.
    #[test]
    fn unbounded_recursion_dies_at_the_guard_page() {
        const TEST: &str = "unbounded_recursion_dies_at_the_guard_page";
        if is_child(TEST) {
            fn recurse(depth: u64) -> u64 {
                let pad = std::hint::black_box([depth; 32]);
                if depth == u64::MAX {
                    return pad[0];
                }
                recurse(depth + 1).wrapping_add(pad[31])
            }
            let body = Box::new(|| {
                std::hint::black_box(recurse(0));
            });
            let mut coro = Box::new(Coro::new(body, MIN_STACK_BYTES));
            // SAFETY: sole resumer of a fresh suspended coroutine.
            unsafe { coro.resume() };
            // Reached only if the overflow did not fault.
            std::process::exit(0);
        }
        use std::os::unix::process::ExitStatusExt;
        let (status, output) = run_child(TEST);
        assert_eq!(
            status.signal(),
            Some(11),
            "the overflowing child must be killed by SIGSEGV, got {status:?}:\n{output}"
        );
    }

    /// A stack freed by one engine carries the next engine's thread, and the
    /// free list never grows past its cap. Runs in a child process so no
    /// concurrent test touches the process-wide free list.
    #[test]
    fn finished_stacks_are_reused_and_the_free_list_is_capped() {
        const TEST: &str = "finished_stacks_are_reused_and_the_free_list_is_capped";
        if !is_child(TEST) {
            let (status, output) = run_child(TEST);
            assert!(
                status.success() && output.contains("1 passed"),
                "child half failed: {status:?}:\n{output}"
            );
            return;
        }
        // Run one engine with one thread; return the address of a local on
        // that thread's stack.
        let local_address = || {
            let mut engine = crate::Engine::new();
            let at = Arc::new(AtomicUsize::new(0));
            let a = at.clone();
            engine.spawn("probe", move |_| {
                let local = 0u8;
                a.store(
                    std::hint::black_box(&local) as *const u8 as usize,
                    Ordering::SeqCst,
                );
            });
            engine.run().expect("probe run");
            at.load(Ordering::SeqCst)
        };
        assert!(POOL.lock().is_empty());
        let first = local_address();
        let pooled = POOL.lock().clone();
        assert_eq!(
            pooled.len(),
            1,
            "the finished stack went back to the free list"
        );
        assert!(pooled[0].base < first && first < pooled[0].base + pooled[0].len);
        let second = local_address();
        assert_eq!(second, first, "the second engine ran on the recycled stack");
        assert_eq!(*POOL.lock(), pooled);

        let stacks: Vec<Stack> = (0..STACK_POOL_CAP + 8)
            .map(|_| Stack::take(MIN_STACK_BYTES))
            .collect();
        assert!(POOL.lock().is_empty());
        drop(stacks);
        assert_eq!(POOL.lock().len(), STACK_POOL_CAP);
    }
}
