//! Per-layer host-time probes.
//!
//! Each probe measures one layer from outside: it calls that layer's public
//! functions in a loop shaped like the workload being traced (same protocol,
//! region layout, home policy and network) and reports the median over
//! several trials. Nothing here changes the code under test.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsmpm2_core::{
    BarrierId, DsmAddr, DsmAttr, DsmProtocol, DsmRuntime, DsmThreadCtx, FaultInfo, HomePolicy,
    Invalidation, LockId, NodeId, PageDiff, PageId, PageRequest, PageTransfer, Pm2Config,
    ServerCtx, SimDuration, PAGE_SIZE,
};
use dsmpm2_madeleine::{profiles, Network, Topology, TransportTuning, CONTROL_MESSAGE_BYTES};
use dsmpm2_pm2::{service_fn, Pm2Cluster, RpcClass, RpcReply};
use dsmpm2_protocols::{register_all_protocols, register_builtin_protocols};
use dsmpm2_sim::{Engine, EngineConfig, HandoffMode, SimTuning, SpawnOptions};

use crate::median;
use crate::trace::percentile;
use crate::workload::{Scale, Workload, NODES};

/// Trials per probe; each probe reports the median trial.
const TRIALS: usize = 5;

/// Loop counts shrink twentyfold at the self-test's quick scale.
fn iters(scale: Scale, full: u64) -> u64 {
    match scale {
        Scale::Full => full,
        Scale::Quick => (full / 20).max(1),
    }
}

fn cluster_config() -> Pm2Config {
    Pm2Config::new(NODES, profiles::bip_myrinet())
}

/// The shared region a workload allocates, and how it accesses it.
struct Shape {
    bytes: u64,
    home: HomePolicy,
    /// Reads per write in the workload's inner loop (`None`: reads only).
    reads_per_write: Option<u32>,
}

fn shape(w: Workload, scale: Scale) -> Shape {
    match w {
        Workload::JacobiLocal => {
            let size = Workload::jacobi_config(scale).size as u64;
            Shape {
                bytes: size * size * 8,
                home: HomePolicy::Block,
                reads_per_write: Some(4),
            }
        }
        Workload::FalseSharingMw => {
            let c = Workload::false_sharing_config(scale);
            Shape {
                bytes: (c.nodes * c.slots_per_node * c.stride) as u64,
                home: HomePolicy::Fixed(NodeId(0)),
                reads_per_write: Some(1),
            }
        }
        Workload::TspSearch => Shape {
            bytes: PAGE_SIZE as u64,
            home: HomePolicy::Fixed(NodeId(0)),
            reads_per_write: None,
        },
    }
}

// ---------------------------------------------------------------------------
// Set-up: the spans that make up `setup_s`
// ---------------------------------------------------------------------------

/// Host nanoseconds of one cluster bring-up, split into its stages.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSpans {
    /// `Pm2Config` → `Engine::with_config` → `DsmRuntime::new`.
    pub bringup_ns: u64,
    /// Protocol registration.
    pub register_ns: u64,
    /// `dsm_malloc` of the workload's footprint (plus its locks/barriers).
    pub malloc_ns: u64,
}

impl SetupSpans {
    pub fn total_ns(&self) -> u64 {
        self.bringup_ns + self.register_ns + self.malloc_ns
    }
}

/// Bring up `w`'s cluster once through the public calls the workload's
/// `run_*` makes before its threads start; the cluster is torn down outside
/// the timed spans.
pub fn bring_up(w: Workload, scale: Scale) -> SetupSpans {
    let t0 = Instant::now();
    let config = cluster_config();
    let engine = Engine::with_config(config.engine_config());
    let rt = DsmRuntime::new(&engine, config);
    let t1 = Instant::now();
    if w == Workload::TspSearch {
        black_box(register_builtin_protocols(&rt));
    } else {
        black_box(register_all_protocols(&rt));
    }
    let t2 = Instant::now();
    let protocol = rt
        .protocol_by_name(w.protocol())
        .expect("workload protocol is registered");
    rt.set_default_protocol(protocol);
    let s = shape(w, scale);
    let regions = if w == Workload::JacobiLocal { 2 } else { 1 };
    for _ in 0..regions {
        black_box(rt.dsm_malloc(s.bytes, DsmAttr::default().home(s.home)));
    }
    black_box(rt.create_barrier(NODES, None));
    if w == Workload::TspSearch {
        black_box(rt.create_lock(Some(NodeId(0))));
    }
    let t3 = Instant::now();
    drop(rt);
    drop(engine);
    SetupSpans {
        bringup_ns: (t1 - t0).as_nanos() as u64,
        register_ns: (t2 - t1).as_nanos() as u64,
        malloc_ns: (t3 - t2).as_nanos() as u64,
    }
}

// ---------------------------------------------------------------------------
// core: access path and page table
// ---------------------------------------------------------------------------

/// Host ns per non-faulting `DsmThreadCtx::read`/`write` in the workload's
/// read/write mix, and host ns per `PageTable::try_get_for_offset` over the
/// workload's region.
pub fn access_probe(w: Workload, scale: Scale) -> (f64, f64) {
    let accesses = iters(scale, 200_000);
    let config = cluster_config();
    let engine = Engine::with_config(config.engine_config());
    let rt = DsmRuntime::new(&engine, config);
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(
        rt.protocol_by_name(w.protocol())
            .expect("workload protocol is registered"),
    );
    let s = shape(w, scale);
    let base = rt.dsm_malloc(s.bytes, DsmAttr::default().home(s.home));
    // Node 0's share of the region: its block under `Block`, all of it when
    // node 0 is the fixed home.
    let local_bytes = match s.home {
        HomePolicy::Block => (s.bytes / NODES as u64).max(8),
        _ => s.bytes,
    };
    let words = local_bytes / 8;
    let samples = Arc::new(Mutex::new(Vec::new()));
    let out = samples.clone();
    let rpw = s.reads_per_write;
    rt.spawn_dsm_thread(NodeId(0), "access-probe", move |ctx| {
        // Take write rights on every local word first, so the timed loop
        // never faults.
        for i in 0..words {
            ctx.write::<u64>(base.add(i * 8), i);
        }
        let mut acc = 0u64;
        for _ in 0..TRIALS {
            let start = Instant::now();
            let mut done = 0u64;
            let mut i = 0u64;
            while done < accesses {
                let addr = base.add((i % words) * 8);
                match rpw {
                    Some(reads) => {
                        for _ in 0..reads {
                            acc = acc.wrapping_add(ctx.read::<u64>(addr));
                        }
                        ctx.write::<u64>(addr, acc);
                        done += u64::from(reads) + 1;
                    }
                    None => {
                        acc = acc.wrapping_add(ctx.read::<u64>(addr));
                        done += 1;
                    }
                }
                i += 1;
            }
            out.lock()
                .expect("probe samples")
                .push(start.elapsed().as_nanos() as f64 / done as f64);
        }
        black_box(acc);
    });
    let mut engine = engine;
    engine.run().expect("access probe must not deadlock");
    let access_ns = median(&samples.lock().expect("probe samples"));

    let lookups_per_trial = iters(scale, 500_000);
    let table = rt.page_table(NodeId(0));
    let mut lookups = Vec::new();
    for _ in 0..TRIALS {
        let start = Instant::now();
        for i in 0..lookups_per_trial {
            let addr: DsmAddr = base.add((i * 8) % local_bytes);
            black_box(table.try_get_for_offset(addr.page(), addr.offset()));
        }
        lookups.push(start.elapsed().as_nanos() as f64 / lookups_per_trial as f64);
    }
    (access_ns, median(&lookups))
}

// ---------------------------------------------------------------------------
// core: twins and diffs
// ---------------------------------------------------------------------------

/// Host ns per `PageDiff::compute` and per `PageDiff::apply` on one page
/// dirtied the way the workload dirties its pages between releases.
pub fn diff_probe(w: Workload, scale: Scale) -> (f64, f64) {
    let calls = iters(scale, 2_000);
    let twin = vec![0u8; PAGE_SIZE];
    let mut current = twin.clone();
    match w {
        // A stencil sweep rewrites every cell of its rows.
        Workload::JacobiLocal => {
            for (i, cell) in current.chunks_exact_mut(8).enumerate() {
                cell.copy_from_slice(&(25.0f64 + i as f64).to_le_bytes());
            }
        }
        // One node's four counters, 64 bytes apart, each incremented.
        Workload::FalseSharingMw => {
            for slot in 0..4 {
                current[slot * 64..slot * 64 + 8].copy_from_slice(&1u64.to_le_bytes());
            }
        }
        // One lowered 4-byte bound.
        Workload::TspSearch => current[..4].copy_from_slice(&150u32.to_le_bytes()),
    }
    let page = PageId(0);
    let (mut compute, mut apply) = (Vec::new(), Vec::new());
    let mut target = twin.clone();
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(PageDiff::compute(
                page,
                black_box(&twin),
                black_box(&current),
            ));
        }
        compute.push(start.elapsed().as_nanos() as f64 / calls as f64);
        let diff = PageDiff::compute(page, &twin, &current);
        let start = Instant::now();
        for _ in 0..calls {
            diff.apply(black_box(&mut target));
        }
        apply.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    assert_eq!(target, current, "applied diff reproduces the dirty page");
    (median(&compute), median(&apply))
}

// ---------------------------------------------------------------------------
// protocols: fault spans and server handlers
// ---------------------------------------------------------------------------

/// A delegating protocol that times the protocol it wraps: the virtual span
/// of every fault from detection to handler return, and the host time of
/// every server-handler call.
struct TimedProtocol {
    inner: Arc<dyn DsmProtocol>,
    name: String,
    detection: SimDuration,
    read_spans: Mutex<Vec<u64>>,
    write_spans: Mutex<Vec<u64>>,
    server_ns: AtomicU64,
    server_calls: AtomicU64,
}

impl TimedProtocol {
    fn fault(
        &self,
        ctx: &mut DsmThreadCtx<'_, '_>,
        fault: FaultInfo,
        spans: &Mutex<Vec<u64>>,
        handler: impl FnOnce(&mut DsmThreadCtx<'_, '_>, FaultInfo),
    ) {
        // The core charges the detection cost just before calling the
        // handler, so the fault was detected `detection` earlier.
        let detected = ctx
            .pm2
            .now()
            .as_nanos()
            .saturating_sub(self.detection.as_nanos());
        handler(ctx, fault);
        let span = ctx.pm2.now().as_nanos().saturating_sub(detected);
        spans.lock().expect("fault spans").push(span);
    }

    fn server(&self, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        self.server_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.server_calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl DsmProtocol for TimedProtocol {
    fn name(&self) -> &str {
        &self.name
    }
    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        self.fault(ctx, fault, &self.read_spans, |c, f| {
            self.inner.read_fault_handler(c, f)
        });
    }
    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        self.fault(ctx, fault, &self.write_spans, |c, f| {
            self.inner.write_fault_handler(c, f)
        });
    }
    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        self.server(|| self.inner.read_server(ctx, req));
    }
    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        self.server(|| self.inner.write_server(ctx, req));
    }
    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        self.server(|| self.inner.invalidate_server(ctx, inv));
    }
    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        self.server(|| self.inner.receive_page_server(ctx, transfer));
    }
    fn diff_server(&self, ctx: &mut ServerCtx<'_>, diff: PageDiff, from: NodeId) {
        self.server(|| self.inner.diff_server(ctx, diff, from));
    }
    fn lock_acquire(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId) {
        self.inner.lock_acquire(ctx, lock);
    }
    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId) {
        self.inner.lock_release(ctx, lock);
    }
    fn records_writes(&self) -> bool {
        self.inner.records_writes()
    }
    fn consistency(&self) -> dsmpm2_core::ConsistencyModel {
        self.inner.consistency()
    }
    fn multiple_writers(&self) -> bool {
        self.inner.multiple_writers()
    }
    fn supports_subpage(&self) -> bool {
        self.inner.supports_subpage()
    }
    fn one_sided_reads(&self) -> bool {
        self.inner.one_sided_reads()
    }
}

/// Fault spans (virtual µs, p50 and p90, reads then writes) and host ns per
/// server-handler call, from a small kernel shaped like the workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultProbe {
    pub read_us: (f64, f64),
    pub write_us: (f64, f64),
    pub server_ns: f64,
}

pub fn fault_probe(w: Workload) -> FaultProbe {
    let config = cluster_config();
    let engine = Engine::with_config(config.engine_config());
    let rt = DsmRuntime::new(&engine, config);
    let _ = register_all_protocols(&rt);
    let inner = rt.protocol(
        rt.protocol_by_name(w.protocol())
            .expect("workload protocol is registered"),
    );
    let timed = Arc::new(TimedProtocol {
        name: format!("timed-{}", inner.name()),
        inner,
        detection: rt.costs().page_fault(),
        read_spans: Mutex::new(Vec::new()),
        write_spans: Mutex::new(Vec::new()),
        server_ns: AtomicU64::new(0),
        server_calls: AtomicU64::new(0),
    });
    let id = rt.register_protocol(timed.clone());
    rt.set_default_protocol(id);
    let barrier = rt.create_barrier(NODES, None);
    let lock = rt.create_lock(Some(NodeId(0)));
    match w {
        Workload::JacobiLocal => stencil_kernel(&rt, barrier),
        Workload::FalseSharingMw => counter_kernel(&rt, barrier),
        Workload::TspSearch => bound_kernel(&rt, barrier, lock),
    }
    let mut engine = engine;
    engine.run().expect("fault probe must not deadlock");
    let spans = |m: &Mutex<Vec<u64>>| {
        let mut v = std::mem::take(&mut *m.lock().expect("fault spans"));
        v.sort_unstable();
        (
            percentile(&v, 50) as f64 / 1e3,
            percentile(&v, 90) as f64 / 1e3,
        )
    };
    let calls = timed.server_calls.load(Ordering::Relaxed).max(1);
    FaultProbe {
        read_us: spans(&timed.read_spans),
        write_us: spans(&timed.write_spans),
        server_ns: timed.server_ns.load(Ordering::Relaxed) as f64 / calls as f64,
    }
}

/// Jacobi's pattern on a 64×64 grid: own rows written, one halo row read
/// from each neighbour, a barrier per sweep.
fn stencil_kernel(rt: &DsmRuntime, barrier: BarrierId) {
    const SIZE: u64 = 64;
    const SWEEPS: usize = 4;
    let bytes = SIZE * SIZE * 8;
    let grids = [
        rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block)),
        rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block)),
    ];
    let rows = SIZE / NODES as u64;
    for node in 0..NODES {
        rt.spawn_dsm_thread(NodeId(node), format!("stencil-{node}"), move |ctx| {
            let cell = |g: DsmAddr, r: u64, c: u64| g.add((r * SIZE + c) * 8);
            let (first, last) = (node as u64 * rows, (node as u64 + 1) * rows);
            for r in first..last {
                for c in 0..SIZE {
                    ctx.write::<f64>(cell(grids[0], r, c), 1.0);
                    ctx.write::<f64>(cell(grids[1], r, c), 1.0);
                }
            }
            ctx.dsm_barrier(barrier);
            for sweep in 0..SWEEPS {
                let (src, dst) = (grids[sweep % 2], grids[(sweep + 1) % 2]);
                for r in first.max(1)..last.min(SIZE - 1) {
                    for c in 1..SIZE - 1 {
                        let v = ctx.read::<f64>(cell(src, r - 1, c))
                            + ctx.read::<f64>(cell(src, r + 1, c));
                        ctx.write::<f64>(cell(dst, r, c), v / 2.0);
                    }
                }
                ctx.dsm_barrier(barrier);
            }
        });
    }
}

/// False sharing's pattern: four counters per node, 64 bytes apart on one
/// page homed on node 0, incremented every round, a barrier per round.
fn counter_kernel(rt: &DsmRuntime, barrier: BarrierId) {
    const ROUNDS: usize = 64;
    const SLOTS: u64 = 4;
    let base = rt.dsm_malloc(
        NODES as u64 * SLOTS * 64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    for node in 0..NODES {
        rt.spawn_dsm_thread(NodeId(node), format!("counters-{node}"), move |ctx| {
            let mine = |s: u64| base.add((node as u64 * SLOTS + s) * 64);
            for _ in 0..ROUNDS {
                for s in 0..SLOTS {
                    let v = ctx.read::<u64>(mine(s));
                    ctx.write::<u64>(mine(s), v + 1);
                }
                ctx.dsm_barrier(barrier);
            }
        });
    }
}

/// TSP's pattern: every node re-reads a shared bound homed on node 0 and
/// now and then lowers it under a lock.
fn bound_kernel(rt: &DsmRuntime, barrier: BarrierId, lock: LockId) {
    const ROUNDS: u32 = 64;
    let bound = rt.dsm_malloc(
        PAGE_SIZE as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    for node in 0..NODES {
        rt.spawn_dsm_thread(NodeId(node), format!("bound-{node}"), move |ctx| {
            if node == 0 {
                ctx.write::<u32>(bound, u32::MAX);
            }
            ctx.dsm_barrier(barrier);
            for round in 0..ROUNDS {
                let seen = ctx.read::<u32>(bound);
                if round % 8 == node as u32 {
                    ctx.dsm_lock(lock);
                    let current = ctx.read::<u32>(bound);
                    let candidate = seen.min(current).saturating_sub(1);
                    ctx.write::<u32>(bound, candidate);
                    ctx.dsm_unlock(lock);
                }
                ctx.pm2.compute_shared(SimDuration::from_micros_f64(16.0));
            }
            ctx.dsm_barrier(barrier);
        });
    }
}

// ---------------------------------------------------------------------------
// madeleine: the transport seam
// ---------------------------------------------------------------------------

/// Host ns per `Network::send` of the workload's typical message, from node 0
/// round-robin to the other nodes (which drain their endpoints).
pub fn send_probe(w: Workload, scale: Scale) -> f64 {
    let peers = NODES - 1;
    let per_peer = iters(scale, 2_000) as usize;
    let sends = per_peer * peers;
    let payload = match w {
        // Invalidations, acknowledgements and small diffs.
        Workload::FalseSharingMw => 64 + CONTROL_MESSAGE_BYTES,
        // Whole-page transfers.
        Workload::JacobiLocal | Workload::TspSearch => PAGE_SIZE + CONTROL_MESSAGE_BYTES,
    };
    let mut samples = Vec::new();
    for _ in 0..TRIALS {
        let mut engine = Engine::new();
        let net: Network<u64> = Network::with_transport(
            engine.ctl(),
            profiles::bip_myrinet(),
            Topology::flat(NODES),
            TransportTuning::default(),
        );
        for node in 1..NODES {
            let rx = net.endpoint(NodeId(node));
            engine.spawn(format!("rx-{node}"), move |h| {
                for _ in 0..per_peer {
                    black_box(rx.recv(h));
                }
            });
        }
        let ns = Arc::new(Mutex::new(0.0));
        let out = ns.clone();
        engine.spawn("tx", move |h| {
            let start = Instant::now();
            for i in 0..sends {
                let to = NodeId(1 + i % peers);
                net.send(h, NodeId(0), to, i as u64, payload);
            }
            *out.lock().expect("send sample") = start.elapsed().as_nanos() as f64 / sends as f64;
        });
        engine.run().expect("send probe must not deadlock");
        samples.push(*ns.lock().expect("send sample"));
    }
    median(&samples)
}

// ---------------------------------------------------------------------------
// pm2: RPC round trips
// ---------------------------------------------------------------------------

/// Host ns per blocking RPC round trip from node 1 to a null service on
/// node 0 that, like the DSM page servers, runs each request in its own
/// handler thread.
pub fn rpc_probe(scale: Scale) -> f64 {
    let calls = iters(scale, 2_000);
    let mut samples = Vec::new();
    for _ in 0..TRIALS {
        let config = cluster_config();
        let mut engine = Engine::with_config(config.engine_config());
        let cluster = Pm2Cluster::new(&engine, config);
        cluster.register_service(service_fn("bench-null", true, |_ctx, _payload| {
            Some(RpcReply::minimal(()))
        }));
        let c = cluster.clone();
        engine.spawn("rpc-caller", move |h| {
            for _ in 0..calls {
                black_box(c.rpc_call(
                    h,
                    NodeId(1),
                    NodeId(0),
                    "bench-null",
                    Box::new(()),
                    RpcClass::Minimal,
                ));
            }
        });
        let start = Instant::now();
        engine.run().expect("rpc probe must not deadlock");
        samples.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&samples)
}

// ---------------------------------------------------------------------------
// sim: hand-off substrates
// ---------------------------------------------------------------------------

/// Host ns per scheduler hand-off step of one simulated thread that yields in
/// a loop, as a continuation or (`baton`) pinned to an OS-thread baton the
/// way `run_tsp` pins its workers.
pub fn handoff_probe(baton: bool, scale: Scale) -> f64 {
    let steps = iters(scale, if baton { 4_000 } else { 100_000 });
    let mut samples = Vec::new();
    for _ in 0..TRIALS {
        let mut engine = Engine::with_config(EngineConfig {
            tuning: SimTuning::default().with_handoff(HandoffMode::Continuation),
            ..EngineConfig::default()
        });
        let opts = if baton {
            SpawnOptions::baton()
        } else {
            SpawnOptions::default()
        };
        engine.spawn_with("stepper", opts, move |h| {
            for _ in 0..steps {
                h.yield_now();
            }
        });
        let start = Instant::now();
        engine.run().expect("hand-off probe must complete");
        samples.push(start.elapsed().as_nanos() as f64 / steps as f64);
    }
    median(&samples)
}
