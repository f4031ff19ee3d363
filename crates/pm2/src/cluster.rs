//! The simulated PM2 cluster: nodes, per-node RPC dispatchers, service
//! registry, and the blocking/one-way RPC primitives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dsmpm2_madeleine::{Envelope, Network, NodeId, Topology};
use dsmpm2_sim::{
    BlockReason, Engine, EngineCtl, SimDuration, SimHandle, SimReceiver, SimTime, SpawnOptions,
};

use crate::config::{Pm2Config, Pm2Costs};
use crate::context::{Pm2Context, Pm2ThreadState};
use crate::isomalloc::IsoAllocator;
use crate::monitor::Monitor;
use crate::rpc::{
    ReplyTable, RpcClass, RpcMessage, RpcPayload, RpcReply, RpcRequestCtx, RpcService,
};

struct ClusterInner {
    config: Pm2Config,
    topology: Topology,
    network: Network<RpcMessage>,
    services: RwLock<HashMap<String, Arc<dyn RpcService>>>,
    replies: ReplyTable,
    next_rpc_id: AtomicU64,
    next_thread_seq: AtomicU64,
    monitor: Monitor,
    iso: IsoAllocator,
    ctl: EngineCtl,
    app_threads: Mutex<Vec<Arc<Pm2ThreadState>>>,
    /// Virtual time at which each node's (single) CPU becomes free again.
    /// Models the 450 MHz uniprocessor nodes of the paper's testbed: compute
    /// submitted through `Pm2Context::compute_shared` serializes per node.
    cpu_free: Vec<Mutex<SimTime>>,
}

/// Handle on a simulated PM2 cluster. Cheap to clone; all clones refer to the
/// same cluster.
pub struct Pm2Cluster {
    inner: Arc<ClusterInner>,
}

impl Clone for Pm2Cluster {
    fn clone(&self) -> Self {
        Pm2Cluster {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Pm2Cluster {
    /// Boot a cluster on `engine`: builds the network and starts one RPC
    /// dispatcher daemon per node.
    pub fn new(engine: &Engine, config: Pm2Config) -> Self {
        let topology = Topology::flat(config.num_nodes);
        let network = Network::with_transport(
            engine.ctl(),
            config.network.clone(),
            topology.clone(),
            config.transport,
        );
        let iso = IsoAllocator::new(config.num_nodes);
        let cluster = Pm2Cluster {
            inner: Arc::new(ClusterInner {
                topology: topology.clone(),
                network: network.clone(),
                services: RwLock::new(HashMap::new()),
                replies: ReplyTable::new(),
                next_rpc_id: AtomicU64::new(1),
                next_thread_seq: AtomicU64::new(0),
                monitor: Monitor::new(),
                iso,
                ctl: engine.ctl(),
                app_threads: Mutex::new(Vec::new()),
                cpu_free: (0..config.num_nodes)
                    .map(|_| Mutex::new(SimTime::ZERO))
                    .collect(),
                config,
            }),
        };
        for node in topology.nodes() {
            let c = cluster.clone();
            let rx = network.endpoint(node);
            // The dispatcher is bound to its node's shard: handler threads it
            // spawns inherit the shard, so all of a node's activity carries
            // the node's key.
            engine.spawn_daemon_on(
                node.index() as u64,
                format!("pm2-dispatch-{node}"),
                move |h| {
                    c.dispatcher_loop(h, node, rx);
                },
            );
        }
        cluster
    }

    /// Cluster configuration.
    pub fn config(&self) -> &Pm2Config {
        &self.inner.config
    }

    /// PM2 software cost constants.
    pub fn costs(&self) -> &Pm2Costs {
        &self.inner.config.costs
    }

    /// Cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.topology.num_nodes
    }

    /// The underlying network (model, statistics, raw sends).
    pub fn network(&self) -> &Network<RpcMessage> {
        &self.inner.network
    }

    /// The monitoring sink shared by every layer of this cluster.
    pub fn monitor(&self) -> &Monitor {
        &self.inner.monitor
    }

    /// The iso-address allocator.
    pub fn isomalloc(&self) -> &IsoAllocator {
        &self.inner.iso
    }

    /// Engine controller, for layers that need to schedule wake-ups.
    pub fn ctl(&self) -> EngineCtl {
        self.inner.ctl.clone()
    }

    /// Register a service under its name on every node. Registering the same
    /// name twice replaces the previous handler (useful in tests).
    pub fn register_service(&self, service: Arc<dyn RpcService>) {
        self.inner
            .services
            .write()
            .insert(service.name().to_string(), service);
    }

    fn service(&self, name: &str) -> Arc<dyn RpcService> {
        self.inner
            .services
            .read()
            .get(name)
            .cloned()
            .unwrap_or_else(|| panic!("RPC to unregistered service '{name}'"))
    }

    fn message_delay(&self, from: NodeId, to: NodeId, class: RpcClass) -> SimDuration {
        let model = self.inner.network.model();
        if from == to {
            return SimDuration::from_micros_f64(model.rpc_min_latency_us / 2.0);
        }
        match class {
            RpcClass::Minimal => SimDuration::from_micros_f64(model.rpc_min_latency_us / 2.0),
            RpcClass::Control => model.control_time(),
            RpcClass::Data(bytes) => model.message_time(bytes),
        }
    }

    /// Blocking RPC: send `payload` to `service` on node `to` and wait for the
    /// reply (in virtual time). `from` is the calling thread's current node.
    pub fn rpc_call(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        service: &str,
        payload: RpcPayload,
        class: RpcClass,
    ) -> RpcPayload {
        let start = sim.now();
        let id = self.inner.next_rpc_id.fetch_add(1, Ordering::SeqCst);
        self.inner.replies.register(id, sim.id());
        let delay = self.message_delay(from, to, class);
        self.inner.network.send_with_delay(
            sim,
            from,
            to,
            RpcMessage::Request {
                id,
                service: service.to_string(),
                needs_reply: true,
                payload,
            },
            class.accounted_bytes(),
            delay,
        );
        loop {
            if let Some(reply) = self.inner.replies.take(id) {
                self.inner
                    .monitor
                    .record(&format!("rpc_call:{service}"), sim.now().since(start));
                return reply;
            }
            sim.park_with(BlockReason::Rpc);
        }
    }

    /// Build the wire message and base delivery delay shared by the one-way
    /// RPC flavours, and count the send in the monitor.
    fn oneway_parts(
        &self,
        from: NodeId,
        to: NodeId,
        service: &str,
        payload: RpcPayload,
        class: RpcClass,
    ) -> (RpcMessage, SimDuration) {
        let id = self.inner.next_rpc_id.fetch_add(1, Ordering::SeqCst);
        self.inner.monitor.incr(&format!("rpc_oneway:{service}"));
        (
            RpcMessage::Request {
                id,
                service: service.to_string(),
                needs_reply: false,
                payload,
            },
            self.message_delay(from, to, class),
        )
    }

    /// One-way RPC: send `payload` to `service` on node `to` without waiting.
    pub fn rpc_oneway(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        service: &str,
        payload: RpcPayload,
        class: RpcClass,
    ) {
        let (msg, delay) = self.oneway_parts(from, to, service, payload, class);
        self.inner
            .network
            .send_with_delay(sim, from, to, msg, class.accounted_bytes(), delay);
    }

    /// One-way RPC issued from a scheduler callback rather than a simulated
    /// thread (the DSM message batcher flushes its per-tick outbox this way).
    /// Semantics match [`Pm2Cluster::rpc_oneway`], timed from the global
    /// clock but never departing before `not_before` — the logical send time
    /// of a parked message, which may lie ahead of the global clock when the
    /// sending thread carried uncommitted local compute. `messages` is the
    /// number of logical messages the envelope carries (a batched coherence
    /// envelope carries several), fed to the wire-level accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn rpc_oneway_from_ctl(
        &self,
        ctl: &EngineCtl,
        from: NodeId,
        to: NodeId,
        service: &str,
        payload: RpcPayload,
        class: RpcClass,
        messages: u32,
        not_before: SimTime,
    ) {
        let (msg, mut delay) = self.oneway_parts(from, to, service, payload, class);
        let now = ctl.now();
        if not_before > now {
            delay += not_before - now;
        }
        self.inner.network.send_with_delay_from_ctl(
            ctl,
            from,
            to,
            msg,
            class.accounted_bytes(),
            messages,
            delay,
        );
    }

    fn dispatcher_loop(
        &self,
        sim: &mut SimHandle,
        node: NodeId,
        rx: SimReceiver<Envelope<RpcMessage>>,
    ) {
        loop {
            let envelope = rx.recv(sim);
            sim.charge(self.costs().rpc_dispatch());
            match envelope.msg {
                RpcMessage::Request {
                    id,
                    service,
                    needs_reply,
                    payload,
                } => {
                    let svc = self.service(&service);
                    let from = envelope.from;
                    if svc.spawn_thread() {
                        sim.charge(self.costs().thread_create());
                        let cluster = self.clone();
                        let seq = self.inner.next_thread_seq.fetch_add(1, Ordering::SeqCst);
                        sim.spawn(format!("rpc-{service}@{node}#{seq}"), move |handler_sim| {
                            cluster.run_handler(
                                handler_sim,
                                svc,
                                node,
                                from,
                                id,
                                needs_reply,
                                payload,
                            );
                        });
                    } else {
                        self.run_handler(sim, svc, node, from, id, needs_reply, payload);
                    }
                }
                RpcMessage::Reply { id, payload } => {
                    if let Some(waiter) = self.inner.replies.fulfill(id, payload) {
                        sim.wake(waiter, SimDuration::ZERO);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_handler(
        &self,
        sim: &mut SimHandle,
        svc: Arc<dyn RpcService>,
        local_node: NodeId,
        from_node: NodeId,
        id: u64,
        needs_reply: bool,
        payload: RpcPayload,
    ) {
        let start = sim.now();
        let reply = {
            let mut ctx = RpcRequestCtx {
                sim,
                cluster: self.clone(),
                local_node,
                from_node,
            };
            svc.handle(&mut ctx, payload)
        };
        self.inner.monitor.record(
            &format!("rpc_handler:{}", svc.name()),
            sim.now().since(start),
        );
        if needs_reply {
            let reply = reply.unwrap_or_else(|| {
                panic!(
                    "service '{}' did not produce a reply for a blocking call",
                    svc.name()
                )
            });
            self.send_reply(sim, local_node, from_node, id, reply);
        }
    }

    fn send_reply(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, id: u64, reply: RpcReply) {
        let delay = self.message_delay(from, to, reply.class);
        self.inner.network.send_with_delay(
            sim,
            from,
            to,
            RpcMessage::Reply {
                id,
                payload: reply.payload,
            },
            reply.class.accounted_bytes(),
            delay,
        );
    }

    /// Send the reply to request `id` from a scheduler callback rather than
    /// a handler thread. This is the one-sided service path: a delivery
    /// interceptor that served a request at its arrival instant answers the
    /// blocked caller without any thread having run on the serving node.
    pub fn send_reply_from_ctl(
        &self,
        ctl: &EngineCtl,
        from: NodeId,
        to: NodeId,
        id: u64,
        reply: RpcReply,
    ) {
        let delay = self.message_delay(from, to, reply.class);
        self.inner.network.send_with_delay_from_ctl(
            ctl,
            from,
            to,
            RpcMessage::Reply {
                id,
                payload: reply.payload,
            },
            reply.class.accounted_bytes(),
            1,
            delay,
        );
    }

    /// Spawn an application thread on `node`. The closure receives a
    /// [`Pm2Context`] giving access to the cluster, the thread's current
    /// location, migration, and the virtual clock.
    pub fn spawn_thread_on<F>(
        &self,
        node: NodeId,
        name: impl Into<String>,
        f: F,
    ) -> Arc<Pm2ThreadState>
    where
        F: FnOnce(&mut Pm2Context<'_>) + Send + 'static,
    {
        self.spawn_thread_on_with(node, name, SpawnOptions::default(), f)
    }

    /// [`Pm2Cluster::spawn_thread_on`] with explicit scheduler
    /// [`SpawnOptions`]: workloads whose thread bodies cannot run on a
    /// fixed-size continuation stack (deep recursion) force the OS-thread
    /// baton or a bigger private stack for exactly those threads, while the
    /// rest of the simulation stays on continuations.
    pub fn spawn_thread_on_with<F>(
        &self,
        node: NodeId,
        name: impl Into<String>,
        opts: SpawnOptions,
        f: F,
    ) -> Arc<Pm2ThreadState>
    where
        F: FnOnce(&mut Pm2Context<'_>) + Send + 'static,
    {
        assert!(
            self.inner.topology.contains(node),
            "cannot spawn a thread on unknown node {node}"
        );
        let name = name.into();
        let state = Arc::new(Pm2ThreadState::new(
            name.clone(),
            node,
            self.costs().default_stack_bytes,
        ));
        self.inner.app_threads.lock().push(Arc::clone(&state));
        let cluster = self.clone();
        let thread_state = Arc::clone(&state);
        self.inner
            .ctl
            .spawn_on_with(node.index() as u64, name, opts, move |sim| {
                let mut ctx = Pm2Context::new(sim, cluster, thread_state);
                f(&mut ctx);
                ctx.mark_finished();
            });
        state
    }

    /// States of every application thread spawned so far.
    pub fn app_threads(&self) -> Vec<Arc<Pm2ThreadState>> {
        self.inner.app_threads.lock().clone()
    }

    /// Reserve `duration` of CPU time on `node`'s single processor, starting
    /// no earlier than `not_before`. Returns the reservation's end time.
    /// Threads computing on the same node therefore serialize, which is what
    /// makes a node "overloaded" when many threads migrate to it.
    pub fn reserve_cpu(&self, node: NodeId, not_before: SimTime, duration: SimDuration) -> SimTime {
        let mut free = self.inner.cpu_free[node.index()].lock();
        let start = (*free).max(not_before);
        let end = start + duration;
        *free = end;
        end
    }
}

impl std::fmt::Debug for Pm2Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pm2Cluster({} nodes, {})",
            self.num_nodes(),
            self.config().network.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{downcast, service_fn};
    use dsmpm2_madeleine::profiles;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    fn cluster(engine: &Engine, nodes: usize) -> Pm2Cluster {
        Pm2Cluster::new(engine, Pm2Config::bip_myrinet(nodes))
    }

    #[test]
    fn blocking_rpc_roundtrip_returns_reply() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.register_service(service_fn("double", true, |ctx, payload| {
            let x: u64 = downcast(payload, "double arg");
            ctx.sim.charge(SimDuration::from_micros(2));
            Some(RpcReply::control(x * 2))
        }));
        let result = Arc::new(StdAtomicU64::new(0));
        let r = result.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let reply = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "double",
                Box::new(21u64),
                RpcClass::Control,
            );
            r.store(downcast::<u64>(reply, "double reply"), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(result.load(Ordering::SeqCst), 42);
        assert_eq!(c.monitor().count("rpc_call:double"), 1);
    }

    #[test]
    fn rpc_roundtrip_takes_at_least_two_control_messages() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.register_service(service_fn("echo", false, |_ctx, payload| {
            Some(RpcReply::control(downcast::<u32>(payload, "echo")))
        }));
        let elapsed = Arc::new(StdAtomicU64::new(0));
        let e = elapsed.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let start = h.now();
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "echo",
                Box::new(7u32),
                RpcClass::Control,
            );
            e.store(h.now().since(start).as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        let two_control = profiles::bip_myrinet().control_time() * 2;
        assert!(elapsed.load(Ordering::SeqCst) >= two_control.as_nanos());
    }

    #[test]
    fn minimal_rpc_matches_paper_latency() {
        let mut engine = Engine::new();
        let c = Pm2Cluster::new(&engine, Pm2Config::sisci_sci(2));
        c.register_service(service_fn("null", false, |_ctx, _payload| {
            Some(RpcReply::minimal(()))
        }));
        let elapsed = Arc::new(StdAtomicU64::new(0));
        let e = elapsed.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let start = h.now();
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "null",
                Box::new(()),
                RpcClass::Minimal,
            );
            e.store(h.now().since(start).as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        let us = elapsed.load(Ordering::SeqCst) as f64 / 1000.0;
        // Paper §2.1: 6us minimal RPC latency on SISCI/SCI. Allow the small
        // dispatch overhead on top.
        assert!((6.0..12.0).contains(&us), "null RPC took {us}us");
    }

    #[test]
    fn oneway_rpc_executes_without_reply() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        let hits = Arc::new(StdAtomicU64::new(0));
        let hits_in_service = hits.clone();
        c.register_service(service_fn("notify", true, move |_ctx, _payload| {
            hits_in_service.fetch_add(1, Ordering::SeqCst);
            None
        }));
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            c2.rpc_oneway(
                h,
                NodeId(0),
                NodeId(1),
                "notify",
                Box::new(()),
                RpcClass::Control,
            );
            c2.rpc_oneway(
                h,
                NodeId(0),
                NodeId(1),
                "notify",
                Box::new(()),
                RpcClass::Control,
            );
        });
        engine.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_requests_are_served_in_parallel() {
        // Two callers issue requests to the same node at the same time; each
        // handler sleeps 100us. With per-request handler threads the total
        // time is ~one round trip + 100us, not 2x100us serialized.
        let mut engine = Engine::new();
        let c = cluster(&engine, 3);
        c.register_service(service_fn("slow", true, |ctx, _payload| {
            ctx.sim.sleep(SimDuration::from_micros(100));
            Some(RpcReply::control(()))
        }));
        let finish = Arc::new(Mutex::new(Vec::new()));
        for src in [0usize, 2] {
            let c2 = c.clone();
            let f = finish.clone();
            engine.spawn(format!("caller{src}"), move |h| {
                let _ = c2.rpc_call(
                    h,
                    NodeId(src),
                    NodeId(1),
                    "slow",
                    Box::new(()),
                    RpcClass::Control,
                );
                f.lock().push(h.now());
            });
        }
        engine.run().unwrap();
        let finish = finish.lock();
        let latest = finish.iter().max().unwrap();
        let serial_bound = profiles::bip_myrinet().control_time() * 2
            + SimDuration::from_micros(200)
            + SimDuration::from_micros(20);
        assert!(
            *latest < dsmpm2_sim::SimTime::ZERO + serial_bound,
            "requests were serialized: finished at {latest}"
        );
    }

    #[test]
    #[should_panic(expected = "unregistered service")]
    fn calling_unknown_service_panics() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "nope",
                Box::new(()),
                RpcClass::Control,
            );
        });
        if let Err(dsmpm2_sim::SimError::ThreadPanic { message, .. }) = engine.run() {
            panic!("{}", message);
        }
    }

    #[test]
    fn app_threads_are_tracked() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.spawn_thread_on(NodeId(1), "app", |ctx| {
            assert_eq!(ctx.node(), NodeId(1));
        });
        engine.run().unwrap();
        assert_eq!(c.app_threads().len(), 1);
        assert!(c.app_threads()[0].finished());
    }
}
