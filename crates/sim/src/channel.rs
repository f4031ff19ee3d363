//! Virtual-time message channels.
//!
//! A [`SimChannel`] is an unbounded MPMC queue living in virtual time:
//! senders may attach a delivery delay (used by the Madeleine transport to
//! model network latency), and receivers block in virtual time until a
//! message is available. Delivery order is deterministic: messages become
//! visible in (delivery time, send sequence) order.
//!
//! The module also provides [`TickOutbox`], the per-tick accumulator behind
//! message batching: items addressed to the same key within one virtual-time
//! tick are collected and handed back as one unit when the tick ends.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::EngineCtl;
use crate::handle::SimHandle;
use crate::time::{SimDuration, SimTime};
use crate::wait::WaitSet;

struct Pending<T> {
    deliver_at: u64,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering: the BinaryHeap becomes a min-heap on (time, seq).
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

struct Inner<T> {
    /// Messages whose delivery time has not been reached yet.
    in_flight: Mutex<BinaryHeap<Pending<T>>>,
    /// Messages ready to be received, in delivery order.
    ready: Mutex<VecDeque<T>>,
    waiters: WaitSet,
    seq: AtomicU64,
    /// Shard the promotion callbacks run on — the receivers' shard, so that
    /// delivery events serialize with the receiving node's other events.
    shard: u64,
    ctl: EngineCtl,
}

impl<T> Inner<T> {
    /// Move every in-flight message whose delivery time has passed into the
    /// ready queue.
    fn promote(&self, now: SimTime) {
        let mut in_flight = self.in_flight.lock();
        let mut ready = self.ready.lock();
        while let Some(top) = in_flight.peek() {
            if top.deliver_at <= now.as_nanos() {
                let msg = in_flight.pop().expect("peeked");
                ready.push_back(msg.value);
            } else {
                break;
            }
        }
    }
}

/// Sending half of a simulation channel. Cheap to clone.
pub struct SimSender<T> {
    inner: Arc<Inner<T>>,
}

/// Receiving half of a simulation channel. Cheap to clone (multiple consumers
/// are allowed; each message is delivered to exactly one receiver).
pub struct SimReceiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for SimSender<T> {
    fn clone(&self) -> Self {
        SimSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Clone for SimReceiver<T> {
    fn clone(&self) -> Self {
        SimReceiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create a new channel bound to the engine behind `ctl`, on shard 0.
/// Receivers should live on the channel's shard; multi-node layers use
/// [`channel_on`] with the receiving node's shard key.
pub fn channel<T: Send + 'static>(ctl: EngineCtl) -> (SimSender<T>, SimReceiver<T>) {
    channel_on(ctl, 0)
}

/// Create a new channel whose delivery callbacks run on shard `shard_key`
/// (the shard of the receiving side).
pub fn channel_on<T: Send + 'static>(
    ctl: EngineCtl,
    shard_key: u64,
) -> (SimSender<T>, SimReceiver<T>) {
    let inner = Arc::new(Inner {
        in_flight: Mutex::new(BinaryHeap::new()),
        ready: Mutex::new(VecDeque::new()),
        waiters: WaitSet::new(),
        seq: AtomicU64::new(0),
        shard: shard_key,
        ctl,
    });
    (
        SimSender {
            inner: Arc::clone(&inner),
        },
        SimReceiver { inner },
    )
}

impl<T: Send + 'static> SimSender<T> {
    /// Send a message that becomes visible immediately (at the sender's
    /// current local time).
    pub fn send(&self, handle: &SimHandle, value: T) {
        self.send_delayed(handle, value, SimDuration::ZERO);
    }

    /// Send a message that becomes visible `delay` after the sender's current
    /// local time. Used to model network transfer times.
    pub fn send_delayed(&self, handle: &SimHandle, value: T, delay: SimDuration) {
        let deliver_at = handle.now() + delay;
        self.enqueue_at(deliver_at, value);
    }

    /// Send from outside any simulated thread (scheduler callbacks, setup
    /// code): the message becomes visible `delay` after the global clock.
    pub fn send_from_ctl(&self, ctl: &EngineCtl, value: T, delay: SimDuration) {
        let deliver_at = ctl.now() + delay;
        self.enqueue_at(deliver_at, value);
    }

    /// Send a message that becomes visible at the absolute virtual time
    /// `deliver_at`. Used by transport backends whose delivery times come
    /// from their own link state (NIC reservations, retransmission timers)
    /// rather than from a caller-relative delay. A `deliver_at` in the past
    /// delivers at the current instant.
    pub fn send_at(&self, deliver_at: SimTime, value: T) {
        self.enqueue_at(deliver_at, value);
    }

    fn enqueue_at(&self, deliver_at: SimTime, value: T) {
        let inner = &self.inner;
        let seq = inner.seq.fetch_add(1, Ordering::SeqCst);
        inner.in_flight.lock().push(Pending {
            deliver_at: deliver_at.as_nanos(),
            seq,
            value,
        });
        // At delivery time, promote the message and wake one waiting
        // receiver — on the receivers' shard.
        let inner2 = Arc::clone(inner);
        inner.ctl.call_at_on(inner.shard, deliver_at, move |ctl| {
            inner2.promote(ctl.now());
            inner2.waiters.notify_one(ctl, SimDuration::ZERO);
        });
    }

    /// Number of messages not yet consumed (in flight + ready).
    pub fn queued(&self) -> usize {
        self.inner.in_flight.lock().len() + self.inner.ready.lock().len()
    }
}

impl<T: Send + 'static> SimReceiver<T> {
    /// Receive the next message, blocking in virtual time until one is
    /// available. Blocks forever (deadlock, detected by the engine) if no
    /// message ever arrives.
    pub fn recv(&self, handle: &mut SimHandle) -> T {
        loop {
            self.inner.promote(handle.now());
            if let Some(v) = self.inner.ready.lock().pop_front() {
                return v;
            }
            self.inner.waiters.register(handle);
            handle.park_with(crate::engine::BlockReason::Channel);
            self.inner.waiters.deregister(handle);
        }
    }

    /// Receive a message if one is ready at the current virtual time.
    pub fn try_recv(&self, handle: &SimHandle) -> Option<T> {
        self.inner.promote(handle.now());
        self.inner.ready.lock().pop_front()
    }

    /// Number of messages ready to be received right now.
    pub fn ready_len(&self, handle: &SimHandle) -> usize {
        self.inner.promote(handle.now());
        self.inner.ready.lock().len()
    }
}

/// Per-tick accumulator used to batch messages.
///
/// Items pushed for the same `key` at the same virtual-time `tick` land in
/// one bucket. [`TickOutbox::push`] tells the caller when it opened a new
/// bucket — that is the moment to schedule exactly one flush for it (with
/// [`crate::EngineCtl::call_at`] at `tick`); the flush then drains the bucket
/// with [`TickOutbox::take`] and forwards the whole batch as a single unit.
/// Items pushed for the same (key, tick) *after* its flush ran simply open a
/// fresh bucket, so no item is ever lost — a tick may occasionally produce
/// two batches, never zero.
///
/// Within a bucket, items are ordered by the canonical event order of their
/// pushes (like [`crate::WaitSet`] waiters): the order of the events that
/// made them, with pushes from outside any event last.
pub struct TickOutbox<K, T> {
    pending: Mutex<HashMap<(K, u64), Bucket<T>>>,
}

/// One bucket's items, each tagged with its canonical order key.
type Bucket<T> = Vec<((u64, u64, u64), T)>;

impl<K: Eq + Hash + Copy, T> TickOutbox<K, T> {
    /// An empty outbox.
    pub fn new() -> Self {
        TickOutbox {
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Append `item` to the bucket for (`key`, `tick`). Returns `true` when
    /// this opened the bucket: the caller must schedule a flush at `tick`.
    pub fn push(&self, key: K, tick: SimTime, item: T) -> bool {
        let order = crate::engine::next_order_key();
        let mut pending = self.pending.lock();
        let bucket = pending.entry((key, tick.as_nanos())).or_default();
        let at = bucket.partition_point(|(k, _)| *k < order);
        bucket.insert(at, (order, item));
        bucket.len() == 1
    }

    /// Drain and return the bucket for (`key`, `tick`); empty if the bucket
    /// was already flushed.
    pub fn take(&self, key: K, tick: SimTime) -> Vec<T> {
        self.pending
            .lock()
            .remove(&(key, tick.as_nanos()))
            .map(|items| items.into_iter().map(|(_, item)| item).collect())
            .unwrap_or_default()
    }

    /// Drain every unflushed bucket for `key`, oldest tick first. Used to
    /// flush a link eagerly when a later message must not overtake the
    /// parked items (the scheduled per-bucket flush then finds an empty
    /// bucket and does nothing).
    pub fn take_all(&self, key: K) -> Vec<(SimTime, Vec<T>)> {
        let mut pending = self.pending.lock();
        let ticks: Vec<u64> = pending
            .keys()
            .filter(|(k, _)| *k == key)
            .map(|(_, t)| *t)
            .collect();
        let mut buckets: Vec<(SimTime, Vec<T>)> = ticks
            .into_iter()
            .filter_map(|t| {
                pending.remove(&(key, t)).map(|items| {
                    (
                        SimTime::from_nanos(t),
                        items.into_iter().map(|(_, item)| item).collect(),
                    )
                })
            })
            .collect();
        buckets.sort_by_key(|(t, _)| *t);
        buckets
    }

    /// Total number of items currently waiting in unflushed buckets.
    pub fn pending(&self) -> usize {
        self.pending.lock().values().map(Vec::len).sum()
    }
}

impl<K: Eq + Hash + Copy, T> Default for TickOutbox<K, T> {
    fn default() -> Self {
        TickOutbox::new()
    }
}

impl<K, T> std::fmt::Debug for TickOutbox<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TickOutbox({} buckets)", self.pending.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn send_recv_roundtrip() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let got = Arc::new(StdAtomicU64::new(0));
        let g = got.clone();
        engine.spawn("receiver", move |h| {
            let v = rx.recv(h);
            g.store(v as u64, Ordering::SeqCst);
        });
        engine.spawn("sender", move |h| {
            h.sleep(SimDuration::from_micros(3));
            tx.send(h, 17);
        });
        engine.run().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn delayed_send_delivers_at_the_right_time() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<&'static str>(engine.ctl());
        let when = Arc::new(StdAtomicU64::new(0));
        let w = when.clone();
        engine.spawn("receiver", move |h| {
            let _ = rx.recv(h);
            w.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("sender", move |h| {
            tx.send_delayed(h, "page", SimDuration::from_micros(138));
        });
        engine.run().unwrap();
        assert_eq!(when.load(Ordering::SeqCst), 138_000);
    }

    #[test]
    fn messages_arrive_in_delivery_time_order() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..3 {
                o.lock().push(rx.recv(h));
            }
        });
        engine.spawn("sender", move |h| {
            // Sent in one order, delivered in delay order.
            tx.send_delayed(h, 3, SimDuration::from_micros(30));
            tx.send_delayed(h, 1, SimDuration::from_micros(10));
            tx.send_delayed(h, 2, SimDuration::from_micros(20));
        });
        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec![1, 2, 3]);
    }

    #[test]
    fn equal_delivery_times_preserve_send_order() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..4 {
                o.lock().push(rx.recv(h));
            }
        });
        engine.spawn("sender", move |h| {
            for i in 0..4 {
                tx.send_delayed(h, i, SimDuration::from_micros(5));
            }
        });
        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_recv_does_not_block() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let results = Arc::new(Mutex::new(Vec::new()));
        let r = results.clone();
        engine.spawn("poller", move |h| {
            r.lock().push(rx.try_recv(h).is_none());
            h.sleep(SimDuration::from_micros(10));
            r.lock().push(rx.try_recv(h) == Some(9));
        });
        engine.spawn("sender", move |h| {
            h.sleep(SimDuration::from_micros(5));
            tx.send(h, 9);
        });
        engine.run().unwrap();
        assert_eq!(results.lock().clone(), vec![true, true]);
    }

    #[test]
    fn multiple_receivers_each_get_one_message() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let total = Arc::new(StdAtomicU64::new(0));
        for i in 0..3 {
            let rx = rx.clone();
            let total = total.clone();
            engine.spawn(format!("recv{i}"), move |h| {
                let v = rx.recv(h);
                total.fetch_add(v as u64, Ordering::SeqCst);
            });
        }
        engine.spawn("sender", move |h| {
            for v in [1, 10, 100] {
                tx.send(h, v);
            }
        });
        engine.run().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 111);
    }

    #[test]
    fn tick_outbox_groups_by_key_and_tick() {
        let outbox: TickOutbox<u32, &'static str> = TickOutbox::new();
        let t0 = SimTime::from_micros(10);
        let t1 = SimTime::from_micros(20);
        assert!(outbox.push(1, t0, "a"), "first item opens the bucket");
        assert!(!outbox.push(1, t0, "b"), "second item joins it");
        assert!(outbox.push(2, t0, "c"), "different key, own bucket");
        assert!(outbox.push(1, t1, "d"), "different tick, own bucket");
        assert_eq!(outbox.pending(), 4);
        assert_eq!(outbox.take(1, t0), vec!["a", "b"]);
        assert_eq!(outbox.take(1, t0), Vec::<&str>::new(), "drained");
        assert_eq!(outbox.pending(), 2);
        // A push after the flush opens a fresh bucket for the same slot.
        assert!(outbox.push(1, t0, "late"));
        assert_eq!(outbox.take(1, t0), vec!["late"]);
    }

    #[test]
    fn tick_outbox_take_all_drains_a_key_in_tick_order() {
        let outbox: TickOutbox<u32, u32> = TickOutbox::new();
        let (t0, t1) = (SimTime::from_micros(30), SimTime::from_micros(10));
        outbox.push(1, t0, 100);
        outbox.push(1, t1, 200);
        outbox.push(2, t0, 300);
        let drained = outbox.take_all(1);
        assert_eq!(drained, vec![(t1, vec![200]), (t0, vec![100])]);
        assert_eq!(outbox.pending(), 1, "other keys untouched");
        assert!(outbox.take_all(1).is_empty());
    }

    #[test]
    fn tick_outbox_flush_via_call_at_sees_all_same_tick_items() {
        // Two threads push for the same destination at the same virtual time;
        // the flush scheduled by the bucket opener collects both items.
        let mut engine = Engine::new();
        let outbox: Arc<TickOutbox<u8, u32>> = Arc::new(TickOutbox::new());
        let flushed = Arc::new(Mutex::new(Vec::new()));
        for v in [1u32, 2] {
            let outbox = outbox.clone();
            let flushed = flushed.clone();
            engine.spawn(format!("pusher{v}"), move |h| {
                h.sleep(SimDuration::from_micros(5));
                let tick = h.now();
                if outbox.push(7, tick, v) {
                    let outbox = outbox.clone();
                    let flushed = flushed.clone();
                    h.ctl().call_at(tick, move |_ctl| {
                        flushed.lock().push(outbox.take(7, tick));
                    });
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(flushed.lock().clone(), vec![vec![1, 2]]);
    }

    #[test]
    fn queued_counts_unconsumed_messages() {
        let mut engine = Engine::new();
        let (tx, _rx) = channel::<u32>(engine.ctl());
        let tx2 = tx.clone();
        engine.spawn("sender", move |h| {
            tx2.send_delayed(h, 1, SimDuration::from_micros(1000));
            assert_eq!(tx2.queued(), 1);
        });
        // The undelivered message keeps no thread alive, so the run finishes.
        engine.run().unwrap();
    }
}
