//! The traced run's observer, installed through the core's public
//! observation seam (`install_global_verify_hooks`).
//!
//! The observer never charges virtual time or touches DSM state, so a traced
//! run must reproduce its untraced run bit for bit; `measure` checks that.
//! It turns the synchronisation event stream into two virtual-time span
//! distributions — barrier waits (`BarrierEnter` → `BarrierExit` of one
//! thread) and lock holds (`LockAcquired` → `LockReleasing`) — and keeps a
//! handle on the observed cluster so the wire statistics of a workload that
//! does not return them (`run_tsp`) can be read after the run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsmpm2_core::{
    install_global_verify_hooks, BarrierId, DsmRuntime, LockId, MemAccess, NodeId, PageId,
    Pm2Cluster, SimTime, SyncEvent, ThreadId, VerifyHooks,
};

use crate::workload::{RunRecord, Scale, Workload};

#[derive(Default)]
struct LayerObserver {
    spans: Mutex<Spans>,
    cluster: Mutex<Option<Pm2Cluster>>,
}

#[derive(Default)]
struct Spans {
    barrier_open: HashMap<(ThreadId, BarrierId), SimTime>,
    lock_open: HashMap<(ThreadId, LockId), SimTime>,
    barrier_wait_ns: Vec<u64>,
    lock_hold_ns: Vec<u64>,
}

impl VerifyHooks for LayerObserver {
    fn mem_access(&self, _rt: &DsmRuntime, _access: MemAccess) {}

    fn sync_event(&self, rt: &DsmRuntime, event: SyncEvent) {
        {
            let mut cluster = self.cluster.lock().expect("observer cluster lock");
            if cluster.is_none() {
                *cluster = Some(rt.cluster().clone());
            }
        }
        let mut spans = self.spans.lock().expect("observer span lock");
        match event {
            SyncEvent::BarrierEnter {
                time,
                thread,
                barrier,
                ..
            } => {
                spans.barrier_open.insert((thread, barrier), time);
            }
            SyncEvent::BarrierExit {
                time,
                thread,
                barrier,
                ..
            } => {
                if let Some(start) = spans.barrier_open.remove(&(thread, barrier)) {
                    spans.barrier_wait_ns.push(time.since(start).as_nanos());
                }
            }
            SyncEvent::LockAcquired {
                time, thread, lock, ..
            } => {
                spans.lock_open.insert((thread, lock), time);
            }
            SyncEvent::LockReleasing {
                time, thread, lock, ..
            } => {
                if let Some(start) = spans.lock_open.remove(&(thread, lock)) {
                    spans.lock_hold_ns.push(time.since(start).as_nanos());
                }
            }
        }
    }

    fn owner_version_update(
        &self,
        _rt: &DsmRuntime,
        _time: SimTime,
        _node: NodeId,
        _page: PageId,
        _old: u64,
        _new: u64,
    ) {
    }
}

/// What the observer saw during one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    pub barrier_wait_us: (f64, f64),
    pub lock_hold_us: (f64, f64),
}

impl TraceSummary {
    /// The summary's scalar fields as `(name, value)` pairs.
    pub fn fields(&self) -> [(&'static str, f64); 4] {
        [
            ("barrier_wait_us_p50", self.barrier_wait_us.0),
            ("barrier_wait_us_p90", self.barrier_wait_us.1),
            ("lock_hold_us_p50", self.lock_hold_us.0),
            ("lock_hold_us_p90", self.lock_hold_us.1),
        ]
    }

    /// Set the field [`TraceSummary::fields`] calls `name`.
    pub fn set(&mut self, name: &str, value: f64) -> bool {
        let slot = match name {
            "barrier_wait_us_p50" => &mut self.barrier_wait_us.0,
            "barrier_wait_us_p90" => &mut self.barrier_wait_us.1,
            "lock_hold_us_p50" => &mut self.lock_hold_us.0,
            "lock_hold_us_p90" => &mut self.lock_hold_us.1,
            _ => return false,
        };
        *slot = value;
        true
    }
}

/// Run `workload` once with the observer installed.
pub fn traced_run(workload: Workload, scale: Scale) -> RunRecord {
    let observer = Arc::new(LayerObserver::default());
    let guard = install_global_verify_hooks(observer.clone());
    let mut rec = workload.run(scale);
    drop(guard);
    // Taking the captured cluster out of the observer breaks the reference
    // cycle runtime -> observer -> cluster -> services -> runtime.
    let cluster = observer
        .cluster
        .lock()
        .expect("observer cluster lock")
        .take();
    let wire = cluster.map(|c| c.network().wire_stats());
    if workload == Workload::TspSearch {
        if let Some(w) = &wire {
            rec.counts.set_wire(w);
        }
    }
    let spans = std::mem::take(&mut *observer.spans.lock().expect("observer span lock"));
    rec.trace = Some(TraceSummary {
        barrier_wait_us: p50_p90_us(spans.barrier_wait_ns),
        lock_hold_us: p50_p90_us(spans.lock_hold_ns),
    });
    rec
}

fn p50_p90_us(mut ns: Vec<u64>) -> (f64, f64) {
    ns.sort_unstable();
    (
        percentile(&ns, 50) as f64 / 1e3,
        percentile(&ns, 90) as f64 / 1e3,
    )
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 90), 9);
        assert_eq!(percentile(&[7], 90), 7);
        assert_eq!(percentile(&[], 50), 0);
    }
}
