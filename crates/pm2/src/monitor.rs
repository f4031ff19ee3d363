//! Post-mortem monitoring.
//!
//! The paper highlights PM2's "very precise post-mortem monitoring tools,
//! providing the user with valuable information on the time spent within each
//! elementary function". This module provides the equivalent for the
//! simulated runtime: named counters and timers that every layer (RPC, DSM
//! page manager, protocols, locks) feeds, plus a printable report used by the
//! examples and the benchmark harness.

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

use dsmpm2_sim::SimDuration;

/// Statistics recorded for one named operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStat {
    /// Number of occurrences.
    pub count: u64,
    /// Total virtual time spent.
    pub total: SimDuration,
    /// Largest single occurrence.
    pub max: SimDuration,
}

impl OpStat {
    fn add(&mut self, elapsed: SimDuration) {
        self.count += 1;
        self.total += elapsed;
        if elapsed > self.max {
            self.max = elapsed;
        }
    }

    /// Mean virtual time per occurrence (zero if the operation never ran).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// A monitoring sink shared by every layer of one cluster.
#[derive(Default)]
pub struct Monitor {
    ops: Mutex<HashMap<String, OpStat>>,
}

impl Monitor {
    /// New, empty monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Record one occurrence of `name` taking `elapsed` of virtual time.
    /// Allocates only the first time `name` is seen.
    pub fn record(&self, name: &str, elapsed: SimDuration) {
        let mut ops = self.ops.lock();
        match ops.get_mut(name) {
            Some(stat) => stat.add(elapsed),
            None => ops.entry(name.to_string()).or_default().add(elapsed),
        }
    }

    /// Record one occurrence of `name` with no associated time (pure counter).
    pub fn incr(&self, name: &str) {
        self.record(name, SimDuration::ZERO);
    }

    /// Statistics for one operation.
    pub fn get(&self, name: &str) -> OpStat {
        self.ops.lock().get(name).copied().unwrap_or_default()
    }

    /// Number of occurrences of one operation.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).count
    }

    /// A snapshot of every operation, sorted by total time (descending).
    pub fn report(&self) -> MonitorReport {
        let mut rows: Vec<(String, OpStat)> = self
            .ops
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
        MonitorReport { rows }
    }

    /// Reset every counter (used between benchmark iterations).
    pub fn reset(&self) {
        self.ops.lock().clear();
    }
}

/// Sorted snapshot of a [`Monitor`], printable as a post-mortem table.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Rows of `(operation name, statistics)`, sorted by total time.
    pub rows: Vec<(String, OpStat)>,
}

impl MonitorReport {
    /// Statistics for one operation in the snapshot, if present.
    pub fn get(&self, name: &str) -> Option<OpStat> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<36} {:>10} {:>14} {:>14} {:>14}",
            "operation", "count", "total (us)", "mean (us)", "max (us)"
        )?;
        for (name, stat) in &self.rows {
            writeln!(
                f,
                "{:<36} {:>10} {:>14.1} {:>14.2} {:>14.1}",
                name,
                stat.count,
                stat.total.as_micros_f64(),
                stat.mean().as_micros_f64(),
                stat.max.as_micros_f64()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_count_total_and_max() {
        let m = Monitor::new();
        m.record("page_fault", SimDuration::from_micros(11));
        m.record("page_fault", SimDuration::from_micros(15));
        m.incr("rpc");
        let stat = m.get("page_fault");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total, SimDuration::from_micros(26));
        assert_eq!(stat.max, SimDuration::from_micros(15));
        assert_eq!(stat.mean(), SimDuration::from_micros(13));
        assert_eq!(m.count("rpc"), 1);
        assert_eq!(m.count("unknown"), 0);
    }

    #[test]
    fn report_is_sorted_by_total_time() {
        let m = Monitor::new();
        m.record("cheap", SimDuration::from_micros(1));
        m.record("expensive", SimDuration::from_micros(100));
        let report = m.report();
        assert_eq!(report.rows[0].0, "expensive");
        assert!(report.get("cheap").is_some());
        assert!(report.get("missing").is_none());
        let rendered = report.to_string();
        assert!(rendered.contains("expensive"));
        assert!(rendered.contains("operation"));
    }

    #[test]
    fn reset_clears_everything() {
        let m = Monitor::new();
        m.incr("x");
        m.reset();
        assert_eq!(m.count("x"), 0);
        assert!(m.report().rows.is_empty());
    }

    #[test]
    fn mean_of_empty_stat_is_zero() {
        assert_eq!(OpStat::default().mean(), SimDuration::ZERO);
    }
}
