//! `sched_handoff` — wall-clock microbenchmark of the scheduler hand-off.
//!
//! Measures the real (not virtual) cost of one simulated step under the
//! two hand-off substrates — continuation (the slice runs as a coroutine on
//! the scheduler's own OS thread) and futex-style OS-thread baton — prints
//! the comparison, and records it machine-readably:
//!
//! * `results/sched_handoff.json` — like every other harness binary;
//! * `BENCH_pr6.json` (working directory, next to `BENCH_seed.json`) — the
//!   record the `compare` gate prints for context while enforcing the two
//!   hand-off envelopes (continuation ≥10× faster than the futex baton, and
//!   the futex baton's absolute per-step bound). `BENCH_pr3.json` is the
//!   PR 3-era record of the futex-vs-Condvar numbers and is left untouched.
//!
//! Usage: `sched_handoff [--quick]`.

use dsmpm2_bench::{markdown_table, measure_handoff, write_json};
use serde::Serialize;

#[derive(Serialize)]
struct Pr6Baseline {
    sched_handoff: dsmpm2_bench::HandoffMeasurement,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 30_000 } else { 150_000 };
    let trials = if quick { 3 } else { 5 };

    println!("sched_handoff: wall-clock ns per simulated step ({steps} steps, best of {trials})\n");
    let m = measure_handoff(steps, trials);

    println!(
        "{}",
        markdown_table(
            &["Hand-off", "ns/step", "steps/s"],
            &[
                vec![
                    "continuation (default)".into(),
                    format!("{:.0}", m.continuation_ns_per_step),
                    format!("{:.0}", 1e9 / m.continuation_ns_per_step),
                ],
                vec![
                    "futex baton".into(),
                    format!("{:.0}", m.futex_ns_per_step),
                    format!("{:.0}", 1e9 / m.futex_ns_per_step),
                ],
                vec![
                    format!("{}-thread wake burst", m.burst_threads),
                    format!("{:.0}", m.burst_ns_per_grant),
                    format!("{:.0}", 1e9 / m.burst_ns_per_grant),
                ],
            ],
        )
    );
    println!(
        "Speed-up: continuation {:.2}x over the futex baton.",
        m.continuation_speedup
    );

    write_json("sched_handoff", &m);
    let baseline = Pr6Baseline { sched_handoff: m };
    match serde_json::to_string_pretty(&baseline) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_pr6.json", json + "\n") {
                eprintln!("warning: could not write BENCH_pr6.json: {e}");
            } else {
                println!("\nRecorded baseline in BENCH_pr6.json.");
            }
        }
        Err(e) => eprintln!("warning: could not serialize baseline: {e}"),
    }
}
