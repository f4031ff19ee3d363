//! Perf-regression gate: re-measures the Table 3 / Table 4 read-fault
//! totals on every network profile and compares them against the recorded
//! seed baseline (`BENCH_seed.json`). Exits non-zero when any total deviates
//! from the baseline by more than 10% — in *either* direction: the numbers
//! are calibrated against the paper, so an unexplained speed-up is as
//! suspicious as a slow-down in a virtual-time simulation.
//!
//! Alongside the (virtual-time) read-fault envelope, the gate re-measures
//! the *wall-clock* scheduler hand-off and enforces two envelopes: the
//! continuation hand-off must stay at least [`CONTINUATION_MIN_SPEEDUP`]×
//! faster per step than the futex OS-thread baton, and the futex baton must
//! stay within [`FUTEX_MAX_NS_PER_STEP`] per step. The recorded absolutes
//! from `BENCH_pr3.json` (the historical futex vs Condvar record) and
//! `BENCH_pr6.json` are printed for context when present.
//!
//! Usage: `compare [path/to/BENCH_seed.json] [path/to/BENCH_pr3.json]`
//! (defaults: `BENCH_seed.json` / `BENCH_pr3.json` in the working directory
//! — the repository root under `cargo run`; `BENCH_pr6.json` is always read
//! from the working directory).
//!
//! Run in CI on every PR so perf-affecting changes must either stay inside
//! the envelope or consciously regenerate the baseline.

use dsmpm2_bench::{markdown_table, measure_handoff, probe_fan_in, probe_single_transfer};
use dsmpm2_madeleine::{profiles, LossyConfig, TransportBackend, TransportTuning};
use dsmpm2_workloads::false_sharing::{run_false_sharing, FalseSharingConfig};
use dsmpm2_workloads::{measure_read_fault, FaultPolicy};
use serde::Value;

const THRESHOLD: f64 = 0.10;
/// Line granularity on the false-sharing kernel must move at least this
/// many times fewer wire bytes than whole pages (PR 10 acceptance: ≥2×).
/// Virtual-time measurement, so the margin is machine-independent; the
/// measured ratio is ~40× for the single-writer protocols.
const GRANULARITY_MIN_BYTES_RATIO: f64 = 2.0;
/// The one-sided fast path must serve at least this fraction of the
/// uncontended remote read fetches (PR 10 acceptance: ≥90%, zero handler
/// wakes on the served ones).
const ONE_SIDED_MIN_SERVE_FRACTION: f64 = 0.9;
/// Upper bound on the futex baton's wall-clock ns per simulated step. It
/// replaces the earlier ratio envelope (futex ≥2× faster than the
/// Mutex+Condvar baton), whose baseline substrate is gone: it is half of the 9 463
/// ns/step Condvar figure recorded in `BENCH_pr6.json` on a 1-vCPU host, so
/// it equals the old gate there and is stricter on hosts where the Condvar
/// baton measured slower. A constant, not read from `BENCH_pr6.json`,
/// because `sched_handoff` rewrites that file before this gate runs in CI.
/// An out-of-bound first measurement is re-measured once with 3× the steps
/// before the gate fails, to ride out noisy neighbours on shared runners.
const FUTEX_MAX_NS_PER_STEP: f64 = 4_731.0;
/// The continuation hand-off must beat the futex OS-thread baton by at
/// least this factor (PR 6 acceptance: ≥10× fewer wall-clock ns per step).
/// A continuation grant is two userspace stack switches on the scheduler's
/// own OS thread; a baton grant is two futex wake-ups and an OS reschedule,
/// which costs microseconds — measured ~30× on a 1-vCPU container.
const CONTINUATION_MIN_SPEEDUP: f64 = 10.0;
/// Re-measuring here (rather than trusting the `sched_handoff` step's
/// BENCH_pr6.json from the same CI run) costs ~2 s and keeps the gate
/// honest against stale or hand-edited baselines.
const HANDOFF_STEPS: u64 = 40_000;
const HANDOFF_TRIALS: u32 = 3;

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_seed.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read seed baseline {path}: {e}"));
    let seed = serde_json::from_str_value(&text)
        .unwrap_or_else(|e| panic!("cannot parse seed baseline {path}: {e}"));

    let tables = [
        (
            "table3_read_fault_page_migration_us",
            FaultPolicy::PageTransfer,
        ),
        (
            "table4_read_fault_thread_migration_us",
            FaultPolicy::ThreadMigration,
        ),
    ];

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (key, policy) in tables {
        let Some(Value::Array(seed_rows)) = seed.get(key) else {
            panic!("seed baseline {path} has no array field '{key}'");
        };
        for seed_row in seed_rows {
            let network = match seed_row.get("network") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("row of '{key}' has no network name: {other:?}"),
            };
            let seed_total = seed_row
                .get("total_us")
                .and_then(number)
                .unwrap_or_else(|| panic!("row '{network}' of '{key}' has no total_us"));
            let profile = profiles::all()
                .into_iter()
                .find(|p| p.name == network)
                .unwrap_or_else(|| panic!("unknown network profile '{network}' in baseline"));
            let measured = measure_read_fault(profile, policy).total_us;
            let drift = (measured - seed_total) / seed_total;
            let verdict = if drift.abs() > THRESHOLD {
                failures.push(format!(
                    "{key} / {network}: measured {measured:.1} us vs seed {seed_total:.1} us \
                     ({:+.1}% > ±{:.0}%)",
                    drift * 100.0,
                    THRESHOLD * 100.0
                ));
                "FAIL"
            } else {
                "ok"
            };
            rows.push(vec![
                key.split('_').next().unwrap_or(key).to_string(),
                network,
                format!("{seed_total:.1}"),
                format!("{measured:.1}"),
                format!("{:+.2}%", drift * 100.0),
                verdict.to_string(),
            ]);
        }
    }

    println!("Perf gate: read-fault totals vs {path} (threshold ±10%)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Table",
                "Network",
                "Seed (us)",
                "Measured (us)",
                "Drift",
                "Gate"
            ],
            &rows
        )
    );

    // ----- transport backend envelope (virtual time) ------------------------
    //
    // The `Ideal` backend *is* the calibrated cost model: a single
    // uncontended page transfer must take exactly
    // `model.page_transfer_time(4096)` — zero drift allowed, so a transport
    // refactor can never silently change the calibrated costs. The
    // `Contended` backend and a loss-free `Lossy` backend must agree on the
    // uncontended case (their queues are empty); the contended fan-in
    // column shows where they stop agreeing, informationally.
    let lossless = TransportTuning {
        backend: TransportBackend::Lossy(LossyConfig {
            drop_per_mille: 0,
            dup_per_mille: 0,
            ..LossyConfig::default()
        }),
    };
    let mut transport_rows = Vec::new();
    for model in profiles::all() {
        let expected = model.page_transfer_time(4096);
        let mut cells = vec![
            model.name.clone(),
            format!("{:.1}", expected.as_micros_f64()),
        ];
        let mut verdict = "ok";
        for tuning in [
            TransportTuning::ideal(),
            TransportTuning::contended(),
            lossless,
        ] {
            let probed = probe_single_transfer(&model, tuning);
            cells.push(format!("{:.1}", probed.as_micros_f64()));
            if probed != expected {
                verdict = "FAIL";
                failures.push(format!(
                    "transport / {} / {}: uncontended 4 kB transfer took {} vs model {} \
                     (exact match required)",
                    model.name,
                    tuning.backend.name(),
                    probed,
                    expected
                ));
            }
        }
        let fan_in = probe_fan_in(&model, TransportTuning::contended(), 3, 2);
        cells.push(format!("{:.1}", fan_in.as_micros_f64()));
        cells.push(verdict.to_string());
        transport_rows.push(cells);
    }
    println!("Transport gate: uncontended 4 kB transfer must match the model exactly\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Network",
                "Model (us)",
                "Ideal (us)",
                "Contended (us)",
                "Lossless (us)",
                "Fan-in 3x2 contended (us)",
                "Gate"
            ],
            &transport_rows
        )
    );

    // ----- scheduler hand-off envelope (wall clock) -------------------------
    let pr3_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_pr3.json".to_string());
    let mut m = measure_handoff(HANDOFF_STEPS, HANDOFF_TRIALS);
    let failing = |x: &dsmpm2_bench::HandoffMeasurement| {
        u32::from(x.futex_ns_per_step > FUTEX_MAX_NS_PER_STEP)
            + u32::from(x.continuation_speedup < CONTINUATION_MIN_SPEEDUP)
    };
    if failing(&m) > 0 {
        // Wall-clock numbers can be disturbed by a noisy neighbour on shared
        // CI runners; re-measure once with a longer run before declaring a
        // regression, and keep the better of the two measurements.
        eprintln!(
            "hand-off (futex {:.0} ns/step, continuation/futex {:.2}x) out of bounds on \
             first measurement; re-measuring with {}x steps to rule out scheduling noise",
            m.futex_ns_per_step, m.continuation_speedup, 3
        );
        let retry = measure_handoff(HANDOFF_STEPS * 3, HANDOFF_TRIALS);
        if failing(&retry) < failing(&m)
            || (failing(&retry) == failing(&m)
                && retry.continuation_speedup > m.continuation_speedup)
        {
            m = retry;
        }
    }
    println!(
        "Hand-off gate: continuation {:.0} ns/step vs futex {:.0} ns/step — \
         continuation/futex {:.2}x (required ≥{CONTINUATION_MIN_SPEEDUP:.1}x), futex \
         required ≤{FUTEX_MAX_NS_PER_STEP:.0} ns/step",
        m.continuation_ns_per_step, m.futex_ns_per_step, m.continuation_speedup
    );
    match std::fs::read_to_string(&pr3_path)
        .ok()
        .and_then(|text| serde_json::from_str_value(&text).ok())
    {
        Some(baseline) => {
            let get = |key: &str| {
                baseline
                    .get("sched_handoff")
                    .and_then(|h| h.get(key))
                    .and_then(number)
            };
            if let (Some(futex), Some(condvar)) =
                (get("futex_ns_per_step"), get("condvar_ns_per_step"))
            {
                println!(
                    "  recorded in {pr3_path}: futex {futex:.0} ns/step, Condvar {condvar:.0} \
                     ns/step (absolute numbers are machine-dependent and informational)"
                );
            }
        }
        None => {
            println!("  note: no readable {pr3_path}; regenerate it with the sched_handoff binary")
        }
    }
    match std::fs::read_to_string("BENCH_pr6.json")
        .ok()
        .and_then(|text| serde_json::from_str_value(&text).ok())
    {
        Some(baseline) => {
            let get = |key: &str| {
                baseline
                    .get("sched_handoff")
                    .and_then(|h| h.get(key))
                    .and_then(number)
            };
            if let (Some(cont), Some(futex)) =
                (get("continuation_ns_per_step"), get("futex_ns_per_step"))
            {
                println!(
                    "  recorded in BENCH_pr6.json: continuation {cont:.0} ns/step, futex \
                     {futex:.0} ns/step (absolute numbers are machine-dependent and \
                     informational)"
                );
            }
        }
        None => println!(
            "  note: no readable BENCH_pr6.json; regenerate it with the sched_handoff binary"
        ),
    }
    // ----- coherence granularity + one-sided read envelope (virtual time) ---
    //
    // Deterministic virtual-time measurements, so unlike the wall-clock
    // hand-off gate there is no noise margin to manage: the ratios are
    // bit-stable on every machine. `BENCH_pr10.json` records the same
    // numbers from the `line_coherence` binary for context.
    let fs_nodes = 4;
    let fs_proto = "li_hudak_fixed";
    let page_run = run_false_sharing(&FalseSharingConfig::small(fs_nodes), fs_proto);
    let line_run = {
        let mut config = FalseSharingConfig::small(fs_nodes);
        config.tuning = config.tuning.with_granularity(64);
        run_false_sharing(&config, fs_proto)
    };
    let bytes_ratio =
        page_run.wire.envelope_bytes as f64 / line_run.wire.envelope_bytes.max(1) as f64;
    println!(
        "Granularity gate ({fs_proto}, false sharing, {fs_nodes} nodes): page {} wire bytes \
         in {} — 64 B lines {} wire bytes in {} ({bytes_ratio:.1}x fewer bytes, required \
         ≥{GRANULARITY_MIN_BYTES_RATIO:.1}x; strictly less virtual time and identical memory \
         required)",
        page_run.wire.envelope_bytes,
        page_run.elapsed,
        line_run.wire.envelope_bytes,
        line_run.elapsed
    );
    if line_run.final_slots != page_run.final_slots {
        failures.push(format!(
            "granularity: 64 B lines changed the false-sharing kernel's final counters \
             ({fs_proto}, {fs_nodes} nodes)"
        ));
    }
    if bytes_ratio < GRANULARITY_MIN_BYTES_RATIO {
        failures.push(format!(
            "granularity: 64 B lines moved only {bytes_ratio:.2}x fewer wire bytes than whole \
             pages ({} vs {}, required ≥{GRANULARITY_MIN_BYTES_RATIO:.1}x)",
            line_run.wire.envelope_bytes, page_run.wire.envelope_bytes
        ));
    }
    if line_run.elapsed.as_nanos() >= page_run.elapsed.as_nanos() {
        failures.push(format!(
            "granularity: 64 B lines took {} vs {} at page granularity (strictly less virtual \
             time required)",
            line_run.elapsed, page_run.elapsed
        ));
    }
    let one_sided_run = {
        let mut config = FalseSharingConfig::read_mostly(fs_nodes);
        config.tuning = config.tuning.with_one_sided_reads();
        run_false_sharing(&config, fs_proto)
    };
    let fetches = one_sided_run.stats.one_sided_serves + one_sided_run.stats.one_sided_busy;
    let serve_fraction = if fetches == 0 {
        0.0
    } else {
        one_sided_run.stats.one_sided_serves as f64 / fetches as f64
    };
    println!(
        "One-sided gate ({fs_proto}, read-mostly, {fs_nodes} nodes): {} of {fetches} read \
         fetches served at delivery instant ({:.0}%, required \
         ≥{:.0}%), {} handler wakes",
        one_sided_run.stats.one_sided_serves,
        serve_fraction * 100.0,
        ONE_SIDED_MIN_SERVE_FRACTION * 100.0,
        one_sided_run.stats.fetch_handler_wakes
    );
    if fetches == 0 || serve_fraction < ONE_SIDED_MIN_SERVE_FRACTION {
        failures.push(format!(
            "one-sided reads: only {} of {fetches} uncontended read fetches served one-sided \
             (required ≥{:.0}%)",
            one_sided_run.stats.one_sided_serves,
            ONE_SIDED_MIN_SERVE_FRACTION * 100.0
        ));
    }
    if one_sided_run.stats.fetch_handler_wakes != one_sided_run.stats.one_sided_busy {
        failures.push(format!(
            "one-sided reads: {} handler wakes for {} refused fetches (served fetches must \
             never wake the handler)",
            one_sided_run.stats.fetch_handler_wakes, one_sided_run.stats.one_sided_busy
        ));
    }
    match std::fs::read_to_string("BENCH_pr10.json")
        .ok()
        .and_then(|text| serde_json::from_str_value(&text).ok())
    {
        Some(baseline) => {
            let line_row = baseline
                .get("false_sharing_granularity")
                .and_then(|rows| match rows {
                    Value::Array(rows) => rows
                        .iter()
                        .find(|r| {
                            r.get("granularity").and_then(number) == Some(64.0)
                                && matches!(r.get("protocol"),
                                            Some(Value::String(p)) if p == fs_proto)
                        })
                        .and_then(|r| r.get("bytes_ratio_vs_page"))
                        .and_then(number),
                    _ => None,
                });
            if let Some(recorded) = line_row {
                println!(
                    "  recorded in BENCH_pr10.json: {recorded:.1}x fewer bytes at 64 B lines \
                     (virtual-time numbers; machine-independent)"
                );
            }
        }
        None => println!(
            "  note: no readable BENCH_pr10.json; regenerate it with the line_coherence binary"
        ),
    }
    println!();

    if m.futex_ns_per_step > FUTEX_MAX_NS_PER_STEP {
        failures.push(format!(
            "sched_handoff: futex baton takes {:.0} ns/step (required \
             ≤{FUTEX_MAX_NS_PER_STEP:.0} ns/step)",
            m.futex_ns_per_step
        ));
    }
    if m.continuation_speedup < CONTINUATION_MIN_SPEEDUP {
        failures.push(format!(
            "sched_handoff: continuation hand-off only {:.2}x faster than the futex baton \
             ({:.0} vs {:.0} ns/step, required ≥{CONTINUATION_MIN_SPEEDUP:.1}x)",
            m.continuation_speedup, m.continuation_ns_per_step, m.futex_ns_per_step
        ));
    }
    println!();

    if failures.is_empty() {
        println!("All totals within the ±10% envelope; hand-off envelope holds.");
    } else {
        eprintln!("Perf gate FAILED:");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        eprintln!(
            "If the change is intentional, regenerate BENCH_seed.json with the table3/table4 \
             binaries and commit it."
        );
        std::process::exit(1);
    }
}
