//! `dsm-bench`: the repository's benchmark.
//!
//! ```text
//! dsm-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dsm-bench --self-test
//! ```
//!
//! With `--trace 0` the benchmark brings the workload's cluster up several
//! times (`setup_s`), then runs the workload in fresh child processes until
//! `--seconds` have passed, checking every run's output against a host-side
//! oracle and its deterministic statistics against the first run's. It
//! prints the end-to-end metrics. With `--trace 1` it alternates untraced
//! and traced runs (the traced one observes the workload through the core's
//! observation hooks and must reproduce the untraced run bit for bit), then
//! runs the per-layer probes, and prints the per-layer metrics.
//!
//! Both clocks are reported and named: host time (how fast the simulator
//! produces a result, units `s`, `ms`, `ns`) and virtual time (the simulated
//! result, units `sim_s`, `sim_us`).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run that panics, hangs,
//! produces a wrong output or disagrees with the first run's fingerprint
//! counts in `failed`; the remaining runs still execute.

mod metrics;
mod probes;
mod selftest;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{Metric, END_TO_END, PER_LAYER};
use workload::{RunRecord, Scale, Workload};

const USAGE: &str = "usage: dsm-bench --workload <jacobi_local|false_sharing_mw|tsp_search> \
--seed <n> --seconds <s> --trace <0|1>\n       dsm-bench --self-test";

/// Environment variables the simulator reads once per process; each silently
/// changes what is measured (hand-off substrate, worker count, re-introduced
/// protocol bugs, message tracing).
const FORBIDDEN_ENV: [&str; 4] = [
    "DSM_SIM_HANDOFF",
    "DSM_SIM_WORKERS",
    "DSM_MUTANT",
    "DSMPM2_TRACE",
];

/// Cluster bring-ups before each workload run; `setup_s` is the median of
/// all of them, so its samples spread over the whole benchmark run.
const SETUPS_PER_ROUND: usize = 8;
/// Fewest measured runs per benchmark run, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// A run that takes longer than this is a hang and counts as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(30);

/// What a benchmark run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub scale: Scale,
    pub seconds: f64,
    pub trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => return child_main(&args[1..]),
        Some("--self-test") if args.len() == 1 => {
            if let Some(reason) = env_violation() {
                eprintln!("dsm-bench: refusing to run: {reason}");
                return ExitCode::from(3);
            }
            return selftest::run();
        }
        _ => {}
    }
    let (plan, seed) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dsm-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(reason) = env_violation().or_else(build_violation) {
        eprintln!("dsm-bench: refusing to report numbers: {reason}");
        return ExitCode::from(3);
    }
    println!(
        "dsm-bench workload={} seed={seed} seconds={} trace={} protocol={}",
        plan.workload.name(),
        plan.seconds,
        u8::from(plan.trace),
        plan.workload.protocol()
    );
    println!("{}", environment_record());
    let report = measure(plan);
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<(Plan, u64), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&s) {
                    return Err("--seconds must be within 0..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let plan = Plan {
        workload: workload.ok_or("--workload is required")?,
        scale: Scale::Full,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    // None of the workloads takes a random input (see `workload.rs`): the
    // seed is recorded, and every seed measures the same work.
    Ok((plan, seed.ok_or("--seed is required")?))
}

fn env_violation() -> Option<String> {
    FORBIDDEN_ENV
        .iter()
        .find(|v| std::env::var_os(v).is_some())
        .map(|v| format!("{v} is set; it swaps what the simulator runs"))
}

fn build_violation() -> Option<String> {
    cfg!(debug_assertions).then(|| "this is a debug build; build with --release".to_string())
}

/// nproc, build profile and the commit of the checkout (when it is a git
/// checkout).
fn environment_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "env nproc={nproc} profile={profile} commit={}",
        git_commit().unwrap_or_else(|| "unknown".into())
    )
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

// ---------------------------------------------------------------------------
// Child processes: one workload run each
// ---------------------------------------------------------------------------

/// Exit status of a run its own watchdog stopped.
const TIMED_OUT: u8 = 124;

fn child_main(args: &[String]) -> ExitCode {
    let Some(timeout_ms) = args.first().and_then(|t| t.parse::<u64>().ok()) else {
        eprintln!("dsm-bench child: bad arguments {args:?}");
        return ExitCode::from(2);
    };
    // A deadlocked or livelocked run never returns: the run's own watchdog
    // ends the process, so the parent can simply wait for it.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(timeout_ms));
        eprintln!("dsm-bench child: run timed out after {timeout_ms} ms");
        std::process::exit(i32::from(TIMED_OUT));
    });
    match &args[1..] {
        [mode, workload, scale, trace] if mode == "run" => {
            let (Some(w), Some(scale)) = (Workload::parse(workload), Scale::parse(scale)) else {
                eprintln!("dsm-bench child: bad arguments {args:?}");
                return ExitCode::from(2);
            };
            let mut rec = if trace == "1" {
                trace::traced_run(w, scale)
            } else {
                w.run(scale)
            };
            rec.rss_kb = peak_rss_kb();
            println!("{}", workload::encode(&rec));
            ExitCode::SUCCESS
        }
        // Deliberate failures, used by the self-test to check that a failing
        // run is isolated and counted.
        [mode] if mode == "panic" => panic!("deliberate failure of a benchmark run"),
        [mode] if mode == "hang" => loop {
            std::thread::park();
        },
        _ => {
            eprintln!("dsm-bench child: bad arguments {args:?}");
            ExitCode::from(2)
        }
    }
}

/// High-water resident set of this process, in KiB (Linux `VmHWM`).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The result of one child run.
pub enum Outcome {
    Ok(RunRecord),
    Failed(String),
}

/// Run the child process `args` and wait for it; the child ends itself
/// after `timeout`.
pub fn run_child(args: &[&str], timeout: Duration) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return Outcome::Failed(format!("cannot locate the benchmark binary: {e}")),
    };
    let output = Command::new(exe)
        .arg("--child")
        .arg(timeout.as_millis().to_string())
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => return Outcome::Failed(format!("cannot run the workload: {e}")),
    };
    if output.status.code() == Some(i32::from(TIMED_OUT)) {
        return Outcome::Failed(format!("timed out after {timeout:?}"));
    }
    if !output.status.success() {
        return Outcome::Failed(format!("run exited with {}", output.status));
    }
    match String::from_utf8_lossy(&output.stdout)
        .lines()
        .rev()
        .find_map(workload::decode)
    {
        Some(rec) => Outcome::Ok(rec),
        None => Outcome::Failed("run printed no record".into()),
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Failure accounting and the determinism check over the runs of one
/// benchmark run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reference: Option<(u64, u64)>,
    pub notes: Vec<String>,
}

impl Tally {
    /// Account for one run; returns its record when it passed every check:
    /// the output matches the oracle and the fingerprint (virtual time,
    /// event count, every DSM and wire statistic) matches the first passing
    /// run's.
    pub fn admit(&mut self, what: &str, outcome: Outcome, oracle: u64) -> Option<RunRecord> {
        self.attempted += 1;
        let failure = match outcome {
            Outcome::Failed(reason) => reason,
            Outcome::Ok(rec) if rec.output != oracle => {
                format!("wrong output {:016x} (oracle {oracle:016x})", rec.output)
            }
            Outcome::Ok(rec) => {
                let id = (rec.fingerprint, rec.virtual_ns);
                match self.reference {
                    None => {
                        self.reference = Some(id);
                        return Some(rec);
                    }
                    Some(r) if r == id => return Some(rec),
                    Some(r) => format!(
                        "determinism fingerprint {:016x} / {} ns differs from the first run's {:016x} / {} ns",
                        id.0, id.1, r.0, r.1
                    ),
                }
            }
        };
        self.failed += 1;
        self.notes.push(format!("FAILED {what} run: {failure}"));
        None
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn child_args(plan: Plan, traced: bool) -> [&'static str; 4] {
    [
        "run",
        plan.workload.name(),
        plan.scale.name(),
        if traced { "1" } else { "0" },
    ]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn spread_note(name: &str, v: &[f64]) -> String {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = (s.first().copied(), s.last().copied());
    format!(
        "{name}: median {:.6} min {:.6} max {:.6} samples {}",
        median(&s),
        lo.unwrap_or(0.0),
        hi.unwrap_or(0.0),
        s.len()
    )
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
/// Time the hypervisor gives other guests slows every host-time metric, so
/// each run reports its share.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Run one benchmark run as `plan` describes.
pub fn measure(plan: Plan) -> Report {
    let oracle = plan.workload.oracle(plan.scale);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let mut setups: Vec<probes::SetupSpans> = Vec::new();
    let cpu_before = cpu_times();
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let mut untraced: Vec<RunRecord> = Vec::new();
    let mut traced: Vec<RunRecord> = Vec::new();
    let mut round = 0usize;
    while round < MIN_RUNS || Instant::now() < deadline {
        setups.extend((0..SETUPS_PER_ROUND).map(|_| probes::bring_up(plan.workload, plan.scale)));
        let outcome = run_child(&child_args(plan, false), RUN_TIMEOUT);
        if let Some(rec) = tally.admit("untraced", outcome, oracle) {
            untraced.push(rec);
        }
        if plan.trace {
            let outcome = run_child(&child_args(plan, true), RUN_TIMEOUT);
            if let Some(rec) = tally.admit("traced", outcome, oracle) {
                traced.push(rec);
            }
        }
        round += 1;
    }

    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        notes.push(format!(
            "host steal: {:.1}% of CPU time while the runs executed",
            share * 100.0
        ));
    }
    let setup_ms = |f: fn(&probes::SetupSpans) -> u64| -> f64 {
        median(&setups.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>())
    };
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    notes.push(spread_note("wall_s", &walls));
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_ns() as f64 / 1e9).collect();
    notes.push(spread_note("setup_s", &setup_s));
    let wall_s = median(&walls);

    let correct = tally.failed == 0 && !untraced.is_empty() && (!plan.trace || !traced.is_empty());
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if plan.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
        notes.push(spread_note("traced wall_s", &traced_walls));
        let rec = traced.first().cloned().unwrap_or_default();
        let spans = rec.trace.clone().unwrap_or_default();
        let c = &rec.counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let faults = c.read_faults + c.write_faults;
        let (access_ns, lookup_ns) = probes::access_probe(plan.workload, plan.scale);
        let (diff_compute_ns, diff_apply_ns) = probes::diff_probe(plan.workload, plan.scale);
        let fault = probes::fault_probe(plan.workload);
        values.extend([
            ("sim.events", c.events as f64),
            ("sim.context_switches", c.context_switches as f64),
            (
                "sim.host_ns_per_event",
                if c.events == 0 {
                    0.0
                } else {
                    wall_s * 1e9 / c.events as f64
                },
            ),
            (
                "sim.handoff_ns.continuation",
                probes::handoff_probe(false, plan.scale),
            ),
            (
                "sim.handoff_ns.baton",
                probes::handoff_probe(true, plan.scale),
            ),
            ("core.access_ns", access_ns),
            ("core.page_table_lookup_ns", lookup_ns),
            ("core.diff_compute_ns", diff_compute_ns),
            ("core.diff_apply_ns", diff_apply_ns),
            ("core.local_accesses", c.local_accesses as f64),
            ("core.read_faults", c.read_faults as f64),
            ("core.write_faults", c.write_faults as f64),
            (
                "core.hit_ratio",
                ratio(c.local_accesses, c.local_accesses + faults),
            ),
            ("core.page_transfers", c.page_transfers as f64),
            ("core.page_bytes", c.page_bytes as f64),
            ("core.invalidations", c.invalidations as f64),
            ("core.twins_created", c.twins_created as f64),
            ("core.diffs_sent", c.diffs_sent as f64),
            ("core.diff_bytes", c.diff_bytes as f64),
            ("core.barrier_wait_virtual_us.p50", spans.barrier_wait_us.0),
            ("core.barrier_wait_virtual_us.p90", spans.barrier_wait_us.1),
            ("core.lock_hold_virtual_us.p50", spans.lock_hold_us.0),
            ("core.lock_hold_virtual_us.p90", spans.lock_hold_us.1),
            ("core.malloc_ms", setup_ms(|s| s.malloc_ns)),
            ("protocols.read_fault_virtual_us.p50", fault.read_us.0),
            ("protocols.read_fault_virtual_us.p90", fault.read_us.1),
            ("protocols.write_fault_virtual_us.p50", fault.write_us.0),
            ("protocols.write_fault_virtual_us.p90", fault.write_us.1),
            ("protocols.server_host_ns", fault.server_ns),
            ("protocols.forward_ratio", ratio(c.request_forwards, faults)),
            ("protocols.register_ms", setup_ms(|s| s.register_ns)),
            ("madeleine.messages", c.messages as f64),
            ("madeleine.message_bytes", c.message_bytes as f64),
            ("madeleine.envelopes", c.envelopes as f64),
            (
                "madeleine.messages_per_envelope",
                ratio(c.messages, c.envelopes),
            ),
            ("madeleine.stall_us", c.stall_ns as f64 / 1e3),
            ("madeleine.retransmits", c.retransmits as f64),
            (
                "madeleine.send_ns",
                probes::send_probe(plan.workload, plan.scale),
            ),
            ("pm2.rpc_ns", probes::rpc_probe(plan.scale)),
            ("pm2.bringup_ms", setup_ms(|s| s.bringup_ns)),
            ("workloads.tsp_expanded", c.tsp_expanded as f64),
            ("trace_overhead", median(&traced_walls) / wall_s),
        ]);
    } else {
        let rss: Vec<f64> = untraced.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
        notes.push(spread_note("peak_rss_mb", &rss));
        values.extend([
            ("wall_s", wall_s),
            ("setup_s", median(&setup_s)),
            (
                "virtual_s",
                untraced.first().map_or(0.0, |r| r.virtual_ns as f64 / 1e9),
            ),
            ("peak_rss_mb", median(&rss)),
        ]);
    }
    notes.push(format!(
        "runs attempted={} failed={} (failed_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    notes.extend(tally.notes);
    let table = if plan.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("no value measured for metric {}", m.name))
                .1;
            (m, v)
        })
        .collect();
    Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
