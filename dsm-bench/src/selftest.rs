//! `dsm-bench --self-test`: every workload at a tiny size, in seconds.
//!
//! It runs the whole measurement pipeline on each workload, untraced and
//! traced, and checks the printed result against the output schema and the
//! metric list `BENCHMARK.json` declares (when the file is in the current
//! directory). It then checks the failure accounting: a run that panics, a
//! run that hangs, a run whose fingerprint disagrees and a run with a wrong
//! output each count as failed without stopping the runs after them, and
//! the environment guard refuses to report numbers.

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde_json::Value;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workload::{Scale, Workload};
use crate::{measure, run_child, Outcome, Plan, Tally};

pub fn run() -> ExitCode {
    let mut problems = Vec::new();
    let declared = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => match declared_metrics(&text) {
            Ok(d) => Some(d),
            Err(e) => {
                problems.push(format!("BENCHMARK.json: {e}"));
                None
            }
        },
        Err(_) => {
            println!("self-test: no BENCHMARK.json here; checking the built-in metric list only");
            None
        }
    };
    if let Some((e2e, layer)) = &declared {
        for (table, listed, what) in [
            (END_TO_END, e2e, "end_to_end"),
            (PER_LAYER, layer, "per_layer"),
        ] {
            if !same_metrics(table, listed) {
                problems.push(format!(
                    "BENCHMARK.json {what} differs from what the benchmark reports"
                ));
            }
        }
    }

    for w in Workload::ALL {
        for trace in [false, true] {
            let report = measure(Plan {
                workload: w,
                scale: Scale::Quick,
                seconds: 0.0,
                trace,
            });
            let json = report.json();
            let table = if trace { PER_LAYER } else { END_TO_END };
            let label = format!("{} trace={}", w.name(), u8::from(trace));
            match check_result(&json, table) {
                Ok(()) if report.correct && report.failed == 0 => {
                    println!("self-test: {label}: ok ({} runs)", report.attempted)
                }
                Ok(()) => problems.push(format!("{label}: incorrect: {:?}", report.notes)),
                Err(e) => problems.push(format!("{label}: bad result line: {e}: {json}")),
            }
        }
    }

    check_failure_accounting(&mut problems);
    check_environment_guard(&mut problems);

    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("self-test: FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}

fn check_failure_accounting(problems: &mut Vec<String>) {
    let w = Workload::JacobiLocal;
    let oracle = w.oracle(Scale::Quick);
    let good_args = ["run", w.name(), Scale::Quick.name(), "0"];
    let mut tally = Tally::default();
    let expect_failed = |tally: &mut Tally, what: &str, outcome: Outcome| {
        if tally.admit(what, outcome, oracle).is_some() {
            Err(format!("a {what} run was not counted as failed"))
        } else {
            Ok(())
        }
    };
    let mut results = vec![
        expect_failed(
            &mut tally,
            "panicking",
            run_child(&["panic"], Duration::from_secs(30)),
        ),
        expect_failed(
            &mut tally,
            "hanging",
            run_child(&["hang"], Duration::from_secs(1)),
        ),
    ];
    match tally.admit(
        "good",
        run_child(&good_args, Duration::from_secs(30)),
        oracle,
    ) {
        Some(good) => {
            let mut drifted = good.clone();
            drifted.fingerprint ^= 1;
            results.push(expect_failed(
                &mut tally,
                "fingerprint-drifted",
                Outcome::Ok(drifted),
            ));
            let mut wrong = good;
            wrong.output ^= 1;
            results.push(expect_failed(
                &mut tally,
                "wrong-output",
                Outcome::Ok(wrong),
            ));
        }
        None => results.push(Err(format!(
            "a good run after two failed ones did not pass: {:?}",
            tally.notes
        ))),
    }
    for r in results {
        if let Err(e) = r {
            problems.push(e);
        }
    }
    if tally.attempted != 5 || tally.failed != 4 {
        problems.push(format!(
            "failure accounting: attempted {} failed {} (expected 5 and 4)",
            tally.attempted, tally.failed
        ));
    } else {
        println!("self-test: failure isolation and accounting: ok");
    }
}

fn check_environment_guard(problems: &mut Vec<String>) {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            problems.push(format!("cannot locate the benchmark binary: {e}"));
            return;
        }
    };
    let out = Command::new(exe)
        .args([
            "--workload",
            "jacobi_local",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .env("DSM_SIM_WORKERS", "2")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    match out {
        Ok(o)
            if !o.status.success()
                && !String::from_utf8_lossy(&o.stdout).contains("\"metrics\"") =>
        {
            println!("self-test: environment guard: ok")
        }
        Ok(o) => problems.push(format!(
            "the benchmark reported numbers with DSM_SIM_WORKERS set (status {})",
            o.status
        )),
        Err(e) => problems.push(format!("cannot run the environment-guard check: {e}")),
    }
}

/// `(name, unit)` pairs of the `end_to_end` and `per_layer` lists.
type Declared = (Vec<(String, String)>, Vec<(String, String)>);

fn declared_metrics(text: &str) -> Result<Declared, String> {
    let doc = serde_json::from_str_value(text).map_err(|e| format!("{e:?}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let Some(Value::Array(items)) = doc.get(key) else {
            return Err(format!("no {key} list"));
        };
        items
            .iter()
            .map(|item| match (item.get("name"), item.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("{key} entry without name or unit")),
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

fn same_metrics(table: &[Metric], listed: &[(String, String)]) -> bool {
    table.len() == listed.len()
        && table
            .iter()
            .zip(listed)
            .all(|(m, (n, u))| m.name == n && m.unit == u)
}

/// Check one printed result line against the output schema: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`; whole-number counts with
/// `attempted` at least 1; and exactly the metrics of `table`, each with a
/// numeric value and its unit.
fn check_result(line: &str, table: &[Metric]) -> Result<(), String> {
    let doc = serde_json::from_str_value(line).map_err(|e| format!("not JSON: {e:?}"))?;
    let Value::Object(fields) = &doc else {
        return Err("not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("keys {keys:?}"));
    }
    if !matches!(doc.get("correct"), Some(Value::Bool(_))) {
        return Err("correct is not a boolean".into());
    }
    match doc.get("attempted") {
        Some(Value::UInt(n)) if *n >= 1 => {}
        other => return Err(format!("attempted is {other:?}")),
    }
    if !matches!(doc.get("failed"), Some(Value::UInt(_))) {
        return Err("failed is not a whole number".into());
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            table.len()
        ));
    }
    for (m, (name, value)) in table.iter().zip(metrics) {
        if m.name != name {
            return Err(format!("metric {name} where {} was expected", m.name));
        }
        match (value.get("value"), value.get("unit")) {
            (Some(Value::Float(_) | Value::UInt(_) | Value::Int(_)), Some(Value::String(unit)))
                if unit == m.unit => {}
            _ => return Err(format!("metric {name} has a bad value or unit: {value:?}")),
        }
    }
    Ok(())
}
