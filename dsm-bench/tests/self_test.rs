//! Runs `dsm-bench --self-test` from the repository root, where it also
//! checks the metric lists of `BENCHMARK.json` against what it reports.

use std::process::Command;

#[test]
fn self_test_passes() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_dsm-bench"))
        .arg("--self-test")
        .current_dir(root)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-test failed:\n{stdout}");
    assert!(stdout.contains("self-test: ok"), "{stdout}");
}
