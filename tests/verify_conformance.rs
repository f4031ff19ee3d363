//! Conformance suite for the verify layer.
//!
//! Three properties keep the observer honest:
//!
//! 1. **Zero-cost observation** — a fully instrumented run (log recording
//!    plus per-step invariant probing) is bit-identical to an
//!    uninstrumented run: same final memory, same final virtual time, same
//!    event count, same per-thread observations.
//! 2. **Detector determinism** — the race detector's verdict over a
//!    scenario is identical under both handoff modes.
//! 3. **Replay fidelity** (property test) — feeding any decision path to a
//!    [`ReplayController`], recording the clamped decisions it actually
//!    took, and replaying those recorded decisions reproduces the run bit
//!    for bit. This is the foundation the schedule explorer's DFS stands
//!    on: a path *is* the run.

use std::sync::Arc;

use proptest::prelude::*;

use dsm_pm2::pm2::HandoffMode;
use dsmpm2_verify::scenario;
use dsmpm2_verify::{run_scenario, Instrument, ReplayController, RunConfig};

/// Instrumentation must not perturb the simulation: memory, virtual time,
/// event count and every observed value must match the uninstrumented run.
#[test]
fn instrumentation_is_invisible_to_the_simulation() {
    for protocol in ["li_hudak", "erc_sw", "hbrc_mw", "migrate_thread"] {
        for scn in [
            scenario::locked_counter(),
            scenario::reader_flock(),
            scenario::stale_release(),
        ] {
            let off = run_scenario(&scn, &RunConfig::plain(protocol));
            let checked = run_scenario(&scn, &RunConfig::checked(protocol));
            assert_eq!(off.error, None, "{protocol}/{}", scn.name);
            assert_eq!(
                off.fingerprint(),
                checked.fingerprint(),
                "{protocol}/{}: instrumented run diverged",
                scn.name
            );
            assert!(
                !checked.log.is_empty(),
                "{protocol}/{}: instrumented run recorded nothing",
                scn.name
            );
        }
    }
}

/// The race detector's verdict is a pure function of the schedule, not of
/// how the engine happened to execute it: both handoff modes must produce
/// the identical sorted finding list (and the same positive verdict on the
/// racy scenario). The name predates the retirement of the worker pool,
/// whose worker-count dimension this test also covered.
#[test]
fn race_verdict_is_stable_across_workers_and_handoff_modes() {
    for (scn, protocol, expect_race) in [
        (scenario::locked_counter(), "erc_sw", false),
        (scenario::unsynced_pair(), "erc_sw", true),
        (scenario::unsynced_pair(), "li_hudak", false),
    ] {
        let mut reference: Option<Vec<dsmpm2_verify::Finding>> = None;
        for handoff in [HandoffMode::Continuation, HandoffMode::Baton] {
            let cfg = RunConfig {
                handoff,
                instrument: Instrument::Record,
                ..RunConfig::plain(protocol)
            };
            let outcome = run_scenario(&scn, &cfg);
            assert_eq!(outcome.error, None, "{protocol}/{} {handoff:?}", scn.name);
            let findings = outcome.race_findings();
            assert_eq!(
                !findings.is_empty(),
                expect_race,
                "{protocol}/{} {handoff:?}: {findings:?}",
                scn.name
            );
            match &reference {
                None => reference = Some(findings),
                Some(reference) => assert_eq!(
                    &findings, reference,
                    "{protocol}/{} {handoff:?}: verdict changed",
                    scn.name
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Any decision path, once clamped and recorded by the controller,
    /// replays to a bit-identical run.
    #[test]
    fn recorded_schedules_replay_bit_identically(
        path in proptest::collection::vec(0u8..4, 0..12),
        proto_idx in 0usize..3,
    ) {
        let protocol = ["li_hudak", "erc_sw", "hbrc_mw"][proto_idx];
        let scn = scenario::locked_counter();
        let base = RunConfig {
            transport: dsm_pm2::pm2::TransportTuning::permuted(),
            ..RunConfig::checked(protocol)
        };

        let first_controller = Arc::new(ReplayController::new(path.clone()));
        let mut cfg = base.clone();
        cfg.controller = Some(first_controller.clone());
        let first = run_scenario(&scn, &cfg);
        prop_assert_eq!(&first.error, &None);

        // Replay exactly what the first run decided (after clamping).
        let recorded: Vec<u8> = first_controller
            .recorded()
            .iter()
            .map(|c| c.picked.min(255) as u8)
            .collect();
        let second_controller = Arc::new(ReplayController::new(recorded));
        let mut cfg = base.clone();
        cfg.controller = Some(second_controller.clone());
        let second = run_scenario(&scn, &cfg);

        prop_assert_eq!(first.fingerprint(), second.fingerprint(),
            "replay diverged under {}", protocol);
        prop_assert_eq!(first_controller.recorded(), second_controller.recorded(),
            "replay took different decisions under {}", protocol);
    }
}
