//! Criterion bench for the scheduler hand-off: wall-clock cost of a
//! simulated step (one event pop + one grant + one return) under the
//! continuation and futex-baton substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsmpm2_sim::{Engine, EngineConfig, HandoffMode, SimTuning};

fn run_steps(tuning: SimTuning, steps: u64) -> u64 {
    let mut engine = Engine::with_config(EngineConfig {
        tuning,
        ..EngineConfig::default()
    });
    engine.spawn("stepper", move |h| {
        for _ in 0..steps {
            h.yield_now();
        }
    });
    engine.run().expect("bench run must complete").events
}

fn bench_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_handoff");
    group.sample_size(10);
    for (label, tuning) in [
        (
            "continuation",
            SimTuning::default().with_handoff(HandoffMode::Continuation),
        ),
        ("futex", SimTuning::baton()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("10k_steps", label),
            &tuning,
            |b, &tuning| b.iter(|| run_steps(tuning, 10_000)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_handoff);
criterion_main!(benches);
