//! Tier-1 guard: the benchmark itself keeps working. Every workload runs
//! for a moment at a reduced vocabulary, end to end and traced, and must
//! emit exactly the metrics `BENCHMARK.json` names, all finite, with no
//! failed operation.

use std::time::Instant;

use crate::fixture::Scale;
use crate::report::{names_in, Outcome, END_TO_END, PER_LAYER};
use crate::{run_workload, trace_workload, WORKLOADS};

const SEED: u64 = 5;
const SECONDS: f64 = 0.2;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn assert_emits(outcome: &Outcome, names: &[String]) {
    for name in names {
        let values: Vec<f64> = outcome
            .metrics
            .iter()
            .filter(|m| &m.name == name)
            .map(|m| m.value)
            .collect();
        assert_eq!(
            values.len(),
            1,
            "{} emits {name} {} times",
            outcome.workload,
            values.len()
        );
        assert!(
            values[0].is_finite(),
            "{} {name} = {}",
            outcome.workload,
            values[0]
        );
    }
    assert_eq!(
        outcome.failed, 0,
        "{}: {:?}",
        outcome.workload, outcome.notes
    );
    assert!(outcome.attempted > 0);
    assert!(
        outcome.correct(),
        "{}: {:?}",
        outcome.workload,
        outcome.notes
    );
}

#[test]
fn benchmark_json_names_what_the_code_emits() {
    let json = benchmark_json();
    assert_eq!(names_in(&json, "workloads"), WORKLOADS);
    assert_eq!(names_in(&json, "end_to_end"), END_TO_END);
    assert_eq!(names_in(&json, "per_layer"), PER_LAYER);
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    let started = Instant::now();
    let json = benchmark_json();
    let end_to_end = names_in(&json, "end_to_end");
    let per_layer = names_in(&json, "per_layer");
    for workload in WORKLOADS {
        let outcome = run_workload(workload, &Scale::SMOKE, SEED, SECONDS);
        assert_emits(&outcome, &end_to_end);
        assert_eq!(outcome.get("failed_share"), Some(0.0));
        for name in &end_to_end {
            assert!(outcome.get(name) > Some(0.0), "{workload} {name} is 0");
        }

        let traced = trace_workload(workload, &Scale::SMOKE, SEED, SECONDS);
        assert_emits(&traced.outcome, &per_layer);
        assert!(!traced.tracer.spans.is_empty());
    }
    assert!(
        started.elapsed().as_secs_f64() < 5.0,
        "smoke run took {:?}",
        started.elapsed()
    );
}
