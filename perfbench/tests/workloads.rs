//! The benchmark's own tests: deterministic op streams, answer checks
//! passing on tiny inputs, and the printed metric set matching
//! `BENCHMARK.json`.

use causality_perfbench::run::{run, RunConfig};
use causality_perfbench::workload::{Inputs, Size, Step, Stream, Workload};

fn segments(workload: Workload, seed: u64) -> Vec<Vec<Step>> {
    let inputs = Inputs::generate(workload, &Size::TINY);
    let mut stream = Stream::new(&inputs, seed, &Size::TINY);
    (0..3).map(|_| stream.next_segment(40)).collect()
}

#[test]
fn one_seed_always_generates_the_same_op_streams() {
    for workload in Workload::ALL {
        let a = segments(workload, 7);
        assert_eq!(a, segments(workload, 7), "{}", workload.name());
        assert_ne!(a, segments(workload, 8), "{}", workload.name());
        assert!(a.iter().all(|s| s.len() == 40));
    }
}

#[test]
fn every_workload_writes_and_reads() {
    for workload in Workload::ALL {
        let steps: Vec<Step> = segments(workload, 3).concat();
        let reads = steps
            .iter()
            .filter(|s| matches!(s, Step::Read { .. } | Step::Round { .. }))
            .count();
        let writes = steps
            .iter()
            .filter(|s| matches!(s, Step::Write { .. } | Step::Round { .. }))
            .count();
        assert!(reads > 0 && writes > 0, "{}", workload.name());
    }
}

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 5,
        seconds: 0.05,
        trace,
        size: Size::TINY,
        spans_out: None,
    }
}

/// The `name` fields of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn tiny_runs_pass_their_answer_checks_and_print_the_declared_metrics() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&tiny(workload, trace));
            assert!(report.correct, "{}: {:?}", workload.name(), report.errors);
            assert_eq!(report.failed, 0, "{}", workload.name());
            assert!(report.attempted > 0);
            let printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, declared(list), "{} {list}", workload.name());
            assert!(report.json().contains("\"correct\": true"));
        }
    }
}

#[test]
fn declared_workloads_are_benchmark_workloads() {
    let declared = declared("workloads");
    assert!(declared.len() >= 2);
    for name in declared {
        assert!(Workload::parse(&name).is_some(), "{name}");
    }
}
