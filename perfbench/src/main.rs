//! `causality_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name = value unit` line per metric and diagnostic, then,
//! as the last line, the JSON result. Exits 1 if an answer check fails,
//! 2 on bad arguments.

use causality_perfbench::run::{run, RunConfig};
use causality_perfbench::workload::{Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("{msg}");
    eprintln!(
        "usage: causality_perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        size: Size::FULL,
        spans_out: trace.then(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-{seed}.jsonl",
                workload.name()
            ))
        }),
    };
    let report = run(&cfg);
    let kind = if trace { "per-layer" } else { "end-to-end" };
    for m in &report.metrics {
        println!(
            "{} {kind} {} = {} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for m in &report.notes {
        println!(
            "{} diagnostic {} = {} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{} failed {} of {} operations ({:.4}%)",
        workload.name(),
        report.failed,
        report.attempted,
        100.0 * report.failed as f64 / report.attempted.max(1) as f64
    );
    for e in &report.errors {
        println!("{} check failed: {e}", workload.name());
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
