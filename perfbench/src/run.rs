//! One benchmark run: host probe, set-up, closed-loop timed segments
//! with answer checks (and further set-ups) between them, and the
//! metrics.

use crate::check::{Checker, Record};
use crate::measure::{host_stall_probe, median, peak_rss_mb, process_cpu_ns, CpuPin, Histogram};
use crate::trace::Tracer;
use crate::workload::{build_tier, Inputs, Size, Step, Stream, Workload, HARD_DEADLINE_MS};
use causality_engine::Snapshot;
use causality_service::{ExplainResponse, ServiceError, ShardedService, TenantId};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op stream.
    pub seed: u64,
    /// Measured (timed) seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Set-ups per run; `setup_s` is their median. The first builds the
/// measured tier; the others are spread evenly over the measured phase,
/// between segments, so that they sample the host as the whole run
/// does rather than as it was in the first second.
const SETUPS: usize = 21;
/// Length and rate of the host-stall probe.
const PROBE: Duration = Duration::from_millis(500);
const PROBE_HZ: f64 = 4000.0;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of a run.
pub struct Report {
    /// Every answer check passed.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored or were refused.
    pub failed: u64,
    /// The metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Diagnostics that are printed but not part of the metric set.
    pub notes: Vec<Metric>,
    /// Check failures.
    pub errors: Vec<String>,
}

/// A tier with its tenants, ready to serve a workload's stream.
pub struct Bench {
    inputs: Inputs,
    tier: ShardedService,
    ids: Vec<TenantId>,
    stream: Stream,
    /// Each tenant's current snapshot, re-pinned after every write.
    pinned: Vec<Snapshot>,
    steps: u64,
}

/// Timed-phase accumulators.
#[derive(Default)]
struct Phase {
    read: Histogram,
    write: Histogram,
    hard: Histogram,
    cpu_ns: u64,
    wall_ns: u64,
    ops: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1000.0 / self.ops.max(1) as f64
    }
}

/// Build the tier for `workload` and warm it up: everything a user pays
/// before the first measured request.
pub fn set_up(workload: Workload, seed: u64, size: &Size) -> Bench {
    let inputs = Inputs::generate(workload, size);
    let (tier, ids) = build_tier(&inputs);
    let stream = Stream::new(&inputs, seed, size);
    let pinned = ids
        .iter()
        .map(|&id| tier.snapshot(id).expect("registered tenant"))
        .collect();
    let mut bench = Bench {
        inputs,
        tier,
        ids,
        stream,
        pinned,
        steps: 0,
    };
    let warmup = bench.stream.next_segment(size.warmup(workload));
    let (mut phase, mut records) = (Phase::default(), Vec::new());
    let mut tracer = Tracer::new(false);
    for step in warmup {
        bench.execute(step, true, &mut phase, &mut records, &mut tracer);
    }
    bench
}

/// Unwrap a submit-and-wait outcome, counting refusals and errors.
fn answered(
    phase: &mut Phase,
    outcome: Result<ExplainResponse, ServiceError>,
) -> Option<ExplainResponse> {
    phase.attempted += 1;
    match outcome {
        Ok(r) if r.result.is_ok() => {
            phase.ops += 1;
            Some(r)
        }
        _ => {
            phase.failed += 1;
            None
        }
    }
}

impl Bench {
    /// Stop the tier and join its threads.
    pub fn shutdown(self) {
        self.tier.shutdown();
    }

    fn read(
        &mut self,
        tenant: usize,
        request: causality_service::ExplainRequest,
        phase: &mut Phase,
    ) -> (Option<ExplainResponse>, Instant, Instant) {
        let t0 = Instant::now();
        let outcome = self
            .tier
            .submit(self.ids[tenant], request)
            .and_then(|p| p.wait());
        let t1 = Instant::now();
        phase.read.record(t1 - t0);
        (answered(phase, outcome), t0, t1)
    }

    fn write(
        &mut self,
        step: u64,
        tenant: usize,
        toggle: crate::workload::Toggle,
        phase: &mut Phase,
        records: &mut Vec<Record>,
    ) -> (Instant, Instant) {
        let rel = self.inputs.tenants[tenant].toggled;
        let t0 = Instant::now();
        let outcome = self
            .tier
            .update(self.ids[tenant], |db| toggle.apply(db, rel));
        let t1 = Instant::now();
        phase.write.record(t1 - t0);
        phase.attempted += 1;
        match outcome {
            Ok(_) => {
                phase.ops += 1;
                let after = self.tier.snapshot(self.ids[tenant]).expect("registered");
                let before = std::mem::replace(&mut self.pinned[tenant], after.clone());
                records.push(Record::Write {
                    step,
                    rel,
                    toggle,
                    before,
                    after,
                });
            }
            Err(_) => phase.failed += 1,
        }
        (t0, t1)
    }

    /// Run one step closed-loop. `with_hard: false` drops the NP-hard
    /// request from a `hard_mix` round (the traced run's "alone" pass).
    fn execute(
        &mut self,
        step: Step,
        with_hard: bool,
        phase: &mut Phase,
        records: &mut Vec<Record>,
        tracer: &mut Tracer,
    ) {
        self.steps += 1;
        let n = self.steps;
        let begin = Instant::now();
        match step {
            Step::Read { tenant, request } => {
                let snapshot = self.pinned[tenant].clone();
                let (response, t0, t1) = self.read(tenant, request.clone(), phase);
                if let Some(response) = response {
                    records.push(Record::Read {
                        step: n,
                        tenant,
                        request,
                        snapshot,
                        response,
                        latency_ns: (t1 - t0).as_nanos() as u64,
                    });
                }
                let root = tracer.span("step.read", n, None, begin, Instant::now());
                tracer.span("tier.read", n, root, t0, t1);
            }
            Step::Write { tenant, toggle } => {
                let (t0, t1) = self.write(n, tenant, toggle, phase, records);
                let root = tracer.span("step.write", n, None, begin, Instant::now());
                tracer.span("tier.write", n, root, t0, t1);
            }
            Step::Round { read, toggle } => {
                let hard = with_hard.then(|| {
                    let request = self
                        .inputs
                        .hard
                        .clone()
                        .expect("hard_mix has a hard request");
                    let budget = Duration::from_millis(HARD_DEADLINE_MS);
                    (
                        Instant::now(),
                        self.tier.submit_with_deadline(self.ids[0], request, budget),
                    )
                });
                let snapshot = self.pinned[1].clone();
                let t0 = Instant::now();
                let pending = self.tier.submit(self.ids[1], read.clone());
                let mut hard_span = None;
                if let Some((h0, submitted)) = hard {
                    let outcome = submitted.and_then(|p| p.wait());
                    let h1 = Instant::now();
                    phase.hard.record(h1 - h0);
                    hard_span = Some((h0, h1));
                    if let Some(response) = answered(phase, outcome) {
                        records.push(Record::Hard {
                            step: n,
                            snapshot: self.pinned[0].clone(),
                            response,
                        });
                    }
                }
                let outcome = pending.and_then(|p| p.wait());
                let t1 = Instant::now();
                phase.read.record(t1 - t0);
                if let Some(response) = answered(phase, outcome) {
                    records.push(Record::Read {
                        step: n,
                        tenant: 1,
                        request: read,
                        snapshot,
                        response,
                        latency_ns: (t1 - t0).as_nanos() as u64,
                    });
                }
                let (w0, w1) = self.write(n, 1, toggle, phase, records);
                let root = tracer.span("step.round", n, None, begin, Instant::now());
                if let Some((h0, h1)) = hard_span {
                    tracer.span("tier.hard", n, root, h0, h1);
                }
                tracer.span("tier.read", n, root, t0, t1);
                tracer.span("tier.write", n, root, w0, w1);
            }
        }
    }

    /// Run closed-loop segments for `seconds` of timed work, checking
    /// each segment's answers after its timer stops. `between` runs after
    /// each check, outside the timed work, with the timed work so far.
    fn measure(
        &mut self,
        seconds: f64,
        size: &Size,
        with_hard: bool,
        checker: &mut Checker,
        tracer: &mut Tracer,
        mut between: impl FnMut(Duration),
    ) -> Phase {
        let mut phase = Phase::default();
        let budget = Duration::from_secs_f64(seconds.max(0.0));
        let seg = size.segment(self.inputs.workload);
        let mut timed = Duration::ZERO;
        loop {
            let steps = self.stream.next_segment(seg);
            let mut records = Vec::with_capacity(steps.len() * 2);
            let cpu0 = process_cpu_ns();
            let start = Instant::now();
            for step in steps {
                self.execute(step, with_hard, &mut phase, &mut records, tracer);
                if timed + start.elapsed() >= budget {
                    break;
                }
            }
            let elapsed = start.elapsed();
            phase.cpu_ns += process_cpu_ns() - cpu0;
            timed += elapsed;
            checker.check(records, tracer);
            between(timed);
            if timed >= budget {
                break;
            }
        }
        phase.wall_ns = timed.as_nanos() as u64;
        phase
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> Report {
    let probe = host_stall_probe(PROBE, PROBE_HZ);
    // After the probe, so the probe still sees cross-CPU wake-ups; the
    // tiers set up below start their threads on the pinned CPU.
    let pin = cfg.workload.pinned().then(CpuPin::lowest).flatten();

    let timed_set_up = || {
        let t0 = Instant::now();
        let bench = set_up(cfg.workload, cfg.seed, &cfg.size);
        (bench, t0.elapsed().as_secs_f64())
    };
    let (mut bench, first) = timed_set_up();
    let mut setup_s = vec![first];
    let hard_mix = cfg.workload == Workload::HardMix;

    let mut checker = Checker::new(bench.inputs.hard.clone());
    let mut tracer = Tracer::new(false);
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The traced run reports no `setup_s`, so it skips the extra set-ups.
    let extra_setups = if cfg.trace { 0 } else { SETUPS - 1 };
    let spread = |timed: Duration| {
        let due = setup_s.len() - 1;
        if due < extra_setups && timed.as_secs_f64() >= seconds * due as f64 / extra_setups as f64 {
            let (extra, took) = timed_set_up();
            extra.shutdown();
            setup_s.push(took);
        }
    };
    let plain = bench.measure(seconds, &cfg.size, true, &mut checker, &mut tracer, spread);

    let mut notes = vec![
        metric("host.stall_p99_ms", "ms", probe.p99_ms),
        metric(
            "host.stalls_over_5ms",
            "count",
            probe.stalls_over_5ms as f64,
        ),
        metric("host.pings", "count", probe.pings as f64),
        metric(
            "pinned_cpus",
            "count",
            if pin.is_some() { 1.0 } else { 0.0 },
        ),
        metric("setups", "count", setup_s.len() as f64),
        metric("timed_s", "s", plain.wall_ns as f64 / 1e9),
        metric(
            "ops_per_s",
            "1/s",
            plain.ops as f64 * 1e9 / plain.wall_ns.max(1) as f64,
        ),
    ];
    for (hist, [tail, at, n]) in [
        (
            &plain.read,
            ["read.tail_ms", "read.tail_pct", "read.samples"],
        ),
        (
            &plain.write,
            ["write.tail_ms", "write.tail_pct", "write.samples"],
        ),
        (
            &plain.hard,
            ["hard.tail_ms", "hard.tail_pct", "hard.samples"],
        ),
    ] {
        if let Some((pct, ms)) = hist.tail_ms() {
            notes.push(metric(tail, "ms", ms));
            notes.push(metric(at, "%", pct));
            notes.push(metric(n, "count", hist.len() as f64));
        }
    }
    if hard_mix {
        notes.push(metric("hard_p50_ms", "ms", plain.hard.quantile_ms(0.5)));
        notes.push(metric("bound_width", "rho", mean(&checker.bound_widths)));
    }

    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let metrics = if !cfg.trace {
        vec![
            metric("setup_s", "s", median(&mut setup_s)),
            metric("read_p50_ms", "ms", plain.read.quantile_ms(0.5)),
            metric("write_p50_ms", "ms", plain.write.quantile_ms(0.5)),
            metric("cpu_us_per_op", "us", plain.cpu_us_per_op()),
            metric("peak_rss_mb", "MiB", peak_rss_mb()),
        ]
    } else {
        bench.tier.snapshot_and_reset();
        tracer.set_enabled(true);
        let traced = bench.measure(seconds, &cfg.size, true, &mut checker, &mut tracer, |_| {});
        let stats = bench.tier.stats().aggregate();
        attempted += traced.attempted;
        failed += traced.failed;
        let plain_p50 = plain.read.quantile_ns(0.5);
        let traced_p50 = traced.read.quantile_ns(0.5);
        if hard_mix {
            // The same rounds without the NP-hard request: what the PTIME
            // read costs when nothing is queued ahead of it.
            tracer.set_enabled(false);
            let alone = bench.measure(
                seconds / 4.0,
                &cfg.size,
                false,
                &mut checker,
                &mut tracer,
                |_| {},
            );
            attempted += alone.attempted;
            failed += alone.failed;
            let wait_ms = (traced_p50 - alone.read.quantile_ns(0.5)) / 1e6;
            notes.push(metric("service.queue_wait_ms", "ms", wait_ms));
            notes.push(metric(
                "ptime_alone_p50_ms",
                "ms",
                alone.read.quantile_ms(0.5),
            ));
            notes.push(metric(
                "service.approx_refinements",
                "count",
                stats.approx_refinements as f64,
            ));
        }
        let by_name = tracer.self_times_by_name();
        let p50_us = |name: &str| {
            let mut v = by_name.get(name).cloned().unwrap_or_default();
            median(&mut v) / 1000.0
        };
        // `ExplainTiming` counts whole µs, so a median of it would read
        // the same integer on most runs; its mean keeps the fraction.
        let mean_us = |name: &str| mean(by_name.get(name).map_or(&[][..], |v| v)) / 1000.0;
        if hard_mix {
            notes.push(metric(
                "core.approx_solve_us",
                "us",
                p50_us("core.approx_solve"),
            ));
            notes.push(metric(
                "core.approx_refinements",
                "count",
                checker.layers.approx_refinements as f64,
            ));
        }
        let layers = &mut checker.layers;
        let service_us = median(&mut layers.service_ns) / 1000.0;
        let path_us = service_us
            + (median(&mut layers.lineage_path_ns)
                + median(&mut layers.solve_path_ns)
                + median(&mut layers.core_rest_path_ns))
                / 1000.0;
        let (tail_pct, tail_ms) = traced.read.tail_ms().unwrap_or((50.0, 0.0));
        if let Some(path) = &cfg.spans_out {
            if let Err(e) = tracer.write_jsonl(path, 50_000) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
        vec![
            metric("service.overhead_us", "us", service_us),
            metric("service.hit_rate", "ratio", stats.hit_rate()),
            metric("service.mean_batch", "count", stats.mean_batch_size()),
            metric("engine.eval_us", "us", p50_us("engine.eval")),
            metric("engine.publish_us", "us", p50_us("engine.publish")),
            metric("lineage.build_us", "us", mean_us("lineage.build")),
            metric("lineage.conjuncts", "count", mean(&layers.conjuncts)),
            metric("core.solve_us", "us", mean_us("core.solve")),
            metric("core.classify_us", "us", p50_us("core.classify")),
            metric("host.stall_p99_ms", "ms", probe.p99_ms),
            metric("read.tail_ms", "ms", tail_ms),
            metric("read.tail_pct", "%", tail_pct),
            metric("read.samples", "count", traced.read.len() as f64),
            metric(
                "trace.overhead_pct",
                "%",
                (traced_p50 - plain_p50) / plain_p50.max(1.0) * 100.0,
            ),
            metric(
                "share.read_p50",
                "ratio",
                path_us * 1000.0 / traced_p50.max(1.0),
            ),
        ]
    };
    bench.shutdown();
    drop(pin);

    Report {
        correct: checker.errors.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
        errors: checker.errors,
    }
}

/// Render a number for JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
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
