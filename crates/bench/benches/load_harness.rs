//! load_harness — a multi-tenant, open-loop load generator for the
//! sharded serving tier.
//!
//! The workload comes from `causality_datagen::tenants`: Zipf-hot
//! tenants issuing a skewed mix of Why-So / Why-No / rank-top-k reads
//! interleaved with cache-invalidating writes, generated deterministically
//! from one seed. A pool of client threads replays the op stream
//! **open-loop** (submit without waiting, collect the pending handles,
//! wait at the end), which is the arrival pattern bounded admission
//! exists for.
//!
//! Six phases, each asserting its claim *in the bench*:
//!
//! 1. **throughput** — the same op stream against a single-shard tier
//!    and a sharded tier (same workers per shard): warmup, stats
//!    reset, then a timed replay; latency percentiles come from the
//!    tier's own fixed-bucket histograms;
//! 2. **isolation** — warm one tenant's responsibility cache, hammer a
//!    tenant on a *different* shard with writes, and require the warm
//!    entry to survive (per-shard caches make cross-tenant eviction
//!    structurally impossible);
//! 3. **overload** — shrink the admission limit under stalled workers
//!    and require every overrun submission to be *rejected* with
//!    `Overloaded` (never dropped, never blocking) while every accepted
//!    request still resolves;
//! 4. **slow-log outlier** — a non-weakly-linear (NP-hard) triangle
//!    query served next to a stalled worker must land in the
//!    explanation slow-log with its dichotomy class and a
//!    `kernel_solve` span attached;
//! 5. **hard mix** (PR 8) — deadline-bound NP-hard triangle requests
//!    interleaved with deadline-free PTIME traffic: the hardness router
//!    must answer every hard request approximately within its budget
//!    (zero `DeadlineExceeded`, zero worker stalls), and the mixed
//!    stream's p99 is recorded as the headline tail-latency number;
//! 6. **chaos soak** (PR 9) — a seeded [`FaultPlan`] (panic bursts,
//!    worker stalls, cache poisoning, submission bursts, clock skew)
//!    is replayed against a self-healing tier driven entirely through
//!    `explain_with_retry`: every submission must come back as an
//!    answer or a retryable reject carrying a retry-after hint (zero
//!    silent drops), the wedged shard must be quarantined and restarted
//!    by the supervisor, and the tier must converge back to `Healthy`.
//!    Shard health is polled on every soak iteration and throughout
//!    every wait, and the latest incident's length — from the first poll that saw a shard leave
//!    `Healthy` to the first poll that saw all of them back — is
//!    recorded as `chaos_recovery_ms`.
//!
//! The timed replays run with **full trace sampling on** (ring of 128
//! per shard), so the throughput numbers the bench gate compares across
//! PRs already include the tracing overhead — that is the release-mode
//! overhead guard. A full run writes `BENCH_9.json` (shared manifest
//! schema, see `causality_bench::manifest`) at the repo root; the
//! telemetry artifacts `traces.jsonl`, `metrics.prom`, and
//! `slowlog.jsonl` always land under `target/load_harness/` — never in
//! the repo — in both full and `--test`/`--list` (miniature) runs.

use causality_bench::{BenchManifest, Direction};
use causality_datagen::hard_instances::dense_triangles;
use causality_datagen::tenants::{tenant_workload, TenantOp, TenantWorkload, TenantWorkloadConfig};
use causality_engine::{Database, Schema, Value};
use causality_service::{
    BreakerConfig, ExplainMode, ExplainRequest, FaultAction, FaultKind, FaultPlan, HealthState,
    ManualClock, PendingExplain, RetryPolicy, ServiceConfig, ServiceError, ShardedService,
    SupervisorConfig, TenantId, TierConfig,
};
use causality_telemetry::{Stage, TelemetryConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many client threads replay the op stream.
const CLIENTS: usize = 8;

struct HarnessConfig {
    workload: TenantWorkloadConfig,
    shards: usize,
    workers_per_shard: usize,
}

fn full_config() -> HarnessConfig {
    HarnessConfig {
        workload: TenantWorkloadConfig {
            tenants: 8,
            rows_per_tenant: 24,
            ops: 6_000,
            ..TenantWorkloadConfig::default()
        },
        shards: 4,
        workers_per_shard: 2,
    }
}

fn quick_config() -> HarnessConfig {
    HarnessConfig {
        workload: TenantWorkloadConfig {
            tenants: 4,
            rows_per_tenant: 8,
            ops: 200,
            ..TenantWorkloadConfig::default()
        },
        shards: 2,
        workers_per_shard: 1,
    }
}

/// Build a tier for the workload: queue and admission sized so the
/// open-loop replay is never rejected (the overload phase shrinks them
/// on purpose).
fn build_tier(
    workload: &TenantWorkload,
    shards: usize,
    workers: usize,
) -> (ShardedService, Vec<TenantId>) {
    let tier = ShardedService::new(TierConfig {
        shards,
        admission_limit: workload.ops.len().max(64),
        shard: ServiceConfig {
            workers,
            queue_capacity: workload.ops.len().max(64),
            telemetry: TelemetryConfig {
                trace_ring: 128,
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let tenants = workload
        .tenants
        .iter()
        .map(|spec| {
            tier.add_tenant(&spec.name, spec.db.clone())
                .expect("unique tenant names")
        })
        .collect();
    (tier, tenants)
}

fn request_of(workload: &TenantWorkload, op: &TenantOp) -> Option<(usize, ExplainRequest)> {
    match op {
        TenantOp::WhySo { tenant, answer } => Some((
            *tenant,
            ExplainRequest::why_so(workload.tenants[*tenant].query.clone(), answer.clone()),
        )),
        TenantOp::WhyNo { tenant, answer } => Some((
            *tenant,
            ExplainRequest::why_no(workload.tenants[*tenant].query.clone(), answer.clone()),
        )),
        TenantOp::RankTopK { tenant, answer, k } => Some((
            *tenant,
            ExplainRequest::rank_top_k(workload.tenants[*tenant].query.clone(), answer.clone(), *k),
        )),
        TenantOp::Write { .. } => None,
    }
}

/// Replay the op stream once across [`CLIENTS`] threads (client `c`
/// takes ops `c, c+CLIENTS, …`): reads are submitted open-loop and
/// waited at the end, writes are applied inline. Returns the wall time
/// of the whole replay and the peak aggregate queue depth observed.
fn replay(
    tier: &ShardedService,
    tenants: &[TenantId],
    workload: &TenantWorkload,
) -> (Duration, u64) {
    let peak_depth = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let peak_depth = &peak_depth;
            scope.spawn(move || {
                let mut pending: Vec<PendingExplain> = Vec::new();
                for (i, op) in workload
                    .ops
                    .iter()
                    .enumerate()
                    .skip(client)
                    .step_by(CLIENTS)
                {
                    match request_of(workload, op) {
                        Some((tenant, request)) => {
                            let handle = tier
                                .submit(tenants[tenant], request)
                                .expect("sized for zero rejects");
                            pending.push(handle);
                        }
                        None => {
                            let TenantOp::Write { tenant, value } = op else {
                                unreachable!("non-request ops are writes");
                            };
                            tier.update(tenants[*tenant], |db| {
                                let s = db.relation_id("S").expect("workload schema");
                                db.insert_endo(s, vec![value.clone()]);
                            })
                            .expect("registered tenant");
                        }
                    }
                    if i % 32 == 0 {
                        let depth = tier.stats().aggregate().queue_depth;
                        peak_depth.fetch_max(depth, Ordering::Relaxed);
                    }
                }
                for handle in pending {
                    let response = handle.wait().expect("service stays up");
                    response.result.expect("workload requests are valid");
                }
            });
        }
    });
    (start.elapsed(), peak_depth.load(Ordering::Relaxed))
}

struct PhaseNumbers {
    throughput: f64,
    p50_us: u64,
    p99_us: u64,
    cache_hit_rate: f64,
    peak_queue_depth: u64,
}

/// Telemetry captured from the timed tier before shutdown.
struct TierTelemetry {
    traces_jsonl: String,
    metrics_prom: String,
    traces_sampled: usize,
}

/// Warmup replay, stats reset, then the timed replay.
fn measure_tier(
    workload: &TenantWorkload,
    shards: usize,
    workers: usize,
) -> (PhaseNumbers, TierTelemetry) {
    let (tier, tenants) = build_tier(workload, shards, workers);
    replay(&tier, &tenants, workload);
    let warm = tier.snapshot_and_reset().aggregate();
    assert!(warm.requests > 0, "warmup really ran");

    let (elapsed, peak_queue_depth) = replay(&tier, &tenants, workload);
    let stats = tier.stats().aggregate();
    assert_eq!(
        stats.admission_rejects, 0,
        "tier is sized to accept the whole open loop"
    );
    assert_eq!(stats.queue_depth, 0, "replay fully drained");
    assert!(
        stats.p99_us() >= stats.p50_us(),
        "histogram quantiles are monotone"
    );
    assert!(
        warm.requests == stats.requests,
        "warmup and measurement replay the same stream"
    );
    let hits = stats.cache_hits as f64;
    let numbers = PhaseNumbers {
        throughput: workload.ops.len() as f64 / elapsed.as_secs_f64(),
        p50_us: stats.p50_us(),
        p99_us: stats.p99_us(),
        cache_hit_rate: hits / (hits + stats.cache_misses as f64),
        peak_queue_depth,
    };
    let traces = tier.recent_traces();
    assert!(
        !traces.is_empty(),
        "full sampling must retain traces of the timed replay"
    );
    let telemetry = TierTelemetry {
        traces_jsonl: tier.export_traces(),
        metrics_prom: tier.export_metrics(),
        traces_sampled: traces.len(),
    };
    tier.shutdown();
    (numbers, telemetry)
}

/// Slow-log outlier: serve an *easy* (weakly linear, PTIME) request and
/// a *hard* (non-weakly-linear triangle, NP-hard per Cor. 4.14) request
/// through a tier whose workers are artificially stalled, with a slow
/// threshold between the two. The hard request must land in the
/// slow-log carrying its dichotomy class and a `kernel_solve` span.
/// Returns the slow-log JSONL for the artifact dump.
fn assert_slow_log_outlier(workload: &TenantWorkload) -> String {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        admission_limit: 64,
        shard: ServiceConfig {
            workers: 1,
            telemetry: TelemetryConfig {
                slow_latency: Some(Duration::from_millis(5)),
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });

    let easy_spec = &workload.tenants[0];
    let easy = tier
        .add_tenant(&easy_spec.name, easy_spec.db.clone())
        .expect("fresh tier");

    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    db.insert_endo(s, vec![Value::int(2), Value::int(3)]);
    db.insert_endo(t, vec![Value::int(3), Value::int(1)]);
    let hard = tier.add_tenant("triangle", db).expect("fresh tier");
    let triangle =
        causality_engine::ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();

    // The easy request runs unstalled and stays under the threshold.
    let easy_req =
        ExplainRequest::why_so(easy_spec.query.clone(), vec![easy_spec.answers[0].clone()]);
    tier.explain(easy, easy_req)
        .expect("serves")
        .result
        .unwrap();

    // Stall the worker for the hard request so it overruns the slow
    // threshold deterministically.
    tier.inject_faults(|_, _, _| FaultAction {
        stall: Some(Duration::from_millis(20)),
        ..FaultAction::default()
    });
    let hard_req = ExplainRequest::why_so(triangle, vec![]);
    let resp = tier.explain(hard, hard_req).expect("serves");
    resp.result.expect("boolean triangle answer has causes");

    let slow = tier.slow_log_records();
    assert!(
        !slow.is_empty(),
        "the stalled NP-hard request must hit the slow-log"
    );
    let outlier = slow
        .iter()
        .find(|rec| rec.dichotomy.starts_with("NP-hard"))
        .expect("slow-log captures the NP-hard outlier with its class");
    assert_eq!(outlier.kind, "why_so");
    assert!(
        outlier.stage(Stage::KernelSolve).is_some(),
        "outlier keeps its kernel-stage timing"
    );
    assert!(
        outlier.total_us >= 5_000,
        "outlier really overran the 5ms threshold: {} us",
        outlier.total_us
    );
    assert!(
        !slow.iter().any(|rec| rec.dichotomy == "PTIME"),
        "the easy request stays out of the slow-log"
    );
    let jsonl = tier.export_slow_log();
    tier.shutdown();
    jsonl
}

/// Mixed easy/hard traffic through the hardness router (PR 8): one
/// tenant serves a dense NP-hard triangle database and submits every
/// request with a tight deadline, interleaved with an easy tenant's
/// deadline-free PTIME stream. The router must answer *every* hard
/// request approximately within its budget — zero `DeadlineExceeded`,
/// zero stalls — and the mixed-stream p99 is the headline tail number.
struct HardMixNumbers {
    p50_us: u64,
    p99_us: u64,
    hard_requests: u64,
    approx_requests: u64,
}

fn measure_hard_mix(workload: &TenantWorkload, quick: bool) -> HardMixNumbers {
    let (nodes, tuples, hard_every, rounds) = if quick {
        (5, 40, 4, 60)
    } else {
        (6, 150, 4, 600)
    };
    let inst = dense_triangles(nodes, tuples, workload.ops.len() as u64);
    let tier = ShardedService::new(TierConfig {
        shards: 2,
        admission_limit: 4 * rounds as usize,
        shard: ServiceConfig {
            workers: 1,
            queue_capacity: 4 * rounds as usize,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let easy_spec = &workload.tenants[0];
    let easy = tier
        .add_tenant(&easy_spec.name, easy_spec.db.clone())
        .expect("fresh tier");
    let hard = tier
        .add_tenant("hard-triangles", inst.db.clone())
        .expect("fresh tier");
    let easy_req =
        ExplainRequest::why_so(easy_spec.query.clone(), vec![easy_spec.answers[0].clone()]);
    let hard_req = ExplainRequest::why_so(inst.query.clone(), vec![]);

    let mut pending: Vec<(bool, PendingExplain)> = Vec::new();
    for i in 0..rounds {
        let is_hard = i % hard_every == 0;
        let handle = if is_hard {
            tier.submit_with_deadline(hard, hard_req.clone(), Duration::from_millis(2))
                .expect("sized for zero rejects")
        } else {
            tier.submit(easy, easy_req.clone())
                .expect("sized for zero rejects")
        };
        pending.push((is_hard, handle));
    }

    let mut hard_requests = 0u64;
    let mut approx_requests = 0u64;
    for (is_hard, handle) in pending {
        let response = handle.wait().expect("service stays up");
        let explanation = response
            .result
            .expect("every request is answered — hard ones approximately");
        if is_hard {
            hard_requests += 1;
            if matches!(explanation.mode, ExplainMode::Approximate { .. }) {
                approx_requests += 1;
            }
        } else {
            assert_eq!(
                explanation.mode,
                ExplainMode::Exact,
                "deadline-free PTIME traffic never degrades"
            );
        }
    }
    let stats = tier.stats().aggregate();
    assert_eq!(
        stats.deadline_misses, 0,
        "the anytime tier turns every would-be miss into a bounded answer"
    );
    assert_eq!(hard_requests, approx_requests, "every hard request routed");
    // Identical in-flight hard requests coalesce into one computation,
    // so the counter tracks computations, not responses.
    assert!(
        stats.approx_requests >= 1 && stats.approx_requests <= approx_requests,
        "approx computations: {} for {} approximate answers",
        stats.approx_requests,
        approx_requests
    );
    assert_eq!(stats.queue_depth, 0, "mixed stream fully drained");
    let numbers = HardMixNumbers {
        p50_us: stats.p50_us(),
        p99_us: stats.p99_us(),
        hard_requests,
        approx_requests,
    };
    tier.shutdown();
    numbers
}

/// What the chaos soak (PR 9) measured. The conservation invariant —
/// every submission came back as an answer or a visible retryable
/// reject — is asserted inside the phase; these are the recovery
/// numbers the manifest records.
struct ChaosNumbers {
    recovery_ms: f64,
    submitted: u64,
    answered: u64,
    approx: u64,
    rejected: u64,
    retries: u64,
    breaker_trips: u64,
    breaker_rejects: u64,
    restarts: u64,
    quarantines: u64,
    panics: u64,
    fault_events: usize,
}

/// Health-poll period while the chaos soak waits: a fraction of its
/// supervisor tick, so an incident is timed to well under a tick.
const HEALTH_POLL: Duration = Duration::from_micros(200);

/// Unhealthy stretches of a tier, seen through periodic health polls.
#[derive(Default)]
struct Incidents {
    /// When the open incident began: the first poll that saw a shard
    /// leave `Healthy`.
    open: Option<Instant>,
    /// Length of the latest closed incident, up to the first poll that
    /// saw every shard `Healthy` again.
    last: Option<Duration>,
}

impl Incidents {
    /// Record one poll; returns whether the tier is healthy with no
    /// incident open.
    fn poll(&mut self, all_healthy: bool) -> bool {
        match (self.open, all_healthy) {
            (None, false) => self.open = Some(Instant::now()),
            (Some(start), true) => {
                self.last = Some(start.elapsed());
                self.open = None;
            }
            _ => {}
        }
        all_healthy
    }

    /// Sleep for `wait`, polling every [`HEALTH_POLL`], so an incident
    /// that begins and ends inside the wait is still seen and timed.
    fn poll_while_sleeping(&mut self, all_healthy: impl Fn() -> bool, wait: Duration) {
        let end = Instant::now() + wait;
        while Instant::now() < end {
            self.poll(all_healthy());
            std::thread::sleep(HEALTH_POLL);
        }
    }
}

/// Chaos soak: replay a seeded [`FaultPlan`] against a two-shard tier
/// with an aggressive supervisor, retries, and tight per-tenant
/// breakers — all traffic through `explain_with_retry`, faults keyed on
/// shard request ordinals so the run replays identically for one seed.
///
/// Every drive iteration writes to its tenant first, so each read is a
/// fresh computation (cache hits would not advance the fault ordinals).
/// Harness-level events fire when `shard_progress` passes their
/// ordinal: submission bursts drive the bounded queue toward full, and
/// clock-skew events rewind the injected `ManualClock` the breakers
/// run on (the state machines must survive time moving backwards).
fn chaos_soak(workload: &TenantWorkload, seed: u64, quick: bool) -> ChaosNumbers {
    const SHARDS: usize = 2;
    let (ops, horizon) = if quick {
        (120u64, 40u64)
    } else {
        (600u64, 200u64)
    };
    let tick = Duration::from_millis(3);
    let open_for = Duration::from_millis(30);
    let clock = Arc::new(ManualClock::new());
    let tier = ShardedService::with_clock(
        TierConfig {
            shards: SHARDS,
            admission_limit: 32,
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(40),
                jitter_seed: seed,
            },
            breaker: BreakerConfig {
                failure_threshold: 4,
                open_for,
                half_open_probes: 1,
            },
            supervisor: SupervisorConfig {
                tick,
                panic_quarantine: 4,
                stall_ticks: 8,
                miss_rate: 0.9,
                miss_window_min: 8,
                probe_ticks: 2,
            },
            shard: ServiceConfig {
                workers: 1,
                batch_max: 4,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
        },
        clock.clone(),
    );

    // Two tenants on different shards, both serving the same (easy,
    // PTIME) database: a deterministic 50/50 ordinal split per shard.
    let spec = &workload.tenants[0];
    let first = tier
        .add_tenant("chaos-0", spec.db.clone())
        .expect("fresh tier");
    let mut pair = [first, first];
    for i in 1..64 {
        let id = tier
            .add_tenant(&format!("chaos-{i}"), spec.db.clone())
            .expect("fresh tier");
        if id.shard() != first.shard() {
            pair = [first, id];
            break;
        }
    }
    assert_ne!(
        pair[0].shard(),
        pair[1].shard(),
        "64 FNV-hashed names cover both shards"
    );
    let by_shard = |s: usize| {
        if pair[0].shard() == s {
            pair[0]
        } else {
            pair[1]
        }
    };

    let plan = FaultPlan::generate(seed, SHARDS, horizon);
    print!("{}", plan.render());
    tier.inject_faults({
        let plan = plan.clone();
        move |shard, ordinal, _| plan.action_for(shard, ordinal)
    });

    // The plan injects dozens of caught panics; silence only those so
    // the soak output stays readable while real failures still print.
    // The filter stays installed afterwards — it delegates everything
    // that is not a planned chaos panic to the original hook.
    let default_hook = std::panic::take_hook();
    let quiet_hook = Arc::new(default_hook);
    let delegate = Arc::clone(&quiet_hook);
    std::panic::set_hook(Box::new(move |info| {
        let planned = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|msg| msg.contains("chaos hook") || msg.contains("fault plan"));
        if !planned {
            delegate(info);
        }
    }));

    let all_healthy = || (0..SHARDS).all(|s| tier.shard_health(s) == Some(HealthState::Healthy));
    let mut incidents = Incidents::default();
    let mut events: Vec<_> = plan.harness_events().copied().collect();
    let mut burst_handles: Vec<PendingExplain> = Vec::new();
    let mut submitted = 0u64;
    let mut answered = 0u64;
    let mut approx = 0u64;
    let mut rejected = 0u64;
    for i in 0..ops {
        clock.advance(Duration::from_millis(1));
        let tenant = pair[(i % 2) as usize];
        // Invalidate the responsibility cache so the read below is a
        // fresh computation and advances the shard's fault ordinal.
        tier.update(tenant, |db| {
            let s = db.relation_id("S").expect("workload schema");
            db.insert_endo(s, vec![Value::str(format!("chaos_w{i}"))]);
        })
        .expect("registered tenant");
        let req = ExplainRequest::why_so(spec.query.clone(), vec![spec.answers[0].clone()]);
        submitted += 1;
        let was_rejected = match tier.explain_with_retry(tenant, req) {
            Ok(resp) => match resp.result {
                Ok(explanation) => {
                    answered += 1;
                    if matches!(explanation.mode, ExplainMode::Approximate { .. }) {
                        approx += 1;
                    }
                    false
                }
                Err(e) => {
                    assert!(e.is_retryable(), "terminal in-band error in soak: {e}");
                    rejected += 1;
                    true
                }
            },
            Err(e) => {
                assert!(e.is_retryable(), "terminal submit error in soak: {e}");
                if let Some(hint) = e.retry_after_hint() {
                    assert!(hint > Duration::ZERO, "reject hints are usable");
                }
                rejected += 1;
                true
            }
        };
        if was_rejected {
            // A reject means a panic streak or an open breaker: advance
            // the injected clock past the breaker window so the tenant
            // can half-open, and give the supervisor a few wall-clock
            // ticks to observe the streak while it is still live.
            clock.advance(open_for);
            incidents.poll_while_sleeping(all_healthy, 3 * tick);
        }
        incidents.poll(all_healthy());
        let progressed: Vec<u64> = (0..SHARDS).map(|s| tier.shard_progress(s)).collect();
        events.retain(|e| {
            if progressed[e.shard] < e.at_ordinal {
                return true;
            }
            match e.kind {
                FaultKind::Burst(n) => {
                    let burst_req =
                        ExplainRequest::why_so(spec.query.clone(), vec![spec.answers[0].clone()]);
                    for _ in 0..n {
                        submitted += 1;
                        match tier.submit(by_shard(e.shard), burst_req.clone()) {
                            Ok(handle) => burst_handles.push(handle),
                            Err(err) => {
                                assert!(
                                    err.is_retryable(),
                                    "burst overrun must reject retryably: {err}"
                                );
                                assert!(
                                    err.retry_after_hint().unwrap_or_default() > Duration::ZERO,
                                    "burst rejects carry a retry-after hint"
                                );
                                rejected += 1;
                            }
                        }
                    }
                }
                FaultKind::ClockSkew(d) => clock.rewind(d),
                _ => unreachable!("harness_events yields only bursts and skews"),
            }
            false
        });
    }
    assert!(
        events.is_empty(),
        "every scheduled harness event fired before the soak ended (seed {seed}): {events:?}"
    );
    for handle in burst_handles {
        let resp = handle
            .wait()
            .expect("restarted pools never lose a queued request");
        match resp.result {
            Ok(_) => answered += 1,
            Err(e) => {
                assert!(e.is_retryable(), "terminal burst error in soak: {e}");
                rejected += 1;
            }
        }
    }
    assert_eq!(
        answered + rejected,
        submitted,
        "zero silent drops: every submission is answered or visibly rejected"
    );

    // Convergence: with the plan cleared, every shard must probe back to
    // Healthy. The latest incident's length is the headline recovery
    // number.
    tier.clear_faults();
    let drain_start = Instant::now();
    while !incidents.poll(all_healthy()) {
        assert!(
            drain_start.elapsed() < Duration::from_secs(10),
            "tier failed to return to Healthy after the faults stopped"
        );
        std::thread::sleep(HEALTH_POLL);
    }
    let recovery_ms = incidents
        .last
        .expect("the soak observed at least one shard leave Healthy")
        .as_secs_f64()
        * 1e3;

    let stats = tier.stats();
    let agg = stats.aggregate();
    let fe = stats.frontend;
    assert_eq!(agg.queue_depth, 0, "soak fully drained");
    assert!(
        agg.panics_caught >= 5,
        "the plan's panic bursts really fired: {} panics",
        agg.panics_caught
    );
    assert!(
        agg.shard_quarantines >= 1,
        "a wedged shard was quarantined by the supervisor"
    );
    assert!(
        agg.shard_restarts >= 1,
        "the quarantined shard's worker pool was restarted"
    );
    assert!(fe.retries >= 1, "retry/backoff really engaged");
    tier.shutdown();
    ChaosNumbers {
        recovery_ms,
        submitted,
        answered,
        approx,
        rejected,
        retries: fe.retries,
        breaker_trips: fe.breaker_trips,
        breaker_rejects: fe.breaker_rejects,
        restarts: agg.shard_restarts,
        quarantines: agg.shard_quarantines,
        panics: agg.panics_caught,
        fault_events: plan.events.len(),
    }
}

/// Dump the telemetry artifacts under `target/load_harness/` — never at
/// the repo root, so a bench run leaves the working tree clean.
fn write_artifacts(telemetry: &TierTelemetry, slowlog: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/load_harness");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {dir}: {e}");
        return;
    }
    let files = [
        (
            format!("{dir}/traces.jsonl"),
            telemetry.traces_jsonl.as_str(),
        ),
        (
            format!("{dir}/metrics.prom"),
            telemetry.metrics_prom.as_str(),
        ),
        (format!("{dir}/slowlog.jsonl"), slowlog),
    ];
    for (path, body) in &files {
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path} ({} bytes)", body.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Isolation: tenant B's warm responsibility cache must survive a write
/// burst against tenant A on a different shard.
fn assert_shard_isolation(workload: &TenantWorkload, shards: usize) {
    let (tier, tenants) = build_tier(workload, shards, 1);
    let (a, b) = {
        let first = tenants[0];
        let other = tenants
            .iter()
            .position(|t| t.shard() != first.shard())
            .expect("enough tenants to cover two shards");
        (0usize, other)
    };

    let spec = &workload.tenants[b];
    let req = ExplainRequest::why_so(spec.query.clone(), vec![spec.answers[0].clone()]);
    let cold = tier.explain(tenants[b], req.clone()).expect("serves");
    assert!(!cold.cache_hit);
    assert!(
        tier.explain(tenants[b], req.clone())
            .expect("serves")
            .cache_hit
    );

    let before = tier.stats().shards[tenants[b].shard()];
    for i in 0..50 {
        tier.update(tenants[a], |db| {
            let s = db.relation_id("S").expect("workload schema");
            db.insert_endo(s, vec![Value::str(format!("iso_w{i}"))]);
        })
        .expect("registered tenant");
    }
    let warm = tier.explain(tenants[b], req).expect("serves");
    assert!(
        warm.cache_hit,
        "writes to tenant A (shard {}) must not cool tenant B (shard {})",
        tenants[a].shard(),
        tenants[b].shard()
    );
    let after = tier.stats().shards[tenants[b].shard()];
    assert_eq!(
        before.index_evictions, after.index_evictions,
        "B's shard saw no cache movement"
    );
    tier.shutdown();
}

/// Overload: with stalled workers and a tiny admission limit, overrun
/// submissions come back as `Overloaded` errors — counted, not dropped —
/// and everything accepted still resolves.
fn assert_admission_control(workload: &TenantWorkload) {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        admission_limit: 4,
        shard: ServiceConfig {
            workers: 1,
            batch_max: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let spec = &workload.tenants[0];
    let tenant = tier
        .add_tenant(&spec.name, spec.db.clone())
        .expect("fresh tier");
    tier.inject_faults(|_, _, _| FaultAction {
        stall: Some(Duration::from_millis(20)),
        ..FaultAction::default()
    });

    let req = ExplainRequest::why_so(spec.query.clone(), vec![spec.answers[0].clone()]);
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..64 {
        match tier.submit(tenant, req.clone()) {
            Ok(handle) => accepted.push(handle),
            Err(ServiceError::Overloaded { retry_after }) => {
                assert!(
                    retry_after >= Duration::from_millis(1),
                    "overload rejects carry a usable retry-after hint"
                );
                rejected += 1;
            }
            Err(other) => panic!("only Overloaded is expected, got {other}"),
        }
    }
    assert!(rejected > 0, "the open loop must overrun a limit of 4");
    assert!(!accepted.is_empty(), "admission admits up to the limit");
    for handle in accepted {
        handle
            .wait()
            .expect("service stays up")
            .result
            .expect("accepted requests are served");
    }
    let stats = tier.stats().aggregate();
    assert_eq!(stats.admission_rejects, rejected, "every reject is counted");
    assert_eq!(stats.queue_depth, 0);
    tier.shutdown();
}

fn write_manifest(
    cfg: &HarnessConfig,
    single: &PhaseNumbers,
    sharded: &PhaseNumbers,
    hard_mix: &HardMixNumbers,
    chaos: &ChaosNumbers,
) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_9.json");
    let mut manifest = BenchManifest::new(
        "load_harness",
        9,
        "ops/s",
        cfg.workload.seed,
        "open-loop multi-tenant replay (Zipf-hot tenants, mixed why-so/why-no/top-k reads \
         with interleaved writes) against the sharded serving tier; single_shard uses the \
         same workers per shard; hard_mix interleaves deadline-bound NP-hard triangle \
         requests answered by the anytime tier; chaos soak replays a seeded fault plan \
         through the self-healing front end and records the recovery time",
    );
    manifest.push(
        "throughput_sharded",
        sharded.throughput,
        "ops/s",
        Direction::HigherIsBetter,
    );
    manifest.push(
        "throughput_single_shard",
        single.throughput,
        "ops/s",
        Direction::HigherIsBetter,
    );
    manifest.push(
        "shard_speedup",
        sharded.throughput / single.throughput,
        "x",
        Direction::HigherIsBetter,
    );
    manifest.push(
        "p50_us",
        sharded.p50_us as f64,
        "us",
        Direction::LowerIsBetter,
    );
    manifest.push(
        "p99_us",
        sharded.p99_us as f64,
        "us",
        Direction::LowerIsBetter,
    );
    manifest.push(
        "cache_hit_rate",
        sharded.cache_hit_rate,
        "fraction",
        Direction::HigherIsBetter,
    );
    manifest.push(
        "hard_mix_p99_us",
        hard_mix.p99_us as f64,
        "us",
        Direction::LowerIsBetter,
    );
    manifest.push(
        "hard_mix_p50_us",
        hard_mix.p50_us as f64,
        "us",
        Direction::LowerIsBetter,
    );
    manifest.push(
        "chaos_recovery_ms",
        chaos.recovery_ms,
        "ms",
        Direction::LowerIsBetter,
    );
    manifest.extra("shards", &cfg.shards.to_string());
    manifest.extra("workers_per_shard", &cfg.workers_per_shard.to_string());
    manifest.extra("clients", &CLIENTS.to_string());
    manifest.extra("ops", &cfg.workload.ops.to_string());
    manifest.extra("tenants", &cfg.workload.tenants.to_string());
    manifest.extra("single_shard_p99_us", &single.p99_us.to_string());
    // Informational since PR 9, no longer a gated result: with an
    // open-loop generator running more client threads than cores, the
    // peak is set by how long a client's scheduler slice happens to run
    // uninterrupted, not by the tier's drain behavior — run-to-run
    // swings of 3-4x on the same code put it far outside any honest
    // noise band. Queueing the tier is accountable for is gated through
    // p50_us/p99_us, which come from the same replay.
    manifest.extra("peak_queue_depth", &sharded.peak_queue_depth.to_string());
    manifest.extra("hard_mix_requests", &hard_mix.hard_requests.to_string());
    manifest.extra(
        "hard_mix_approx_answers",
        &hard_mix.approx_requests.to_string(),
    );
    manifest.extra("chaos_fault_events", &chaos.fault_events.to_string());
    manifest.extra("chaos_submitted", &chaos.submitted.to_string());
    manifest.extra("chaos_answered", &chaos.answered.to_string());
    manifest.extra("chaos_approx_answers", &chaos.approx.to_string());
    manifest.extra("chaos_retryable_rejects", &chaos.rejected.to_string());
    manifest.extra("chaos_retries", &chaos.retries.to_string());
    manifest.extra("chaos_breaker_trips", &chaos.breaker_trips.to_string());
    manifest.extra("chaos_breaker_rejects", &chaos.breaker_rejects.to_string());
    manifest.extra("chaos_shard_restarts", &chaos.restarts.to_string());
    manifest.extra("chaos_shard_quarantines", &chaos.quarantines.to_string());
    manifest.extra("chaos_panics_caught", &chaos.panics.to_string());
    match manifest.write(&path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test" || a == "--list");
    let cfg = if quick { quick_config() } else { full_config() };
    let workload = tenant_workload(&cfg.workload);
    println!(
        "load_harness: {} tenants × {} rows, {} ops ({} writes), {} clients",
        workload.tenants.len(),
        cfg.workload.rows_per_tenant,
        workload.ops.len(),
        workload.ops.iter().filter(|op| op.is_write()).count(),
        CLIENTS
    );

    assert_shard_isolation(&workload, cfg.shards.max(2));
    assert_admission_control(&workload);
    let slowlog = assert_slow_log_outlier(&workload);
    let hard_mix = measure_hard_mix(&workload, quick);
    println!(
        "hard mix     : p50 {:>6} us  p99 {:>6} us  {} hard requests, {} answered approximately, 0 deadline misses",
        hard_mix.p50_us, hard_mix.p99_us, hard_mix.hard_requests, hard_mix.approx_requests
    );
    let chaos = chaos_soak(&workload, cfg.workload.seed, quick);
    println!(
        "chaos soak   : {} faults, {} submissions → {} answered + {} retryable rejects (0 lost), \
         {} retries, {} breaker trips, {} restarts, {} quarantines, \
         recovered in {:.1} ms",
        chaos.fault_events,
        chaos.submitted,
        chaos.answered,
        chaos.rejected,
        chaos.retries,
        chaos.breaker_trips,
        chaos.restarts,
        chaos.quarantines,
        chaos.recovery_ms
    );

    let (single, _) = measure_tier(&workload, 1, cfg.workers_per_shard);
    let (sharded, telemetry) = measure_tier(&workload, cfg.shards, cfg.workers_per_shard);
    println!(
        "single shard : {:>9.0} ops/s  p50 {:>6} us  p99 {:>6} us",
        single.throughput, single.p50_us, single.p99_us
    );
    println!(
        "{} shards     : {:>9.0} ops/s  p50 {:>6} us  p99 {:>6} us  hit rate {:.2}  peak depth {}",
        cfg.shards,
        sharded.throughput,
        sharded.p50_us,
        sharded.p99_us,
        sharded.cache_hit_rate,
        sharded.peak_queue_depth
    );
    println!(
        "telemetry    : {} traces retained across {} shard rings",
        telemetry.traces_sampled, cfg.shards
    );

    write_artifacts(&telemetry, &slowlog);
    if quick {
        println!(
            "load_harness: isolation/admission/slow-log/latency/chaos assertions ok (manifest skipped)"
        );
        return;
    }
    write_manifest(&cfg, &single, &sharded, &hard_mix, &chaos);
}
