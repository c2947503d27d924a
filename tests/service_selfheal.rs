//! Self-healing serving tier (PR 9), end to end through the public
//! APIs: the supervisor quarantines and restarts a wedged shard without
//! losing a single queued request, a deadline-bound NP-hard request
//! whose budget is shorter than its shard's predicted queue wait is
//! answered inline through the worker's own compute path, per-tenant
//! circuit breakers trip and recover on an injected clock, and the
//! seeded fault-plan / backoff machinery replays bit-identically. All
//! scenarios run under hard timeouts so a supervision deadlock fails
//! fast instead of hanging CI.

use causality::prelude::*;
use causality::service::retry::{backoff, JitterRng};
use causality::service::PendingExplain;
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HARD_TIMEOUT: Duration = Duration::from_secs(120);

/// Run `scenario` on a helper thread; panic if it exceeds the timeout.
fn with_timeout(scenario: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::RecvTimeoutError;
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(HARD_TIMEOUT) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("self-heal scenario exceeded {HARD_TIMEOUT:?} — supervision deadlock?")
        }
    }
}

fn seed_database() -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for (x, y) in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3")] {
        db.insert_endo(r, vec![Value::str(x), Value::str(y)]);
    }
    for y in ["a1", "a2", "a3", "a4"] {
        db.insert_endo(s, vec![Value::str(y)]);
    }
    db
}

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

/// A 3-tuple triangle instance whose Why-So is NP-hard (non-weakly
/// linear per Cor. 4.14) — the request shape the deadline rule and the
/// hardness router act on.
fn triangle_tenant() -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    db.insert_endo(s, vec![Value::int(2), Value::int(3)]);
    db.insert_endo(t, vec![Value::int(3), Value::int(1)]);
    let q = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    (db, q)
}

/// An aggressive supervisor for tests: quarantine decisions inside a
/// few milliseconds instead of the conservative production default.
fn aggressive_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        tick: Duration::from_millis(2),
        panic_quarantine: 3,
        stall_ticks: 3,
        miss_rate: 0.9,
        miss_window_min: 8,
        probe_ticks: 2,
    }
}

/// Tentpole: a shard wedged behind a stalled worker is quarantined and
/// its pool restarted on the *same* queue — the stuck request and the
/// queued one both still get their answers (zero loss), and the shard
/// probes back to `Healthy`.
#[test]
fn supervisor_restarts_a_wedged_shard_without_losing_requests() {
    with_timeout(|| {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            supervisor: aggressive_supervisor(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("t", seed_database()).unwrap();
        assert_eq!(tier.shard_health(0), Some(HealthState::Healthy));

        // The blocker wedges the only worker for 100ms; the victim sits
        // in the queue with zero completions — the stall signature.
        tier.inject_faults(|_, _, req| FaultAction {
            stall: (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(100)),
            ..FaultAction::default()
        });
        let blocker = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap();
        let victim = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
            )
            .unwrap();

        // Zero loss: the restarted pool drains the victim off the same
        // channel, and the wedged worker still delivers its answer.
        victim.wait().unwrap().result.unwrap();
        blocker.wait().unwrap().result.unwrap();

        let stats = tier.stats().aggregate();
        assert!(
            stats.shard_quarantines >= 1,
            "the stall was classified and quarantined: {stats:?}"
        );
        assert!(
            stats.shard_restarts >= 1,
            "the worker pool was restarted: {stats:?}"
        );
        assert_eq!(stats.queue_depth, 0, "nothing left behind");

        // Re-admission: the shard probes back to Healthy and serves.
        let deadline = Instant::now() + Duration::from_secs(5);
        while tier.shard_health(0) != Some(HealthState::Healthy) {
            assert!(Instant::now() < deadline, "shard never re-admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        tier.clear_faults();
        tier.explain(
            tenant,
            ExplainRequest::why_so(query(), vec![Value::str("a4")]),
        )
        .unwrap()
        .result
        .unwrap();
        tier.shutdown();
    });
}

/// A one-worker, one-shard tier hosting an easy tenant and the NP-hard
/// triangle tenant, with three stalled PTIME blockers submitted onto
/// its only queue: the backlog the deadline rule acts on. With
/// `panic_on_hard`, the fault hook also panics inside every computation
/// of the triangle query.
fn backlogged_tier(
    panic_on_hard: bool,
) -> (
    ShardedService,
    TenantId,
    ConjunctiveQuery,
    Vec<PendingExplain>,
) {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        admission_limit: 64,
        supervisor: SupervisorConfig::disabled(),
        shard: ServiceConfig {
            workers: 1,
            batch_max: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let easy = tier.add_tenant("easy", seed_database()).unwrap();
    let (tri_db, tri_query) = triangle_tenant();
    let hard = tier.add_tenant("triangle", tri_db).unwrap();
    tier.inject_faults({
        let tri_query = tri_query.clone();
        move |_, _, req| FaultAction {
            stall: (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(40)),
            panic: panic_on_hard && req.query == tri_query,
            ..FaultAction::default()
        }
    });
    let easy_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
    let blockers = (0..3)
        .map(|_| tier.submit(easy, easy_req.clone()).unwrap())
        .collect();
    (tier, hard, tri_query, blockers)
}

/// The budget of the deadline-bound NP-hard requests below: shorter
/// than the backlog's predicted wait (at least two queued jobs at the
/// cold-histogram estimate of 1 ms each, on one worker).
const TIGHT_BUDGET: Duration = Duration::from_millis(1);

/// Degrade by deadline: behind a backlog whose predicted wait exceeds
/// its budget, a deadline-bound NP-hard request is answered inline with
/// a certified bracket instead of queueing; once the queue drains, the
/// same request queues normally. Every answer, inline or queued, is
/// accounted once.
#[test]
fn deadline_bound_hard_request_is_answered_inline_behind_a_backlog() {
    with_timeout(|| {
        let (tier, hard, tri_query, blockers) = backlogged_tier(false);
        let req = ExplainRequest::why_so(tri_query, vec![]);

        let resp = tier
            .submit_with_deadline(hard, req.clone(), TIGHT_BUDGET)
            .unwrap()
            .wait()
            .unwrap();
        let explanation = resp
            .result
            .expect("an inline answer degrades, never rejects");
        match explanation.mode {
            ExplainMode::Approximate { bounds, .. } => {
                assert!(bounds.lower <= bounds.upper && bounds.upper <= 1.0 + 1e-12);
            }
            other => panic!("inline answers carry the approximate mode: {other:?}"),
        }
        assert!(!explanation.causes.is_empty());
        assert!(!resp.cache_hit);
        assert_eq!(tier.stats().frontend.brownout_served, 1);

        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        tier.clear_faults();

        // Drained: an empty queue predicts zero wait, so the same
        // deadline-bound request queues and a worker answers it.
        let queued = tier
            .submit_with_deadline(hard, req, TIGHT_BUDGET)
            .unwrap()
            .wait()
            .unwrap();
        assert!(matches!(
            queued.result.unwrap().mode,
            ExplainMode::Approximate { .. }
        ));
        assert_eq!(
            tier.stats().frontend.brownout_served,
            1,
            "only the request behind the backlog was answered inline"
        );

        // One accounting path: three blockers, the inline answer, and the
        // queued one each leave a latency sample, a request, and a trace.
        let stats = tier.stats().aggregate();
        assert_eq!(stats.latency_samples(), 5, "every answer is a sample");
        assert_eq!(stats.requests, 5, "every answer was an accepted request");
        assert_eq!(tier.recent_traces().len(), 5, "every answer is traced");
        assert_eq!(stats.batched_requests, 4, "workers served all but one");
        tier.shutdown();
    });
}

/// A deadline-free request was promised an exact answer: behind the same
/// backlog, the NP-hard request queues and comes back exact.
#[test]
fn deadline_free_hard_request_behind_a_backlog_is_queued_and_exact() {
    with_timeout(|| {
        let (tier, hard, tri_query, blockers) = backlogged_tier(false);
        let resp = tier
            .explain(hard, ExplainRequest::why_so(tri_query, vec![]))
            .unwrap();
        assert_eq!(resp.result.unwrap().mode, ExplainMode::Exact);
        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        assert_eq!(tier.stats().frontend.brownout_served, 0);
        assert_eq!(tier.stats().aggregate().approx_requests, 0);
        tier.shutdown();
    });
}

/// An inline answer runs the worker's own compute path: the fault hook
/// fires on it, and its panic is caught at the panic boundary and
/// answered as `Panicked`, never unwinding the submitting thread.
#[test]
fn inline_answers_run_inside_the_fault_hook_and_panic_boundary() {
    with_timeout(|| {
        let (tier, hard, tri_query, blockers) = backlogged_tier(true);
        let pending = tier
            .submit_with_deadline(
                hard,
                ExplainRequest::why_so(tri_query, vec![]),
                TIGHT_BUDGET,
            )
            .expect("the inline panic is contained, not propagated");
        assert!(matches!(
            pending.wait().unwrap().result,
            Err(ServiceError::Panicked(_))
        ));
        let fe = tier.stats().frontend;
        assert_eq!(fe.brownout_served, 1, "it was answered inline");
        assert_eq!(tier.stats().aggregate().panics_caught, 1);
        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        tier.shutdown();
    });
}

/// Per-tenant circuit breaker through the public tier API on an
/// injected clock: repeated panics trip the tenant open (requests shed
/// with a retry-after hint before touching a queue), the open window
/// elapses on the `ManualClock`, and a half-open probe closes it again.
#[test]
fn circuit_breaker_trips_and_recovers_on_an_injected_clock() {
    with_timeout(|| {
        let clock = Arc::new(ManualClock::new());
        let open_for = Duration::from_millis(200);
        let tier = ShardedService::with_clock(
            TierConfig {
                shards: 1,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    open_for,
                    half_open_probes: 1,
                },
                supervisor: SupervisorConfig::disabled(),
                shard: ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                ..TierConfig::default()
            },
            clock.clone(),
        );
        let tenant = tier.add_tenant("flaky", seed_database()).unwrap();
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);

        // Three panicking requests in a row: threshold reached, open.
        tier.inject_faults(|_, _, _| FaultAction {
            panic: true,
            ..FaultAction::default()
        });
        for _ in 0..3 {
            let resp = tier.explain(tenant, req.clone()).unwrap();
            assert!(matches!(resp.result, Err(ServiceError::Panicked(_))));
        }
        match tier.explain(tenant, req.clone()) {
            Err(ServiceError::CircuitOpen { retry_after }) => {
                assert!(retry_after > Duration::ZERO && retry_after <= open_for);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        let fe = tier.stats().frontend;
        assert_eq!(fe.breaker_trips, 1);
        assert!(fe.breaker_rejects >= 1);

        // Recovery: the open window elapses on the injected clock, the
        // half-open probe succeeds, and the tenant serves again.
        tier.clear_faults();
        clock.advance(open_for + Duration::from_millis(1));
        tier.explain(tenant, req.clone())
            .unwrap()
            .result
            .expect("half-open probe closes the breaker");
        tier.explain(tenant, req)
            .unwrap()
            .result
            .expect("closed again — traffic flows");
        assert_eq!(tier.stats().frontend.breaker_trips, 1, "no re-trip");
        tier.shutdown();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: a seeded fault plan replays bit-identically — same
    /// seed, same shard count, same horizon ⇒ the same events in the
    /// same order, witnessed by the stable rendering — and every plan
    /// is structurally sound (events target real shards, every shard
    /// gets a quarantine-grade panic burst).
    #[test]
    fn fault_plans_replay_bit_identically(
        seed in any::<u64>(),
        shards in 1usize..5,
        horizon in 16u64..512,
    ) {
        let a = FaultPlan::generate(seed, shards, horizon);
        let b = FaultPlan::generate(seed, shards, horizon);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(&a, &b);
        for event in &a.events {
            prop_assert!(event.shard < shards);
        }
        for shard in 0..shards {
            let panics = a
                .events
                .iter()
                .filter(|e| e.shard == shard && e.kind == FaultKind::Panic)
                .count();
            prop_assert!(panics >= 5, "shard {} has only {} panics", shard, panics);
        }
    }

    /// Satellite: the jittered backoff schedule is a pure function of
    /// its seed — equal seeds replay equal waits — and every wait
    /// respects the cap and any retry-after floor.
    #[test]
    fn backoff_schedules_replay_and_respect_cap_and_floor(
        seed in any::<u64>(),
        attempts in 1u32..8,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            jitter_seed: seed,
            ..RetryPolicy::default()
        };
        let mut a = JitterRng::new(seed);
        let mut b = JitterRng::new(seed);
        for attempt in 1..=attempts {
            let wait = backoff(&policy, &mut a, attempt, None);
            prop_assert_eq!(wait, backoff(&policy, &mut b, attempt, None));
            prop_assert!(wait <= policy.cap);
        }
        let floor = Duration::from_millis(3);
        let floored = backoff(&policy, &mut a, 1, Some(floor));
        prop_assert!(floored >= floor && floored <= policy.cap);
    }
}
