//! The single-database explanation service (the PR 2 API).
//!
//! [`CausalityService`] is a [`ShardedService`] with one shard hosting
//! one tenant: every call is a one-line call into the tier, so the
//! single-database API shares the tier's one submission path, admission
//! control, fault hook, stats, and exports. A submit finding the queue
//! at [`ServiceConfig::queue_capacity`] is rejected with
//! [`ServiceError::Overloaded`] instead of blocking.

use crate::breaker::BreakerConfig;
use crate::chaos::FaultAction;
use crate::dispatch::TenantId;
use crate::frontend::{ShardedService, TierConfig};
use crate::request::{ExplainRequest, ExplainResponse, PendingExplain, ServiceError};
use crate::stats::ServiceStats;
use crate::supervisor::SupervisorConfig;
use causality_engine::{Database, Snapshot};
use causality_telemetry::RequestTrace;
use std::time::Duration;

pub use crate::shard::ServiceConfig;

/// Why the sole tenant's lookups cannot fail: it is registered when the
/// service is built and never removed.
const SOLE_TENANT: &str = "the sole tenant is registered at construction";

/// A concurrent explanation service over one logical database.
///
/// ```
/// use causality_service::{CausalityService, ExplainRequest};
/// use causality_engine::{database::example_2_2, ConjunctiveQuery, Value};
///
/// let svc = CausalityService::new(example_2_2());
/// let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
/// let resp = svc
///     .explain(ExplainRequest::why_so(q, vec![Value::str("a2")]))
///     .unwrap();
/// assert_eq!(resp.expect_explanation().causes.len(), 2);
/// ```
pub struct CausalityService {
    tier: ShardedService,
    tenant: TenantId,
}

impl CausalityService {
    /// Start a service over `db` with the default configuration.
    pub fn new(db: Database) -> Self {
        CausalityService::with_config(db, ServiceConfig::default())
    }

    /// Start a service with explicit tuning knobs: one shard, admission
    /// at the queue's capacity, no circuit breakers, no supervisor.
    pub fn with_config(db: Database, cfg: ServiceConfig) -> Self {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: cfg.queue_capacity,
            breaker: BreakerConfig::disabled(),
            supervisor: SupervisorConfig::disabled(),
            shard: cfg,
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("causality", db).expect("fresh tier");
        CausalityService { tier, tenant }
    }

    /// Enqueue a request. Never blocks: past the queue's capacity the
    /// request is rejected with [`ServiceError::Overloaded`] (counted in
    /// [`ServiceStats::admission_rejects`]).
    pub fn submit(&self, request: ExplainRequest) -> Result<PendingExplain, ServiceError> {
        self.tier.submit(self.tenant, request)
    }

    /// Enqueue a request with a per-request **deadline budget**: if the
    /// budget expires before a worker picks the job up, it resolves to
    /// [`ServiceError::DeadlineExceeded`] (counted in
    /// [`ServiceStats::deadline_misses`]) instead of occupying a worker.
    pub fn submit_with_deadline(
        &self,
        request: ExplainRequest,
        budget: Duration,
    ) -> Result<PendingExplain, ServiceError> {
        self.tier.submit_with_deadline(self.tenant, request, budget)
    }

    /// Submit and wait: the blocking convenience call.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, ServiceError> {
        self.tier.explain(self.tenant, request)
    }

    /// Pin the current snapshot (for ad-hoc reads outside the pool).
    pub fn snapshot(&self) -> Snapshot {
        self.tier.snapshot(self.tenant).expect(SOLE_TENANT)
    }

    /// Publish a whole new database as the next snapshot version.
    pub fn publish(&self, db: Database) -> u64 {
        self.tier.publish(self.tenant, db).expect(SOLE_TENANT)
    }

    /// Copy-on-write update of the current snapshot; returns the new
    /// version. In-flight requests keep their pinned older snapshots.
    pub fn update(&self, f: impl FnOnce(&mut Database)) -> u64 {
        self.tier.update(self.tenant, f).expect(SOLE_TENANT)
    }

    /// Install the fault-injection hook (see
    /// [`ShardedService::inject_faults`]; the shard index is always 0).
    /// A request the hook marks to panic resolves to
    /// [`ServiceError::Panicked`], counted in
    /// [`ServiceStats::panics_caught`], and every worker keeps serving.
    pub fn inject_faults(
        &self,
        hook: impl Fn(usize, u64, &ExplainRequest) -> FaultAction + Send + Sync + 'static,
    ) {
        self.tier.inject_faults(hook);
    }

    /// Remove the hook installed by [`CausalityService::inject_faults`].
    pub fn clear_faults(&self) {
        self.tier.clear_faults();
    }

    /// A point-in-time view of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.tier.stats().aggregate()
    }

    /// Like [`CausalityService::stats`], but also zeroes every monotone
    /// counter and the latency histogram (the queue-depth gauge stays
    /// live), so successive measurement phases — warmup vs timed window
    /// in the load harness — never bleed together.
    pub fn snapshot_and_reset(&self) -> ServiceStats {
        self.tier.snapshot_and_reset().aggregate()
    }

    /// Prometheus text exposition of the service's metrics registry
    /// (single shard, labelled `shard="0"`).
    pub fn export_metrics(&self) -> String {
        self.tier.export_metrics()
    }

    /// The same metric samples as [`CausalityService::export_metrics`],
    /// rendered as JSONL.
    pub fn export_metrics_jsonl(&self) -> String {
        self.tier.export_metrics_jsonl()
    }

    /// The sampled traces currently retained in the ring, oldest first.
    /// Non-draining: exporting twice returns the same traces.
    pub fn recent_traces(&self) -> Vec<RequestTrace> {
        self.tier.recent_traces()
    }

    /// [`CausalityService::recent_traces`] rendered as JSONL.
    pub fn export_traces(&self) -> String {
        self.tier.export_traces()
    }

    /// The explanation slow-log: traces whose total latency or deadline
    /// slack crossed the configured thresholds.
    pub fn slow_log_records(&self) -> Vec<RequestTrace> {
        self.tier.slow_log_records()
    }

    /// [`CausalityService::slow_log_records`] rendered as JSONL.
    pub fn export_slow_log(&self) -> String {
        self.tier.export_slow_log()
    }

    /// Stop accepting work, drain the queue, and join the workers.
    pub fn shutdown(self) {
        self.tier.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, ConjunctiveQuery, Schema, Value};
    use std::sync::Arc;

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
    }

    #[test]
    fn service_matches_direct_explainer() {
        use causality_core::explain::Explainer;
        let svc = CausalityService::new(example_2_2());
        let q = query();
        let resp = svc
            .explain(ExplainRequest::why_so(q.clone(), vec![Value::str("a4")]))
            .unwrap();
        assert_eq!(resp.snapshot_version, 1);
        assert!(!resp.cache_hit);
        let served = resp.expect_explanation();

        let db = example_2_2();
        let direct = Explainer::new(&db, &q).why(&[Value::str("a4")]).unwrap();
        assert_eq!(served, direct, "service output is bit-identical");
        svc.shutdown();
    }

    #[test]
    fn responsibility_cache_hits_are_identical() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let cold = svc.explain(req.clone()).unwrap();
        let warm = svc.explain(req).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(
            cold.expect_explanation(),
            warm.expect_explanation(),
            "cache hit is bit-identical to the cold answer"
        );
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            stats.latency_samples(),
            2,
            "every response is a latency sample"
        );
        assert!(stats.p99_us() >= stats.p50_us());
    }

    #[test]
    fn why_no_and_top_k_kinds() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]);
        let svc = CausalityService::new(db);
        let q = query();

        let whyno = svc
            .explain(ExplainRequest::why_no(q.clone(), vec![Value::int(1)]))
            .unwrap()
            .expect_explanation();
        assert_eq!(whyno.causes.len(), 1);
        assert_eq!(whyno.causes[0].rho, 1.0);

        let svc2 = CausalityService::new(example_2_2());
        let top1 = svc2
            .explain(ExplainRequest::rank_top_k(q, vec![Value::str("a4")], 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1, "truncated to k");
    }

    #[test]
    fn publish_serves_new_version_and_keys_cache_by_version() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let v1 = svc.explain(req.clone()).unwrap();
        assert_eq!(v1.snapshot_version, 1);

        // Remove S(a1): answer a2 loses its only witness.
        let version = svc.update(|db| {
            let s = db.relation_id("S").unwrap();
            let row = db.relation(s).find(&tup!["a1"]).unwrap();
            db.relation_mut(s).set_endogenous(row, false);
        });
        assert_eq!(version, 2);

        let v2 = svc.explain(req).unwrap();
        assert_eq!(v2.snapshot_version, 2);
        assert!(!v2.cache_hit, "the write touched S, so the key moved");
        // S(a1) now exogenous: it can no longer be a cause; only R(a2,a1)
        // remains, and with S(a1) always present it is counterfactual.
        let explanation = v2.expect_explanation();
        assert_eq!(explanation.causes.len(), 1);
        assert_eq!(explanation.causes[0].relation, "R");
    }

    #[test]
    fn invalid_requests_are_rejected_without_killing_workers() {
        let svc = CausalityService::new(example_2_2());
        let q = query();
        let bad = ExplainRequest::why_so(q.clone(), Vec::<Value>::new());
        assert!(matches!(
            svc.submit(bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // Head constants must agree with the answer.
        let qc = ConjunctiveQuery::parse("p('fixed') :- S(y)").unwrap();
        let bad = ExplainRequest::why_so(qc, vec![Value::str("other")]);
        assert!(matches!(
            svc.submit(bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // The pool is still alive and serving.
        let ok = svc
            .explain(ExplainRequest::why_so(q, vec![Value::str("a2")]))
            .unwrap();
        assert_eq!(ok.expect_explanation().causes.len(), 2);
    }

    #[test]
    fn many_concurrent_submitters_all_get_answers() {
        let svc = Arc::new(CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 4,
                queue_capacity: 8,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        ));
        let answers = ["a2", "a3", "a4"];
        std::thread::scope(|scope| {
            for i in 0..8 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for j in 0..10 {
                        let a = answers[(i + j) % answers.len()];
                        let resp = svc
                            .explain(ExplainRequest::why_so(query(), vec![Value::str(a)]))
                            .unwrap();
                        let explanation = resp.expect_explanation();
                        assert!(!explanation.causes.is_empty(), "answer {a}");
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.requests, 80);
        assert_eq!(stats.batched_requests, 80, "every request was served");
        assert_eq!(
            stats.cache_hits + stats.cache_misses + stats.coalesced,
            80,
            "every request is a hit, a fresh computation, or a rider"
        );
        assert!(stats.cache_misses >= 3, "three distinct keys computed");
        assert!(
            stats.cache_hits + stats.coalesced >= 80 - stats.cache_misses,
            "the rest were served without recomputation"
        );
        assert_eq!(stats.latency_samples(), 80, "one sample per response");
        assert_eq!(stats.queue_depth, 0, "nothing left enqueued");
    }

    #[test]
    fn cache_hits_survive_writes_to_unrelated_relations() {
        // The query reads R and S; T is unrelated write traffic.
        let mut db = example_2_2();
        let t = db.add_relation(Schema::new("T", &["z"]));
        db.insert_endo(t, tup![0]);
        let svc = CausalityService::new(db);
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);

        let cold = svc.explain(req.clone()).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.snapshot_version, 1);

        let version = svc.update(|db| {
            let t = db.relation_id("T").unwrap();
            db.insert_endo(t, tup![1]);
        });
        assert_eq!(version, 2);

        // New snapshot version — but R and S kept their content stamps,
        // so both cache layers stay warm.
        let warm = svc.explain(req).unwrap();
        assert_eq!(warm.snapshot_version, 2);
        assert!(warm.cache_hit, "unrelated write must not evict the answer");
        assert_eq!(cold.expect_explanation(), warm.expect_explanation());
        let stats = svc.stats();
        assert_eq!(
            stats.index_evictions, 0,
            "no touched relation left the window, nothing to evict"
        );
    }

    #[test]
    fn index_retention_evicts_only_stale_relation_versions() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                cached_versions: 2,
                ..ServiceConfig::default()
            },
        );
        let req = |a: &str| ExplainRequest::why_so(query(), vec![Value::str(a)]);
        svc.explain(req("a2")).unwrap();
        let baseline = svc.stats().index_entries;
        assert!(baseline > 0, "cold call built indexes");

        // Each round rewrites S, pushing its previous content stamp out
        // of the 2-version retention window; R is never touched.
        for i in 0..3 {
            svc.update(|db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, tup![format!("b{i}")]);
            });
            svc.explain(req("a2")).unwrap();
        }
        let stats = svc.stats();
        assert!(stats.index_evictions > 0, "stale S indexes were evicted");
        assert!(
            stats.index_entries <= baseline + 2,
            "cache holds R's one live index plus at most the retained S versions, \
             got {} entries",
            stats.index_entries
        );
    }

    #[test]
    fn panicking_job_gets_an_error_and_the_pool_survives() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        svc.inject_faults(|_, _, req| FaultAction {
            panic: req.answer == vec![Value::str("a3")],
            ..FaultAction::default()
        });
        let poisoned = svc
            .explain(ExplainRequest::why_so(query(), vec![Value::str("a3")]))
            .unwrap();
        match poisoned.result {
            Err(ServiceError::Panicked(msg)) => {
                assert!(msg.contains("fault injected"), "got: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Every worker still serves, including the one that caught the
        // panic (more requests than workers).
        svc.clear_faults();
        for _ in 0..4 {
            let ok = svc
                .explain(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
                .unwrap();
            assert!(ok.result.is_ok());
        }
        assert_eq!(svc.stats().panics_caught, 1);
    }

    #[test]
    fn panicked_results_are_not_cached() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.inject_faults(|_, _, _| FaultAction {
            panic: true,
            ..FaultAction::default()
        });
        assert!(matches!(
            svc.explain(req.clone()).unwrap().result,
            Err(ServiceError::Panicked(_))
        ));
        svc.clear_faults();
        let healed = svc.explain(req).unwrap();
        assert!(healed.result.is_ok(), "the request recomputes cleanly");
        assert!(!healed.cache_hit, "the panicked attempt left no entry");
    }

    #[test]
    fn poisoned_caches_are_recovered_not_fatal() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.explain(req.clone()).unwrap();
        // Poison resp_cache and live_snapshots by panicking mid-hold.
        let core = Arc::clone(&svc.tier.shards[0].core);
        let _ = std::thread::spawn(move || {
            let _cache = core.resp_cache.lock().unwrap();
            let _live = core.live_snapshots.lock().unwrap();
            panic!("poison the service mutexes");
        })
        .join();
        assert!(
            svc.tier.shards[0].core.resp_cache.lock().is_err(),
            "cache is poisoned"
        );
        // Serving continues: lock recovery hands back the intact state.
        let warm = svc.explain(req).unwrap();
        assert!(warm.result.is_ok());
        assert!(warm.cache_hit, "recovered cache still serves its entries");
    }

    #[test]
    fn rank_top_k_reports_pruning_stats() {
        // q :- A(x), B(y): A(1) is counterfactual; B(1), B(2) are ρ =
        // 1/2 and provably out of the top 1 once A(1) is computed.
        let mut db = Database::new();
        let a = db.add_relation(Schema::new("A", &["x"]));
        let b = db.add_relation(Schema::new("B", &["y"]));
        db.insert_endo(a, tup![1]);
        db.insert_endo(b, tup![1]);
        db.insert_endo(b, tup![2]);
        // rank_parallelism: 1 keeps the pruned count deterministic —
        // with concurrent solvers a B candidate can finish before A(1)
        // and legitimately escape the screen (tests/ covers the
        // parallel-served path; the output is identical either way).
        let svc = CausalityService::with_config(
            db,
            ServiceConfig {
                rank_parallelism: 1,
                ..ServiceConfig::default()
            },
        );
        let q = ConjunctiveQuery::parse("q :- A(x), B(y)").unwrap();
        let top1 = svc
            .explain(ExplainRequest::rank_top_k(q, Vec::<Value>::new(), 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1);
        assert_eq!(top1.causes[0].rho, 1.0);
        let stats = svc.stats();
        assert_eq!(stats.rank_tasks, 1);
        assert!(stats.topk_pruned >= 1, "stats: {stats:?}");
    }

    #[test]
    fn submit_and_pending_timeout() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a3")]);
        let resp = svc
            .submit(req.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert!(resp.result.is_ok());

        // A stalled computation outlives a short wait: the handle times
        // out, and the answer still arrives for a longer one.
        svc.inject_faults(|_, _, _| FaultAction {
            stall: Some(Duration::from_millis(100)),
            ..FaultAction::default()
        });
        let fresh = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let pending = svc.submit(fresh.clone()).unwrap();
        assert!(matches!(
            pending.wait_timeout(Duration::from_millis(1)),
            Err(ServiceError::Timeout)
        ));
        svc.clear_faults();
        let served = svc
            .submit(fresh)
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert!(served.result.is_ok());
    }

    #[test]
    fn submits_past_queue_capacity_are_overloaded_not_blocked() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        // Stall every computation so submissions pile up in the queue.
        svc.inject_faults(|_, _, _| FaultAction {
            stall: Some(Duration::from_millis(30)),
            ..FaultAction::default()
        });
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..16 {
            // Distinct answers: no coalescing, no cache hits.
            let answer = ["a2", "a3", "a4"][i % 3];
            match svc.submit(ExplainRequest::why_so(query(), vec![Value::str(answer)])) {
                Ok(pending) => accepted.push(pending),
                Err(ServiceError::Overloaded { retry_after }) => {
                    assert!(retry_after >= Duration::from_millis(1), "usable hint");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "16 back-to-back submits overran capacity 2");
        let served = accepted.len() as u64;
        for pending in accepted {
            assert!(pending.wait().unwrap().result.is_ok());
        }
        let stats = svc.stats();
        assert_eq!(stats.admission_rejects, rejected);
        assert_eq!(stats.requests, served);
        assert_eq!(
            stats.latency_samples(),
            served,
            "every accepted one answered"
        );
        assert_eq!(stats.queue_depth, 0, "queue fully drained");
    }

    #[test]
    fn expired_deadline_yields_an_error_not_a_computation() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 1,
                // One job per pull: the blocker is drained (and stalls
                // the sole worker) strictly before the doomed request is
                // even looked at, making the expiry deterministic.
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        // Stall the worker on a blocker request so the deadlined request
        // sits in the queue past its budget.
        svc.inject_faults(|_, _, req| FaultAction {
            stall: (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(120)),
            ..FaultAction::default()
        });
        let blocker = svc
            .submit(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        let doomed = svc
            .submit_with_deadline(
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_millis(10),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait().unwrap().result,
            Err(ServiceError::DeadlineExceeded)
        ));
        assert!(blocker.wait().unwrap().result.is_ok());
        let stats = svc.stats();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(
            stats.cache_misses, 1,
            "the expired request never reached a computation"
        );
        // A generous budget is met.
        svc.clear_faults();
        let fine = svc
            .submit_with_deadline(
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_secs(30),
            )
            .unwrap();
        assert!(fine.wait().unwrap().result.is_ok());
    }

    #[test]
    fn snapshot_and_reset_separates_phases() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.explain(req.clone()).unwrap();
        let warmup = svc.snapshot_and_reset();
        assert_eq!(warmup.requests, 1);
        assert_eq!(warmup.cache_misses, 1);
        assert_eq!(warmup.latency_samples(), 1);

        // The measurement phase starts from zero — but the *caches* are
        // still warm: resetting counters must not cool the service.
        svc.explain(req).unwrap();
        let measured = svc.stats();
        assert_eq!(measured.requests, 1);
        assert_eq!(measured.cache_hits, 1, "cache survived the reset");
        assert_eq!(measured.cache_misses, 0);
        assert_eq!(measured.latency_samples(), 1);
    }
}
