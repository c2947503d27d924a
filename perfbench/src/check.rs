//! Answer checks, and the traced run's direct calls into each layer.
//!
//! Every PTIME answer the tier returned is compared with `Explainer` run
//! on the snapshot the client had pinned for that step: same snapshot
//! version, same explanation, and every ρ bit-identical. Every NP-hard
//! answer must be approximate, with `lower ≤ upper` on every cause and
//! the exact cause set (causes are PTIME, Thm. 3.2). Checks run between
//! timed segments, so they cost no measured time.

use crate::trace::Tracer;
use crate::workload::{Toggle, HARD_DEADLINE_MS};
use causality_core::explain::{ExplainMode, Explanation};
use causality_core::{ApproxBudget, DichotomyTag, Explainer};
use causality_engine::{evaluate_with_cache, RelId, SharedIndexCache, Snapshot, SnapshotStore};
use causality_lineage::lineage_cached;
use causality_service::{ExplainKind, ExplainRequest, ExplainResponse};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a timed step left behind for checking.
pub enum Record {
    /// A PTIME read and the snapshot pinned for it.
    Read {
        /// Step number (the request id of its spans).
        step: u64,
        /// Tenant index.
        tenant: usize,
        /// What was asked.
        request: ExplainRequest,
        /// The snapshot current when the read was sent.
        snapshot: Snapshot,
        /// What the tier answered.
        response: ExplainResponse,
        /// Client-side latency.
        latency_ns: u64,
    },
    /// A `hard_mix` NP-hard answer.
    Hard {
        /// Step number.
        step: u64,
        /// The hard tenant's snapshot.
        snapshot: Snapshot,
        /// What the tier answered.
        response: ExplainResponse,
    },
    /// A write, with the snapshots before and after it.
    Write {
        /// Step number.
        step: u64,
        /// The relation written.
        rel: RelId,
        /// The write.
        toggle: Toggle,
        /// Snapshot before the write.
        before: Snapshot,
        /// Snapshot after the write.
        after: Snapshot,
    },
}

/// A direct computation of one distinct request.
struct Direct {
    explanation: Explanation,
    compute_ns: u64,
    lineage_ns: u64,
    solve_ns: u64,
}

/// Per-layer samples gathered by the traced run.
#[derive(Default)]
pub struct Layers {
    /// Per read: tier latency minus the direct compute the tier did for
    /// it (nothing on a cache hit).
    pub service_ns: Vec<f64>,
    /// Per read: lineage time on the tier's path (0 on a hit).
    pub lineage_path_ns: Vec<f64>,
    /// Per read: solve time on the tier's path (0 on a hit).
    pub solve_path_ns: Vec<f64>,
    /// Per read: the rest of the explainer's time (grounding,
    /// classification, rendering; 0 on a hit).
    pub core_rest_path_ns: Vec<f64>,
    /// Lineage conjuncts of each checked Why-So request.
    pub conjuncts: Vec<f64>,
    /// Refinements of the direct anytime solves.
    pub approx_refinements: u64,
}

/// The checker's state across segments.
pub struct Checker {
    hard: Option<ExplainRequest>,
    /// Per tenant: the index cache and the snapshot version it was last
    /// trimmed to, so it holds the current relation versions only.
    caches: HashMap<usize, (u64, Arc<SharedIndexCache>)>,
    hard_causes: Option<BTreeSet<causality_engine::TupleRef>>,
    /// Every mismatch found, as a message.
    pub errors: Vec<String>,
    /// Certified bracket widths of every cause of every NP-hard answer.
    pub bound_widths: Vec<f64>,
    /// Samples for the per-layer metrics (filled only while tracing).
    pub layers: Layers,
}

/// Direct anytime solves timed per segment while tracing: each costs as
/// much as the NP-hard request itself, so only a few are sampled.
const APPROX_SAMPLES: usize = 4;

fn rho_bits(e: &Explanation) -> Vec<u64> {
    e.causes.iter().map(|c| c.rho.to_bits()).collect()
}

impl Checker {
    /// A checker for a workload whose NP-hard request (if any) is `hard`.
    pub fn new(hard: Option<ExplainRequest>) -> Self {
        Checker {
            hard,
            caches: HashMap::new(),
            hard_causes: None,
            errors: Vec::new(),
            bound_widths: Vec::new(),
            layers: Layers::default(),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Check one segment's records; while `tracer` is enabled, also time
    /// the layers' public functions on the same inputs.
    pub fn check(&mut self, records: Vec<Record>, tracer: &mut Tracer) {
        let mut direct: HashMap<(usize, u64, ExplainRequest), Direct> = HashMap::new();
        let mut approx_left = APPROX_SAMPLES;
        for record in records {
            match record {
                Record::Read {
                    step,
                    tenant,
                    request,
                    snapshot,
                    response,
                    latency_ns,
                } => {
                    let key = (tenant, snapshot.version(), request);
                    if !direct.contains_key(&key) {
                        match self.compute(step, tenant, &key.2, &snapshot, tracer) {
                            Ok(d) => {
                                direct.insert(key.clone(), d);
                            }
                            Err(e) => {
                                self.fail(format!("step {step}: direct explainer failed: {e}"));
                                continue;
                            }
                        }
                    }
                    let d = &direct[&key];
                    if let Err(msg) = compare(&response, d, &snapshot) {
                        self.fail(format!("step {step} ({:?}): {msg}", key.2.kind));
                    }
                    if tracer.enabled() {
                        let hit = response.cache_hit;
                        let (compute, lineage, solve) = if hit {
                            (0, 0, 0)
                        } else {
                            (d.compute_ns, d.lineage_ns, d.solve_ns)
                        };
                        let l = &mut self.layers;
                        l.service_ns.push(latency_ns as f64 - compute as f64);
                        l.lineage_path_ns.push(lineage as f64);
                        l.solve_path_ns.push(solve as f64);
                        l.core_rest_path_ns
                            .push(compute.saturating_sub(lineage + solve) as f64);
                    }
                }
                Record::Hard {
                    step,
                    snapshot,
                    response,
                } => {
                    self.check_hard(step, &snapshot, &response);
                    if tracer.enabled() && approx_left > 0 {
                        approx_left -= 1;
                        self.time_anytime(step, &snapshot, tracer);
                    }
                }
                Record::Write {
                    step,
                    rel,
                    toggle,
                    before,
                    after,
                } => {
                    let flag = after.database().relation(rel).is_endogenous(toggle.row);
                    if after.version() != before.version() + 1 || flag != toggle.endogenous {
                        self.fail(format!(
                            "step {step}: write not visible in the next snapshot"
                        ));
                    }
                    if tracer.enabled() {
                        let store = SnapshotStore::new(before.to_database());
                        let t0 = Instant::now();
                        store.update(|db| toggle.apply(db, rel));
                        let t1 = Instant::now();
                        tracer.span("engine.publish", step, None, t0, t1);
                    }
                }
            }
        }
    }

    fn cache(&mut self, tenant: usize, snapshot: &Snapshot) -> Arc<SharedIndexCache> {
        let (version, cache) = self.caches.entry(tenant).or_default();
        if *version != snapshot.version() {
            cache.retain_versions(&snapshot.database().relation_versions());
            *version = snapshot.version();
        }
        Arc::clone(cache)
    }

    /// Run the explainer the way the tier's worker does; while tracing,
    /// also time classification, evaluation and lineage on their own.
    fn compute(
        &mut self,
        step: u64,
        tenant: usize,
        request: &ExplainRequest,
        snapshot: &Snapshot,
        tracer: &mut Tracer,
    ) -> Result<Direct, String> {
        let cache = self.cache(tenant, snapshot);
        let db = snapshot.database();
        let explainer = Explainer::new(db, &request.query)
            .with_method(request.method)
            .with_index_cache(Arc::clone(&cache));
        let answer = &request.answer;
        let t0 = Instant::now();
        let (explanation, lineage_us, solve_us) = match request.kind {
            ExplainKind::WhySo => explainer
                .why_timed(answer)
                .map(|(e, t)| (e, t.lineage_us, t.solve_us)),
            ExplainKind::WhyNo => explainer
                .why_not_timed(answer)
                .map(|(e, t)| (e, t.lineage_us, t.solve_us)),
            ExplainKind::RankTopK(k) => explainer
                .why_top_k(answer, k)
                .map(|(e, s)| (e, s.lineage_us, s.solve_us)),
        }
        .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let (lineage_ns, solve_ns) = (lineage_us * 1000, solve_us * 1000);
        if tracer.enabled() {
            let root = tracer.span("check.read", step, None, t0, t1);
            let call = tracer.span("core.explain", step, root, t0, t1);
            let lineage_end = t0 + Duration::from_nanos(lineage_ns);
            tracer.span("lineage.build", step, call, t0, lineage_end.min(t1));
            let solve_start = t1.checked_sub(Duration::from_nanos(solve_ns)).unwrap_or(t0);
            tracer.span("core.solve", step, call, solve_start, t1);
            let grounded = request
                .query
                .try_ground(answer)
                .map_err(|e| e.to_string())?;
            let c0 = Instant::now();
            std::hint::black_box(DichotomyTag::of_why_so(std::hint::black_box(&grounded)));
            let c1 = Instant::now();
            tracer.span("core.classify", step, None, c0, c1);
            let eval = evaluate_with_cache(db, &grounded, &cache).map_err(|e| e.to_string())?;
            let c2 = Instant::now();
            std::hint::black_box(eval);
            tracer.span("engine.eval", step, None, c1, c2);
            if request.kind != ExplainKind::WhyNo {
                let dnf = lineage_cached(db, &grounded, Some(&cache)).map_err(|e| e.to_string())?;
                let c3 = Instant::now();
                tracer.span("lineage.lineage_cached", step, None, c2, c3);
                self.layers.conjuncts.push(dnf.len() as f64);
            }
        }
        Ok(Direct {
            explanation,
            compute_ns: (t1 - t0).as_nanos() as u64,
            lineage_ns,
            solve_ns,
        })
    }

    fn check_hard(&mut self, step: u64, snapshot: &Snapshot, response: &ExplainResponse) {
        let explanation = match &response.result {
            Ok(e) => e,
            Err(e) => return self.fail(format!("step {step}: hard request failed: {e}")),
        };
        if !matches!(explanation.mode, ExplainMode::Approximate { .. }) {
            return self.fail(format!("step {step}: hard answer is not approximate"));
        }
        let Some(hard) = &self.hard else {
            return self.fail(format!("step {step}: hard answer without a hard request"));
        };
        let expected = match &self.hard_causes {
            Some(set) => set.clone(),
            None => {
                let greedy = Explainer::new(snapshot.database(), &hard.query)
                    .why_anytime(&[], ApproxBudget::zero())
                    .map(|(e, _)| e.causes.iter().map(|c| c.tuple).collect::<BTreeSet<_>>());
                match greedy {
                    Ok(set) => self.hard_causes.insert(set).clone(),
                    Err(e) => return self.fail(format!("direct anytime solve failed: {e}")),
                }
            }
        };
        let got: BTreeSet<_> = explanation.causes.iter().map(|c| c.tuple).collect();
        if got != expected {
            self.fail(format!("step {step}: hard answer has the wrong cause set"));
        }
        for cause in &explanation.causes {
            match cause.bounds {
                Some(b) if b.lower <= b.upper => self.bound_widths.push(b.width()),
                _ => self.fail(format!("step {step}: cause without a sound bracket")),
            }
        }
    }

    fn time_anytime(&mut self, step: u64, snapshot: &Snapshot, tracer: &mut Tracer) {
        let Some(hard) = &self.hard else { return };
        let explainer = Explainer::new(snapshot.database(), &hard.query);
        let t0 = Instant::now();
        let budget = ApproxBudget {
            max_steps: u64::MAX,
            deadline: Some(t0 + Duration::from_millis(HARD_DEADLINE_MS)),
        };
        if let Ok((e, _)) = explainer.why_anytime(&[], budget) {
            tracer.span("core.approx_solve", step, None, t0, Instant::now());
            if let ExplainMode::Approximate { refinements, .. } = e.mode {
                self.layers.approx_refinements += u64::from(refinements);
            }
        }
    }
}

/// Compare a tier answer with the direct one on the pinned snapshot.
fn compare(response: &ExplainResponse, direct: &Direct, snapshot: &Snapshot) -> Result<(), String> {
    if response.snapshot_version != snapshot.version() {
        return Err(format!(
            "answered on snapshot {} but {} was current",
            response.snapshot_version,
            snapshot.version()
        ));
    }
    let got = response
        .result
        .as_ref()
        .map_err(|e| format!("request failed: {e}"))?;
    if got.mode != ExplainMode::Exact {
        return Err("PTIME answer is not exact".to_string());
    }
    if got != &direct.explanation || rho_bits(got) != rho_bits(&direct.explanation) {
        return Err("answer differs from the direct explainer".to_string());
    }
    Ok(())
}
