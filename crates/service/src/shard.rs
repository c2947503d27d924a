//! One serving **shard**: the self-contained execution cell of the tier.
//!
//! A shard owns everything a slice of the traffic needs — its own
//! snapshot stores (one per tenant mapped to it), its own worker pool,
//! its own [`SharedIndexCache`], its own responsibility LRU, and its own
//! `StatsCounters` — so writes to one
//! tenant's relations can never evict another shard's warm caches or
//! queue behind another shard's traffic. The layers above are thin:
//!
//! * [`ShardedService`](crate::ShardedService) routes tenants onto N
//!   shards via the [`dispatch`](crate::dispatch) layer and applies
//!   admission control and deadline budgets at the front end — the one
//!   way into a shard;
//! * [`CausalityService`](crate::CausalityService) is a one-shard,
//!   one-tenant `ShardedService`.
//!
//! Within a shard, multiple tenants can coexist soundly because both
//! cache layers are keyed on per-relation `(RelId, RelVersion)` content
//! stamps and `RelVersion` stamps are **process-wide unique** (PR 3):
//! two tenants' relations can never alias a cache entry.

use crate::breaker::BreakerRegistry;
use crate::chaos::FaultAction;
use crate::lru::LruCache;
use crate::request::{ExplainRequest, ServiceError};
use crate::stats::StatsCounters;
use crate::supervisor::HealthCell;
use crate::worker::{worker_loop, Job};
use causality_core::explain::Explanation;
use causality_engine::{
    ConjunctiveQuery, Database, RelId, RelVersion, SharedIndexCache, Snapshot, SnapshotStore,
};
use causality_telemetry::{MetricsRegistry, Telemetry, TelemetryConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lock a mutex, recovering from poisoning. Workers convert panics into
/// error responses ([`ServiceError::Panicked`]) before they can unwind
/// through a held lock, so poisoning is already unreachable from the
/// serving path — but if a lock is ever poisoned anyway (e.g. by a
/// panicking test hook or a future code path), serving degrades to
/// using the last-written state instead of cascading the panic into
/// every worker that touches the mutex afterwards. All state behind
/// these locks is valid at every step (caches and registries are
/// updated by single self-contained calls), so recovery is safe.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The installed fault-injection hook of one shard: maps the shard-local
/// computation ordinal and the request to the [`FaultAction`] the worker
/// applies before computing. Installed through
/// [`ShardedService::inject_faults`](crate::ShardedService::inject_faults),
/// which binds the shard index of the caller's
/// `Fn(shard, ordinal, &ExplainRequest)` hook. One hook sees one ordinal
/// exactly once, so every fault scheduled for a request fires on it.
pub(crate) type ChaosHook = Box<dyn Fn(u64, &ExplainRequest) -> FaultAction + Send + Sync>;

/// Identifies one tenant's snapshot store within a shard.
pub(crate) type TenantKey = u64;

/// The relation-content fingerprint a cached explanation depends on: the
/// (id, version) stamps of exactly the relations the request's query
/// mentions, sorted and deduplicated. Writes to other relations leave the
/// fingerprint — and therefore the cache entry — intact.
pub(crate) type RelFingerprint = Vec<(RelId, RelVersion)>;

/// Tuning knobs of one shard (and of the single-shard
/// [`CausalityService`](crate::CausalityService), whose one shard admits
/// up to `queue_capacity` queued requests).
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Bound of the request queue; a submit finding it full is rejected
    /// with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum requests a worker drains into one batch.
    pub batch_max: usize,
    /// Entries held by the responsibility LRU cache.
    pub cache_capacity: usize,
    /// How many recent snapshot versions (per tenant) keep their
    /// relations' join indexes alive in the shared index cache; relation
    /// versions reachable from none of them are evicted.
    pub cached_versions: usize,
    /// Threads each fresh [`ExplainKind::RankTopK`](crate::ExplainKind::RankTopK)
    /// computation fans its per-cause responsibility runs over (min 1;
    /// 1 = rank on the worker thread). Total ranking threads can reach
    /// `workers × rank_parallelism`, so size the two together against
    /// the machine.
    pub rank_parallelism: usize,
    /// Request tracing and slow-log configuration (sampling rate, ring
    /// capacities, slow thresholds). Sampling defaults to 1.0 — every
    /// request traced; set `sample_rate: 0.0` to disable tracing
    /// entirely (no per-request allocation).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 128,
            batch_max: 16,
            cache_capacity: 1024,
            cached_versions: 4,
            rank_parallelism: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Clamp every knob to its minimum viable value.
    pub(crate) fn sanitized(self) -> Self {
        ServiceConfig {
            workers: self.workers.max(1),
            queue_capacity: self.queue_capacity.max(1),
            batch_max: self.batch_max.max(1),
            cached_versions: self.cached_versions.max(1),
            rank_parallelism: self.rank_parallelism.max(1),
            telemetry: self.telemetry.sanitized(),
            ..self
        }
    }
}

/// State shared between a shard's handle and its workers.
pub(crate) struct ShardCore {
    pub(crate) cfg: ServiceConfig,
    /// Queue-depth limit enforced by [`Shard::submit_admitted`].
    pub(crate) admission_limit: usize,
    /// Snapshot stores of the tenants routed to this shard.
    pub(crate) tenants: RwLock<HashMap<TenantKey, Arc<SnapshotStore>>>,
    pub(crate) stats: StatsCounters,
    /// The shard's metric registry: every [`StatsCounters`] entry and the
    /// telemetry bookkeeping counters live here, named, for export.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Request tracing hub: sampler, trace ring, and slow-log.
    pub(crate) telemetry: Telemetry,
    /// Memoized explanations: (query's relation fingerprint, request) →
    /// explanation. Keyed on relation content, not snapshot version, so
    /// entries survive writes to unrelated relations — including every
    /// write belonging to a *different* tenant.
    pub(crate) resp_cache: Mutex<LruCache<(RelFingerprint, ExplainRequest), Explanation>>,
    /// The one join-index cache serving every snapshot version of every
    /// tenant on this shard — sound because its entries are keyed on
    /// process-wide-unique per-relation content stamps.
    pub(crate) index_cache: Arc<SharedIndexCache>,
    /// Per-tenant relation fingerprints of recently served snapshot
    /// versions, newest last; the union of their stamps is the index
    /// cache's live set, everything else gets evicted.
    pub(crate) live_snapshots: Mutex<HashMap<TenantKey, Vec<(u64, RelFingerprint)>>>,
    /// The fault-injection hook, consulted once per computation with the
    /// next shard-local ordinal (see [`ChaosHook`]).
    pub(crate) fault: Mutex<Option<ChaosHook>>,
    /// Shard-local computation ordinal feeding the fault hook.
    pub(crate) ordinal: AtomicU64,
    /// True while a fault hook is installed. Workers check this one
    /// atomic before touching the hook mutex, so chaos-free serving
    /// never pays for the injection point.
    pub(crate) chaos_armed: AtomicBool,
    /// Current run of panicking computations without an intervening
    /// completion; the supervisor quarantines past a threshold.
    pub(crate) consecutive_panics: AtomicU64,
    /// Live health classification, written by the supervisor.
    pub(crate) health: HealthCell,
    /// Worker-pool generation: bumped by [`Shard::restart_pool`]; a
    /// worker retires after its current batch once its spawn generation
    /// is stale.
    pub(crate) generation: AtomicU64,
    /// The tier's per-tenant circuit breakers, shared across every shard
    /// of a [`ShardedService`](crate::ShardedService): a tenant's
    /// failures are a property of the tenant, not of one shard.
    pub(crate) breakers: Arc<BreakerRegistry>,
}

impl ShardCore {
    /// The tenant's snapshot store, if this shard hosts it.
    pub(crate) fn store(&self, tenant: TenantKey) -> Option<Arc<SnapshotStore>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&tenant)
            .cloned()
    }

    /// Highest published snapshot version across this shard's tenants.
    pub(crate) fn max_version(&self) -> u64 {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|store| store.version())
            .max()
            .unwrap_or(0)
    }

    /// Register `snapshot` of `tenant` as served and return the shared
    /// index cache.
    ///
    /// The first time a (tenant, version) pair is seen, its
    /// relation-version fingerprint joins that tenant's retained window
    /// ([`ServiceConfig::cached_versions`] entries); index entries for
    /// relation versions no longer reachable from any tenant's window
    /// are evicted and counted.
    pub(crate) fn index_cache_for(
        &self,
        tenant: TenantKey,
        snapshot: &Snapshot,
    ) -> Arc<SharedIndexCache> {
        let version = snapshot.version();
        let mut live = lock_unpoisoned(&self.live_snapshots);
        let window = live.entry(tenant).or_default();
        let mut window_changed = false;
        if !window.iter().any(|(v, _)| *v == version) {
            window.push((version, snapshot.relation_versions()));
            window.sort_by_key(|(v, _)| *v);
            if window.len() > self.cfg.cached_versions {
                let excess = window.len() - self.cfg.cached_versions;
                window.drain(0..excess);
            }
            window_changed = true;
        }
        // Sweep when a window moved — plus on a periodic cadence: a
        // worker still evaluating an already-dropped older snapshot may
        // re-insert stamps from outside the window *after* the sweep that
        // dropped them, and without the cadence those would linger until
        // the next version arrives (forever, if the write stream stops).
        // The cadence keeps the steady read-only path free of the index
        // cache's write lock.
        let periodic = self.stats.batches.get().is_multiple_of(64);
        if window_changed || periodic {
            let mut retained: RelFingerprint = live
                .values()
                .flat_map(|w| w.iter())
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            retained.sort();
            retained.dedup();
            let evicted = self.index_cache.retain_versions(&retained);
            self.stats.index_evictions.add(evicted as u64);
        }
        Arc::clone(&self.index_cache)
    }

    /// Finalize the trace of a job that never made it into the queue
    /// (admission reject or disconnected shard), so rejected
    /// requests show up in the trace ring and slow-log too.
    pub(crate) fn finalize_unqueued(&self, job: Job, outcome: &'static str) {
        if let Some(mut tb) = job.trace {
            tb.set_outcome(outcome);
            self.telemetry.record(tb.finish());
        }
    }

    /// The time this shard needs to drain `depth` queued jobs, in µs:
    /// `depth` × the observed mean response latency (which already folds
    /// in queue wait; 1 ms on a cold histogram) ÷ the worker count.
    fn drain_us(&self, depth: u64) -> u64 {
        let samples: u64 = self.stats.latency.counts(false).iter().sum();
        let mean_us = self
            .stats
            .latency
            .sum_us(false)
            .checked_div(samples)
            .map_or(1_000, |mean| mean.max(1));
        depth.saturating_mul(mean_us) / self.cfg.workers as u64
    }

    /// How long a job admitted now would wait in the queue: the drain
    /// time of the current queue, unclamped, and zero when the queue is
    /// empty — so an idle shard never answers inline.
    pub(crate) fn predicted_wait(&self) -> Duration {
        Duration::from_micros(self.drain_us(self.stats.queue_depth.get()))
    }

    /// How long a rejected caller should wait before retrying: the drain
    /// time of at least one queued job, clamped to `[1ms, 2s]` so a cold
    /// histogram or a pathological backlog still yields a usable hint.
    pub(crate) fn retry_after_hint(&self) -> Duration {
        let drain_us = self.drain_us(self.stats.queue_depth.get().max(1));
        Duration::from_micros(drain_us.clamp(1_000, 2_000_000))
    }
}

/// The relation fingerprint a request's answer depends on, or `None` if
/// the query names a relation the snapshot does not have (the computation
/// will surface the error; it just cannot be cached).
pub(crate) fn resp_fingerprint(
    snapshot: &Snapshot,
    request: &ExplainRequest,
) -> Option<RelFingerprint> {
    let mut rels: RelFingerprint = Vec::with_capacity(request.query.atoms().len());
    for atom in request.query.atoms() {
        let id = snapshot.relation_id(&atom.relation)?;
        rels.push((id, snapshot.relation_version(id)));
    }
    rels.sort();
    rels.dedup();
    Some(rels)
}

/// Reject malformed requests at submit time: grounding must succeed, so a
/// worker can never hit an answer/head mismatch mid-computation. Returns
/// the grounded query, which admission classifies for the route.
pub(crate) fn validate(request: &ExplainRequest) -> Result<ConjunctiveQuery, ServiceError> {
    request
        .query
        .try_ground(&request.answer)
        .map_err(|e| ServiceError::InvalidRequest(e.to_string()))
}

/// One running shard: the shared core, the job queue, and the worker
/// pool draining it.
///
/// Since PR 9 the pool is *restartable*: [`Shard::restart_pool`] spawns
/// a fresh generation of workers onto the **same** channel and retires
/// the old generation lazily. Keeping the channel fixed is what makes a
/// restart loss-free by construction — no job ever has to migrate
/// between queues, so there is no window in which a submission can land
/// in a queue nobody will drain. A wedged worker never blocks the
/// restart either: workers release the queue mutex before computing, so
/// fresh workers start draining immediately while the wedged one
/// finishes (and still delivers) its in-flight response, then notices
/// its stale generation and exits.
pub(crate) struct Shard {
    pub(crate) core: Arc<ShardCore>,
    /// `None` once the shard is shut down. Dropping the sender is the
    /// shutdown signal: workers drain every buffered job, then exit on
    /// disconnect.
    tx: RwLock<Option<SyncSender<Box<Job>>>>,
    rx: Arc<Mutex<Receiver<Box<Job>>>>,
    name: String,
    /// Every worker thread ever spawned (all generations); joined at
    /// shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shard {
    /// Spawn a shard with `cfg.workers` threads. `admission_limit` is
    /// the queue-depth bound enforced by [`Shard::submit_admitted`].
    /// `name` labels the worker threads. `breakers` shares the tier's
    /// circuit breakers with the workers (outcome recording).
    pub(crate) fn spawn(
        cfg: ServiceConfig,
        admission_limit: usize,
        name: &str,
        breakers: Arc<BreakerRegistry>,
    ) -> Self {
        let cfg = cfg.sanitized();
        let registry = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ShardCore {
            cfg,
            admission_limit,
            tenants: RwLock::new(HashMap::new()),
            stats: StatsCounters::new(&registry),
            telemetry: Telemetry::new(cfg.telemetry, &registry),
            registry,
            resp_cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            index_cache: Arc::new(SharedIndexCache::new()),
            live_snapshots: Mutex::new(HashMap::new()),
            fault: Mutex::new(None),
            ordinal: AtomicU64::new(0),
            chaos_armed: AtomicBool::new(false),
            consecutive_panics: AtomicU64::new(0),
            health: HealthCell::new(),
            generation: AtomicU64::new(0),
            breakers,
        });
        let (tx, rx) = sync_channel::<Box<Job>>(cfg.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let shard = Shard {
            core,
            tx: RwLock::new(Some(tx)),
            rx,
            name: name.to_owned(),
            handles: Mutex::new(Vec::new()),
        };
        shard.spawn_workers(0);
        shard
    }

    /// Spawn `cfg.workers` threads of `generation` onto the shared
    /// channel.
    fn spawn_workers(&self, generation: u64) {
        let mut handles = lock_unpoisoned(&self.handles);
        for i in 0..self.core.cfg.workers {
            let rx = Arc::clone(&self.rx);
            let core = Arc::clone(&self.core);
            let handle = std::thread::Builder::new()
                .name(format!("{}-g{generation}-worker-{i}", self.name))
                .spawn(move || worker_loop(&rx, &core, generation))
                .expect("spawn worker thread");
            handles.push(handle);
        }
    }

    /// Replace the worker pool with a fresh generation (PR 9 recovery
    /// path, driven by the supervisor on a quarantined shard).
    ///
    /// The queue, its contents, and all counters are untouched: new
    /// workers drain the very jobs the old pool was wedged on. Old
    /// workers retire after at most one more batch; ones stuck in a
    /// computation keep running until it completes, still deliver that
    /// response, and then exit — so a restart can never lose or
    /// double-serve a request.
    pub(crate) fn restart_pool(&self) {
        if self.sender().is_none() {
            return; // shut down; nothing to restart
        }
        let generation = self.core.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.stats.shard_restarts.inc();
        self.core.consecutive_panics.store(0, Ordering::Relaxed);
        self.spawn_workers(generation);
    }

    /// Install (or replace) a tenant's snapshot store.
    pub(crate) fn add_tenant(&self, tenant: TenantKey, db: Database) {
        self.core
            .tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(tenant, Arc::new(SnapshotStore::new(db)));
    }

    /// A clone of the queue's sender, or `None` after shutdown.
    fn sender(&self) -> Option<SyncSender<Box<Job>>> {
        self.tx
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Enqueue with **bounded admission**: when the shard's queue depth
    /// has reached `admission_limit` — or the bounded channel itself is
    /// full — the request is rejected with [`ServiceError::Overloaded`],
    /// returned to the caller (never dropped) with a retry-after hint,
    /// and counted in
    /// [`ServiceStats::admission_rejects`](crate::ServiceStats::admission_rejects).
    /// Never blocks. A rejected job's trace is finalized with the
    /// error's outcome label.
    pub(crate) fn submit_admitted(&self, job: Job) -> Result<(), ServiceError> {
        let depth = self.core.stats.queue_depth.get();
        if depth as usize >= self.core.admission_limit {
            let err = self.overloaded();
            self.core.finalize_unqueued(job, err.outcome_label());
            return Err(err);
        }
        let Some(tx) = self.sender() else {
            self.core
                .finalize_unqueued(job, ServiceError::Disconnected.outcome_label());
            return Err(ServiceError::Disconnected);
        };
        self.core.stats.queue_depth.inc();
        match tx.try_send(Box::new(job)) {
            Ok(()) => {
                self.core.stats.requests.inc();
                Ok(())
            }
            Err(e) => {
                self.core.stats.queue_depth.dec(1);
                let (err, job) = match e {
                    // The channel filling between the depth check and the
                    // send is still "past the queue-depth limit" to a
                    // caller.
                    TrySendError::Full(job) => (self.overloaded(), job),
                    TrySendError::Disconnected(job) => (ServiceError::Disconnected, job),
                };
                self.core.finalize_unqueued(*job, err.outcome_label());
                Err(err)
            }
        }
    }

    /// Count an admission reject and build its error.
    fn overloaded(&self) -> ServiceError {
        self.core.stats.admission_rejects.inc();
        ServiceError::Overloaded {
            retry_after: self.core.retry_after_hint(),
        }
    }

    /// Stop accepting work, drain the queue, and join every worker
    /// generation. Idempotent, and callable through a shared reference
    /// (the supervisor holds the shards behind an `Arc`).
    ///
    /// Dropping the sender is the signal: workers finish the buffered
    /// jobs (mpsc delivers everything already queued before reporting
    /// disconnect), then exit.
    pub(crate) fn shutdown(&self) {
        drop(
            self.tx
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = lock_unpoisoned(&self.handles);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.shutdown();
    }
}
