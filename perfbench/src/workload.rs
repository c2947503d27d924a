//! The three workloads: their generated inputs, their op streams, and
//! the tier they run against.
//!
//! Everything here is a pure function of `(workload, seed, size)`: the
//! tier receives only the generated databases and requests, never the
//! seed. Writes toggle one row's endogenous flag and the next write to
//! the same tenant toggles it back, so databases keep their size however
//! many writes a run manages: a faster program does more writes, but
//! never works on bigger data.

use causality_datagen::hard_instances::dense_triangles;
use causality_datagen::tenants::{tenant_workload, TenantOp, TenantWorkloadConfig};
use causality_datagen::workloads::{chain, ChainConfig};
use causality_engine::{evaluate, ConjunctiveQuery, Database, RelId, RowId, Value};
use causality_service::{ExplainRequest, ServiceConfig, ShardedService, TenantId, TierConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The named workloads of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-hot tenants asking Why-So, Why-No and top-k, rare writes:
    /// cached answers dominate, so the service layer does the work.
    TenantZipf,
    /// Fig. 4's chain query, made non-Boolean, with a write every few
    /// reads: nearly every read misses the cache and runs the kernels.
    ChainChurn,
    /// Rounds of one NP-hard Why-So under a 2 ms deadline followed at
    /// once by a PTIME Why-So on the same single-worker shard.
    HardMix,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TenantZipf,
        Workload::ChainChurn,
        Workload::HardMix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantZipf => "tenant_zipf",
            Workload::ChainChurn => "chain_churn",
            Workload::HardMix => "hard_mix",
        }
    }

    /// Whether a run keeps the benchmark and the tier on one CPU.
    /// `chain_churn` is serial: one closed-loop client and one tenant on
    /// one single-worker shard, so only one thread ever has work. Pinned,
    /// each hand-off between client and worker is a switch on a busy CPU.
    /// Unpinned, it waits for the host to wake the other, idle vCPU, and
    /// on a shared VM that wait follows the host's load, not the program.
    /// `hard_mix` is not pinned: it measures queueing between two
    /// requests, which a second CPU may serve.
    pub fn pinned(self) -> bool {
        self == Workload::ChainChurn
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and phase lengths.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `tenant_zipf`: number of tenants.
    pub tenants: usize,
    /// Rows of `R` per tenant database (half of them join `S`).
    pub rows_per_tenant: usize,
    /// `chain_churn`: tuples per chain relation.
    pub chain_tuples: usize,
    /// `chain_churn`: distinct values per chain layer.
    pub chain_domain: usize,
    /// `hard_mix`: node ids per role of the dense triangle instance.
    pub hard_nodes: usize,
    /// `hard_mix`: tuples per triangle relation.
    pub hard_tuples: usize,
    /// Steps per measured segment; answers are checked between segments.
    pub segment: [usize; 3],
    /// Steps run during set-up, so caches fill before timing.
    pub warmup: [usize; 3],
}

impl Size {
    /// The sizes the benchmark measures.
    pub const FULL: Size = Size {
        tenants: 8,
        rows_per_tenant: 24,
        chain_tuples: 100,
        chain_domain: 20,
        hard_nodes: 5,
        hard_tuples: 80,
        segment: [2000, 400, 50],
        warmup: [1000, 100, 4],
    };

    /// Small inputs for the benchmark's own tests.
    pub const TINY: Size = Size {
        tenants: 3,
        rows_per_tenant: 8,
        chain_tuples: 20,
        chain_domain: 6,
        hard_nodes: 4,
        hard_tuples: 20,
        segment: [60, 30, 4],
        warmup: [10, 5, 1],
    };

    /// Steps per measured segment of `w`.
    pub fn segment(&self, w: Workload) -> usize {
        self.segment[w as usize]
    }

    /// Warm-up steps of `w`.
    pub fn warmup(&self, w: Workload) -> usize {
        self.warmup[w as usize]
    }
}

/// Share of `tenant_zipf` ops that are writes.
const TENANT_WRITE_FRACTION: f64 = 0.01;
/// Share of `chain_churn` ops that are writes ("every few reads").
const CHAIN_WRITE_FRACTION: f64 = 0.25;
/// The deadline every `hard_mix` NP-hard request carries.
pub const HARD_DEADLINE_MS: u64 = 2;
/// Generator seeds of the chain and triangle databases. They are fixed
/// because the cost of a request varies by up to 1.7x between randomly
/// drawn instances; the run's seed drives the op stream instead (which
/// answers are asked, which rows are written). The tenant databases of
/// `datagen::tenants` do not depend on a seed at all.
const CHAIN_INSTANCE_SEED: u64 = 7;
const HARD_INSTANCE_SEED: u64 = 1;

/// One tenant's generated input.
#[derive(Clone, Debug)]
pub struct TenantInput {
    /// Routing name.
    pub name: String,
    /// The tenant's database.
    pub db: Database,
    /// The query its reads ask about.
    pub query: ConjunctiveQuery,
    /// The relation its writes toggle rows of.
    pub toggled: RelId,
}

/// A write: set one row of the tenant's toggled relation endogenous or
/// exogenous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Toggle {
    /// The row.
    pub row: RowId,
    /// Its new endogenous flag.
    pub endogenous: bool,
}

impl Toggle {
    /// Apply the write to `db`.
    pub fn apply(self, db: &mut Database, rel: RelId) {
        db.relation_mut(rel)
            .set_endogenous(self.row, self.endogenous);
    }
}

/// One step of a closed-loop client.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Send a read to tenant `tenant` and wait for the answer.
    Read {
        /// Index into [`Inputs::tenants`].
        tenant: usize,
        /// The request.
        request: ExplainRequest,
    },
    /// Apply a write to tenant `tenant`.
    Write {
        /// Index into [`Inputs::tenants`].
        tenant: usize,
        /// The write.
        toggle: Toggle,
    },
    /// `hard_mix`: send [`Inputs::hard`] to tenant 0 and `read` to tenant
    /// 1 without waiting in between, wait for both, then write to tenant 1.
    Round {
        /// The PTIME Why-So sent right behind the NP-hard one.
        read: ExplainRequest,
        /// The write that follows, so the next PTIME read misses the cache.
        toggle: Toggle,
    },
}

/// Everything the tier is given for one workload.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Tenants in registration order.
    pub tenants: Vec<TenantInput>,
    /// `hard_mix`: the NP-hard Why-So request of every round.
    pub hard: Option<ExplainRequest>,
}

/// Answers of `query` over `db`, sorted.
fn answers(db: &Database, query: &ConjunctiveQuery) -> Vec<Vec<Value>> {
    evaluate(db, query)
        .expect("generated query evaluates")
        .answers
        .into_iter()
        .map(|t| t.values().to_vec())
        .collect()
}

fn tenant_config(size: &Size, tenants: usize, ops: usize, seed: u64) -> TenantWorkloadConfig {
    TenantWorkloadConfig {
        tenants,
        rows_per_tenant: size.rows_per_tenant,
        ops,
        write_fraction: TENANT_WRITE_FRACTION,
        seed,
        ..TenantWorkloadConfig::default()
    }
}

fn datagen_tenants(size: &Size, count: usize) -> Vec<TenantInput> {
    tenant_workload(&tenant_config(size, count, 0, 0))
        .tenants
        .into_iter()
        .map(|spec| TenantInput {
            toggled: spec.db.relation_id("S").expect("tenant schema has S"),
            name: spec.name,
            db: spec.db,
            query: spec.query,
        })
        .collect()
}

impl Inputs {
    /// Generate the databases of `workload` (the op stream comes from
    /// [`Stream`]).
    pub fn generate(workload: Workload, size: &Size) -> Inputs {
        match workload {
            Workload::TenantZipf => Inputs {
                workload,
                tenants: datagen_tenants(size, size.tenants),
                hard: None,
            },
            Workload::ChainChurn => {
                let inst = chain(&ChainConfig {
                    atoms: 2,
                    tuples_per_relation: size.chain_tuples,
                    domain_per_layer: size.chain_domain,
                    seed: CHAIN_INSTANCE_SEED,
                });
                let query = ConjunctiveQuery::parse("q(x0) :- R1(x0, x1), R2(x1, x2)")
                    .expect("chain query parses");
                Inputs {
                    workload,
                    tenants: vec![TenantInput {
                        name: "chain".to_string(),
                        toggled: inst.db.relation_id("R2").expect("chain has R2"),
                        db: inst.db,
                        query,
                    }],
                    hard: None,
                }
            }
            Workload::HardMix => {
                let inst = dense_triangles(size.hard_nodes, size.hard_tuples, HARD_INSTANCE_SEED);
                // "hard-triangles" and "tenant-0" route to the same shard
                // of a two-shard tier, so the PTIME read queues behind
                // the NP-hard one.
                let hard = TenantInput {
                    name: "hard-triangles".to_string(),
                    toggled: inst.db.relation_id("R").expect("triangles have R"),
                    db: inst.db,
                    query: inst.query,
                };
                let ptime = datagen_tenants(size, 1).remove(0);
                Inputs {
                    workload,
                    hard: Some(ExplainRequest::why_so(hard.query.clone(), Vec::new())),
                    tenants: vec![hard, ptime],
                }
            }
        }
    }
}

/// A workload's deterministic, unbounded op stream, produced one
/// segment at a time.
pub struct Stream {
    workload: Workload,
    seed: u64,
    segments: u64,
    rng: StdRng,
    queries: Vec<ConjunctiveQuery>,
    answers: Vec<Vec<Vec<Value>>>,
    /// Per tenant, answers not yet asked in the current pass.
    unasked: Vec<Vec<usize>>,
    toggle_rows: Vec<usize>,
    /// Per tenant, the row the last write flipped to exogenous.
    flipped: Vec<Option<RowId>>,
    size: Size,
}

impl Stream {
    /// The stream of `inputs`, seeded by `seed`.
    pub fn new(inputs: &Inputs, seed: u64, size: &Size) -> Stream {
        Stream {
            workload: inputs.workload,
            seed,
            segments: 0,
            rng: StdRng::seed_from_u64(seed),
            queries: inputs.tenants.iter().map(|t| t.query.clone()).collect(),
            answers: inputs
                .tenants
                .iter()
                .map(|t| answers(&t.db, &t.query))
                .collect(),
            toggle_rows: inputs
                .tenants
                .iter()
                .map(|t| t.db.relation(t.toggled).len())
                .collect(),
            unasked: vec![Vec::new(); inputs.tenants.len()],
            flipped: vec![None; inputs.tenants.len()],
            size: *size,
        }
    }

    fn toggle(&mut self, tenant: usize) -> Toggle {
        match self.flipped[tenant].take() {
            Some(row) => Toggle {
                row,
                endogenous: true,
            },
            None => {
                let row = RowId(self.rng.gen_range(0..self.toggle_rows[tenant]) as u32);
                self.flipped[tenant] = Some(row);
                Toggle {
                    row,
                    endogenous: false,
                }
            }
        }
    }

    /// The next answer of a seed-shuffled pass over every answer. Each
    /// pass asks every answer once, so the mix of cheap and costly
    /// answers is the same for every seed; only the order differs.
    fn pick_answer(&mut self, tenant: usize) -> Vec<Value> {
        if self.unasked[tenant].is_empty() {
            let mut pass: Vec<usize> = (0..self.answers[tenant].len()).collect();
            pass.shuffle(&mut self.rng);
            self.unasked[tenant] = pass;
        }
        let i = self.unasked[tenant].pop().expect("refilled above");
        self.answers[tenant][i].clone()
    }

    /// The next `n` steps.
    pub fn next_segment(&mut self, n: usize) -> Vec<Step> {
        self.segments += 1;
        match self.workload {
            Workload::TenantZipf => {
                // datagen's tenant mix, one fresh seed per segment.
                let seed = self
                    .seed
                    .wrapping_add(self.segments.wrapping_mul(0x9e37_79b9));
                let cfg = tenant_config(&self.size, self.queries.len(), n, seed);
                let ops = tenant_workload(&cfg).ops;
                ops.into_iter()
                    .map(|op| {
                        let tenant = op.tenant();
                        let query = self.queries[tenant].clone();
                        match op {
                            TenantOp::WhySo { answer, .. } => Step::Read {
                                tenant,
                                request: ExplainRequest::why_so(query, answer),
                            },
                            TenantOp::WhyNo { answer, .. } => Step::Read {
                                tenant,
                                request: ExplainRequest::why_no(query, answer),
                            },
                            TenantOp::RankTopK { answer, k, .. } => Step::Read {
                                tenant,
                                request: ExplainRequest::rank_top_k(query, answer, k),
                            },
                            TenantOp::Write { .. } => Step::Write {
                                tenant,
                                toggle: self.toggle(tenant),
                            },
                        }
                    })
                    .collect()
            }
            Workload::ChainChurn => (0..n)
                .map(|_| {
                    if self.rng.gen_bool(CHAIN_WRITE_FRACTION) {
                        Step::Write {
                            tenant: 0,
                            toggle: self.toggle(0),
                        }
                    } else {
                        let answer = self.pick_answer(0);
                        Step::Read {
                            tenant: 0,
                            request: ExplainRequest::why_so(self.queries[0].clone(), answer),
                        }
                    }
                })
                .collect(),
            Workload::HardMix => (0..n)
                .map(|_| {
                    let answer = self.pick_answer(1);
                    Step::Round {
                        read: ExplainRequest::why_so(self.queries[1].clone(), answer),
                        toggle: self.toggle(1),
                    }
                })
                .collect(),
        }
    }
}

/// The tier every workload runs against. Non-default settings: two
/// shards (default 4) of one worker each (default 4), so the load fits
/// a 2-vCPU host. Everything else, telemetry included, is the default.
pub fn tier_config() -> TierConfig {
    TierConfig {
        shards: 2,
        shard: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    }
}

/// Build the tier and register every tenant of `inputs`.
pub fn build_tier(inputs: &Inputs) -> (ShardedService, Vec<TenantId>) {
    let tier = ShardedService::new(tier_config());
    let ids = inputs
        .tenants
        .iter()
        .map(|t| {
            tier.add_tenant(&t.name, t.db.clone())
                .expect("tenant names are unique")
        })
        .collect();
    (tier, ids)
}
