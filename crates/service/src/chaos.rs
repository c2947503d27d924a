//! Deterministic fault injection: the seeded [`FaultPlan`] (PR 9).
//!
//! A request predicate that makes matching computations panic is
//! enough to prove isolation, not recovery: a self-healing tier has to be soaked with
//! *schedules* of faults (panic bursts, worker stalls, submission
//! bursts that fill channels, poisoned cache locks) and must converge
//! back to healthy every time. A [`FaultPlan`] is such a schedule,
//! generated from a seed: the same seed yields the same plan,
//! event-for-event, so a chaos failure in CI is replayable locally by
//! copying one number out of the log. Per-request events key on the
//! shard's *request ordinal* (the position of the request in that
//! shard's processing order), not on wall time — time-based injection
//! would un-determinize the plan on a loaded machine.
//!
//! Plans and predicates share one injection point: the
//! `Fn(shard, ordinal, &ExplainRequest) -> FaultAction` hook of
//! [`ShardedService::inject_faults`](crate::ShardedService::inject_faults).
//! A plan installs as `move |s, o, _| plan.action_for(s, o)`.

use crate::retry::JitterRng;
use std::fmt;
use std::time::Duration;

/// One kind of injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The computation panics (caught by the worker's isolation layer).
    Panic,
    /// The worker sleeps this long mid-computation, simulating a wedge.
    Stall(Duration),
    /// The computation panics while holding the responsibility-cache
    /// lock, poisoning it (the shard must recover the lock).
    PoisonCache,
    /// Harness-level: submit this many extra back-to-back requests to
    /// the shard, driving its bounded channel toward full.
    Burst(u32),
    /// Harness-level: skew the injected test clock backwards by this
    /// much (exercised against `ManualClock`; the state machines must
    /// survive time moving the wrong way).
    ClockSkew(Duration),
}

impl FaultKind {
    /// Whether the fault is injected per request inside a worker (vs
    /// driven by the harness around the tier).
    pub fn is_worker_fault(self) -> bool {
        matches!(
            self,
            FaultKind::Panic | FaultKind::Stall(_) | FaultKind::PoisonCache
        )
    }
}

/// One scheduled fault: `kind` fires on shard `shard` when its request
/// ordinal reaches `at_ordinal`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Target shard index.
    pub shard: usize,
    /// The shard-local request ordinal the event fires at. Worker
    /// faults match the request with exactly this ordinal; harness
    /// events fire when the harness observes the ordinal pass this
    /// value.
    pub at_ordinal: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// What a worker should do to the computation of one request, combining
/// every worker fault scheduled for its ordinal.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultAction {
    /// Sleep this long before computing.
    pub stall: Option<Duration>,
    /// Panic (after any stall).
    pub panic: bool,
    /// Panic while holding the responsibility-cache lock.
    pub poison: bool,
}

impl FaultAction {
    /// True when no fault applies.
    pub fn is_noop(&self) -> bool {
        *self == FaultAction::default()
    }
}

/// A seeded, replayable schedule of faults across a tier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// All scheduled events, sorted by `(shard, at_ordinal)`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the plan for `seed` over a tier of `shards` shards,
    /// scheduling events within the first `horizon` request ordinals of
    /// each shard.
    ///
    /// The mix is chosen to exercise every recovery path: each shard
    /// gets a panic burst (long enough to trip quarantine under the
    /// default [`crate::SupervisorConfig`]), at least one stall, an
    /// occasional cache poisoning, and the tier gets submission bursts
    /// and one clock-skew event. Generation touches nothing but the
    /// seeded generator, so equal seeds yield equal plans.
    pub fn generate(seed: u64, shards: usize, horizon: u64) -> Self {
        let mut rng = JitterRng::new(seed);
        let mut events = Vec::new();
        let horizon = horizon.max(16);
        for shard in 0..shards {
            // A consecutive panic burst somewhere in the first half.
            let burst_len = 5 + rng.below(3); // 5..8 ≥ default panic_quarantine
            let start = rng.below(horizon / 2).max(1);
            for i in 0..burst_len {
                events.push(FaultEvent {
                    shard,
                    at_ordinal: start + i,
                    kind: FaultKind::Panic,
                });
            }
            // One or two stalls in the second half.
            for _ in 0..(1 + rng.below(2)) {
                events.push(FaultEvent {
                    shard,
                    at_ordinal: horizon / 2 + rng.below(horizon / 2),
                    kind: FaultKind::Stall(Duration::from_millis(5 + rng.below(20))),
                });
            }
            // Cache poisoning on roughly half the shards.
            if rng.below(2) == 0 {
                events.push(FaultEvent {
                    shard,
                    at_ordinal: rng.below(horizon).max(1),
                    kind: FaultKind::PoisonCache,
                });
            }
            // A submission burst aimed at this shard.
            events.push(FaultEvent {
                shard,
                at_ordinal: rng.below(horizon).max(1),
                kind: FaultKind::Burst(16 + rng.below(48) as u32),
            });
        }
        // One tier-wide clock-skew event, attributed to shard 0.
        events.push(FaultEvent {
            shard: 0,
            at_ordinal: rng.below(horizon).max(1),
            kind: FaultKind::ClockSkew(Duration::from_millis(10 + rng.below(90))),
        });
        events.sort_by_key(|e| (e.shard, e.at_ordinal));
        FaultPlan { seed, events }
    }

    /// The combined worker-side action for one request, identified by
    /// its shard and shard-local ordinal.
    pub fn action_for(&self, shard: usize, ordinal: u64) -> FaultAction {
        let mut action = FaultAction::default();
        for e in self
            .events
            .iter()
            .filter(|e| e.shard == shard && e.at_ordinal == ordinal)
        {
            match e.kind {
                FaultKind::Panic => action.panic = true,
                FaultKind::Stall(d) => {
                    action.stall = Some(action.stall.unwrap_or(Duration::ZERO).max(d))
                }
                FaultKind::PoisonCache => action.poison = true,
                FaultKind::Burst(_) | FaultKind::ClockSkew(_) => {}
            }
        }
        action
    }

    /// The harness-level events (bursts, clock skew) in schedule order.
    pub fn harness_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| !e.kind.is_worker_fault())
    }

    /// A stable one-line-per-event rendering, used both for debugging
    /// and as the bit-identity witness in the determinism proptest.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("fault plan seed={}\n", self.seed);
        for e in &self.events {
            let _ = writeln!(
                out,
                "  shard={} ordinal={} {}",
                e.shard, e.at_ordinal, e.kind
            );
        }
        out
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Stall(d) => write!(f, "stall({}ms)", d.as_millis()),
            FaultKind::PoisonCache => write!(f, "poison_cache"),
            FaultKind::Burst(n) => write!(f, "burst({n})"),
            FaultKind::ClockSkew(d) => write!(f, "clock_skew(-{}ms)", d.as_millis()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_generate_identical_plans() {
        let a = FaultPlan::generate(1234, 4, 500);
        let b = FaultPlan::generate(1234, 4, 500);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_generate_different_plans() {
        let a = FaultPlan::generate(1, 4, 500);
        let b = FaultPlan::generate(2, 4, 500);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn every_shard_gets_a_quarantine_grade_panic_burst() {
        let plan = FaultPlan::generate(99, 3, 400);
        for shard in 0..3 {
            let panics = plan
                .events
                .iter()
                .filter(|e| e.shard == shard && e.kind == FaultKind::Panic)
                .count();
            assert!(panics >= 5, "shard {shard} has only {panics} panics");
        }
    }

    #[test]
    fn action_for_combines_coincident_events() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    shard: 0,
                    at_ordinal: 7,
                    kind: FaultKind::Stall(Duration::from_millis(3)),
                },
                FaultEvent {
                    shard: 0,
                    at_ordinal: 7,
                    kind: FaultKind::Panic,
                },
            ],
        };
        let action = plan.action_for(0, 7);
        assert_eq!(action.stall, Some(Duration::from_millis(3)));
        assert!(action.panic);
        assert!(!action.poison);
        assert!(plan.action_for(0, 8).is_noop());
        assert!(plan.action_for(1, 7).is_noop());
    }

    #[test]
    fn harness_events_are_the_non_worker_ones() {
        let plan = FaultPlan::generate(5, 2, 300);
        for e in plan.harness_events() {
            assert!(matches!(
                e.kind,
                FaultKind::Burst(_) | FaultKind::ClockSkew(_)
            ));
        }
        assert!(plan.harness_events().count() >= 3, "2 bursts + 1 skew");
    }
}
