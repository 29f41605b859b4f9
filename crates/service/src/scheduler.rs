//! The global cycle scheduler.
//!
//! Each session paces its own cycle onto a simulated clock (the per-user
//! timing defense of `toppriv_core::pacing`); the service must then
//! submit the union of all tenants' schedules. [`CycleScheduler`] merges
//! the per-session plans into one time-ordered queue — the service-level
//! counterpart of [`toppriv_core::merge_schedules`], keeping its exact
//! ordering semantics — then **partitions it by shard**: every planned
//! submission carries the shard set its terms route to (tagged by
//! [`crate::SessionManager::plan_cycle`]), and the drain assigns it to
//! the queue of its primary (lowest) shard. Each shard's queue is
//! drained by its own workers with its own cursor, so shards proceed
//! independently: no global claim lock, no head-of-line blocking across
//! shards, and — together with the sharded engine's per-shard query
//! logs — no engine-wide mutex anywhere on the submission hot path.
//!
//! Draining consumes each queue in time order but does not sleep between
//! submissions: simulated time orders the trace the engine sees, while
//! wall-clock throughput is bounded only by the worker pool. Global and
//! per-shard queue depths and per-submit latency are reported to
//! [`ServiceMetrics`]; each drain additionally records per-shard **queue
//! wait** (drain start → claim) and **service time** (resolution) into
//! [`M_QUEUE_WAIT_US`] / [`M_SERVICE_US`] histograms, counts per-shard
//! submissions in [`M_SHARD_SUBMITS`], and journals a `drain` span with
//! one `drain_shard` child per (worker, shard) into the global tracer.
//! [`crate::SessionManager::search`] is a one-worker drain of one cycle,
//! run on the caller's thread.

use crate::cache::ResultCache;
use crate::fault::{FaultKind, FaultPlane};
use crate::metrics::ServiceMetrics;
use crate::session::{RolledBackCycle, SessionManager};
use crate::tier::SearchTier;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toppriv_core::ScheduledQuery;
use toppriv_obs::{recover_lock, AuditSeverity, Counter, Gauge, HistogramHandle, Span};
use tsearch_search::SearchHit;

/// Metric name: per-shard queue wait (claim time − drain start, µs).
pub const M_QUEUE_WAIT_US: &str = "scheduler_queue_wait_us";
/// Metric name: per-shard service time (resolution latency, µs).
pub const M_SERVICE_US: &str = "scheduler_service_us";
/// Metric name: per-shard drained submission counter.
pub const M_SHARD_SUBMITS: &str = "scheduler_submits_total";
/// Metric name: per-shard submission retry counter.
pub const M_SHARD_RETRIES: &str = "scheduler_retries_total";

/// Retry, watchdog, and quarantine knobs for a drain.
///
/// The defaults keep pre-fault-plane behaviour intact for healthy
/// queues: retries only trigger after a panic, the 30 s deadline is far
/// beyond any test drain, and quarantine needs repeated same-shard
/// failures in one drain.
#[derive(Debug, Clone)]
pub struct DrainPolicy {
    /// Attempts per submission (first try included) before the failure
    /// is terminal.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt (bounded exponential).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-drain deadline: workers stop claiming once it passes, and an
    /// injected stall that outlives it panics into the retry path — a
    /// hung shard can no longer block [`CycleScheduler::try_drain`]
    /// forever. Unclaimed entries come back in
    /// [`DrainError::unresolved`].
    pub deadline: Duration,
    /// Terminal failures on one shard within a single drain at (or
    /// past) which the shard is quarantined for the next drains.
    pub quarantine_threshold: usize,
    /// How many subsequent drains a quarantined shard sits out before
    /// its re-admission probe (the first drain at or past the expiry
    /// epoch readmits the shard; failing again re-quarantines it).
    pub quarantine_drains: u64,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        DrainPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            deadline: Duration::from_secs(30),
            quarantine_threshold: 3,
            quarantine_drains: 2,
        }
    }
}

/// One subscribing tenant of a (possibly shared) planned submission.
///
/// The cross-session planner coalesces identical submissions from
/// several tenants into one queue entry; each subscriber keeps its own
/// ground-truth cycle id and genuine flag, so the drain can fan the
/// single resolution out into per-tenant outcomes and audit facts.
/// Tags exist only inside the trusted service boundary — the engine
/// sees one untagged submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionTag {
    /// Subscribing session id.
    pub session: String,
    /// That session's ground-truth cycle id (evaluation/audit only).
    pub cycle_id: usize,
    /// Whether the submission is this subscriber's genuine query.
    pub is_genuine: bool,
}

/// One scheduled submission, tagged with its tenant and shard set.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Owning session id.
    pub session: String,
    /// The paced submission (simulated time, tokens, ground truth).
    pub scheduled: ScheduledQuery,
    /// Results to fetch.
    pub k: usize,
    /// Sorted shard set the submission's terms route to (`[0]` on a
    /// 1-shard tier). The scheduler queues the submission on its
    /// primary — lowest — shard.
    pub shards: Vec<usize>,
    /// All subscribing tenants when the planner coalesced this entry
    /// (owner included). Empty for the common unshared case — the owner
    /// fields above are the single implicit subscriber.
    pub subscribers: Vec<SubmissionTag>,
}

impl PlannedQuery {
    /// The shard whose queue carries this submission.
    pub fn primary_shard(&self) -> usize {
        self.shards.first().copied().unwrap_or(0)
    }

    /// The subscriber list this entry resolves for: the explicit
    /// `subscribers` when the planner shared it, else the implicit
    /// owner-only tag.
    pub fn subscriber_tags(&self) -> Vec<SubmissionTag> {
        if self.subscribers.is_empty() {
            vec![SubmissionTag {
                session: self.session.clone(),
                cycle_id: self.scheduled.cycle_id,
                is_genuine: self.scheduled.is_genuine,
            }]
        } else {
            self.subscribers.clone()
        }
    }

    /// How many per-tenant outcomes this entry fans out into.
    pub fn fanout(&self) -> usize {
        self.subscribers.len().max(1)
    }
}

/// Outcome of one drained submission.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Owning session id.
    pub session: String,
    /// Ground-truth cycle id within the session (evaluation only).
    pub cycle_id: usize,
    /// Simulated submission time.
    pub time_secs: f64,
    /// Whether this was the genuine query (evaluation only).
    pub is_genuine: bool,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// The genuine query's hits; ghost results are discarded at the
    /// trusted boundary and never materialize here.
    pub hits: Vec<SearchHit>,
}

/// One worker failure surfaced by [`CycleScheduler::try_drain`] —
/// terminal, i.e. the submission exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard whose worker panicked.
    pub shard: usize,
    /// Session owning the submission that triggered the panic.
    pub session: String,
    /// The owning session's cycle id (what a rollback reverses).
    pub cycle_id: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

/// A drain that lost submissions to worker panics. The submissions that
/// did complete are preserved in `completed` (sorted like a successful
/// drain), so callers can still account for the partial trace; the
/// submissions that did **not** come back as plans the caller can retry
/// or roll back (see [`CycleScheduler::drain_resilient`]) — nothing is
/// silently dropped.
#[derive(Debug)]
pub struct DrainError {
    /// Per-submission terminal failures, in claim order per shard.
    pub failures: Vec<ShardFailure>,
    /// The failed entries themselves (aligned with no particular order;
    /// each produced exactly one entry in `failures`). Re-draining them
    /// verbatim replays the same deterministic fault decisions — these
    /// are rollback candidates, not retry candidates.
    pub failed: Vec<PlannedQuery>,
    /// Entries never attempted: skipped because their primary shard is
    /// quarantined, or unclaimed when the drain deadline cut the drain
    /// short. Safe to re-queue into a later drain verbatim.
    pub unresolved: Vec<PlannedQuery>,
    /// Outcomes of the submissions that completed.
    pub completed: Vec<SubmitOutcome>,
    /// Per-tenant outcomes the drain was asked to produce — the sum of
    /// every queue entry's subscriber fan-out (equal to the queue length
    /// when nothing was coalesced).
    pub expected: usize,
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drain lost {} of {} submissions to worker panics",
            self.failures.len(),
            self.expected
        )?;
        if !self.unresolved.is_empty() {
            write!(
                f,
                " ({} unresolved entries re-queued)",
                self.unresolved.len()
            )?;
        }
        if let Some(first) = self.failures.first() {
            write!(
                f,
                " (first: shard {} session '{}': {})",
                first.shard, first.session, first.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for DrainError {}

/// What [`CycleScheduler::drain_resilient`] produces: the delivered
/// outcomes plus a full ledger of everything the self-healing path did.
#[derive(Debug)]
pub struct ResilientReport {
    /// Outcomes of every *fully delivered* cycle, sorted by simulated
    /// time like a plain drain.
    pub outcomes: Vec<SubmitOutcome>,
    /// Outcomes that resolved against the engine but belong to cycles
    /// later rolled back — discarded from `outcomes` (cycle atomicity)
    /// but kept here so engine-side accounting identities (`merged +
    /// cache_hits == drained`) remain checkable.
    pub discarded: Vec<SubmitOutcome>,
    /// Every cycle whose trace debits were reversed.
    pub rolled_back: Vec<RolledBackCycle>,
    /// `(session, old cycle id, new cycle id)` for every rolled-back
    /// cycle that was replanned as a fresh cycle.
    pub replanned: Vec<(String, usize, usize)>,
    /// Drain rounds it took (1 for a fault-free queue).
    pub rounds: usize,
}

/// One shard's slice of a drain: its queue (indices into the merged
/// queue, in time order), claim cursor, collected outcomes, and metric
/// handles fetched once up front — workers then publish with plain
/// atomic ops, so nothing on the drain hot path locks a registry.
struct Lane {
    queue: Vec<usize>,
    cursor: AtomicUsize,
    collected: Mutex<Vec<(usize, SubmitOutcome)>>,
    depth: Gauge,
    wait: HistogramHandle,
    service: HistogramHandle,
    submits: Counter,
    retries: Counter,
}

/// The state every worker of one drain shares; the collector consumes
/// it once the workers are done.
struct DrainRun {
    queue: Vec<PlannedQuery>,
    /// Indexed by shard.
    lanes: Vec<Lane>,
    /// Entries not yet taken off the queue (the global depth gauge).
    remaining: AtomicUsize,
    /// Terminal failures with the queue index of the failed entry, in
    /// claim order per shard.
    failures: Mutex<Vec<(usize, ShardFailure)>>,
    start: Instant,
}

/// Merges per-session plans and drains them on per-shard worker queues.
pub struct CycleScheduler {
    tier: SearchTier,
    cache: Option<Arc<ResultCache>>,
    metrics: Arc<ServiceMetrics>,
    workers: usize,
    /// The deterministic fault plane, when attached: worker panics and
    /// shard stalls are drawn from its seeded schedule per (submission,
    /// attempt), so retries flip fresh coins and rate faults heal.
    fault: Option<Arc<FaultPlane>>,
    /// Retry / watchdog / quarantine knobs.
    policy: DrainPolicy,
    /// Quarantined shards: shard → first drain epoch that readmits it.
    /// Quarantine spans *across* drains, never within one — a shard's
    /// failures in one drain surface in that drain's [`DrainError`] and
    /// only then gate the next drains.
    quarantine: Mutex<HashMap<usize, u64>>,
    /// Monotone drain counter (the quarantine epoch clock).
    drain_epoch: AtomicU64,
    /// The privacy auditor, when the audit plane is attached: every
    /// drained submission is audited via
    /// [`crate::PrivacyAuditor::on_outcome`].
    auditor: Option<Arc<crate::auditor::PrivacyAuditor>>,
}

impl CycleScheduler {
    /// A scheduler over explicit parts. `workers` is the total pool size,
    /// spread across the tier's shards at drain time: each active shard
    /// always gets at least one worker, except that a pool of one worker
    /// serves every active shard itself, on the draining thread.
    pub fn new(
        tier: SearchTier,
        cache: Option<Arc<ResultCache>>,
        metrics: Arc<ServiceMetrics>,
        workers: usize,
    ) -> Self {
        CycleScheduler {
            tier,
            cache,
            metrics,
            workers: workers.max(1),
            fault: None,
            policy: DrainPolicy::default(),
            quarantine: Mutex::new(HashMap::new()),
            drain_epoch: AtomicU64::new(0),
            auditor: None,
        }
    }

    /// Attaches a deterministic [`FaultPlane`]: its `WorkerPanic` and
    /// `ShardStall` specs drive this scheduler's workers.
    /// [`CycleScheduler::for_manager`] inherits the manager's plane
    /// automatically.
    pub fn with_fault_plane(mut self, plane: Arc<FaultPlane>) -> Self {
        self.fault = Some(plane);
        self
    }

    /// Overrides the default [`DrainPolicy`].
    pub fn with_policy(mut self, policy: DrainPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The scheduler's drain policy.
    pub fn policy(&self) -> &DrainPolicy {
        &self.policy
    }

    /// Currently quarantined shards (sorted), with the drain epoch that
    /// readmits each.
    pub fn quarantined_shards(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = recover_lock(&self.quarantine)
            .iter()
            .map(|(&s, &e)| (s, e))
            .collect();
        out.sort_unstable();
        out
    }

    /// Attaches a privacy auditor: drain workers audit every drained
    /// submission against its registered cycle facts, and each drain
    /// ends with the auditor's epilogue (fact pruning, periodic journal
    /// spill). [`CycleScheduler::for_manager`] inherits the manager's
    /// auditor automatically.
    pub fn with_auditor(mut self, auditor: Arc<crate::auditor::PrivacyAuditor>) -> Self {
        self.auditor = Some(auditor);
        self
    }

    /// A scheduler sharing a [`SessionManager`]'s search tier, cache,
    /// metrics registry, auditor, and fault plane.
    pub fn for_manager(manager: &SessionManager, workers: usize) -> Self {
        let mut scheduler = Self::new(
            manager.tier(),
            manager.cache().cloned(),
            manager.metrics_registry().clone(),
            workers,
        );
        if let Some(auditor) = manager.auditor() {
            scheduler = scheduler.with_auditor(auditor.clone());
        }
        if let Some(plane) = manager.fault_plane() {
            scheduler = scheduler.with_fault_plane(plane.clone());
        }
        scheduler
    }

    /// Merges per-session plans into one globally time-ordered queue —
    /// the same stable ascending-time order as
    /// [`toppriv_core::merge_schedules`].
    pub fn merge(plans: Vec<Vec<PlannedQuery>>) -> Vec<PlannedQuery> {
        let mut all: Vec<PlannedQuery> = plans.into_iter().flatten().collect();
        all.sort_by(|a, b| {
            a.scheduled
                .time_secs
                .partial_cmp(&b.scheduled.time_secs)
                .expect("finite time")
        });
        all
    }

    /// Drains a merged queue. The queue is split into per-shard queues by
    /// primary shard (each inherits the global time order); every shard's
    /// workers claim from their own cursor and resolve through the shared
    /// cache/tier, so shards drain independently. Returns outcomes sorted
    /// by simulated time (ties broken by merged-queue position).
    ///
    /// Worker panics are caught per submission and retried with bounded
    /// exponential backoff (each attempt flips a fresh deterministic
    /// fault coin, so transient rate faults heal), the rest of the queue
    /// keeps draining under the per-drain deadline watchdog, and a drain
    /// that did not resolve everything returns a [`DrainError`] carrying
    /// every terminal failure (shard, session, panic message) plus the
    /// outcomes that did complete and the entries that were never
    /// attempted. [`CycleScheduler::drain_resilient`] turns those into
    /// retries and cycle rollbacks.
    pub fn try_drain(&self, queue: Vec<PlannedQuery>) -> Result<Vec<SubmitOutcome>, DrainError> {
        // Shared (planner-coalesced) entries resolve once but produce one
        // outcome per subscribing tenant; a drain succeeds when every
        // expected per-tenant outcome materialized.
        let expected: usize = queue.iter().map(|p| p.fanout()).sum();
        self.metrics.set_queue_depth(queue.len());
        let num_shards = self.tier.num_shards();
        let drain_span = toppriv_obs::tracer().span("drain");
        let epoch = self.drain_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Quarantine gate: expired entries are readmitted *before* the
        // partition (their first drain back is the re-admission probe);
        // still-quarantined shards have their entries skipped into the
        // unresolved remainder instead of queued.
        let quarantined: HashSet<usize> = {
            let mut map = recover_lock(&self.quarantine);
            map.retain(|_, &mut until| epoch < until);
            map.keys().copied().collect()
        };
        // Partition by primary shard; each per-shard queue stays in the
        // merged (time) order.
        let mut shard_queues: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        let mut skipped: Vec<usize> = Vec::new();
        for (i, plan) in queue.iter().enumerate() {
            let shard = plan.primary_shard().min(num_shards - 1);
            if quarantined.contains(&shard) {
                skipped.push(i);
            } else {
                shard_queues[shard].push(i);
            }
        }
        let registry = self.metrics.registry();
        let depth_gauges = self.metrics.shard_depth_gauges(num_shards);
        let lanes: Vec<Lane> = shard_queues
            .into_iter()
            .zip(depth_gauges)
            .enumerate()
            .map(|(s, (lane_queue, depth))| {
                let shard = s.to_string();
                let labels = [("shard", shard.as_str())];
                depth.set(lane_queue.len() as i64);
                Lane {
                    cursor: AtomicUsize::new(0),
                    collected: Mutex::new(Vec::with_capacity(lane_queue.len())),
                    queue: lane_queue,
                    depth,
                    wait: registry.histogram(M_QUEUE_WAIT_US, &labels),
                    service: registry.histogram(M_SERVICE_US, &labels),
                    submits: registry.counter(M_SHARD_SUBMITS, &labels),
                    retries: registry.counter(M_SHARD_RETRIES, &labels),
                }
            })
            .collect();
        let run = DrainRun {
            remaining: AtomicUsize::new(queue.len()),
            queue,
            lanes,
            failures: Mutex::new(Vec::new()),
            start: Instant::now(),
        };
        let active: Vec<usize> = (0..num_shards)
            .filter(|&s| !run.lanes[s].queue.is_empty())
            .collect();
        // Spread the pool over the active shards: every active shard
        // gets at least one worker, and the remainder (workers not
        // evenly divisible) goes one-per-shard to the first shards so
        // the whole configured pool is used. A pool of one worker serves
        // every active shard in turn instead.
        let assignments: Vec<Vec<usize>> = if self.workers == 1 {
            vec![active]
        } else {
            let base = self.workers / active.len().max(1);
            let extra = self.workers % active.len().max(1);
            active
                .iter()
                .enumerate()
                .flat_map(|(rank, &s)| {
                    let per_shard = (base + usize::from(rank < extra)).max(1);
                    std::iter::repeat_n(vec![s], per_shard.min(run.lanes[s].queue.len()))
                })
                .collect()
        };
        match assignments.as_slice() {
            // A lone worker runs on the calling thread: it is the same
            // worker, minus a thread spawn on every small drain.
            [lanes] => self.work(&run, lanes, &drain_span),
            _ => std::thread::scope(|scope| {
                for lanes in &assignments {
                    let (run, drain_span) = (&run, &drain_span);
                    scope.spawn(move || self.work(run, lanes, drain_span));
                }
            }),
        }
        self.collect(run, epoch, skipped, expected)
    }

    /// One drain worker: serves `lanes` in turn, claiming each lane's
    /// entries from its cursor until the lane is exhausted. Past the
    /// drain deadline it stops claiming altogether — the unclaimed
    /// remainder comes back as `unresolved` instead of blocking forever.
    fn work(&self, run: &DrainRun, lanes: &[usize], drain_span: &Span<'_>) {
        for &s in lanes {
            let lane = &run.lanes[s];
            let shard_span = drain_span.child("drain_shard");
            loop {
                if run.start.elapsed() > self.policy.deadline {
                    return;
                }
                let at = lane.cursor.fetch_add(1, Ordering::Relaxed);
                if at >= lane.queue.len() {
                    break;
                }
                lane.wait.record(run.start.elapsed().as_micros() as u64);
                let i = lane.queue[at];
                let plan = &run.queue[i];
                let tags = plan.subscriber_tags();
                let t0 = Instant::now();
                let resolved = self.resolve_with_retry(s, plan, &tags, run.start, &lane.retries);
                // Depth accounting covers failed submissions too — they
                // left the queue either way.
                lane.depth.add(-1);
                let left = run.remaining.fetch_sub(1, Ordering::Relaxed) - 1;
                self.metrics.set_queue_depth(left);
                let (hits, cache_hit) = match resolved {
                    Ok(r) => r,
                    Err((message, attempts)) => {
                        let failure = ShardFailure {
                            shard: s,
                            session: plan.session.clone(),
                            cycle_id: plan.scheduled.cycle_id,
                            attempts,
                            message,
                        };
                        recover_lock(&run.failures).push((i, failure));
                        continue;
                    }
                };
                // The service-time histogram keeps this worker's span id
                // as the bucket's trace exemplar, so a p99 outlier links
                // straight to its `drain_shard` span.
                lane.service
                    .record_with_exemplar(t0.elapsed().as_micros() as u64, shard_span.id());
                lane.submits.inc();
                // One resolution fans out into one outcome — and one audit
                // fact — per subscribing tenant. Subscribers beyond the
                // first were served from the shared resolution, which is a
                // cache hit from their point of view.
                for (j, tag) in tags.into_iter().enumerate() {
                    if let Some(auditor) = &self.auditor {
                        auditor.on_outcome(&tag.session, tag.cycle_id);
                    }
                    let outcome = SubmitOutcome {
                        // Ghost results are discarded inside the trusted
                        // boundary; only genuine hits leave the scheduler.
                        hits: if tag.is_genuine {
                            hits.clone()
                        } else {
                            Vec::new()
                        },
                        session: tag.session,
                        cycle_id: tag.cycle_id,
                        time_secs: plan.scheduled.time_secs,
                        is_genuine: tag.is_genuine,
                        cache_hit: cache_hit || j > 0,
                    };
                    recover_lock(&lane.collected).push((i, outcome));
                }
            }
        }
    }

    /// Resolves one entry under `catch_unwind`, so one poisoned
    /// submission cannot anonymously take the whole shard's collected
    /// outcomes with it: a panic is retried with bounded exponential
    /// backoff (a fresh fault coin per attempt) until the attempt budget
    /// or the drain deadline runs out. Returns the resolution, or the
    /// terminal panic message with the attempts made.
    fn resolve_with_retry(
        &self,
        shard: usize,
        plan: &PlannedQuery,
        tags: &[SubmissionTag],
        start: Instant,
        retries: &Counter,
    ) -> Result<(Vec<SearchHit>, bool), (String, u32)> {
        let mut attempt = 0u32;
        loop {
            let once = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.inject_faults(shard, plan, attempt, start);
                SessionManager::resolve_shared(
                    &self.tier,
                    self.cache.as_deref(),
                    &self.metrics,
                    &plan.scheduled.tokens,
                    plan.k,
                    tags,
                )
            }));
            let payload = match once {
                Ok(r) => return Ok(r),
                Err(payload) => payload,
            };
            attempt += 1;
            if attempt >= self.policy.max_attempts || start.elapsed() > self.policy.deadline {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err((message, attempt));
            }
            retries.inc();
            let backoff = self
                .policy
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(self.policy.backoff_cap);
            std::thread::sleep(backoff);
        }
    }

    /// Consults the fault plane before one resolution attempt: an
    /// injected stall sleeps, an injected worker panic panics.
    fn inject_faults(&self, shard: usize, plan: &PlannedQuery, attempt: u32, start: Instant) {
        let Some(plane) = &self.fault else {
            return;
        };
        if let Some(stall) = plane.stall_for(shard, plan, attempt) {
            // An injected stall sleeps in small slices so the deadline can
            // preempt it: a stall that outlives the drain deadline panics
            // into the failure path instead of hanging the shard.
            let mut left = stall;
            while !left.is_zero() {
                let slice = left.min(Duration::from_millis(1));
                std::thread::sleep(slice);
                left -= slice;
                assert!(
                    start.elapsed() <= self.policy.deadline,
                    "injected shard stall exceeded the drain deadline (session '{}')",
                    plan.session
                );
            }
        }
        assert!(
            !plane.fires_submission(FaultKind::WorkerPanic, shard, plan, attempt),
            "injected worker_panic fault (session '{}')",
            plan.session
        );
    }

    /// Drain epilogue: gathers the workers' outcomes in queue order,
    /// hands failed and never-claimed entries back, quarantines shards
    /// that failed too often, and journals a degraded drain.
    fn collect(
        &self,
        run: DrainRun,
        epoch: u64,
        skipped: Vec<usize>,
        expected: usize,
    ) -> Result<Vec<SubmitOutcome>, DrainError> {
        self.metrics.set_queue_depth(0);
        for lane in &run.lanes {
            lane.depth.set(0);
        }
        if let Some(auditor) = &self.auditor {
            auditor.finish_drain();
        }
        let mut outcomes: Vec<(usize, SubmitOutcome)> = Vec::new();
        // Entries past a lane cursor's final position were never claimed
        // (the deadline watchdog cut the drain short): together with the
        // quarantine-skipped entries they form the unresolved remainder
        // handed back for a later drain.
        let mut unresolved_idx: HashSet<usize> = skipped.iter().copied().collect();
        for lane in run.lanes {
            let claimed = lane.cursor.load(Ordering::Relaxed).min(lane.queue.len());
            unresolved_idx.extend(lane.queue[claimed..].iter().copied());
            outcomes.extend(
                lane.collected
                    .into_inner()
                    .unwrap_or_else(|p| p.into_inner()),
            );
        }
        outcomes.sort_by_key(|&(i, _)| i);
        let completed: Vec<SubmitOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        let (failed_idx, failures): (HashSet<usize>, Vec<ShardFailure>) = run
            .failures
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .into_iter()
            .unzip();
        let mut failed = Vec::with_capacity(failed_idx.len());
        let mut unresolved = Vec::with_capacity(unresolved_idx.len());
        for (i, plan) in run.queue.into_iter().enumerate() {
            if failed_idx.contains(&i) {
                failed.push(plan);
            } else if unresolved_idx.contains(&i) {
                unresolved.push(plan);
            }
        }
        // Quarantine bookkeeping happens strictly *after* the drain so a
        // shard's failures never change this drain's own outcome — they
        // gate the next drains (and are probed back in epoch-style).
        let mut shard_fail_counts: HashMap<usize, usize> = HashMap::new();
        for f in &failures {
            *shard_fail_counts.entry(f.shard).or_insert(0) += 1;
        }
        for (&shard, &count) in &shard_fail_counts {
            if count >= self.policy.quarantine_threshold {
                let until = epoch + self.policy.quarantine_drains;
                recover_lock(&self.quarantine).insert(shard, until);
                if let Some(auditor) = &self.auditor {
                    auditor.note(
                        AuditSeverity::Warning,
                        "shard_quarantined",
                        "fleet",
                        shard,
                        format!(
                            "shard {shard} quarantined after {count} terminal failures in \
                             drain {epoch}; re-admission probe at drain {until}"
                        ),
                    );
                }
            }
        }
        if !unresolved.is_empty() {
            if let Some(auditor) = &self.auditor {
                auditor.note(
                    AuditSeverity::Warning,
                    "degraded_drain",
                    "fleet",
                    epoch as usize,
                    format!(
                        "drain {epoch} degraded: {} entries unresolved ({} quarantine-skipped), \
                         surviving shards kept serving",
                        unresolved.len(),
                        skipped.len()
                    ),
                );
            }
        }
        if failures.is_empty() && unresolved.is_empty() && completed.len() == expected {
            Ok(completed)
        } else {
            Err(DrainError {
                failures,
                failed,
                unresolved,
                completed,
                expected,
            })
        }
    }

    /// Self-healing drain: [`CycleScheduler::try_drain`] in rounds, with
    /// **cycle-atomic degradation**. Unresolved entries (quarantined
    /// shards, deadline cuts) are re-queued into the next round; cycles
    /// with a terminally failed submission are rolled back through
    /// `manager` — trace debits reversed bit-exactly, pending audit
    /// facts released, their already-resolved outcomes discarded (kept
    /// in [`ResilientReport::discarded`] for engine-side accounting) —
    /// and replanned once as fresh cycles. A replanned cycle that fails
    /// again is rolled back for good. Fully delivered cycles are
    /// confirmed, sealing their accounting against rollback.
    ///
    /// `manager` must be the manager the queue was planned on (cycle
    /// ids are resolved against its sessions).
    pub fn drain_resilient(
        &self,
        manager: &SessionManager,
        queue: Vec<PlannedQuery>,
    ) -> ResilientReport {
        /// Round cap: with one replan per cycle and monotone quarantine
        /// expiry this converges long before, but a bound keeps a
        /// pathological fault schedule from looping the drain forever.
        const MAX_ROUNDS: usize = 6;
        let mut outcomes: Vec<SubmitOutcome> = Vec::new();
        let mut rolled_back: Vec<RolledBackCycle> = Vec::new();
        let mut replanned: Vec<(String, usize, usize)> = Vec::new();
        let mut victims: HashSet<(String, usize)> = HashSet::new();
        // Cycles that already got their one replan: a second failure is
        // terminal.
        let mut no_replan: HashSet<(String, usize)> = HashSet::new();
        let mut pending = queue;
        let mut rounds = 0usize;
        while !pending.is_empty() && rounds < MAX_ROUNDS {
            rounds += 1;
            let err = match self.try_drain(std::mem::take(&mut pending)) {
                Ok(mut done) => {
                    outcomes.append(&mut done);
                    break;
                }
                Err(err) => err,
            };
            outcomes.extend(err.completed);
            let mut round_victims: HashSet<(String, usize)> = HashSet::new();
            for plan in &err.failed {
                for tag in plan.subscriber_tags() {
                    round_victims.insert((tag.session, tag.cycle_id));
                }
            }
            // Release victim fan-out tags from the unresolved remainder:
            // an entry subscribed only by rolled-back cycles is dropped
            // outright, a shared entry keeps serving its survivors.
            let mut next: Vec<PlannedQuery> = Vec::with_capacity(err.unresolved.len());
            for mut plan in err.unresolved {
                if plan.subscribers.is_empty() {
                    let key = (plan.session.clone(), plan.scheduled.cycle_id);
                    if round_victims.contains(&key) {
                        continue;
                    }
                } else {
                    plan.subscribers
                        .retain(|t| !round_victims.contains(&(t.session.clone(), t.cycle_id)));
                    if plan.subscribers.is_empty() {
                        continue;
                    }
                }
                next.push(plan);
            }
            for (session, cycle_id) in round_victims {
                if !victims.insert((session.clone(), cycle_id)) {
                    continue;
                }
                let Ok(rb) = manager.rollback_cycle(&session, cycle_id) else {
                    // Already confirmed or unknown (e.g. rolled back via
                    // another scheduler): nothing to reverse.
                    continue;
                };
                if !no_replan.contains(&(session.clone(), cycle_id)) {
                    if let Ok(plan) = manager.plan_cycle(&session, &rb.user_tokens, rb.k) {
                        if let Some(new_id) = plan.first().map(|p| p.scheduled.cycle_id) {
                            no_replan.insert((session.clone(), new_id));
                            replanned.push((session.clone(), cycle_id, new_id));
                        }
                        next.extend(plan);
                    }
                }
                rolled_back.push(rb);
            }
            pending = next;
        }
        // Rounds exhausted with work still pending: those cycles cannot
        // be delivered this drain — roll them back rather than leave
        // them half-debited.
        for plan in pending {
            for (session, cycle_id) in plan
                .subscriber_tags()
                .into_iter()
                .map(|t| (t.session, t.cycle_id))
            {
                if victims.insert((session.clone(), cycle_id)) {
                    if let Ok(rb) = manager.rollback_cycle(&session, cycle_id) {
                        rolled_back.push(rb);
                    }
                }
            }
        }
        // Cycle atomicity: outcomes of rolled-back cycles never leave
        // the scheduler as delivered work.
        let (delivered, discarded): (Vec<_>, Vec<_>) = outcomes
            .into_iter()
            .partition(|o| !victims.contains(&(o.session.clone(), o.cycle_id)));
        let mut outcomes = delivered;
        outcomes.sort_by(|a, b| a.time_secs.partial_cmp(&b.time_secs).expect("finite time"));
        // Everything delivered is fully delivered: confirm it, sealing
        // the accounting against any later rollback attempt.
        let confirmed: HashSet<(String, usize)> = outcomes
            .iter()
            .map(|o| (o.session.clone(), o.cycle_id))
            .collect();
        for (session, cycle_id) in &confirmed {
            let _ = manager.confirm_cycle(session, *cycle_id);
        }
        ResilientReport {
            outcomes,
            discarded,
            rolled_back,
            replanned,
            rounds: rounds.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toppriv_core::merge_schedules;

    fn plan(session: &str, times: &[f64]) -> Vec<PlannedQuery> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| PlannedQuery {
                session: session.to_string(),
                scheduled: ScheduledQuery {
                    time_secs: t,
                    tokens: vec![i as u32],
                    is_genuine: i == 0,
                    cycle_id: 0,
                },
                k: 10,
                shards: vec![0],
                subscribers: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn subscriber_tags_default_to_the_owner() {
        let p = plan("a", &[0.0]).remove(0);
        assert_eq!(p.fanout(), 1);
        let tags = p.subscriber_tags();
        assert_eq!(
            tags,
            vec![SubmissionTag {
                session: "a".into(),
                cycle_id: 0,
                is_genuine: true,
            }]
        );
    }

    #[test]
    fn explicit_subscribers_fan_out() {
        let mut p = plan("a", &[0.0]).remove(0);
        p.subscribers = vec![
            SubmissionTag {
                session: "a".into(),
                cycle_id: 0,
                is_genuine: true,
            },
            SubmissionTag {
                session: "b".into(),
                cycle_id: 3,
                is_genuine: false,
            },
        ];
        assert_eq!(p.fanout(), 2);
        assert_eq!(p.subscriber_tags().len(), 2);
        assert_eq!(p.subscriber_tags()[1].session, "b");
    }

    #[test]
    fn merge_is_globally_time_ordered() {
        let merged = CycleScheduler::merge(vec![
            plan("a", &[3.0, 1.0, 2.0]),
            plan("b", &[0.5, 2.5]),
            plan("c", &[]),
        ]);
        assert_eq!(merged.len(), 5);
        assert!(merged
            .windows(2)
            .all(|w| w[0].scheduled.time_secs <= w[1].scheduled.time_secs));
        assert_eq!(merged[0].session, "b");
    }

    #[test]
    fn merge_matches_core_merge_schedules() {
        // The service-level merge must order submissions exactly like the
        // core's merge_schedules on the projected schedule (stable sort by
        // time, ties keeping input order).
        let plans = vec![plan("a", &[2.0, 1.0, 1.0]), plan("b", &[1.0, 3.0])];
        let flat: Vec<ScheduledQuery> = plans
            .iter()
            .flatten()
            .map(|p| p.scheduled.clone())
            .collect();
        let expected = merge_schedules(flat);
        let merged = CycleScheduler::merge(plans);
        assert_eq!(merged.len(), expected.len());
        for (m, e) in merged.iter().zip(&expected) {
            assert_eq!(m.scheduled.time_secs, e.time_secs);
            assert_eq!(m.scheduled.tokens, e.tokens);
        }
    }

    #[test]
    fn primary_shard_is_the_lowest() {
        let mut p = plan("a", &[0.0]).remove(0);
        p.shards = vec![2, 5];
        assert_eq!(p.primary_shard(), 2);
        p.shards.clear();
        assert_eq!(p.primary_shard(), 0);
    }
}
