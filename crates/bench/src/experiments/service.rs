//! Experiment `service` (extension beyond the paper): the server-side
//! cost of privacy under the multi-tenant service layer.
//!
//! The seed's `load` experiment prices TopPriv's decoy traffic on a bare
//! engine: υ−1 ghosts per cycle multiply the query volume ~υ× (≈7× at
//! paper defaults with forced υ=8). This experiment reproduces that cost
//! table through `toppriv-service` — many tenants sharing one model and
//! engine behind the cycle scheduler — with the result cache off and on.
//! Because ghost generation is deterministic per query content, tenants
//! protecting overlapping workloads emit identical decoys, and the cache
//! absorbs them before they reach the engine. `engine_evals_r1` and
//! `hit_rate_r1` are measured on the FIRST drain of the merged queue —
//! the genuine cross-tenant dedup effect — while `hit_rate_steady` and
//! the throughput columns cover the replayed rounds (repeat traffic, a
//! near-perfect-cache upper bound by construction).

use crate::context::ExperimentContext;
use crate::obsbench;
use crate::table::{f3, ResultTable};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use toppriv_service::{CycleScheduler, PlannedQuery, SearchTier, SessionManager};
use tsearch_text::TermId;

/// Scheduler worker threads (matches the `load` experiment's pool).
pub const WORKERS: usize = 4;
/// Results per query.
pub const TOP_K: usize = 10;
/// Tenants sharing the service.
pub const SESSIONS: usize = 8;
/// Minimum submissions per measurement (replayed in rounds).
pub const MIN_SUBMISSIONS: usize = 2000;

/// Unprotected baseline: raw queries on a bare worker pool (the same
/// measurement as the `load` experiment's υ=1 row).
fn replay_unprotected(tier: &SearchTier, queries: &[Vec<TermId>], rounds: usize) -> f64 {
    let total = queries.len() * rounds;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let hits = tier.search_tokens(&queries[i % queries.len()], TOP_K);
                std::hint::black_box(hits);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

struct ServiceRun {
    mean_upsilon: f64,
    submissions: usize,
    /// Engine evaluations during the FIRST drain of the queue — the
    /// genuine cross-tenant dedup effect, uncontaminated by replay.
    engine_evals_r1: u64,
    /// Cache hit rate of the first drain only.
    hit_rate_r1: f64,
    /// Cache hit rate over every drained round (steady-state repeat
    /// traffic; approaches 1 as `rounds` grows, by construction).
    hit_rate_steady: f64,
    secs: f64,
    user_queries: usize,
    /// Machine-readable stage breakdown of this run (BENCH trail).
    bench: toppriv_obs::BenchSnapshot,
}

/// Protected run through the service: `SESSIONS` tenants plan paced
/// cycles over the shared workload; the merged queue is drained `rounds`
/// times on the scheduler's worker pool.
fn run_service(
    ctx: &ExperimentContext,
    tier: &SearchTier,
    cached: bool,
    rounds: usize,
) -> ServiceRun {
    let mut manager = SessionManager::with_tier(tier.clone(), ctx.default_model().clone());
    if cached {
        manager = manager.with_cache(8192);
    }
    let manager = Arc::new(manager);
    let queries = ctx.sweep_queries();
    for s in 0..SESSIONS {
        manager
            .open_session(&format!("tenant-{s}"))
            .expect("fresh id");
    }
    // Plan every tenant's cycles once (formulation cost is client-side
    // and already measured by fig2/fig3; here we price the server side).
    let mut plans: Vec<Vec<PlannedQuery>> = Vec::new();
    let mut user_queries = 0usize;
    for (s, id) in manager.session_ids().iter().enumerate() {
        for q in 0..queries.len() {
            // Overlapping but rotated workloads across tenants.
            let query = &queries[(s + q) % queries.len()];
            user_queries += 1;
            plans.push(manager.plan_cycle(id, &query.tokens, TOP_K).expect("open"));
        }
    }
    let queue = CycleScheduler::merge(plans);
    let submissions_per_round = queue.len();
    let scheduler = CycleScheduler::for_manager(&manager, WORKERS);
    tier.clear_query_logs();
    obsbench::reset_engine_stages();
    let t0 = Instant::now();
    let mut round1: Option<toppriv_service::GlobalMetrics> = None;
    for _ in 0..rounds {
        let outcomes = scheduler
            .try_drain(queue.clone())
            .expect("fault-free drain");
        std::hint::black_box(outcomes);
        if round1.is_none() {
            round1 = Some(manager.metrics_registry().snapshot());
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let round1 = round1.expect("at least one round");
    let snapshot = manager.metrics();
    let bench = obsbench::service_bench_snapshot(
        "service",
        manager.metrics_registry().registry(),
        (submissions_per_round * rounds) as f64 / secs.max(1e-9),
        format!(
            "{SESSIONS} tenants, {WORKERS} workers, cache {}, {rounds} round(s)",
            if cached { "on" } else { "off" }
        ),
    );
    tier.clear_query_logs();
    ServiceRun {
        mean_upsilon: submissions_per_round as f64 / user_queries as f64,
        submissions: submissions_per_round * rounds,
        engine_evals_r1: round1.cache_misses,
        hit_rate_r1: round1.cache_hit_rate,
        hit_rate_steady: snapshot.global.cache_hit_rate,
        secs,
        user_queries: user_queries * rounds,
        bench,
    }
}

/// Runs the service load experiment on the default model.
pub fn run(ctx: &ExperimentContext) -> Vec<ResultTable> {
    let mut table = ResultTable::new(
        "ext5_service_load",
        "Server-side cost of privacy through toppriv-service: 8 tenants \
         sharing one model/engine behind the cycle scheduler, result cache \
         off vs on (4 workers, top-10 retrieval)",
        vec![
            "mode".into(),
            "upsilon_mean".into(),
            "submissions".into(),
            "engine_evals_r1".into(),
            "user_qps".into(),
            "server_qps".into(),
            "slowdown_vs_unprotected".into(),
            "hit_rate_r1".into(),
            "hit_rate_steady".into(),
        ],
    );

    // One 1-shard engine serves both the baseline and the service runs
    // (the context's own engine keeps its query log for other
    // experiments).
    let tier = crate::scenarios::sharded_tier(ctx, 1);
    // Unprotected baseline at the same user-query volume.
    let raw: Vec<Vec<TermId>> = ctx
        .sweep_queries()
        .iter()
        .map(|q| q.tokens.clone())
        .collect();
    let base_stream: Vec<Vec<TermId>> = (0..SESSIONS)
        .flat_map(|s| raw.iter().cycle().skip(s).take(raw.len()).cloned())
        .collect();
    let base_rounds = MIN_SUBMISSIONS.div_ceil(base_stream.len().max(1));
    replay_unprotected(&tier, &base_stream, 1); // warm-up
    let base_secs = replay_unprotected(&tier, &base_stream, base_rounds);
    tier.clear_query_logs();
    let base_user = base_stream.len() * base_rounds;
    let base_user_qps = base_user as f64 / base_secs.max(1e-9);
    table.push_row(vec![
        "unprotected".into(),
        f3(1.0),
        base_user.to_string(),
        base_user.to_string(),
        f3(base_user_qps),
        f3(base_user_qps),
        f3(1.0),
        f3(0.0),
        f3(0.0),
    ]);

    for cached in [false, true] {
        // Probe one round to size the replay count.
        let probe = run_service(ctx, &tier, cached, 1);
        let rounds = MIN_SUBMISSIONS.div_ceil((probe.submissions).max(1)).max(1);
        let run = run_service(ctx, &tier, cached, rounds);
        let user_qps = run.user_queries as f64 / run.secs.max(1e-9);
        if cached {
            // The bench trail records the full-featured configuration.
            obsbench::emit_bench(&run.bench);
        }
        table.push_row(vec![
            if cached { "service+cache" } else { "service" }.into(),
            f3(run.mean_upsilon),
            run.submissions.to_string(),
            run.engine_evals_r1.to_string(),
            f3(user_qps),
            f3(run.submissions as f64 / run.secs.max(1e-9)),
            f3(base_user_qps / user_qps.max(1e-9)),
            f3(run.hit_rate_r1),
            f3(run.hit_rate_steady),
        ]);
    }
    vec![table]
}
