//! Integration tests for the single request path: `SessionManager::search`
//! plans its cycle and drains it through the cycle scheduler, so the
//! drain's retry, rollback and audit guarantees cover every search.
//!
//! - Injected worker panics at a healable rate are retried: the search
//!   returns exactly the fault-free genuine hits.
//! - A cycle that cannot be delivered is rolled back bit-exactly, the
//!   search fails as `Unavailable`, and the audit journal says why.
//! - A plain search submits each cycle member once and leaves no
//!   unaudited fact behind.

use std::sync::Arc;
use toppriv_service::scheduler::{M_SHARD_RETRIES, M_SHARD_SUBMITS};
use toppriv_service::{
    AuditConfig, FaultKind, FaultPlane, FaultSpec, ServiceError, SessionManager, SessionMetrics,
};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, ShardedEngine};
use tsearch_text::{Analyzer, TermId};

const FLEET_SEED: u64 = 0x5EA2C4;
const SHARDS: usize = 4;
const TOP_K: usize = 10;

struct Stack {
    corpus: SyntheticCorpus,
    engine: Arc<ShardedEngine>,
    model: Arc<LdaModel>,
}

fn stack() -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 240,
        num_topics: 8,
        terms_per_topic: 50,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        SHARDS,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 20,
            ..LdaConfig::with_topics(12)
        },
    ));
    Stack {
        corpus,
        engine,
        model,
    }
}

fn manager(stack: &Stack) -> SessionManager {
    SessionManager::new(stack.engine.clone(), stack.model.clone())
        .with_fleet_seed(FLEET_SEED)
        .with_auditor(AuditConfig::default())
}

fn queries(stack: &Stack, n: usize) -> Vec<Vec<TermId>> {
    generate_workload(
        &stack.corpus,
        &WorkloadConfig {
            num_queries: n,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| q.tokens)
    .collect()
}

/// Every accounting field of two sessions' metrics, floats by bits.
fn assert_bits_eq(a: &SessionMetrics, b: &SessionMetrics) {
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.queries_emitted, b.queries_emitted);
    for (name, x, y) in [
        ("mean_cycle_len", a.mean_cycle_len, b.mean_cycle_len),
        ("mean_exposure", a.mean_exposure, b.mean_exposure),
        ("worst_exposure", a.worst_exposure, b.worst_exposure),
        ("mean_mask_level", a.mean_mask_level, b.mean_mask_level),
        ("satisfied_rate", a.satisfied_rate, b.satisfied_rate),
        ("trace_exposure", a.trace_exposure, b.trace_exposure),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
    }
}

#[test]
fn search_retries_worker_panics_and_returns_fault_free_hits() {
    let stack = stack();
    let clean = manager(&stack);
    let plane = FaultPlane::new(11).with_spec(FaultSpec::rate(FaultKind::WorkerPanic, 0.2));
    let faulty = manager(&stack).with_fault_plane(Arc::new(plane));
    for m in [&clean, &faulty] {
        m.open_session("u").unwrap();
    }
    for (i, tokens) in queries(&stack, 8).iter().enumerate() {
        let want = clean.search_tokens("u", tokens, TOP_K).unwrap();
        let got = faulty
            .search_tokens("u", tokens, TOP_K)
            .expect("retries heal a 20% panic rate");
        assert!(!want.hits.is_empty(), "query {i} finds documents");
        assert_eq!(want.hits.len(), got.hits.len(), "query {i}");
        for (w, g) in want.hits.iter().zip(&got.hits) {
            assert_eq!(w.doc_id, g.doc_id, "query {i}");
            assert_eq!(w.score.to_bits(), g.score.to_bits(), "query {i}");
        }
    }
    let registry = faulty.metrics_registry().registry();
    assert!(
        registry.counter_total(M_SHARD_RETRIES) > 0,
        "the injected panics were retried by the drain"
    );
}

#[test]
fn undeliverable_search_is_unavailable_and_rolled_back() {
    let stack = stack();
    let plane = FaultPlane::new(0).with_spec(FaultSpec::predicate(
        FaultKind::WorkerPanic,
        Arc::new(|plan| plan.session == "doomed"),
    ));
    let manager = manager(&stack).with_fault_plane(Arc::new(plane));
    for id in ["doomed", "untouched", "bystander"] {
        manager.open_session(id).unwrap();
    }
    let tokens = &queries(&stack, 1)[0];
    let err = manager
        .search_tokens("doomed", tokens, TOP_K)
        .expect_err("every submission of the doomed session panics");
    assert!(matches!(err, ServiceError::Unavailable(_)), "{err}");
    // Cycle atomicity: no half-debited cycle survives the failed search.
    assert_bits_eq(
        &manager.session_metrics("doomed").unwrap(),
        &manager.session_metrics("untouched").unwrap(),
    );
    let auditor = manager.auditor().expect("auditor attached");
    assert!(
        auditor
            .log()
            .events()
            .iter()
            .any(|e| e.code == "cycle_rolled_back" && e.tenant == "doomed"),
        "the journal explains the rollback"
    );
    assert_eq!(
        auditor.pending_cycles(),
        0,
        "rolled-back facts are released"
    );
    // The fault is scoped to one tenant.
    let ok = manager.search_tokens("bystander", tokens, TOP_K).unwrap();
    assert!(!ok.hits.is_empty());
}

#[test]
fn plain_search_submits_each_member_once_and_is_audited() {
    let stack = stack();
    let manager = manager(&stack);
    manager.open_session("u").unwrap();
    let tokens = &queries(&stack, 1)[0];
    let out = manager.search_tokens("u", tokens, TOP_K).unwrap();
    assert!(!out.hits.is_empty());
    let registry = manager.metrics_registry().registry();
    assert_eq!(
        registry.counter_total(M_SHARD_SUBMITS),
        out.report.cycle_len() as u64
    );
    assert_eq!(registry.counter_total(M_SHARD_RETRIES), 0);
    assert_eq!(manager.session_metrics("u").unwrap().cycles, 1);
    let auditor = manager.auditor().expect("auditor attached");
    assert_eq!(auditor.cycles_audited(), 1);
    assert_eq!(
        auditor.pending_cycles(),
        0,
        "the drain pruned the audited fact"
    );
}
