//! Adversary collusion at scale: all shards of the term-sharded tier
//! collude, merge their query logs after a churn storm over ≥64
//! sessions, and train a supervised naive-Bayes classifier on the
//! ground-truth document taxonomy. Even with the complete merged trace
//! and ground-truth training data, the classifier must stay within the
//! paper's `(ε1, ε2)` story:
//!
//! - picking the genuine query out of a cycle is no better than chance
//!   plus ε1 (the decoys are statistically indistinguishable);
//! - recovering the true topic from the pooled cycle bag is far below
//!   the unprotected-query oracle (the cycle actually masks);
//! - the merged log is complete — every drained submission is visible
//!   to the colluding shards, so the attack is evaluated at full
//!   adversary strength, not against a lossy trace.

use std::sync::Arc;
use toppriv_adversary::{merge_shard_logs, run_classifier_attack, NaiveBayes};
use toppriv_bench::scenarios::churn::{run_fleet, ChurnConfig};
use toppriv_core::PrivacyRequirement;
use toppriv_service::{SearchTier, SessionManager};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_search::{ScoringModel, ShardedEngine};
use tsearch_text::Analyzer;

#[test]
fn colluding_shards_stay_within_epsilon_bounds_at_scale() {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 300,
        num_topics: 8,
        terms_per_topic: 60,
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
        4,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 25,
            ..LdaConfig::with_topics(16)
        },
    ));
    let manager = Arc::new(
        SessionManager::with_tier(SearchTier::Sharded(engine), model)
            .with_cache(4096)
            .with_fleet_seed(0xC0111D0),
    );
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 48,
            ..WorkloadConfig::default()
        },
    );

    // A churn storm with ≥64 distinct sessions joining over its course.
    let cfg = ChurnConfig {
        join_per_wave: 24,
        waves: 3,
        cycles_per_session: 1,
    };
    let art = run_fleet(manager, &queries, &cfg);
    assert!(art.joined >= 64, "storm opened {} sessions", art.joined);
    assert!(
        art.invariants.pass,
        "churn invariants must hold at scale: {:?}",
        art.invariants
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );

    // The colluding shards reassemble the global trace; every drained
    // submission must be visible in the merged view.
    let shard_logs = art.manager.tier().shard_logs();
    let merged = merge_shard_logs(&shard_logs);
    // Cache-served submissions never reach the engine (the cache is
    // itself a fleet-level suppressor); everything else must be visible.
    let cache_hits = art
        .manager
        .metrics_registry()
        .registry()
        .counter_total(toppriv_service::metrics::M_CACHE_HITS) as usize;
    assert_eq!(
        merged.len() + cache_hits,
        art.drained,
        "merged log + cache hits must cover every drained submission"
    );
    assert!(!merged.is_empty(), "colluding shards saw the trace");

    // The strongest classifier the enterprise can field: trained on the
    // ground-truth dominant topic of every document it hosts.
    let labeled: Vec<(&[u32], usize)> = corpus
        .docs
        .iter()
        .map(|d| {
            let label = d
                .mixture
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weight"))
                .map(|&(t, _)| t)
                .expect("non-empty mixture");
            (d.tokens.as_slice(), label)
        })
        .collect();
    let nb = NaiveBayes::train(&labeled, corpus.num_topics(), corpus.vocab.len(), 1.0);
    let report = run_classifier_attack(&nb, &art.cycles, &art.truths);
    assert!(
        report.cycles >= 64,
        "attack evaluated {} cycles",
        report.cycles
    );

    // The oracle must be strong, otherwise the attack is a straw man.
    assert!(
        report.unprotected_recovery > 2.0 * report.topic_chance,
        "unprotected recovery {:.3} should beat chance {:.3} clearly",
        report.unprotected_recovery,
        report.topic_chance
    );
    // ε1 bound: the genuine query hides among the decoys.
    let eps1 = PrivacyRequirement::paper_default().eps1;
    assert!(
        report.genuine_identification <= report.genuine_chance + eps1,
        "genuine identification {:.3} exceeds chance {:.3} + ε1 {eps1}",
        report.genuine_identification,
        report.genuine_chance
    );
    // The pooled cycle must not leak the topic like the raw query does.
    assert!(
        report.cycle_recovery < report.unprotected_recovery,
        "cycle recovery {:.3} should be damped below the oracle {:.3}",
        report.cycle_recovery,
        report.unprotected_recovery
    );
}
