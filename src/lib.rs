//! # toppriv
//!
//! Facade crate for the TopPriv reproduction and its production service
//! layer. Re-exports every subsystem under a stable module path and
//! provides [`build_demo_stack`] — the three-piece demo stack (corpus,
//! engine, shared LDA model) that the examples are built on — and
//! [`build_demo_stack_sharded`], its term-sharded service variant that
//! `toppriv-serve` runs on.
//!
//! Layering (each layer only depends on the ones above it):
//!
//! - substrates: [`text`], [`index`], [`store`], [`corpus`];
//! - models and engines: [`lda`], [`search`];
//! - the paper's client module: [`core`] (with [`baselines`] and
//!   [`adversary`] for the evaluation);
//! - the multi-tenant service layer: [`service`];
//! - cross-cutting observability (registry, histograms, spans): [`obs`];
//! - the reproduction harness: [`bench`](mod@bench).

pub use toppriv_adversary as adversary;
pub use toppriv_baselines as baselines;
pub use toppriv_bench as bench;
pub use toppriv_core as core;
pub use toppriv_obs as obs;
pub use toppriv_service as service;
pub use tsearch_corpus as corpus;
pub use tsearch_index as index;
pub use tsearch_lda as lda;
pub use tsearch_search as search;
pub use tsearch_store as store;
pub use tsearch_text as text;

pub use toppriv_core::{
    BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement, TrustedClient,
};
pub use toppriv_service::{ResultCache, SearchTier, ServiceMetrics, SessionManager};
pub use tsearch_corpus::{CorpusConfig, SyntheticCorpus};
pub use tsearch_index::{ShardRouter, ShardedIndex};
pub use tsearch_lda::LdaModel;
pub use tsearch_search::{ScoringModel, SearchEngine, ShardedEngine};

use std::sync::Arc;
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_text::{Analyzer, TermId};

/// Builds the demo stack: a synthetic corpus, a search engine hosting it,
/// and an LDA model trained on it (wrapped in an [`Arc`] so any number of
/// belief engines, clients, and service sessions can share it). This is
/// the paper client's stack; the service runs on
/// [`build_demo_stack_sharded`].
pub fn build_demo_stack(
    config: CorpusConfig,
    topics: usize,
    iterations: usize,
) -> (SyntheticCorpus, SearchEngine, Arc<LdaModel>) {
    build_with_engine(config, topics, iterations, |docs, texts, corpus| {
        SearchEngine::build(
            docs,
            texts,
            Analyzer::new(),
            corpus.vocab.clone(),
            ScoringModel::TfIdfCosine,
        )
    })
}

/// The service variant of [`build_demo_stack`]: the same corpus and
/// model, hosted by a term-sharded engine over `shards` index shards
/// (at least 1). One shard ranks identically to [`build_demo_stack`]'s
/// [`SearchEngine`]; more shards only change how the service scales.
pub fn build_demo_stack_sharded(
    config: CorpusConfig,
    topics: usize,
    iterations: usize,
    shards: usize,
) -> (SyntheticCorpus, Arc<ShardedEngine>, Arc<LdaModel>) {
    build_with_engine(config, topics, iterations, |docs, texts, corpus| {
        Arc::new(ShardedEngine::build(
            docs,
            texts,
            Analyzer::new(),
            corpus.vocab.clone(),
            ScoringModel::TfIdfCosine,
            shards.max(1),
        ))
    })
}

/// Generates the corpus, hosts it with `engine`, and trains the model.
fn build_with_engine<E>(
    config: CorpusConfig,
    topics: usize,
    iterations: usize,
    engine: impl FnOnce(&[&[TermId]], &[String], &SyntheticCorpus) -> E,
) -> (SyntheticCorpus, E, Arc<LdaModel>) {
    let corpus = SyntheticCorpus::generate(config);
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = engine(&docs, &texts, &corpus);
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations,
            ..LdaConfig::with_topics(topics)
        },
    ));
    (corpus, engine, model)
}
