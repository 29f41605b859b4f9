//! Thin client: reduced-data LDA training + crash-safe model cache.
//!
//! Section V-A of the paper flags the LDA model's training cost and
//! ~140 MB client footprint as TopPriv's main scaling obstacle and
//! sketches the fix — train on sampled documents and TF-IDF-pruned
//! vocabulary — as future work. This example runs that pipeline end to
//! end on a laptop-class budget:
//!
//! 1. train a reduced model (half the documents, a quarter of the
//!    vocabulary);
//! 2. persist it in the checksummed artifact store and reload it, as a
//!    returning client would;
//! 3. protect queries with ghosts generated from the reduced model;
//! 4. audit the result with the *full* model — the adversary's view —
//!    to show the (ε1, ε2) requirement still holds;
//! 5. hand the session over to the `toppriv-service` layer: the same
//!    thin client becomes one tenant of a shared `SessionManager`, with
//!    the heavyweight model living once behind an `Arc`.
//!
//! Run with:
//! ```text
//! cargo run --release --example thin_client
//! ```

use std::sync::Arc;
use toppriv::core::exposure;
use toppriv::corpus::{generate_workload, WorkloadConfig};
use toppriv::lda::{LdaConfig, LdaTrainer, ReducedModel, ReductionConfig};
use toppriv::service::SessionManager;
use toppriv::store::{kind, ArtifactStore};
use toppriv::text::Analyzer;
use toppriv::{
    BeliefEngine, CorpusConfig, GhostConfig, GhostGenerator, PrivacyRequirement, ScoringModel,
    ShardedEngine,
};

fn main() {
    let config = CorpusConfig {
        num_docs: 1200,
        num_topics: 16,
        terms_per_topic: 80,
        ..CorpusConfig::default()
    };
    let corpus = toppriv::SyntheticCorpus::generate(config);
    let docs = corpus.token_docs();
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 12,
            ..WorkloadConfig::default()
        },
    );
    let k = 32;
    let iters = 40;

    // The reference model — what the search engine (adversary) can train
    // on the full corpus it hosts.
    let full = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: iters,
            ..LdaConfig::with_topics(k)
        },
    ));

    // 1. The thin client trains on half the docs, a quarter of the vocab.
    let t0 = std::time::Instant::now();
    let reduced = ReducedModel::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: iters,
            ..LdaConfig::with_topics(k)
        },
        ReductionConfig {
            doc_rate: 0.5,
            vocab_rate: 0.25,
            ..Default::default()
        },
    );
    println!(
        "reduced training: {:.2}s over {} docs, {} of {} terms kept ({:.1}% of tokens dropped)",
        t0.elapsed().as_secs_f64(),
        reduced.sampled_docs(),
        reduced.vocab_map().reduced_size(),
        reduced.vocab_map().full_size(),
        reduced.token_drop_rate() * 100.0
    );
    println!(
        "client footprint: {:.2} MB reduced vs {:.2} MB full",
        reduced.client_bytes() as f64 / (1024.0 * 1024.0),
        full.size_breakdown().client_bytes() as f64 / (1024.0 * 1024.0)
    );

    // 2. Persist → reload, as across client sessions.
    let dir = std::env::temp_dir().join("toppriv-thin-client");
    {
        let mut store = ArtifactStore::open(&dir).expect("open store");
        store
            .put(
                "reduced-model",
                kind::LDA_MODEL,
                &toppriv::lda::encode(reduced.model()),
            )
            .expect("persist model");
        store
            .put(
                "vocab-map",
                kind::VOCAB_MAP,
                &serde_json::to_vec(reduced.vocab_map()).expect("map serializes"),
            )
            .expect("persist map");
    }
    let store = ArtifactStore::open(&dir).expect("reopen store");
    assert!(store.verify_all().is_empty(), "artifacts intact");
    let reloaded = Arc::new(
        toppriv::lda::decode(&store.get("reduced-model", kind::LDA_MODEL).unwrap()).unwrap(),
    );
    println!(
        "store: {} artifacts verified under {}",
        store.list().count(),
        dir.display()
    );

    // 3 + 4. Generate ghosts from the reloaded reduced model and audit
    // with the full model. The client works entirely in the reduced term
    // space — queries are projected in, ghost terms mapped back out — so
    // the expanded matrix never has to exist in client memory.
    let map: toppriv::lda::VocabMap =
        serde_json::from_slice(&store.get("vocab-map", kind::VOCAB_MAP).unwrap()).unwrap();
    assert_eq!(map.reduced_size(), reloaded.vocab_size());
    let reduced = (reloaded, map);
    let requirement = PrivacyRequirement::paper_default();
    let generator = GhostGenerator::new(
        BeliefEngine::new(reduced.0.clone()),
        requirement,
        GhostConfig::default(),
    );
    let audit = BeliefEngine::new(full.clone());

    let mut worst = 0.0f64;
    let mut satisfied = 0usize;
    let mut audited = 0usize;
    for q in &queries {
        let projected = reduced.1.project(&q.tokens);
        let r = generator.generate(&projected);
        // Map every cycle query back to full term ids for submission.
        let cycle_full: Vec<Vec<u32>> = r
            .cycle
            .iter()
            .enumerate()
            .map(|(i, cq)| {
                if i == r.genuine_index {
                    q.tokens.clone() // the genuine query goes out unmodified
                } else {
                    cq.tokens.iter().map(|&w| reduced.1.to_full(w)).collect()
                }
            })
            .collect();
        // Adversary audit in the full model's topic space.
        let solo = audit.boost(&q.tokens);
        let intention = requirement.user_intention(&solo);
        if intention.is_empty() {
            continue;
        }
        let posteriors: Vec<Vec<f64>> = cycle_full.iter().map(|t| audit.posterior(t)).collect();
        let cycle_boosts = audit.cycle_boost(&posteriors);
        let e = exposure(&cycle_boosts, &intention);
        worst = worst.max(e);
        audited += 1;
        if requirement.is_satisfied(&cycle_boosts, &intention) {
            satisfied += 1;
        }
    }
    println!(
        "audit with the FULL model: {satisfied}/{audited} queries satisfy (ε1,ε2)=(5%,1%), worst exposure {:.2}%",
        worst * 100.0
    );

    // 5. The same client as a service tenant: one SessionManager shares
    //    the engine and the full model across any number of thin clients;
    //    the result cache absorbs the decoys tenants have in common.
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        1,
    ));
    let manager = SessionManager::new(engine, full.clone()).with_cache(1024);
    for tenant in ["thin-a", "thin-b"] {
        manager.open_session(tenant).expect("fresh tenant id");
    }
    for q in queries.iter().take(6) {
        let a = manager
            .search_tokens("thin-a", &q.tokens, 10)
            .expect("tenant open");
        let b = manager
            .search_tokens("thin-b", &q.tokens, 10)
            .expect("tenant open");
        assert_eq!(a.hits.len(), b.hits.len(), "tenants see identical results");
        assert!(
            b.cache_hits > 0,
            "the repeated cycle should come from cache"
        );
    }
    let snapshot = manager.metrics();
    println!(
        "service: {} tenants, {} submissions, cache hit rate {:.0}%, worst session exposure {:.2}%",
        snapshot.sessions.len(),
        snapshot.global.submitted,
        snapshot.global.cache_hit_rate * 100.0,
        snapshot
            .sessions
            .iter()
            .map(|m| m.worst_exposure)
            .fold(0.0f64, f64::max)
            * 100.0,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
