//! The enterprise search engine.
//!
//! This is the *unmodified* server of the paper's system model: it hosts
//! the plaintext corpus and inverted index, evaluates similarity queries,
//! and — being a curious adversary — keeps a log of every query it
//! processes for after-the-fact analysis.

use crate::log::QueryLog;
use crate::query::Query;
use crate::score::ScoringModel;
use crate::topk::{SearchHit, TopK};
use std::sync::Mutex;
use std::time::Instant;
use toppriv_obs::HistogramHandle;
use tsearch_index::{DocumentStore, InvertedIndex};
use tsearch_text::{Analyzer, TermId, Vocabulary};

pub use crate::log::LoggedQuery;

/// Metric name: single-engine accumulation latency per query (µs).
pub const M_EVAL_US: &str = "engine_eval_us";

/// The search engine: index + document store + scorer + query log.
pub struct SearchEngine {
    index: InvertedIndex,
    store: DocumentStore,
    analyzer: Analyzer,
    vocab: Vocabulary,
    model: ScoringModel,
    /// Precomputed per-document vector norms for cosine scoring.
    doc_norms: Vec<f64>,
    log: Mutex<QueryLog>,
    /// Accumulation-phase latency (global registry handle).
    eval_us: HistogramHandle,
    /// Rank-phase latency, under the same [`crate::sharded::M_GATHER_US`]
    /// name the sharded gather uses — the "gather" stage exists on every
    /// tier.
    gather_us: HistogramHandle,
}

impl SearchEngine {
    /// Assembles an engine over a prebuilt index and store.
    pub fn new(
        index: InvertedIndex,
        store: DocumentStore,
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
    ) -> Self {
        let doc_norms = compute_doc_norms(&index, model);
        let registry = toppriv_obs::global();
        SearchEngine {
            index,
            store,
            analyzer,
            vocab,
            model,
            doc_norms,
            log: Mutex::new(QueryLog::new()),
            eval_us: registry.histogram(M_EVAL_US, &[]),
            gather_us: registry.histogram(crate::sharded::M_GATHER_US, &[]),
        }
    }

    /// Builds an engine directly from token documents and their texts.
    pub fn build(
        docs: &[&[TermId]],
        texts: &[String],
        analyzer: Analyzer,
        vocab: Vocabulary,
        model: ScoringModel,
    ) -> Self {
        assert_eq!(docs.len(), texts.len());
        let index = InvertedIndex::build(docs, vocab.len());
        let store = DocumentStore::from_texts(texts.iter().cloned());
        Self::new(index, store, analyzer, vocab, model)
    }

    /// Executes a text query, returning the best `k` documents. The query
    /// is recorded in the server-side log.
    pub fn search(&self, text: &str, k: usize) -> Vec<SearchHit> {
        let query = Query::parse(text, &self.analyzer, &self.vocab);
        self.log_query(text.to_string(), &query);
        self.evaluate(&query, k)
    }

    /// Executes a pre-analyzed token query (logged as its canonical text).
    pub fn search_tokens(&self, tokens: &[TermId], k: usize) -> Vec<SearchHit> {
        let query = Query::from_tokens(tokens);
        let text = tokens
            .iter()
            .map(|&t| self.vocab.term(t))
            .collect::<Vec<_>>()
            .join(" ");
        self.log_query(text, &query);
        self.evaluate(&query, k)
    }

    /// Scores a query without logging it — used by evaluation code that
    /// must not contaminate the adversary-visible trace.
    pub fn evaluate(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let t0 = Instant::now();
        let mut accumulators: std::collections::HashMap<u32, f64> =
            std::collections::HashMap::new();
        let avg_len = self.index.avg_doc_len();
        for (term, qtf) in query.terms() {
            accumulate_term(
                &self.index,
                self.model,
                avg_len,
                term,
                qtf,
                &mut accumulators,
            );
        }
        self.eval_us.record(t0.elapsed().as_micros() as u64);
        let t1 = Instant::now();
        let mut topk = TopK::new(k);
        for (doc_id, mut score) in accumulators {
            if self.model.needs_cosine_norm() {
                let norm = self.doc_norms[doc_id as usize];
                if norm > 0.0 {
                    score /= norm;
                }
            }
            topk.push(SearchHit { doc_id, score });
        }
        let hits = topk.into_sorted();
        self.gather_us.record(t1.elapsed().as_micros() as u64);
        hits
    }

    /// Brute-force scoring of every document (reference implementation for
    /// property tests; O(docs × query terms)).
    pub fn evaluate_bruteforce(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let avg_len = self.index.avg_doc_len();
        let mut topk = TopK::new(k);
        for doc_id in 0..self.index.num_docs() as u32 {
            let mut score = 0.0;
            for (term, qtf) in query.terms() {
                let tf = self.index.term_freq(term, doc_id);
                if tf == 0 {
                    continue;
                }
                let qw = self.model.query_weight(qtf, self.index.idf(term));
                let dw = self
                    .model
                    .doc_weight(tf, self.index.doc_len(doc_id), avg_len);
                score += qw * dw;
            }
            if score == 0.0 {
                continue;
            }
            if self.model.needs_cosine_norm() {
                let norm = self.doc_norms[doc_id as usize];
                if norm > 0.0 {
                    score /= norm;
                }
            }
            topk.push(SearchHit { doc_id, score });
        }
        topk.into_sorted()
    }

    fn log_query(&self, text: String, query: &Query) {
        self.log.lock().expect("query log poisoned").push(
            text,
            query
                .terms()
                .flat_map(|(t, tf)| std::iter::repeat_n(t, tf as usize))
                .collect(),
        );
    }

    /// Snapshot of the server-side query log — the adversary's view.
    pub fn query_log(&self) -> Vec<LoggedQuery> {
        self.log.lock().expect("query log poisoned").snapshot()
    }

    /// Clears the query log (between experiments). Ordinals restart.
    pub fn clear_query_log(&self) {
        self.log.lock().expect("query log poisoned").clear();
    }

    /// Bounds the query log to the most recent `capacity` entries.
    /// Long-running deployments (e.g. `toppriv-serve`) set this so the
    /// demo-oriented adversary log cannot grow without limit; ordinals
    /// keep counting across dropped entries.
    pub fn set_query_log_capacity(&self, capacity: usize) {
        self.log
            .lock()
            .expect("query log poisoned")
            .set_capacity(capacity);
    }

    /// Fetches a result document's text (Step 7 of the search process).
    pub fn fetch_document(&self, doc_id: u32) -> Option<&str> {
        self.store.get(doc_id)
    }

    /// The engine's index (read-only).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The engine's vocabulary (read-only).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The engine's analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The scoring model in use.
    pub fn model(&self) -> ScoringModel {
        self.model
    }
}

/// Accumulates one query term's (unnormalized) score contributions from
/// `index` into `accumulators`. This is the inner loop of accumulator
/// evaluation, shared by [`SearchEngine::evaluate`] and the sharded
/// engine's per-shard scatter step — the two MUST score identically
/// (the shard-equivalence contract), so there is exactly one copy.
pub(crate) fn accumulate_term(
    index: &InvertedIndex,
    model: ScoringModel,
    avg_len: f64,
    term: TermId,
    qtf: u32,
    accumulators: &mut std::collections::HashMap<u32, f64>,
) {
    let idf = index.idf(term);
    if idf <= 0.0 && index.doc_freq(term) == 0 {
        return;
    }
    let qw = model.query_weight(qtf, idf);
    if qw == 0.0 {
        return;
    }
    for posting in index.postings(term).iter() {
        let dw = model.doc_weight(posting.tf, index.doc_len(posting.doc_id), avg_len);
        *accumulators.entry(posting.doc_id).or_insert(0.0) += qw * dw;
    }
}

/// Precomputes cosine norms: the L2 norm of each document's weighted term
/// vector under the given model.
fn compute_doc_norms(index: &InvertedIndex, model: ScoringModel) -> Vec<f64> {
    let mut sums = vec![0.0f64; index.num_docs()];
    if !model.needs_cosine_norm() {
        return sums;
    }
    let avg_len = index.avg_doc_len();
    for term in 0..index.num_terms() as u32 {
        for posting in index.postings(term).iter() {
            let w = model.doc_weight(posting.tf, index.doc_len(posting.doc_id), avg_len);
            sums[posting.doc_id as usize] += w * w;
        }
    }
    sums.iter().map(|s| s.sqrt()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_text::Analyzer;

    fn toy_engine(model: ScoringModel) -> SearchEngine {
        let analyzer = Analyzer::new();
        let mut vocab = Vocabulary::new();
        let texts = vec![
            "apache helicopter weapons army".to_string(),
            "apache web server software".to_string(),
            "stock market investors shares shares shares".to_string(),
            "helicopter aviation airport".to_string(),
        ];
        let docs: Vec<Vec<TermId>> = texts
            .iter()
            .map(|t| analyzer.analyze_into(t, &mut vocab))
            .collect();
        for d in &docs {
            vocab.observe_document(d);
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        SearchEngine::build(&refs, &texts, analyzer, vocab, model)
    }

    #[test]
    fn finds_relevant_documents() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let hits = engine.search("apache helicopter", 4);
        assert!(!hits.is_empty());
        // Doc 0 contains both terms and should rank first.
        assert_eq!(hits[0].doc_id, 0);
        // Scores strictly ordered.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn bm25_also_works() {
        let engine = toy_engine(ScoringModel::bm25_default());
        let hits = engine.search("stock market", 4);
        assert_eq!(hits[0].doc_id, 2);
    }

    #[test]
    fn accumulator_matches_bruteforce() {
        for model in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            let engine = toy_engine(model);
            let analyzer = Analyzer::new();
            for text in ["apache", "helicopter airport", "shares investors apache"] {
                let q = Query::parse(text, &analyzer, engine.vocab());
                let fast = engine.evaluate(&q, 10);
                let slow = engine.evaluate_bruteforce(&q, 10);
                assert_eq!(fast.len(), slow.len(), "model {model:?} query {text}");
                for (f, s) in fast.iter().zip(&slow) {
                    assert_eq!(f.doc_id, s.doc_id);
                    assert!((f.score - s.score).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn query_log_records_everything() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        engine.search("apache", 2);
        engine.search("stock market", 2);
        let log = engine.query_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].ordinal, 0);
        assert_eq!(log[0].text, "apache");
        assert_eq!(log[1].tokens.len(), 2);
        engine.clear_query_log();
        assert!(engine.query_log().is_empty());
    }

    #[test]
    fn query_log_capacity_bounds_growth() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        engine.set_query_log_capacity(3);
        for _ in 0..10 {
            engine.search("apache", 1);
        }
        let log = engine.query_log();
        assert_eq!(log.len(), 3, "log trimmed to capacity");
        // Oldest entries dropped, ordinals still unique and monotone.
        assert_eq!(log.last().unwrap().ordinal, 9);
        assert!(log.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        // Tightening the capacity trims immediately.
        engine.set_query_log_capacity(1);
        assert_eq!(engine.query_log().len(), 1);
    }

    #[test]
    fn evaluate_does_not_log() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let q = Query::from_tokens(&[0]);
        engine.evaluate(&q, 5);
        assert!(engine.query_log().is_empty());
    }

    #[test]
    fn unknown_terms_score_nothing() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        let hits = engine.search("nonexistent gibberish", 5);
        assert!(hits.is_empty());
    }

    #[test]
    fn fetch_document_roundtrip() {
        let engine = toy_engine(ScoringModel::TfIdfCosine);
        assert_eq!(engine.fetch_document(1), Some("apache web server software"));
        assert_eq!(engine.fetch_document(99), None);
    }
}
