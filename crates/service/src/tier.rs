//! The search tier behind the service: a term-sharded engine.
//!
//! Every service component that touches the engine (the cycle
//! scheduler's workers, the server's log-capacity plumbing) goes through
//! one [`ShardedEngine`]; a single-index deployment is a 1-shard engine,
//! which ranks identically to [`tsearch_search::SearchEngine`]. The
//! engine is also where submissions learn their *shard set* — the sorted
//! list of shards a query's terms route to — which the
//! [`crate::CycleScheduler`] uses to drain shards independently.

use std::ops::Deref;
use std::sync::Arc;
use tsearch_search::ShardedEngine;

/// A cheap-to-clone handle to the service's search tier. It dereferences
/// to the [`ShardedEngine`], so every engine method is available on it.
#[derive(Clone)]
pub enum SearchTier {
    /// A term-sharded engine; queries fan out to their shard sets.
    Sharded(Arc<ShardedEngine>),
}

impl Deref for SearchTier {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        let SearchTier::Sharded(engine) = self;
        engine
    }
}
