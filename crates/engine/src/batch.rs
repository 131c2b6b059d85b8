//! The request/response types of the serving API.

use nav_core::trial::PairStats;
pub use nav_core::wave::Query;
use nav_graph::NodeId;

/// A batch of queries served in one engine round-trip. Batching is the
/// engine's unit of work: targets are deduplicated and cold rows computed
/// `width.lanes()` per MS-BFS pass *within* a batch (in waves bounded by
/// the cache budget), so bigger batches amortise better — but answers
/// never depend on how a stream was split into batches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryBatch {
    /// The queries, in arrival order. Answers come back in the same order.
    pub queries: Vec<Query>,
}

impl QueryBatch {
    /// A batch over explicit `(s, t)` pairs, all at the same trial count.
    pub fn from_pairs(pairs: &[(NodeId, NodeId)], trials: usize) -> Self {
        QueryBatch {
            queries: pairs.iter().map(|&(s, t)| Query { s, t, trials }).collect(),
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The `(s, t)` pairs of the batch, in order — the exact slice a
    /// reference [`nav_core::trial::run_trials`] over this batch takes.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.queries.iter().map(|q| (q.s, q.t)).collect()
    }
}

/// The engine's answer to one batch.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-query statistics, in query order — field-for-field what
    /// [`nav_core::trial::run_trials`] would report for the same pairs.
    pub answers: Vec<PairStats>,
    /// Distinct targets served from the cross-batch row cache.
    pub warm_targets: usize,
    /// Distinct targets whose rows were computed this batch.
    pub cold_targets: usize,
    /// Wall-clock service time of the batch, milliseconds.
    pub elapsed_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_roundtrip() {
        let pairs = [(0u32, 3u32), (2, 1)];
        let b = QueryBatch::from_pairs(&pairs, 5);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(QueryBatch::default().is_empty());
        assert_eq!(
            b.queries[1],
            Query {
                s: 2,
                t: 1,
                trials: 5
            }
        );
        assert_eq!(b.pairs(), pairs.to_vec());
    }
}
