//! Pipeline stages and the per-stage histograms that time them.
//!
//! Each serving layer names the stages it owns: the engine times
//! admission, cache lookup, cold fill, and trials; the network front
//! times frame decode, encode, and socket transfer. Each records its
//! stage times into a [`StageSet`], with no allocation.

use crate::hist::LogHistogram;

/// A named pipeline stage. Wire ids are stable (1-based; 0 is invalid on
/// the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Query validation and target dedup at batch entry.
    Admission = 1,
    /// Row-cache probe pass over the batch's targets.
    CacheLookup = 2,
    /// MS-BFS fill of the batch's cold rows.
    ColdFill = 3,
    /// Parallel greedy-routing trials.
    Trials = 4,
    /// Response frame encode on the server.
    Encode = 5,
    /// Request frame decode on the server.
    Decode = 6,
    /// Socket transfer (request receive + response send).
    Socket = 7,
}

impl Stage {
    /// Every stage, in wire-id order.
    pub const ALL: [Stage; 7] = [
        Stage::Admission,
        Stage::CacheLookup,
        Stage::ColdFill,
        Stage::Trials,
        Stage::Encode,
        Stage::Decode,
        Stage::Socket,
    ];

    /// Stable snake_case label used in expositions and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::CacheLookup => "cache_lookup",
            Stage::ColdFill => "cold_fill",
            Stage::Trials => "trials",
            Stage::Encode => "encode",
            Stage::Decode => "decode",
            Stage::Socket => "socket",
        }
    }

    /// The stage's stable wire id.
    pub fn wire_id(self) -> u8 {
        self as u8
    }

    /// Decodes a wire id (`None` for unknown ids — the frame decoder
    /// treats that as a malformed frame).
    pub fn from_wire(id: u8) -> Option<Stage> {
        Stage::ALL.get(id.wrapping_sub(1) as usize).copied()
    }

    /// Dense slot index for per-stage arrays.
    fn slot(self) -> usize {
        self as usize - 1
    }
}

/// One latency histogram per [`Stage`]. Mergeable like its parts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageSet {
    hists: [LogHistogram; 7],
}

impl StageSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (milliseconds) for `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, ms: f64) {
        self.hists[stage.slot()].record(ms);
    }

    /// The histogram for one stage.
    pub fn get(&self, stage: Stage) -> &LogHistogram {
        &self.hists[stage.slot()]
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &StageSet) {
        for s in Stage::ALL {
            self.hists[s.slot()].merge(&other.hists[s.slot()]);
        }
    }

    /// True when no stage has recorded a sample.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.is_empty())
    }

    /// Iterates `(stage, histogram)` pairs for stages with samples, in
    /// wire-id order.
    pub fn non_empty(&self) -> impl Iterator<Item = (Stage, &LogHistogram)> {
        Stage::ALL
            .into_iter()
            .map(|s| (s, &self.hists[s.slot()]))
            .filter(|(_, h)| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_wire(s.wire_id()), Some(s));
        }
        assert_eq!(Stage::from_wire(0), None);
        assert_eq!(Stage::from_wire(8), None);
        assert_eq!(Stage::from_wire(255), None);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn merge_sums_per_stage() {
        let mut a = StageSet::new();
        let mut b = StageSet::new();
        a.record(Stage::Admission, 1.0);
        b.record(Stage::Admission, 2.0);
        b.record(Stage::Socket, 3.0);
        a.merge(&b);
        assert_eq!(a.get(Stage::Admission).count(), 2);
        assert_eq!(a.get(Stage::Socket).count(), 1);
        assert_eq!(a.get(Stage::ColdFill).count(), 0);
    }
}
