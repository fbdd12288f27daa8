//! The Fault Sim Report: which clock cycle and pattern detected which
//! fault, and how many detections each clock cycle saw.

use std::collections::BTreeMap;

use crate::FaultId;

/// The paper's stage-3 output, cut to what the flow reads: the individual
/// `(fault, cc, pattern)` detection events (evaluation, reordering and the
/// artifact store) and the detections per clock cycle (`FSR_cc` in the
/// paper's Fig. 2, queried by instruction labeling). The paper's report
/// also counts the faults each pattern activates; no stage reads those
/// counts, so they are not kept.
///
/// In non-dropping runs the per-cc counts include every observation, not
/// only first detections, so they cannot be rebuilt from the event log.
///
/// # Examples
///
/// ```
/// use warpstl_fault::FaultSimReport;
///
/// let mut r = FaultSimReport::new();
/// r.record_detected(10, 1);
/// r.record_detected(12, 2);
/// assert_eq!(r.total_detected(), 3);
/// assert_eq!(r.detections_in_range(10, 12), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSimReport {
    detections: Vec<(FaultId, u64, usize)>,
    by_cc: BTreeMap<u64, u32>,
}

impl FaultSimReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> FaultSimReport {
        FaultSimReport::default()
    }

    /// Adds `detected` detections at clock cycle `cc`; counts sharing a
    /// `cc` accumulate.
    pub fn record_detected(&mut self, cc: u64, detected: u32) {
        if detected > 0 {
            *self.by_cc.entry(cc).or_insert(0) += detected;
        }
    }

    /// Appends an individual detection event.
    pub fn record_detection(&mut self, fault: FaultId, cc: u64, pattern: usize) {
        self.detections.push((fault, cc, pattern));
    }

    /// Merges another report (used when a module has several instances whose
    /// pattern streams are simulated separately).
    pub fn merge(&mut self, other: &FaultSimReport) {
        self.detections.extend_from_slice(&other.detections);
        for (&cc, &d) in &other.by_cc {
            self.record_detected(cc, d);
        }
    }

    /// Individual `(fault, cc, pattern)` detection events.
    #[must_use]
    pub fn detections(&self) -> &[(FaultId, u64, usize)] {
        &self.detections
    }

    /// The nonzero `(cc, detections)` counts in clock-cycle order.
    pub fn detected_by_cc(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.by_cc.iter().map(|(&cc, &d)| (cc, d))
    }

    /// Total detections.
    #[must_use]
    pub fn total_detected(&self) -> u32 {
        self.by_cc.values().sum()
    }

    /// Detections within `[start, end)` clock cycles — the quantity the
    /// instruction-labeling algorithm queries.
    #[must_use]
    pub fn detections_in_range(&self, start: u64, end: u64) -> u32 {
        self.by_cc.range(start..end).map(|(_, &d)| d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_queries() {
        let mut r = FaultSimReport::new();
        r.record_detected(5, 2);
        r.record_detected(9, 1);
        r.record_detected(20, 4);
        r.record_detected(30, 0);
        assert_eq!(r.detections_in_range(0, 10), 3);
        assert_eq!(r.detections_in_range(10, 30), 4);
        assert_eq!(r.detections_in_range(21, 31), 0);
        assert_eq!(
            r.detected_by_cc().collect::<Vec<_>>(),
            vec![(5, 2), (9, 1), (20, 4)]
        );
    }

    #[test]
    fn merge_combines() {
        let mut a = FaultSimReport::new();
        a.record_detected(1, 1);
        a.record_detection(0, 1, 0);
        let mut b = FaultSimReport::new();
        b.record_detected(1, 2);
        b.record_detected(3, 1);
        b.record_detection(4, 3, 1);
        a.merge(&b);
        assert_eq!(a.detections_in_range(1, 2), 3);
        assert_eq!(a.total_detected(), 4);
        assert_eq!(a.detections(), &[(0, 1, 0), (4, 3, 1)]);
    }
}
