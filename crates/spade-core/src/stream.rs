//! Update-stream types (paper §4.3): timestamped transactions `ΔG_τ`,
//! optionally labeled with the fraud pattern that generated them.
//!
//! The latency metric `L(ΔG_τ)` (Eq. 4) and the prevention ratio `R`
//! (Fig. 8) are defined over `(generation timestamp, response timestamp)`
//! pairs of labeled fraudulent transactions; the workload generators in
//! `spade-gen` produce these records and the measurement code in
//! `spade-metrics` consumes the pairs.

use spade_graph::VertexId;

/// The fraud patterns of the paper's case studies (Fig. 12/13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FraudPattern {
    /// Customer–merchant collusion: fake accounts trading with a merchant
    /// to farm promotions (Fig. 12a).
    CustomerMerchantCollusion,
    /// Deal-hunter: a group of users exploiting promotions or merchant
    /// bugs (Fig. 12b).
    DealHunter,
    /// Click-farming: merchants recruiting fraudsters to fake prosperity
    /// (Fig. 12c).
    ClickFarming,
}

impl FraudPattern {
    /// All three patterns, in paper order.
    pub const ALL: [FraudPattern; 3] = [
        FraudPattern::CustomerMerchantCollusion,
        FraudPattern::DealHunter,
        FraudPattern::ClickFarming,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            FraudPattern::CustomerMerchantCollusion => "customer-merchant collusion",
            FraudPattern::DealHunter => "deal-hunter",
            FraudPattern::ClickFarming => "click-farming",
        }
    }
}

/// Ground-truth label carried by transactions injected by a fraud
/// generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FraudLabel {
    /// Which injected fraud instance the transaction belongs to.
    pub instance: u32,
    /// The pattern of that instance.
    pub pattern: FraudPattern,
}

/// One timestamped transaction of an update stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEdge {
    /// Paying side.
    pub src: VertexId,
    /// Receiving side.
    pub dst: VertexId,
    /// Raw transaction attribute handed to `ESusp` (e.g. amount).
    pub raw: f64,
    /// Generation time, in stream time units (microseconds).
    pub timestamp: u64,
    /// Ground-truth fraud label, if this transaction was injected.
    pub label: Option<FraudLabel>,
}

impl StreamEdge {
    /// An unlabeled (organic) transaction.
    pub fn organic(src: VertexId, dst: VertexId, raw: f64, timestamp: u64) -> Self {
        StreamEdge { src, dst, raw, timestamp, label: None }
    }

    /// A labeled fraudulent transaction.
    pub fn fraudulent(
        src: VertexId,
        dst: VertexId,
        raw: f64,
        timestamp: u64,
        label: FraudLabel,
    ) -> Self {
        StreamEdge { src, dst, raw, timestamp, label: Some(label) }
    }

    /// `true` when the transaction carries a fraud label.
    pub fn is_fraud(&self) -> bool {
        self.label.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            FraudPattern::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn constructors_set_labels() {
        let e = StreamEdge::organic(VertexId(1), VertexId(2), 3.0, 7);
        assert!(!e.is_fraud());
        let f = StreamEdge::fraudulent(
            VertexId(1),
            VertexId(2),
            3.0,
            7,
            FraudLabel { instance: 4, pattern: FraudPattern::DealHunter },
        );
        assert!(f.is_fraud());
        assert_eq!(f.label.unwrap().instance, 4);
    }
}
