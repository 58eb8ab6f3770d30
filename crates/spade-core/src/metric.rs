//! Density metrics and user-defined suspiciousness functions (paper §2.1,
//! §3.1, Appendix E/F).
//!
//! Spade supports every *arithmetic density* `g(S) = f(S) / |S|` with
//! non-negative vertex suspiciousness `a_i >= 0` and strictly positive edge
//! suspiciousness `c_ij > 0` (Property 3.1). A metric is specified by two
//! plug-in functions, mirroring the paper's `VSusp` / `ESusp` API:
//!
//! * `vertex_susp(u, g)` — the prior suspiciousness `a_u`, evaluated when a
//!   vertex first appears;
//! * `edge_susp(src, dst, raw, g)` — the suspiciousness `c_ij` of an
//!   arriving transaction, evaluated against the *current* graph (streaming
//!   semantics; weights are never retroactively rescaled — see DESIGN.md §4).
//!
//! Three built-in instances reproduce the paper's Table 1 competitors:
//! [`UnweightedDensity`] (DG, Charikar), [`WeightedDensity`] (DW, Gudapati
//! et al.) and [`Fraudar`] (FD, Hooi et al.).

use spade_graph::{DynamicGraph, VertexId};

/// A pluggable fraud-semantics definition: the pair of suspiciousness
/// functions that define an arithmetic density metric.
pub trait DensityMetric {
    /// The prior suspiciousness `a_u >= 0` of a newly observed vertex.
    fn vertex_susp(&self, u: VertexId, g: &DynamicGraph) -> f64;

    /// The suspiciousness `c_ij > 0` of an arriving transaction
    /// `(src, dst)` whose raw attribute (e.g. amount) is `raw`, evaluated
    /// against the current graph *before* the edge is inserted.
    fn edge_susp(&self, src: VertexId, dst: VertexId, raw: f64, g: &DynamicGraph) -> f64;

    /// Short name used in reports and benchmark tables.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Whether repeated transactions over the same ordered pair accumulate
    /// suspiciousness (amount semantics, like DW) or are redundant once
    /// the pair exists (set semantics, like DG and FD — `E ∪ ΔE` in the
    /// paper's update model). The edge-grouping buffer consults this to
    /// dedup not-yet-inserted pairs.
    fn accumulates_duplicates(&self) -> bool {
        true
    }
}

/// `DG` — unweighted dense subgraph density (Charikar): `g(S) = |E[S]| / |S|`.
///
/// Every **distinct** edge counts 1 and vertices carry no prior
/// suspiciousness. The paper's update model is a set union
/// (`G ⊕ ΔG = (V ∪ ΔV, E ∪ ΔE)`, §2.1), so a repeated transaction over an
/// existing pair is redundant — the metric returns 0 and the engine
/// treats the insertion as a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnweightedDensity;

impl DensityMetric for UnweightedDensity {
    #[inline]
    fn vertex_susp(&self, _u: VertexId, _g: &DynamicGraph) -> f64 {
        0.0
    }

    #[inline]
    fn edge_susp(&self, src: VertexId, dst: VertexId, _raw: f64, g: &DynamicGraph) -> f64 {
        if g.contains_vertex(src) && g.contains_vertex(dst) && g.contains_edge(src, dst) {
            0.0
        } else {
            1.0
        }
    }

    fn name(&self) -> &'static str {
        "DG"
    }

    fn accumulates_duplicates(&self) -> bool {
        false
    }
}

/// `DW` — edge-weighted density (Gudapati, Malaguti, Monaci):
/// `g(S) = sum of c_ij over E[S] / |S|` where `c_ij` is the raw transaction
/// weight (e.g. amount).
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedDensity;

impl DensityMetric for WeightedDensity {
    #[inline]
    fn vertex_susp(&self, _u: VertexId, _g: &DynamicGraph) -> f64 {
        0.0
    }

    #[inline]
    fn edge_susp(&self, _src: VertexId, _dst: VertexId, raw: f64, _g: &DynamicGraph) -> f64 {
        raw
    }

    fn name(&self) -> &'static str {
        "DW"
    }
}

/// Which endpoint of a transaction is the *object* whose degree drives the
/// Fraudar edge weight.
///
/// The paper's prose (§3.1) says "the degree of the object vertex", i.e. the
/// merchant/product side (`Dst` for customer→merchant edges); its Listing 2
/// uses `g.deg[e.src]`. Both are supported; `Dst` is the default because it
/// matches the original Fraudar column-weighting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FraudarSide {
    /// Weight by the destination (object/merchant) degree — Fraudar's
    /// column weighting.
    #[default]
    Dst,
    /// Weight by the source degree — as written in the paper's Listing 2.
    Src,
}

/// `FD` — Fraudar (Hooi et al., KDD'16) with camouflage-resistant
/// logarithmic edge weighting:
/// `c_ij = 1 / ln(x + c)` where `x` is the degree of the object vertex at
/// edge-arrival time, plus optional per-vertex prior suspiciousness from
/// side information.
#[derive(Clone, Debug)]
pub struct Fraudar {
    /// The small positive constant `c` inside the logarithm (paper uses 5).
    pub log_offset: f64,
    /// Which endpoint's degree drives the weight.
    pub side: FraudarSide,
    /// Optional per-vertex prior suspiciousness (`a_u`); vertices beyond
    /// the table (or with no table) default to 0.
    prior: Option<Vec<f64>>,
}

impl Default for Fraudar {
    fn default() -> Self {
        Fraudar { log_offset: 5.0, side: FraudarSide::Dst, prior: None }
    }
}

impl Fraudar {
    /// Creates the standard Fraudar metric (`c = 5`, object = destination).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the logarithm offset constant.
    pub fn with_log_offset(mut self, c: f64) -> Self {
        assert!(c > 1.0, "log offset must exceed 1 so ln(x + c) > 0 for x >= 0");
        self.log_offset = c;
        self
    }

    /// Chooses which endpoint's degree drives the edge weight.
    pub fn with_side(mut self, side: FraudarSide) -> Self {
        self.side = side;
        self
    }

    /// Installs per-vertex prior suspiciousness from side information.
    pub fn with_prior(mut self, prior: Vec<f64>) -> Self {
        assert!(prior.iter().all(|&a| a >= 0.0), "prior suspiciousness must be >= 0");
        self.prior = Some(prior);
        self
    }
}

impl DensityMetric for Fraudar {
    #[inline]
    fn vertex_susp(&self, u: VertexId, _g: &DynamicGraph) -> f64 {
        match &self.prior {
            Some(p) => p.get(u.index()).copied().unwrap_or(0.0),
            None => 0.0,
        }
    }

    #[inline]
    fn edge_susp(&self, src: VertexId, dst: VertexId, _raw: f64, g: &DynamicGraph) -> f64 {
        // Set semantics like the original Fraudar: a duplicate review /
        // transaction over an existing pair adds no suspiciousness.
        if g.contains_vertex(src) && g.contains_vertex(dst) && g.contains_edge(src, dst) {
            return 0.0;
        }
        let object = match self.side {
            FraudarSide::Dst => dst,
            FraudarSide::Src => src,
        };
        let x = g.degree(object) as f64;
        1.0 / (x + self.log_offset).ln()
    }

    fn name(&self) -> &'static str {
        "FD"
    }

    fn accumulates_duplicates(&self) -> bool {
        false
    }
}

/// One of the three built-in metrics, chosen at run time (`--metric`, a
/// harness sweep over DG/DW/FD) so the caller stays monomorphic over one
/// engine type.
#[derive(Clone, Debug)]
pub enum BuiltinMetric {
    /// DG.
    Dg(UnweightedDensity),
    /// DW.
    Dw(WeightedDensity),
    /// FD.
    Fd(Fraudar),
}

impl BuiltinMetric {
    /// Parses `dg`, `dw` or `fd` (any case); `None` for anything else.
    pub fn from_name(name: &str) -> Option<BuiltinMetric> {
        match name.to_ascii_lowercase().as_str() {
            "dg" => Some(BuiltinMetric::Dg(UnweightedDensity)),
            "dw" => Some(BuiltinMetric::Dw(WeightedDensity)),
            "fd" => Some(BuiltinMetric::Fd(Fraudar::new())),
            _ => None,
        }
    }

    /// The selected metric; every trait method forwards through here, so
    /// none of them can fall back to a trait default.
    fn selected(&self) -> &dyn DensityMetric {
        match self {
            BuiltinMetric::Dg(m) => m,
            BuiltinMetric::Dw(m) => m,
            BuiltinMetric::Fd(m) => m,
        }
    }
}

impl DensityMetric for BuiltinMetric {
    fn vertex_susp(&self, u: VertexId, g: &DynamicGraph) -> f64 {
        self.selected().vertex_susp(u, g)
    }

    fn edge_susp(&self, src: VertexId, dst: VertexId, raw: f64, g: &DynamicGraph) -> f64 {
        self.selected().edge_susp(src, dst, raw, g)
    }

    fn name(&self) -> &'static str {
        self.selected().name()
    }

    fn accumulates_duplicates(&self) -> bool {
        self.selected().accumulates_duplicates()
    }
}

/// A metric assembled from runtime closures — the `VSusp` / `ESusp`
/// plug-in path of the paper's Listing 1/2.
pub struct CustomMetric {
    name: &'static str,
    vsusp: VertexSuspFn,
    esusp: EdgeSuspFn,
    accumulates: bool,
}

/// Boxed vertex-suspiciousness closure (`VSusp`).
pub type VertexSuspFn = Box<dyn Fn(VertexId, &DynamicGraph) -> f64 + Send + Sync>;

/// Boxed edge-suspiciousness closure (`ESusp`): receives
/// `(src, dst, raw, graph)`.
pub type EdgeSuspFn = Box<dyn Fn(VertexId, VertexId, f64, &DynamicGraph) -> f64 + Send + Sync>;

impl CustomMetric {
    /// Builds a metric from the two suspiciousness closures.
    pub fn new(
        name: &'static str,
        vsusp: impl Fn(VertexId, &DynamicGraph) -> f64 + Send + Sync + 'static,
        esusp: impl Fn(VertexId, VertexId, f64, &DynamicGraph) -> f64 + Send + Sync + 'static,
    ) -> Self {
        CustomMetric { name, vsusp: Box::new(vsusp), esusp: Box::new(esusp), accumulates: true }
    }

    /// Declares whether duplicate ordered pairs accumulate (amount
    /// semantics, the default) or are redundant (set semantics).
    pub fn with_duplicate_accumulation(mut self, accumulates: bool) -> Self {
        self.accumulates = accumulates;
        self
    }
}

impl std::fmt::Debug for CustomMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomMetric").field("name", &self.name).finish()
    }
}

impl DensityMetric for CustomMetric {
    #[inline]
    fn vertex_susp(&self, u: VertexId, g: &DynamicGraph) -> f64 {
        (self.vsusp)(u, g)
    }

    #[inline]
    fn edge_susp(&self, src: VertexId, dst: VertexId, raw: f64, g: &DynamicGraph) -> f64 {
        (self.esusp)(src, dst, raw, g)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn accumulates_duplicates(&self) -> bool {
        self.accumulates
    }
}

impl<M: DensityMetric + ?Sized> DensityMetric for &M {
    fn vertex_susp(&self, u: VertexId, g: &DynamicGraph) -> f64 {
        (**self).vertex_susp(u, g)
    }

    fn edge_susp(&self, src: VertexId, dst: VertexId, raw: f64, g: &DynamicGraph) -> f64 {
        (**self).edge_susp(src, dst, raw, g)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn accumulates_duplicates(&self) -> bool {
        (**self).accumulates_duplicates()
    }
}

impl<M: DensityMetric + ?Sized> DensityMetric for Box<M> {
    fn vertex_susp(&self, u: VertexId, g: &DynamicGraph) -> f64 {
        (**self).vertex_susp(u, g)
    }

    fn edge_susp(&self, src: VertexId, dst: VertexId, raw: f64, g: &DynamicGraph) -> f64 {
        (**self).edge_susp(src, dst, raw, g)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn accumulates_duplicates(&self) -> bool {
        (**self).accumulates_duplicates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn two_vertex_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        g.add_vertex(0.0).unwrap();
        g.add_vertex(0.0).unwrap();
        g
    }

    #[test]
    fn dg_is_unit_weight() {
        let g = two_vertex_graph();
        let m = UnweightedDensity;
        assert_eq!(m.vertex_susp(v(0), &g), 0.0);
        assert_eq!(m.edge_susp(v(0), v(1), 123.0, &g), 1.0);
        assert_eq!(m.name(), "DG");
    }

    #[test]
    fn dw_passes_raw_weight() {
        let g = two_vertex_graph();
        let m = WeightedDensity;
        assert_eq!(m.edge_susp(v(0), v(1), 7.5, &g), 7.5);
        assert_eq!(m.name(), "DW");
    }

    #[test]
    fn fraudar_logarithmic_weighting_decreases_with_degree() {
        let mut g = two_vertex_graph();
        let m = Fraudar::new();
        let fresh = m.edge_susp(v(0), v(1), 1.0, &g);
        assert!((fresh - 1.0 / 5.0f64.ln()).abs() < 1e-12);
        // Grow the destination's degree; the weight must shrink.
        for i in 2..12 {
            g.add_vertex(0.0).unwrap();
            g.insert_edge(v(i), v(1), 1.0).unwrap();
        }
        let loaded = m.edge_susp(v(0), v(1), 1.0, &g);
        assert!(loaded < fresh);
        assert!((loaded - 1.0 / 15.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn fraudar_side_selection() {
        let mut g = two_vertex_graph();
        g.add_vertex(0.0).unwrap();
        g.insert_edge(v(2), v(0), 1.0).unwrap(); // src 0 now has degree 1
        let by_dst = Fraudar::new().edge_susp(v(0), v(1), 1.0, &g);
        let by_src = Fraudar::new().with_side(FraudarSide::Src).edge_susp(v(0), v(1), 1.0, &g);
        assert!((by_dst - 1.0 / 5.0f64.ln()).abs() < 1e-12);
        assert!((by_src - 1.0 / 6.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn fraudar_prior_suspiciousness() {
        let g = two_vertex_graph();
        let m = Fraudar::new().with_prior(vec![0.5, 2.0]);
        assert_eq!(m.vertex_susp(v(0), &g), 0.5);
        assert_eq!(m.vertex_susp(v(1), &g), 2.0);
        // Out of table -> default 0.
        assert_eq!(m.vertex_susp(v(9), &g), 0.0);
    }

    #[test]
    #[should_panic(expected = "log offset")]
    fn fraudar_rejects_degenerate_log_offset() {
        let _ = Fraudar::new().with_log_offset(1.0);
    }

    #[test]
    fn custom_metric_closures() {
        let g = two_vertex_graph();
        let m = CustomMetric::new("amount-capped", |_u, _g| 0.25, |_s, _d, raw, _g| raw.min(10.0));
        assert_eq!(m.vertex_susp(v(0), &g), 0.25);
        assert_eq!(m.edge_susp(v(0), v(1), 50.0, &g), 10.0);
        assert_eq!(m.name(), "amount-capped");
    }

    #[test]
    fn builtin_metric_parses_names_and_forwards_every_method() {
        let g = two_vertex_graph();
        for (name, plain) in [
            ("dg", &UnweightedDensity as &dyn DensityMetric),
            ("DW", &WeightedDensity),
            ("fd", &Fraudar::new()),
        ] {
            let m = BuiltinMetric::from_name(name).expect("a built-in name");
            assert_eq!(m.name(), plain.name());
            assert_eq!(m.accumulates_duplicates(), plain.accumulates_duplicates());
            assert_eq!(m.edge_susp(v(0), v(1), 7.5, &g), plain.edge_susp(v(0), v(1), 7.5, &g));
            assert_eq!(m.vertex_susp(v(0), &g), plain.vertex_susp(v(0), &g));
        }
        assert!(BuiltinMetric::from_name("bogus").is_none());
    }

    #[test]
    fn metric_references_delegate() {
        let g = two_vertex_graph();
        let m = WeightedDensity;
        let r: &dyn DensityMetric = &m;
        assert_eq!(r.edge_susp(v(0), v(1), 2.0, &g), 2.0);
        let boxed: Box<dyn DensityMetric> = Box::new(UnweightedDensity);
        assert_eq!(boxed.edge_susp(v(0), v(1), 2.0, &g), 1.0);
        assert_eq!(boxed.name(), "DG");
    }
}
