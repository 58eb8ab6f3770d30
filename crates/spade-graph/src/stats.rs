//! Graph summary statistics and degree distributions (paper Fig. 9b,
//! Table 3).

use crate::graph::DynamicGraph;

/// Summary statistics in the format of the paper's Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub num_vertices: usize,
    /// `|E|` (accumulated directed edges).
    pub num_edges: usize,
    /// Average total degree `|E| / |V|` — the paper reports edge-per-vertex.
    pub avg_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// `f(V)`.
    pub total_weight: f64,
}

impl GraphStats {
    /// Computes summary statistics for `g`.
    pub fn of(g: &DynamicGraph) -> Self {
        let n = g.num_vertices();
        let max_degree = g.vertices().map(|u| g.degree(u)).max().unwrap_or(0);
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            avg_degree: if n == 0 { 0.0 } else { g.num_edges() as f64 / n as f64 },
            max_degree,
            total_weight: g.total_weight(),
        }
    }
}

/// A degree-frequency histogram: `frequency[d]` = number of vertices with
/// total degree `d` (Fig. 9b plots frequency against degree).
#[derive(Clone, Debug, Default)]
pub struct DegreeDistribution {
    /// `frequency[d]` = count of vertices of degree `d`.
    pub frequency: Vec<usize>,
}

impl DegreeDistribution {
    /// Computes the total-degree distribution of `g`.
    pub fn of(g: &DynamicGraph) -> Self {
        let mut frequency = Vec::new();
        for u in g.vertices() {
            let d = g.degree(u);
            if d >= frequency.len() {
                frequency.resize(d + 1, 0);
            }
            frequency[d] += 1;
        }
        DegreeDistribution { frequency }
    }

    /// Number of vertices covered by the distribution.
    pub fn num_vertices(&self) -> usize {
        self.frequency.iter().sum()
    }

    /// Maximum observed degree.
    pub fn max_degree(&self) -> usize {
        self.frequency.len().saturating_sub(1)
    }

    /// Estimates the power-law exponent `alpha` of `P(d) ~ d^-alpha` by a
    /// least-squares fit of `log freq` against `log degree` over non-zero
    /// buckets with `d >= 1`. Returns `None` when fewer than two non-empty
    /// buckets exist.
    ///
    /// This is the standard quick diagnostic for "does the synthetic stream
    /// look like Fig. 9b" — heavy-tailed transaction graphs fit with
    /// `alpha` roughly in `[1.5, 3.5]`.
    pub fn power_law_exponent(&self) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .frequency
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| ((d as f64).ln(), (c as f64).ln()))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|(x, _)| x).sum();
        let sy: f64 = points.iter().map(|(_, y)| y).sum();
        let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(-slope)
    }

    /// Down-samples the histogram into `buckets` logarithmic bins of
    /// `(bucket_max_degree, count)` pairs — convenient for terminal plots.
    pub fn log_buckets(&self, buckets: usize) -> Vec<(usize, usize)> {
        let max_d = self.max_degree().max(1);
        let mut out = Vec::with_capacity(buckets);
        let ratio = (max_d as f64).powf(1.0 / buckets.max(1) as f64);
        let mut lo = 1usize;
        let mut bound = 1.0f64;
        for _ in 0..buckets {
            bound *= ratio;
            let hi = (bound.round() as usize).clamp(lo, max_d);
            let count: usize = self.frequency
                [lo.min(self.frequency.len())..(hi + 1).min(self.frequency.len())]
                .iter()
                .sum();
            out.push((hi, count));
            lo = hi + 1;
            if lo > max_d {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::VertexId;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn star(n: u32) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for _ in 0..=n {
            g.add_vertex(0.0).unwrap();
        }
        for i in 1..=n {
            g.insert_edge(v(i), v(0), 1.0).unwrap();
        }
        g
    }

    #[test]
    fn stats_of_star() {
        let g = star(5);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 5);
        assert_eq!(s.max_degree, 5);
        assert!((s.avg_degree - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn degree_distribution_of_star() {
        let g = star(5);
        let d = DegreeDistribution::of(&g);
        assert_eq!(d.frequency[1], 5); // leaves
        assert_eq!(d.frequency[5], 1); // hub
        assert_eq!(d.num_vertices(), 6);
        assert_eq!(d.max_degree(), 5);
    }

    #[test]
    fn empty_graph_distribution() {
        let g = DynamicGraph::new();
        let d = DegreeDistribution::of(&g);
        assert_eq!(d.num_vertices(), 0);
        assert_eq!(d.power_law_exponent(), None);
    }

    #[test]
    fn power_law_exponent_recovers_synthetic_slope() {
        // Construct frequency[d] = C * d^-2 exactly and check the fit.
        let mut frequency = vec![0; 101];
        for (deg, slot) in frequency.iter_mut().enumerate().skip(1) {
            *slot = ((1e6 / (deg as f64).powi(2)).round()) as usize;
        }
        let d = DegreeDistribution { frequency };
        let alpha = d.power_law_exponent().unwrap();
        assert!((alpha - 2.0).abs() < 0.05, "alpha = {alpha}");
    }

    #[test]
    fn log_buckets_cover_all_degrees() {
        let g = star(64);
        let d = DegreeDistribution::of(&g);
        let buckets = d.log_buckets(6);
        let total: usize = buckets.iter().map(|(_, c)| c).sum();
        // All vertices of degree >= 1 are covered.
        assert_eq!(total, 65);
    }
}
