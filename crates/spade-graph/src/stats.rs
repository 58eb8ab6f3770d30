//! Degree distributions (paper Fig. 9b).

use crate::graph::DynamicGraph;

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
}
