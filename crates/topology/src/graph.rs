//! The spatio-temporal domain graph (paper Section 3.1).
//!
//! Vertex `v(x, z)` represents spatial region `x` at time step `z`
//! (`|V| = n × m`). Edges split into spatial edges `ES` (adjacent regions
//! within a step) and temporal edges `ET` (same region across consecutive
//! steps). A piecewise-linear function on this graph represents the scalar
//! function regardless of the dimension of the underlying data — the single
//! representation the paper relies on for supporting all resolutions.
//!
//! The graph is *implicit*: every time step repeats the same spatial
//! adjacency and every temporal edge is `v ± n`, so only the spatial
//! relation over the `n` regions is stored (compressed-sparse-row:
//! region `x`'s neighbours live in `edges[offsets[x]..offsets[x+1]]`) and
//! a vertex's adjacency is derived on demand. Building the graph costs
//! `O(n + |ES per step|)` whatever the number of steps.

/// The spatio-temporal domain graph: a spatial CSR replicated over
/// `n_steps` time steps, temporal edges implied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainGraph {
    /// Number of spatial regions `n`.
    pub n_regions: usize,
    /// Number of time steps `m`.
    pub n_steps: usize,
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl DomainGraph {
    /// Builds the domain graph from a spatial adjacency relation (region →
    /// sorted neighbour regions) replicated over `n_steps` time steps with
    /// temporal edges linking consecutive steps.
    pub fn new(spatial_adjacency: &[Vec<u32>], n_steps: usize) -> Self {
        let mut offsets = Vec::with_capacity(spatial_adjacency.len() + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for adj in spatial_adjacency {
            edges.extend_from_slice(adj);
            offsets.push(edges.len() as u32);
        }
        Self {
            n_regions: spatial_adjacency.len(),
            n_steps,
            offsets,
            edges,
        }
    }

    /// A pure time-series domain (one region, `m` steps) — the 1-D case.
    pub fn time_series(n_steps: usize) -> Self {
        Self::new(&[vec![]], n_steps)
    }

    /// An `nx × ny` grid domain (4-adjacency) over `n_steps` steps — used by
    /// synthetic workloads and the high-resolution grid of paper Figure 3.
    pub fn grid(nx: usize, ny: usize, n_steps: usize) -> Self {
        let mut adj = vec![Vec::new(); nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    adj[i].push((i + 1) as u32);
                    adj[i + 1].push(i as u32);
                }
                if y + 1 < ny {
                    adj[i].push((i + nx) as u32);
                    adj[i + nx].push(i as u32);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        Self::new(&adj, n_steps)
    }

    /// Number of vertices `n × m`.
    pub fn vertex_count(&self) -> usize {
        self.n_regions * self.n_steps
    }

    /// Number of undirected edges: the spatial edges of every step plus
    /// one temporal edge per region and pair of consecutive steps.
    pub fn edge_count(&self) -> usize {
        let temporal = self.n_regions * self.n_steps.saturating_sub(1);
        (self.edges.len() * self.n_steps + 2 * temporal) / 2
    }

    /// Neighbours of vertex `v`, ascending: its temporal predecessor
    /// `v − n`, its spatial neighbours within the step, its temporal
    /// successor `v + n`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        let n = self.n_regions;
        let x = v % n;
        let base = (v - x) as u32;
        let before = (v >= n).then(|| (v - n) as u32);
        let after = (v + n < self.vertex_count()).then(|| (v + n) as u32);
        before
            .into_iter()
            .chain(self.row(x).iter().map(move |&y| base + y))
            .chain(after)
    }

    /// The spatial neighbours of region `x`, as regions.
    #[inline]
    pub(crate) fn row(&self, x: usize) -> &[u32] {
        &self.edges[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }

    /// Vertex index of `(region, step)`.
    #[inline]
    pub fn vertex(&self, region: usize, step: usize) -> usize {
        debug_assert!(region < self.n_regions && step < self.n_steps);
        step * self.n_regions + region
    }

    /// `(region, step)` of a vertex index.
    #[inline]
    pub fn region_step(&self, v: usize) -> (usize, usize) {
        (v % self.n_regions, v / self.n_regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbors(g: &DomainGraph, v: usize) -> Vec<u32> {
        g.neighbors(v).collect()
    }

    #[test]
    fn time_series_chain() {
        let g = DomainGraph::time_series(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(neighbors(&g, 0), [1]);
        assert_eq!(neighbors(&g, 2), [1, 3]);
        assert_eq!(neighbors(&g, 4), [3]);
    }

    #[test]
    fn single_step_no_temporal_edges() {
        let g = DomainGraph::new(&[vec![1], vec![0]], 1);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(neighbors(&g, 0), [1]);
    }

    #[test]
    fn spatial_times_temporal() {
        // Two adjacent regions over three steps.
        let g = DomainGraph::new(&[vec![1], vec![0]], 3);
        assert_eq!(g.vertex_count(), 6);
        // Per step: 1 spatial edge ×3; temporal: 2 regions × 2 transitions.
        assert_eq!(g.edge_count(), 3 + 4);
        // Middle vertex (region 0, step 1) = index 2.
        assert_eq!(neighbors(&g, 2), [0, 3, 4]);
        assert_eq!(g.region_step(2), (0, 1));
        assert_eq!(g.vertex(0, 1), 2);
    }

    #[test]
    fn grid_structure() {
        let g = DomainGraph::grid(3, 2, 2);
        assert_eq!(g.vertex_count(), 12);
        // Grid edges: horizontal 2*2 + vertical 3 = 7 per step, ×2 steps;
        // temporal: 6 regions × 1 transition.
        assert_eq!(g.edge_count(), 14 + 6);
        // Corner (0,0) step 0: right neighbor 1, up neighbor 3, next step 6.
        assert_eq!(neighbors(&g, 0), [1, 3, 6]);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = DomainGraph::grid(4, 4, 3);
        for v in 0..g.vertex_count() {
            let nbrs = neighbors(&g, v);
            assert!(nbrs.is_sorted(), "vertex {v} unsorted");
            for &u in &nbrs {
                assert!(
                    neighbors(&g, u as usize).contains(&(v as u32)),
                    "edge {v}->{u} not symmetric"
                );
            }
        }
    }

    #[test]
    fn planarity_bound() {
        // |E| = O(N): the construction never exceeds spatial planar bound
        // (3n - 6 per step) plus n temporal edges per transition.
        let g = DomainGraph::grid(10, 10, 10);
        let n = g.vertex_count();
        assert!(g.edge_count() < 4 * n);
    }
}
