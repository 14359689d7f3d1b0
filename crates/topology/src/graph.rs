//! The spatio-temporal domain graph (paper Section 3.1).
//!
//! Vertex `v(x, z)` represents spatial region `x` at time step `z`
//! (`|V| = n × m`). Edges split into spatial edges `ES` (adjacent regions
//! within a step) and temporal edges `ET` (same region across consecutive
//! steps). A piecewise-linear function on this graph represents the scalar
//! function regardless of the dimension of the underlying data — the single
//! representation the paper relies on for supporting all resolutions.
//!
//! Stored in compressed-sparse-row form: adjacency for vertex `v` lives in
//! `edges[offsets[v]..offsets[v+1]]`.

/// CSR graph over the spatio-temporal domain.
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
        let n = spatial_adjacency.len();
        let nv = n * n_steps;
        let mut offsets = Vec::with_capacity(nv + 1);
        offsets.push(0u32);
        // Degree per vertex: spatial degree + temporal degree (1 at the two
        // boundary steps, 2 inside; 0 when there is a single step).
        let mut total = 0u32;
        for z in 0..n_steps {
            let tdeg = if n_steps <= 1 {
                0
            } else if z == 0 || z == n_steps - 1 {
                1
            } else {
                2
            };
            for adj in spatial_adjacency {
                total += (adj.len() + tdeg) as u32;
                offsets.push(total);
            }
        }
        let mut edges = vec![0u32; total as usize];
        let mut cursor: Vec<u32> = offsets[..nv].to_vec();
        let mut push = |cursor: &mut [u32], from: usize, to: u32| {
            edges[cursor[from] as usize] = to;
            cursor[from] += 1;
        };
        for z in 0..n_steps {
            let base = z * n;
            for (x, adj) in spatial_adjacency.iter().enumerate() {
                let v = base + x;
                // Temporal predecessor first, then spatial, then successor —
                // keeps each adjacency list sorted because predecessors have
                // smaller indices and successors larger.
                if z > 0 {
                    push(&mut cursor, v, (v - n) as u32);
                }
                for &y in adj {
                    push(&mut cursor, v, (base + y as usize) as u32);
                }
                if z + 1 < n_steps {
                    push(&mut cursor, v, (v + n) as u32);
                }
            }
        }
        Self {
            n_regions: n,
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
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Neighbours of vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
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

    #[test]
    fn time_series_chain() {
        let g = DomainGraph::time_series(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn single_step_no_temporal_edges() {
        let g = DomainGraph::new(&[vec![1], vec![0]], 1);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn spatial_times_temporal() {
        // Two adjacent regions over three steps.
        let g = DomainGraph::new(&[vec![1], vec![0]], 3);
        assert_eq!(g.vertex_count(), 6);
        // Per step: 1 spatial edge ×3; temporal: 2 regions × 2 transitions.
        assert_eq!(g.edge_count(), 3 + 4);
        // Middle vertex (region 0, step 1) = index 2.
        assert_eq!(g.neighbors(2), &[0, 3, 4]);
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
        assert_eq!(g.neighbors(0), &[1, 3, 6]);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = DomainGraph::grid(4, 4, 3);
        for v in 0..g.vertex_count() {
            let nbrs = g.neighbors(v);
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted.as_slice(), nbrs, "vertex {v} unsorted");
            for &u in nbrs {
                assert!(
                    g.neighbors(u as usize).contains(&(v as u32)),
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
