//! Spatial resolutions, polygons and city partitions.
//!
//! The paper represents the spatial domain of a data set as a set of regions
//! `{s1, …, sn}` that partition the spatial extent (Section 2.1, "Feature
//! Representation"). At the lowest resolution the whole city is one region;
//! higher resolutions partition it into zip-code- or neighborhood-sized
//! polygons; raw GPS data is assigned to regions by point-in-polygon tests.
//!
//! A partition's resolution, rings and adjacency lists are all a store
//! keeps of it (`docs/store-format.md`, the geometry blob): the store's
//! decoder rebuilds every ring with [`Polygon::new`] and every partition
//! with [`SpatialPartition::new`], which re-derives the point-location grid.

use crate::error::{Error, Result};
use std::fmt;
use std::ops::Range;

/// The spatial resolutions of the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpatialResolution {
    /// Raw GPS coordinates (never evaluated directly; always aggregated).
    Gps,
    /// Zip-code polygons.
    Zip,
    /// Neighborhood polygons.
    Neighborhood,
    /// The whole city as a single region.
    City,
}

impl SpatialResolution {
    /// Resolutions at which relationships are evaluated (GPS is excluded:
    /// Figure 6 marks only zip, neighborhood and city with solid lines).
    pub const EVALUABLE: [SpatialResolution; 3] = [
        SpatialResolution::Zip,
        SpatialResolution::Neighborhood,
        SpatialResolution::City,
    ];

    /// True if data at this resolution can be converted to `coarser`.
    ///
    /// GPS converts to everything; zip and neighborhood are mutually
    /// incompatible and both convert to city; city only to itself.
    pub fn convertible_to(self, coarser: SpatialResolution) -> bool {
        use SpatialResolution::*;
        match (self, coarser) {
            (a, b) if a == b => true,
            (Gps, _) => true,
            (Zip, City) | (Neighborhood, City) => true,
            _ => false,
        }
    }

    /// Short lowercase label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            SpatialResolution::Gps => "gps",
            SpatialResolution::Zip => "zip",
            SpatialResolution::Neighborhood => "neighborhood",
            SpatialResolution::City => "city",
        }
    }

    /// The variant's Rust name (`"Neighborhood"`): how every JSON boundary
    /// writes it.
    pub fn name(self) -> &'static str {
        match self {
            SpatialResolution::Gps => "Gps",
            SpatialResolution::Zip => "Zip",
            SpatialResolution::Neighborhood => "Neighborhood",
            SpatialResolution::City => "City",
        }
    }

    /// Stable one-byte wire code for on-disk persistence. Codes are part of
    /// the store format and must never be renumbered; add new variants with
    /// fresh codes instead.
    pub fn code(self) -> u8 {
        match self {
            SpatialResolution::Gps => 0,
            SpatialResolution::Zip => 1,
            SpatialResolution::Neighborhood => 2,
            SpatialResolution::City => 3,
        }
    }

    /// Inverse of [`SpatialResolution::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(SpatialResolution::Gps),
            1 => Some(SpatialResolution::Zip),
            2 => Some(SpatialResolution::Neighborhood),
            3 => Some(SpatialResolution::City),
            _ => None,
        }
    }
}

impl fmt::Display for SpatialResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A point in planar city coordinates (we work in a local projected frame,
/// so Euclidean geometry is exact enough; units are kilometres in datagen).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Easting.
    pub x: f64,
    /// Northing.
    pub y: f64,
}

impl GeoPoint {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub min: GeoPoint,
    /// Maximum corner.
    pub max: GeoPoint,
}

impl BoundingBox {
    /// The empty box (inverted), suitable as a fold identity.
    pub fn empty() -> Self {
        Self {
            min: GeoPoint::new(f64::INFINITY, f64::INFINITY),
            max: GeoPoint::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Expands the box to include `p`.
    pub fn include(&mut self, p: GeoPoint) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// True if `p` lies inside or on the box.
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Box width (0 for empty boxes).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Box height (0 for empty boxes).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }
}

/// A simple polygon given as a ring of vertices (implicitly closed).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// Ring vertices in order; the last vertex connects back to the first.
    pub ring: Vec<GeoPoint>,
}

impl Polygon {
    /// Creates a polygon, validating that the ring has at least 3 vertices.
    pub fn new(ring: Vec<GeoPoint>) -> Result<Self> {
        if ring.len() < 3 {
            return Err(Error::InvalidGeometry(format!(
                "polygon ring needs >= 3 vertices, got {}",
                ring.len()
            )));
        }
        Ok(Self { ring })
    }

    /// Axis-aligned rectangle helper.
    pub fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            ring: vec![
                GeoPoint::new(x0, y0),
                GeoPoint::new(x1, y0),
                GeoPoint::new(x1, y1),
                GeoPoint::new(x0, y1),
            ],
        }
    }

    /// Bounding box of the ring.
    pub fn bbox(&self) -> BoundingBox {
        let mut bb = BoundingBox::empty();
        for &p in &self.ring {
            bb.include(p);
        }
        bb
    }

    /// Ray-casting point-in-polygon test (boundary points count as inside
    /// for one of the two polygons sharing the edge, which is all the
    /// partition assignment needs).
    pub fn contains(&self, p: GeoPoint) -> bool {
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.ring[i];
            let pj = self.ring[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let slope_x = (pj.x - pi.x) * (p.y - pi.y) / (pj.y - pi.y) + pi.x;
                if p.x < slope_x {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Signed area via the shoelace formula (positive when counterclockwise).
    pub fn signed_area(&self) -> f64 {
        let n = self.ring.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }

    /// Area centroid.
    pub fn centroid(&self) -> GeoPoint {
        let n = self.ring.len();
        let a = self.signed_area();
        if a.abs() < f64::EPSILON {
            // Degenerate: fall back to vertex mean.
            let (sx, sy) = self
                .ring
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
            return GeoPoint::new(sx / n as f64, sy / n as f64);
        }
        let (mut cx, mut cy) = (0.0, 0.0);
        for i in 0..n {
            let p = self.ring[i];
            let q = self.ring[(i + 1) % n];
            let cross = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
        }
        GeoPoint::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

/// A partition of a city into polygons with region adjacency.
///
/// Supplies both halves of what the topology layer needs: the number of
/// regions `n` and the spatial edges `ES` (paper Section 3.1).
#[derive(Debug, Clone)]
pub struct SpatialPartition {
    /// Which resolution this partition represents.
    pub resolution: SpatialResolution,
    /// One polygon per region.
    pub polygons: Vec<Polygon>,
    /// Sorted adjacency lists (region index → neighbouring region indices).
    pub adjacency: Vec<Vec<u32>>,
    /// Point-location acceleration grid.
    grid: LocatorGrid,
}

/// Uniform grid over the partition bbox; each cell stores the polygons whose
/// bounding boxes overlap the cell. Point location tests only those.
#[derive(Debug, Clone)]
struct LocatorGrid {
    bbox: BoundingBox,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<u32>>,
}

/// Cell entries a [`LocatorGrid`] may hold per polygon. Polygons that tile
/// their partition sit in a few cells each at the grid's ⌈√n⌉ side, but n
/// polygons whose boxes all span the partition would sit in all n cells
/// each — n² entries, and a geometry decode builds every grid. Past this
/// budget the grid coarsens until it fits, so its memory is O(n).
const MAX_CELL_ENTRIES_PER_POLYGON: usize = 16;

impl LocatorGrid {
    fn build(polygons: &[Polygon]) -> Self {
        let boxes: Vec<BoundingBox> = polygons.iter().map(Polygon::bbox).collect();
        let mut bbox = BoundingBox::empty();
        for pb in &boxes {
            bbox.include(pb.min);
            bbox.include(pb.max);
        }
        // Roughly one cell per polygon, at least 1 — halved while the
        // entries exceed the budget; one cell holds each polygon once.
        let budget = MAX_CELL_ENTRIES_PER_POLYGON * polygons.len();
        let mut side = (polygons.len() as f64).sqrt().ceil().max(1.0) as usize;
        let mut grid = Self {
            bbox,
            nx: side,
            ny: side,
            cells: Vec::new(),
        };
        while side > 1 && grid.entries(&boxes) > budget {
            side /= 2;
            (grid.nx, grid.ny) = (side, side);
        }
        grid.cells = vec![Vec::new(); grid.nx * grid.ny];
        for (pi, pb) in boxes.iter().enumerate() {
            let (xs, ys) = grid.span(pb);
            for cy in ys {
                for cx in xs.clone() {
                    grid.cells[cy * grid.nx + cx].push(pi as u32);
                }
            }
        }
        grid
    }

    /// The cells, per axis, that the box `pb` overlaps (clamped to the
    /// grid; empty when the box lies outside it).
    fn span(&self, pb: &BoundingBox) -> (Range<usize>, Range<usize>) {
        let w = self.bbox.width().max(f64::MIN_POSITIVE);
        let h = self.bbox.height().max(f64::MIN_POSITIVE);
        let axis = |lo: f64, hi: f64, min: f64, extent: f64, n: usize| {
            let cell = |v: f64| (((v - min) / extent) * n as f64).floor() as isize;
            let (first, end) = (cell(lo).max(0), cell(hi).min(n as isize - 1) + 1);
            first as usize..end.max(first) as usize
        };
        (
            axis(pb.min.x, pb.max.x, self.bbox.min.x, w, self.nx),
            axis(pb.min.y, pb.max.y, self.bbox.min.y, h, self.ny),
        )
    }

    /// Cell entries the grid's current side gives `boxes`.
    fn entries(&self, boxes: &[BoundingBox]) -> usize {
        (boxes.iter())
            .map(|pb| {
                let (xs, ys) = self.span(pb);
                xs.count() * ys.count()
            })
            .sum()
    }

    fn candidates(&self, p: GeoPoint) -> &[u32] {
        if !self.bbox.contains(p) {
            return &[];
        }
        let w = self.bbox.width().max(f64::MIN_POSITIVE);
        let h = self.bbox.height().max(f64::MIN_POSITIVE);
        let cx = ((((p.x - self.bbox.min.x) / w) * self.nx as f64) as usize).min(self.nx - 1);
        let cy = ((((p.y - self.bbox.min.y) / h) * self.ny as f64) as usize).min(self.ny - 1);
        &self.cells[cy * self.nx + cx]
    }
}

impl SpatialPartition {
    /// Builds a partition from polygons and an explicit adjacency relation.
    ///
    /// Adjacency lists are deduplicated, symmetrised and sorted.
    pub fn new(
        resolution: SpatialResolution,
        polygons: Vec<Polygon>,
        adjacency: Vec<Vec<u32>>,
    ) -> Result<Self> {
        if polygons.is_empty() {
            return Err(Error::InvalidGeometry("partition has no polygons".into()));
        }
        if adjacency.len() != polygons.len() {
            return Err(Error::InvalidGeometry(format!(
                "adjacency has {} entries for {} polygons",
                adjacency.len(),
                polygons.len()
            )));
        }
        let n = polygons.len() as u32;
        let mut sym = vec![Vec::new(); polygons.len()];
        for (i, nbrs) in adjacency.iter().enumerate() {
            for &j in nbrs {
                if j >= n {
                    return Err(Error::InvalidGeometry(format!(
                        "adjacency references region {j} out of {n}"
                    )));
                }
                if j as usize != i {
                    sym[i].push(j);
                    sym[j as usize].push(i as u32);
                }
            }
        }
        for list in &mut sym {
            list.sort_unstable();
            list.dedup();
        }
        let grid = LocatorGrid::build(&polygons);
        Ok(Self {
            resolution,
            polygons,
            adjacency: sym,
            grid,
        })
    }

    /// A one-region "city" partition covering the given rectangle.
    pub fn city(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self::new(
            SpatialResolution::City,
            vec![Polygon::rect(x0, y0, x1, y1)],
            vec![vec![]],
        )
        .expect("city partition is always valid")
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.polygons.len()
    }

    /// True if the partition has no regions (never for valid partitions).
    pub fn is_empty(&self) -> bool {
        self.polygons.is_empty()
    }

    /// Assigns a point to its region, if any.
    pub fn locate(&self, p: GeoPoint) -> Option<u32> {
        self.grid
            .candidates(p)
            .iter()
            .copied()
            .find(|&pi| self.polygons[pi as usize].contains(p))
    }

    /// Total number of undirected spatial adjacency edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Iterates undirected edges as `(i, j)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, nbrs)| {
            nbrs.iter()
                .filter(move |&&j| (i as u32) < j)
                .map(move |&j| (i as u32, j))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_roundtrip() {
        for s in [
            SpatialResolution::Gps,
            SpatialResolution::Zip,
            SpatialResolution::Neighborhood,
            SpatialResolution::City,
        ] {
            assert_eq!(SpatialResolution::from_code(s.code()), Some(s));
        }
        assert_eq!(SpatialResolution::from_code(200), None);
    }

    #[test]
    fn rect_contains() {
        let poly = Polygon::rect(0.0, 0.0, 2.0, 1.0);
        assert!(poly.contains(GeoPoint::new(1.0, 0.5)));
        assert!(!poly.contains(GeoPoint::new(3.0, 0.5)));
        assert!(!poly.contains(GeoPoint::new(1.0, 2.0)));
    }

    #[test]
    fn nonconvex_contains() {
        // An L-shape: the notch (1.5, 1.5) is outside.
        let poly = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(2.0, 0.0),
            GeoPoint::new(2.0, 1.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(1.0, 2.0),
            GeoPoint::new(0.0, 2.0),
        ])
        .unwrap();
        assert!(poly.contains(GeoPoint::new(0.5, 1.5)));
        assert!(poly.contains(GeoPoint::new(1.5, 0.5)));
        assert!(!poly.contains(GeoPoint::new(1.5, 1.5)));
    }

    #[test]
    fn area_and_centroid() {
        let poly = Polygon::rect(0.0, 0.0, 2.0, 1.0);
        assert!((poly.signed_area().abs() - 2.0).abs() < 1e-12);
        let c = poly.centroid();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn polygon_needs_three_vertices() {
        assert!(Polygon::new(vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 0.0)]).is_err());
    }

    fn two_by_two() -> SpatialPartition {
        // 2x2 grid of unit squares, 4-adjacency.
        let polys = vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
            Polygon::rect(0.0, 1.0, 1.0, 2.0),
            Polygon::rect(1.0, 1.0, 2.0, 2.0),
        ];
        let adj = vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]];
        SpatialPartition::new(SpatialResolution::Neighborhood, polys, adj).unwrap()
    }

    #[test]
    fn partition_locate() {
        let part = two_by_two();
        assert_eq!(part.locate(GeoPoint::new(0.5, 0.5)), Some(0));
        assert_eq!(part.locate(GeoPoint::new(1.5, 0.5)), Some(1));
        assert_eq!(part.locate(GeoPoint::new(0.5, 1.5)), Some(2));
        assert_eq!(part.locate(GeoPoint::new(1.5, 1.5)), Some(3));
        assert_eq!(part.locate(GeoPoint::new(5.0, 5.0)), None);
    }

    #[test]
    fn partition_adjacency_symmetric_sorted() {
        let part = two_by_two();
        assert_eq!(part.edge_count(), 4);
        for (i, nbrs) in part.adjacency.iter().enumerate() {
            for &j in nbrs {
                assert!(part.adjacency[j as usize].contains(&(i as u32)));
            }
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, nbrs);
        }
    }

    #[test]
    fn adjacency_is_symmetrised_from_one_sided_input() {
        let polys = vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
        ];
        // Only one direction listed.
        let part =
            SpatialPartition::new(SpatialResolution::Zip, polys, vec![vec![1], vec![]]).unwrap();
        assert_eq!(part.adjacency[1], vec![0]);
    }

    #[test]
    fn adjacency_out_of_range_rejected() {
        let polys = vec![Polygon::rect(0.0, 0.0, 1.0, 1.0)];
        assert!(SpatialPartition::new(SpatialResolution::Zip, polys, vec![vec![7]]).is_err());
    }

    #[test]
    fn city_partition() {
        let city = SpatialPartition::city(0.0, 0.0, 10.0, 10.0);
        assert_eq!(city.len(), 1);
        assert_eq!(city.locate(GeoPoint::new(5.0, 5.0)), Some(0));
        assert_eq!(city.edge_count(), 0);
    }

    /// Point location by scanning every polygon: what the grid answers.
    fn brute_force(part: &SpatialPartition, p: GeoPoint) -> Option<u32> {
        (part.polygons.iter())
            .position(|poly| poly.contains(p))
            .map(|i| i as u32)
    }

    fn cell_entries(part: &SpatialPartition) -> usize {
        part.grid.cells.iter().map(Vec::len).sum()
    }

    /// 2,000 triangles whose boxes all span the partition would sit in
    /// every cell of a 45 × 45 grid, four million entries: the grid
    /// coarsens to the budget instead, and still locates every point as
    /// a scan over all polygons does.
    #[test]
    fn overlapping_polygons_stay_within_the_cell_budget() {
        let n = 2_000;
        let polygons: Vec<Polygon> = (0..n)
            .map(|i| {
                let t = 0.5 + 0.5 * i as f64 / n as f64;
                let ring = [(0.0, 0.0), (1.0, t), (t, 1.0)];
                Polygon::new(ring.map(|(x, y)| GeoPoint::new(x, y)).to_vec()).unwrap()
            })
            .collect();
        let part =
            SpatialPartition::new(SpatialResolution::Zip, polygons, vec![vec![]; n]).unwrap();
        assert!(cell_entries(&part) <= MAX_CELL_ENTRIES_PER_POLYGON * n);
        for i in 0..=40 {
            for j in 0..=40 {
                let p = GeoPoint::new(i as f64 / 36.0 - 0.05, j as f64 / 36.0 - 0.05);
                assert_eq!(part.locate(p), brute_force(&part, p), "{p:?}");
            }
        }
    }

    /// `polygamy_datagen`'s city partitions — rectangles of one grid cell
    /// (neighbourhoods) or of a block of them (zips), on the default 9 × 7
    /// grid and the benchmark's 6 × 5 — fit the budget at the ⌈√n⌉ side,
    /// so the point location a build runs is what it always was.
    #[test]
    fn tiling_partitions_keep_the_square_root_side() {
        for (nx, ny) in [(9, 7), (6, 5), (40, 30)] {
            for block in [1, 2] {
                let (bx, by) = (usize::div_ceil(nx, block), usize::div_ceil(ny, block));
                let polygons: Vec<Polygon> = (0..bx * by)
                    .map(|k| {
                        let (x, y) = ((k % bx * block) as f64, (k / bx * block) as f64);
                        let (x1, y1) = (
                            (x + block as f64).min(nx as f64),
                            (y + block as f64).min(ny as f64),
                        );
                        Polygon::rect(2.0 * x, 2.0 * y, 2.0 * x1, 2.0 * y1)
                    })
                    .collect();
                let n = polygons.len();
                let part = SpatialPartition::new(SpatialResolution::Zip, polygons, vec![vec![]; n])
                    .unwrap();
                let side = (n as f64).sqrt().ceil() as usize;
                assert_eq!(
                    (part.grid.nx, part.grid.ny),
                    (side, side),
                    "{nx} × {ny} / {block}"
                );
                for k in 0..n {
                    let (x, y) = ((k % bx * block) as f64, (k / bx * block) as f64);
                    let p = GeoPoint::new(2.0 * x + 0.5, 2.0 * y + 0.5);
                    assert_eq!(part.locate(p), Some(k as u32));
                }
            }
        }
    }

    #[test]
    fn spatial_convertibility_matches_figure6() {
        use SpatialResolution::*;
        assert!(Gps.convertible_to(Zip));
        assert!(Gps.convertible_to(Neighborhood));
        assert!(Gps.convertible_to(City));
        assert!(Zip.convertible_to(City));
        assert!(Neighborhood.convertible_to(City));
        assert!(!Zip.convertible_to(Neighborhood));
        assert!(!Neighborhood.convertible_to(Zip));
        assert!(!City.convertible_to(Zip));
    }
}
