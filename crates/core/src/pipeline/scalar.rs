//! Scalar Function Computation job (paper Section 5.2, Appendix C).
//!
//! For a data set published at native resolution `(s, t)`, scalar functions
//! are computed at every evaluable resolution reachable in the DAG of
//! Figure 6 — e.g. a GPS/second data set yields 3 spatial × 4 temporal
//! resolutions for every function spec. Each (spec, resolution) unit is
//! independent, so the job is a parallel map.

use crate::framework::CityGeometry;
use crate::function::FunctionSpec;
use polygamy_mapreduce::{par_map, Cluster};
use polygamy_stdata::{aggregate, Dataset, Resolution, ResolutionDag, ScalarField};

/// Computes every scalar function of `dataset` at every reachable
/// resolution for which `geometry` has a partition.
///
/// Returns `(spec, field)` pairs; specs repeat across resolutions.
pub fn compute_scalar_functions(
    cluster: Cluster,
    geometry: &CityGeometry,
    dataset: &Dataset,
) -> Vec<(FunctionSpec, ScalarField)> {
    let native = Resolution::new(
        dataset.meta.spatial_resolution,
        dataset.meta.temporal_resolution,
    );
    let specs = FunctionSpec::enumerate(dataset);
    let mut units: Vec<(FunctionSpec, Resolution)> = Vec::new();
    for resolution in ResolutionDag::reachable(native) {
        if geometry.partition(resolution.spatial).is_none() {
            continue;
        }
        for spec in &specs {
            units.push((spec.clone(), resolution));
        }
    }
    par_map(cluster, units, |(spec, resolution)| {
        let partition = geometry
            .partition(resolution.spatial)
            .expect("filtered above");
        let field = aggregate(dataset, partition, resolution.temporal, spec.kind, None)
            .expect("reachable resolutions aggregate cleanly");
        (spec, field)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{
        AttributeMeta, DatasetBuilder, DatasetMeta, GeoPoint, Polygon, SpatialPartition,
        SpatialResolution, TemporalResolution,
    };

    fn geometry() -> CityGeometry {
        let nbhd = SpatialPartition::new(
            SpatialResolution::Neighborhood,
            vec![
                Polygon::rect(0.0, 0.0, 1.0, 1.0),
                Polygon::rect(1.0, 0.0, 2.0, 1.0),
            ],
            vec![vec![1], vec![0]],
        )
        .unwrap();
        CityGeometry {
            zip: None,
            neighborhood: Some(nbhd),
            city: SpatialPartition::city(0.0, 0.0, 2.0, 1.0),
        }
    }

    fn gps_dataset(n: usize) -> Dataset {
        let meta = DatasetMeta {
            name: "trips".into(),
            spatial_resolution: SpatialResolution::Gps,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("fare"));
        for i in 0..n {
            let x = (i % 20) as f64 / 10.0;
            let t = (i as i64 % 72) * 3_600 + 30;
            b.push(GeoPoint::new(x, 0.5), t, &[i as f64 % 30.0])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn computes_all_units() {
        let d = gps_dataset(500);
        let out = compute_scalar_functions(Cluster::local(2), &geometry(), &d);
        // Specs: density + avg(fare) = 2. Resolutions: (nbhd, city) × 4
        // temporal = 8 (zip missing from geometry).
        assert_eq!(out.len(), 16);
        // Every field is non-empty and at a reachable resolution.
        for (spec, field) in &out {
            assert!(!field.is_empty(), "{spec} empty");
        }
    }

    #[test]
    fn city_native_dataset_gets_city_only() {
        let meta = DatasetMeta {
            name: "weather".into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("wind"));
        for i in 0..48 {
            b.push(GeoPoint::new(1.0, 0.5), i * 3_600, &[i as f64])
                .unwrap();
        }
        let d = b.build().unwrap();
        let out = compute_scalar_functions(Cluster::local(1), &geometry(), &d);
        // 2 specs × 4 temporal × 1 spatial (city only).
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|(_, f)| f.n_regions == 1));
    }
}
