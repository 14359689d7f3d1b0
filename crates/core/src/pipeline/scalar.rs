//! Scalar Function Computation job (paper Section 5.2, Appendix C).
//!
//! For a data set published at native resolution `(s, t)`, scalar functions
//! are computed at every evaluable resolution reachable in the DAG of
//! Figure 6 — e.g. a GPS/second data set yields 3 spatial × 4 temporal
//! resolutions for every function spec. The map runs once per record, not
//! once per function: one point-in-polygon lookup per record per partition
//! ([`RecordRegions`]) and one bucket per record per resolution
//! ([`Binning`]). Every (spec, resolution) unit then reduces the shared
//! binning of its resolution — an independent parallel map.

use crate::framework::CityGeometry;
use crate::function::FunctionSpec;
use polygamy_mapreduce::{par_map, Cluster};
use polygamy_obs::{count, names};
use polygamy_stdata::{Binning, Dataset, RecordRegions, Resolution, ResolutionDag, ScalarField};

/// Computes every scalar function of `dataset` at every reachable
/// resolution for which `geometry` has a partition.
///
/// Returns `(spec, field)` pairs, resolution-major; specs repeat across
/// resolutions. An empty data set has no time range to bin and yields no
/// functions.
pub fn compute_scalar_functions(
    cluster: Cluster,
    geometry: &CityGeometry,
    dataset: &Dataset,
) -> Vec<(FunctionSpec, ScalarField)> {
    if dataset.is_empty() {
        return Vec::new();
    }
    let native = Resolution::new(
        dataset.meta.spatial_resolution,
        dataset.meta.temporal_resolution,
    );
    let resolutions: Vec<Resolution> = ResolutionDag::reachable(native)
        .into_iter()
        .filter(|r| geometry.partition(r.spatial).is_some())
        .collect();
    // `reachable` is spatial-major: one run of resolutions per partition.
    let mut spatials: Vec<_> = resolutions.iter().map(|r| r.spatial).collect();
    spatials.dedup();
    let per_partition = par_map(cluster, spatials, |spatial| {
        let partition = geometry.partition(spatial).expect("filtered above");
        let regions = RecordRegions::locate(dataset, partition);
        let binnings: Vec<Binning> = resolutions
            .iter()
            .filter(|r| r.spatial == spatial)
            .map(|r| {
                Binning::new(&regions, r.temporal, None)
                    .expect("a non-empty data set bins at every resolution")
            })
            .collect();
        (regions.lookups(), binnings)
    });
    let located: usize = per_partition.iter().map(|(lookups, _)| lookups).sum();
    count(names::INDEX_RECORDS_LOCATED, located as u64);

    let specs = FunctionSpec::enumerate(dataset);
    let units: Vec<(&FunctionSpec, &Binning)> = per_partition
        .iter()
        .flat_map(|(_, binnings)| binnings)
        .flat_map(|binning| specs.iter().map(move |spec| (spec, binning)))
        .collect();
    par_map(cluster, units, |(spec, binning)| {
        let field = binning
            .reduce(spec.kind)
            .expect("enumerated specs reduce cleanly");
        (spec.clone(), field)
    })
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
