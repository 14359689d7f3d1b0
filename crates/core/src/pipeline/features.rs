//! Feature Identification job (paper Sections 3 + 5.2, Appendix C).
//!
//! Per scalar function: sort the defined vertices that are not `+0.0`
//! once, sweep them both ways for the persistence pairs of the join and
//! split trees (the trees themselves are never built; on a field with no
//! value below `+0.0` the `+0.0` plateau takes a short-cut in either
//! direction), derive per-seasonal-interval thresholds from the pairs, and
//! scan the field against them for the salient + extreme feature sets.
//! Each function is independent — a parallel map over
//! [`polygamy_mapreduce`].

use crate::framework::CityGeometry;
use crate::function::FunctionSpec;
use crate::index::FunctionEntry;
use polygamy_mapreduce::{par_map, Cluster};
use polygamy_obs::{count, names, stage};
use polygamy_stdata::temporal::SeasonalInterval;
use polygamy_stdata::ScalarField;
use polygamy_topology::{
    persistence_pairs, seasonal_thresholds_of_pairs, DomainGraph, FeatureSets, SeasonalThresholds,
};

/// Computes persistence pairs, thresholds and features for one scalar
/// field.
///
/// Returns the feature sets and the thresholds. This is the reusable unit
/// behind both the indexing job and the ad-hoc experiments (robustness,
/// persistence diagrams).
pub fn field_features(
    spatial_adjacency: &[Vec<u32>],
    field: &ScalarField,
) -> (FeatureSets, SeasonalThresholds) {
    let pairs = {
        let _trees = stage(names::INDEX_STAGE_TREES_NS);
        let graph = DomainGraph::new(spatial_adjacency, field.n_steps);
        persistence_pairs(&graph, &field.values)
    };
    let thresholds = {
        let _thresholds = stage(names::INDEX_STAGE_THRESHOLDS_NS);
        let season = SeasonalInterval::for_resolution(field.resolution.temporal);
        let interval_of_step: Vec<i64> = (0..field.n_steps)
            .map(|z| season.interval_of(field.step_start(z)))
            .collect();
        seasonal_thresholds_of_pairs(
            &pairs.join,
            &pairs.split,
            field.n_regions,
            &interval_of_step,
        )
    };
    let features = {
        let _features = stage(names::INDEX_STAGE_FEATURES_NS);
        FeatureSets::scan(&field.values, field.n_regions, &thresholds)
    };

    count(names::INDEX_FIELDS, 1);
    count(
        names::INDEX_FIELDS_PLATEAU_SWEPT,
        u64::from(pairs.plateau_swept),
    );
    count(names::INDEX_VERTICES, field.values.len() as u64);
    count(names::INDEX_VERTICES_DEFINED, pairs.defined as u64);
    count(names::INDEX_VERTICES_ZERO_RUN, pairs.zeros as u64);
    (features, thresholds)
}

/// Runs feature identification for a batch of scalar functions, producing
/// index entries.
pub fn identify_features(
    cluster: Cluster,
    geometry: &CityGeometry,
    dataset_index: usize,
    fields: Vec<(FunctionSpec, ScalarField)>,
) -> Vec<FunctionEntry> {
    par_map(cluster, fields, |(spec, field)| {
        let adjacency = geometry
            .adjacency(field.resolution.spatial)
            .expect("field was computed from a geometry partition");
        // The thresholds only serve the scan; an entry keeps its features.
        let (features, _) = field_features(adjacency, &field);
        FunctionEntry {
            spec,
            dataset_index,
            resolution: field.resolution,
            n_regions: field.n_regions,
            start_bucket: field.start_bucket,
            n_steps: field.n_steps,
            features,
            field: Some(field),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{Resolution, SpatialResolution, TemporalResolution};

    fn spiky_field(n_steps: usize) -> ScalarField {
        let res = Resolution::new(SpatialResolution::City, TemporalResolution::Hour);
        let mut values = vec![0.0; n_steps];
        for (i, v) in values.iter_mut().enumerate() {
            *v = ((i % 24) as f64 / 24.0).sin();
        }
        values[n_steps / 2] = 50.0;
        values[n_steps / 4] = -50.0;
        ScalarField::time_series(res, 0, values)
    }

    #[test]
    fn field_features_finds_spikes() {
        let field = spiky_field(24 * 60);
        let (features, thresholds) = field_features(&[vec![]], &field);
        assert!(features.salient.pos.get(24 * 30));
        assert!(features.salient.neg.get(24 * 15));
        // Monthly seasonal intervals for hourly data: 60 days ≈ 2-3 months.
        assert!(thresholds.interval_ids.len() >= 2);
    }

    #[test]
    fn identify_features_builds_entries() {
        use crate::framework::CityGeometry;
        let geometry = CityGeometry::city_only(0.0, 0.0, 1.0, 1.0);
        let fields = vec![
            (FunctionSpec::density("d"), spiky_field(100)),
            (FunctionSpec::density("d"), spiky_field(200)),
        ];
        let entries = identify_features(Cluster::local(2), &geometry, 3, fields);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].dataset_index, 3);
        assert_eq!(entries[0].n_steps, 100);
        assert!(entries[0].field.is_some());
    }
}
