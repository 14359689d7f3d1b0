//! Section 5.4 — space overhead of scalar functions and features vs the
//! raw data.
//!
//! Since the `polygamy-store` crate, the "index size" column is *measured*:
//! the index is written to an actual store file and the reported bytes are
//! the segment sizes in its manifest plus the whole-file footprint —
//! checksums, directory and all — rather than in-memory estimates.

use crate::{human_bytes, Table};
use polygamy_store::Store;

/// Reports raw vs field vs feature vs on-disk storage.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Section 5.4 — space overhead\n\n");
    out.push_str(
        "Paper: 5 years of raw taxi data = 108 GB; all scalar functions\n\
         over 8 resolutions = 417 MB; all features = 8 MB. Shape: raw >>\n\
         fields >> features.\n\n",
    );
    let (_c, dp) = super::indexed(quick);
    let index = dp.index().expect("index built");

    // Write the real store and measure it.
    let path = std::env::temp_dir().join(format!(
        "polygamy-space-overhead-{}.plst",
        std::process::id()
    ));
    let store = Store::save(&path, dp.geometry(), index).expect("store write succeeds");
    let file_bytes = store.file_bytes().expect("store metadata");
    let manifest = store.manifest();

    let mut t = Table::new(&["data set", "raw", "fields", "features", "on-disk"]);
    for (di, entry) in index.datasets.iter().enumerate() {
        let fields: usize = index
            .functions_of(di)
            .filter_map(|f| f.field.as_ref().map(|x| x.approx_bytes()))
            .sum();
        let features: usize = index.functions_of(di).map(|f| f.feature_bytes()).sum();
        t.row(&[
            entry.meta.name.clone(),
            human_bytes(entry.raw_bytes),
            human_bytes(fields),
            human_bytes(features),
            human_bytes(manifest.dataset_disk_bytes(di) as usize),
        ]);
    }
    out.push_str(&t.render());
    let stats = index.stats();
    out.push_str(&format!(
        "\nTotals: raw {} | fields {} | features {} | store file {} (measured on disk)\n",
        human_bytes(stats.raw_bytes),
        human_bytes(stats.field_bytes),
        human_bytes(stats.feature_bytes),
        human_bytes(file_bytes as usize),
    ));
    out.push_str(&format!(
        "features/fields ratio: {:.2} (bitvectors are ~1/16 of f64 fields)\n",
        stats.feature_bytes as f64 / stats.field_bytes.max(1) as f64
    ));
    let segment_bytes: u64 = (0..index.datasets.len())
        .map(|di| manifest.dataset_disk_bytes(di))
        .sum();
    out.push_str(&format!(
        "store overhead beyond segments (header + geometry + manifest): {}\n",
        human_bytes((file_bytes - segment_bytes) as usize),
    ));
    out.push_str(&format!(
        "Note: at synthetic scale={}, raw volume is far below the paper's\n\
         (record count scales with `scale`, domain size does not).\n",
        if quick { 0.05 } else { 0.2 }
    ));
    let _ = std::fs::remove_file(&path);
    out
}
