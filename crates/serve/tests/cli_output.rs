//! The `polygamy-store` binary as a shell pipeline sees it: a reader that
//! stops early (`polygamy-store inspect s.plst --verify | head -1`) closes
//! the pipe under the CLI, and the CLI must take that as the end of its
//! output — no panic message, no panic exit code.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::Store;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A store whose `inspect` output is larger than a pipe's buffer (64 KiB
/// on Linux): every segment line names its data set, and the names are
/// 4,000 bytes long. The CLI therefore still has lines to write when the
/// reader hangs up, however fast it runs.
fn store_with_long_names() -> PathBuf {
    let path = std::env::temp_dir().join(format!("plst-cli-epipe-{}.plst", std::process::id()));
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for (k, letter) in ["a", "b", "c"].into_iter().enumerate() {
        let meta = DatasetMeta {
            name: letter.repeat(4_000),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
        for h in 0..400i64 {
            let v = if h == 100 + 50 * k as i64 {
                40.0
            } else {
                (h % 24) as f64 * 0.05
            };
            b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
        }
        dp.add_dataset(b.build().unwrap());
    }
    dp.build_index();
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    path
}

#[test]
fn inspect_ends_quietly_when_its_reader_hangs_up() {
    let path = store_with_long_names();
    let mut child = Command::new(env!("CARGO_BIN_EXE_polygamy-store"))
        .args(["inspect", path.to_str().unwrap(), "--verify"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("store "), "{first:?}");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(status.success(), "{status:?}: {stderr}");
}
