//! The `polygamy-store` binary as a shell pipeline sees it: a reader that
//! stops early (`polygamy-store inspect s.plst --verify | head -1`) closes
//! the pipe under the CLI, and the CLI must take that as the end of its
//! output — no panic message, no panic exit code. And `inspect` decodes
//! the geometry it describes: a blob that does not decode fails
//! `--verify`.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::{blob_checksum, Header, Manifest, Store};
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

/// `inspect` decodes the geometry into one `geometry:` line. A geometry
/// that no longer decodes — here, truthfully sealed, the city's resolution
/// code says zip — is reported and, under `--verify`, fails the command
/// although every checksum holds.
#[test]
fn inspect_prints_the_geometry_and_verify_refuses_one_that_does_not_decode() {
    let path = std::env::temp_dir().join(format!("plst-cli-geometry-{}.plst", std::process::id()));
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    let meta = DatasetMeta {
        name: "sensor".into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..200i64 {
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[(h % 24) as f64])
            .unwrap();
    }
    dp.add_dataset(b.build().unwrap());
    dp.build_index();
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let inspect = |verify: bool| {
        let mut args = vec!["inspect", path.to_str().unwrap()];
        args.extend(verify.then_some("--verify"));
        let out = Command::new(env!("CARGO_BIN_EXE_polygamy-store"))
            .args(args)
            .output()
            .unwrap();
        let line = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .find(|l| l.starts_with("geometry: "))
            .map(str::to_owned);
        (
            out.status.success(),
            line,
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let expected = "geometry: 91 bytes, zip none, neighborhood none, city 1 region(s) / 4 vertices";
    for verify in [false, true] {
        let (ok, line, stderr) = inspect(verify);
        assert!(ok, "{stderr}");
        assert_eq!(line.as_deref(), Some(expected));
    }

    // Byte 2 of the blob is the city's resolution code: 3 becomes 1 (zip),
    // and the manifest and header are re-sealed around it.
    let mut bytes = std::fs::read(&path).unwrap();
    let header = Header::decode(&bytes).unwrap();
    let at = header.manifest_offset as usize;
    let mut manifest = Manifest::decode(&bytes[at..]).unwrap();
    let geometry = manifest.geometry;
    let blob = geometry.offset as usize..(geometry.offset + geometry.len) as usize;
    assert_eq!(bytes[blob.start + 2], 3);
    bytes[blob.start + 2] = 1;
    manifest.geometry.checksum = blob_checksum(&bytes[blob]);
    let manifest = manifest.encode();
    bytes.truncate(at);
    bytes.extend_from_slice(&manifest);
    let header = Header {
        manifest_len: manifest.len() as u64,
        manifest_checksum: blob_checksum(&manifest),
        ..header
    };
    bytes[..40].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
    let (ok, line, stderr) = inspect(false);
    assert!(ok, "{stderr}");
    let line = line.unwrap();
    assert!(
        line.starts_with("geometry: 91 bytes, not decodable: "),
        "{line}"
    );
    assert!(line.contains("city slot holds a zip partition"), "{line}");
    let (ok, _, stderr) = inspect(true);
    std::fs::remove_file(&path).unwrap();
    assert!(!ok);
    assert!(stderr.contains("geometry"), "{stderr}");
}
