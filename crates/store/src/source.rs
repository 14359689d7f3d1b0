//! Segment byte access behind one long-lived handle.
//!
//! A [`SegmentSource`] is opened once per store and serves every
//! subsequent byte-range read — header, manifest, geometry, hot and field
//! blobs, maintenance copies alike — as a positioned read (`read_exact_at`
//! on Unix) into an owned buffer. Centralising reads here buys three
//! things:
//!
//! * **one handle, no TOCTOU** — the store file used to be re-opened by
//!   path for every geometry/segment/maintenance read, leaving a window
//!   where a concurrent writer's atomic rename could swap the file between
//!   the manifest read and a segment read, pairing one revision's
//!   directory with another revision's bytes. A source opens the file
//!   exactly once; every read is a positioned read against that handle, so
//!   the inode is pinned and all reads observe the same immutable revision
//!   (writers never modify a store in place — they rename a fresh file
//!   over the path). Positioned reads carry no seek state, so `&self`
//!   reads are safe from any number of threads, and a file truncated in
//!   place under a live source yields a typed [`StoreError`], never a
//!   fault;
//! * **deferred, countable verification** — [`SegmentSource::read`]
//!   verifies, [`SegmentSource::fetch`] never does, which is what lets a
//!   lazy index verify each blob exactly once on first touch;
//! * **byte accounting** — every payload byte served is counted
//!   ([`SegmentSource::bytes_fetched`], and process-wide as
//!   `store.bytes_fetched`), making "lazy open reads strictly
//!   fewer bytes than eager load" an assertable property instead of a
//!   claim.

use crate::checksum::blob_checksum;
use crate::error::{Result, StoreError};
use crate::format::BlobLoc;
use polygamy_obs::{count, names};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a [`SegmentSource`] reads: positioned reads, the only mechanism.
/// Kept for callers that still name it
/// ([`crate::StoreSession::open_lazy_with`] takes and ignores one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceBackend {
    /// Positioned reads against one shared file handle.
    #[default]
    PositionedRead,
}

/// One store file opened for reading: a pinned handle plus a byte
/// counter. See the module docs for the contract.
#[derive(Debug)]
pub struct SegmentSource {
    file: File,
    /// File length observed at open.
    len: u64,
    /// Total payload bytes served so far (header/manifest included).
    bytes_fetched: AtomicU64,
}

impl SegmentSource {
    /// Opens `path`. The handle created here serves every later read — the
    /// file is never re-opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len,
            bytes_fetched: AtomicU64::new(0),
        })
    }

    /// Length of the underlying file in bytes, as observed at open.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the underlying file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total payload bytes served by this source so far, across all
    /// threads. Checksum-failed reads count too — the bytes were fetched.
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    /// Reads and checksum-verifies one blob range — the default for any read
    /// whose bytes are consumed immediately.
    pub fn read(&self, loc: BlobLoc, what: &str) -> Result<Vec<u8>> {
        let bytes = self.fetch(loc, what)?;
        Self::verify(&bytes, loc, what)?;
        Ok(bytes)
    }

    /// Reads one blob range without verifying it — for callers that track
    /// verification themselves (the lazy index verifies each blob exactly
    /// once on first touch, calling [`SegmentSource::verify`] on the
    /// returned bytes).
    pub fn fetch(&self, loc: BlobLoc, what: &str) -> Result<Vec<u8>> {
        let end = loc.offset.checked_add(loc.len);
        if end.is_none_or(|e| e > self.len) {
            return Err(StoreError::Truncated { what: what.into() });
        }
        let n = usize::try_from(loc.len)
            .map_err(|_| StoreError::Corrupt(format!("{what}: length exceeds usize")))?;
        let mut bytes = vec![0u8; n];
        read_at(&self.file, loc.offset, &mut bytes)?;
        self.bytes_fetched.fetch_add(loc.len, Ordering::Relaxed);
        count(names::STORE_BYTES_FETCHED, loc.len);
        Ok(bytes)
    }

    /// Checks `bytes` against the checksum recorded in `loc`.
    pub fn verify(bytes: &[u8], loc: BlobLoc, what: &str) -> Result<()> {
        if blob_checksum(bytes) != loc.checksum {
            return Err(StoreError::ChecksumMismatch { what: what.into() });
        }
        Ok(())
    }
}

/// Positioned read of exactly `buf.len()` bytes at `offset`.
#[cfg(unix)]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Non-Unix fallback: clone the handle (independent cursor) and seek.
#[cfg(not(unix))]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_tmp(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "polygamy-source-test-{}-{tag}.bin",
            std::process::id()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    fn loc_of(bytes: &[u8], offset: u64, len: u64) -> BlobLoc {
        BlobLoc {
            offset,
            len,
            checksum: blob_checksum(&bytes[offset as usize..(offset + len) as usize]),
        }
    }

    #[test]
    fn positioned_reads_serve_verified_ranges() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4_096).collect();
        let path = write_tmp("ranges", &payload);
        let loc = loc_of(&payload, 100, 500);
        let src = SegmentSource::open(&path).unwrap();
        let bytes = src.read(loc, "test").unwrap();
        assert_eq!(&bytes[..], &payload[100..600]);
        assert_eq!(src.bytes_fetched(), 500);
        assert_eq!(src.len(), 4_096);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_typed_and_still_counted() {
        let payload = vec![7u8; 256];
        let path = write_tmp("checksum", &payload);
        let mut loc = loc_of(&payload, 0, 64);
        loc.checksum ^= 1;
        let src = SegmentSource::open(&path).unwrap();
        assert!(matches!(
            src.read(loc, "seg"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // The bytes were fetched even though verification failed.
        assert_eq!(src.bytes_fetched(), 64);
        // Deferred verification returns the bytes anyway.
        let bytes = src.fetch(loc, "seg").unwrap();
        assert_eq!(bytes.len(), 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_reads_are_truncation_errors() {
        let payload = vec![1u8; 100];
        let path = write_tmp("range", &payload);
        let src = SegmentSource::open(&path).unwrap();
        let past_eof = BlobLoc {
            offset: 90,
            len: 20,
            checksum: 0,
        };
        assert!(matches!(
            src.read(past_eof, "seg"),
            Err(StoreError::Truncated { .. })
        ));
        let overflow = BlobLoc {
            offset: u64::MAX - 1,
            len: 10,
            checksum: 0,
        };
        assert!(matches!(
            src.read(overflow, "seg"),
            Err(StoreError::Truncated { .. })
        ));
        // Truncated in place after open (same inode): the range was in
        // bounds at open, and reading it now is a typed I/O error.
        let in_bounds = loc_of(&payload, 60, 30);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(50)
            .unwrap();
        assert!(matches!(src.read(in_bounds, "seg"), Err(StoreError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn source_pins_the_inode_across_path_replacement() {
        // The TOCTOU fix in one test: replace the file at the path (as an
        // atomic writer would) after opening; the source still serves the
        // original revision's bytes.
        let original = vec![0xAAu8; 512];
        let path = write_tmp("pinned", &original);
        let loc = loc_of(&original, 8, 128);
        let src = SegmentSource::open(&path).unwrap();
        let replacement = write_tmp("pinned-new", &vec![0x55u8; 512]);
        std::fs::rename(&replacement, &path).unwrap();
        let bytes = src.read(loc, "seg").unwrap();
        assert_eq!(&bytes[..], &original[8..136]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_reads_share_one_source() {
        let payload: Vec<u8> = (0..200_000u32).flat_map(u32::to_le_bytes).collect();
        let path = write_tmp("concurrent", &payload);
        let src = SegmentSource::open(&path).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let src = &src;
                let payload = &payload;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let offset = (t * 50 + i) * 1_000;
                        let loc = loc_of(payload, offset, 1_000);
                        let bytes = src.read(loc, "seg").unwrap();
                        assert_eq!(
                            &bytes[..],
                            &payload[offset as usize..offset as usize + 1_000]
                        );
                    }
                });
            }
        });
        assert_eq!(src.bytes_fetched(), 4 * 50 * 1_000);
        std::fs::remove_file(&path).unwrap();
    }
}
