//! Segment byte access behind one long-lived handle.
//!
//! A [`SegmentSource`] is opened once per store and serves every
//! subsequent byte-range read — header, manifest, geometry and function
//! segments alike. Centralising reads here buys three things:
//!
//! * **one handle, no TOCTOU** — the store file used to be re-opened by
//!   path for every geometry/segment/maintenance read, leaving a window
//!   where a concurrent writer's atomic rename could swap the file between
//!   the manifest read and a segment read, pairing one revision's
//!   directory with another revision's bytes. A source opens the file
//!   exactly once; every read is a positioned read against that handle, so
//!   the inode is pinned and all reads observe the same immutable revision
//!   (writers never modify a store in place — they rename a fresh file
//!   over the path);
//! * **deferred, countable verification** — callers choose per read
//!   whether to verify ([`SegmentSource::read`]) or to defer
//!   ([`SegmentSource::fetch`] with `verify = false`), which is what lets
//!   a lazy index verify each blob exactly once on first touch;
//! * **byte accounting** — every payload byte served is counted
//!   ([`SegmentSource::bytes_fetched`]), making "lazy open reads strictly
//!   fewer bytes than eager load" an assertable property instead of a
//!   claim.
//!
//! Two backends implement the same contract:
//!
//! * [`SourceBackend::PositionedRead`] (default): `pread`-style positioned
//!   reads (`read_exact_at` on Unix) against the shared handle — no seek
//!   state, so `&self` reads are safe from any number of threads;
//! * [`SourceBackend::Mmap`] (Unix): the whole file is mapped read-only
//!   once via direct `extern "C"` `mmap`/`munmap` declarations (the build
//!   environment is offline — no `libc` crate), and segment payloads are
//!   served as **borrowed `&[u8]` views** into the mapping: zero copies,
//!   faulted in by the kernel on first touch. On non-Unix targets the
//!   mmap request falls back to positioned reads.

use crate::checksum::blob_checksum;
use crate::error::{Result, StoreError};
use crate::format::BlobLoc;
use polygamy_obs::{names, Counter};
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide `store.bytes_fetched` registry counter, resolved once.
/// Every source in the process adds into it alongside its own per-source
/// [`SegmentSource::bytes_fetched`] counter.
fn global_bytes_fetched() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| polygamy_obs::global().counter(names::STORE_BYTES_FETCHED))
}

/// Which I/O mechanism a [`SegmentSource`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceBackend {
    /// Positioned reads against one shared file handle (the default).
    #[default]
    PositionedRead,
    /// A read-only memory map of the whole file; segment payloads are
    /// served as borrowed views, paged in by the kernel on first touch.
    /// Falls back to positioned reads on non-Unix targets and on files
    /// that cannot be mapped (e.g. zero length).
    Mmap,
}

/// One store file opened for reading: a pinned handle (or mapping) plus a
/// byte counter. See the module docs for the contract.
pub struct SegmentSource {
    inner: Inner,
    /// Total payload bytes served so far (header/manifest included).
    bytes_fetched: AtomicU64,
}

enum Inner {
    File {
        file: File,
        len: u64,
    },
    #[cfg(unix)]
    Mmap(Mapping),
}

impl fmt::Debug for SegmentSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (backend, len) = match &self.inner {
            Inner::File { len, .. } => ("positioned-read", *len),
            #[cfg(unix)]
            Inner::Mmap(m) => ("mmap", m.len as u64),
        };
        f.debug_struct("SegmentSource")
            .field("backend", &backend)
            .field("len", &len)
            .field("bytes_fetched", &self.bytes_fetched.load(Ordering::Relaxed))
            .finish()
    }
}

impl SegmentSource {
    /// Opens `path` with the requested backend. The handle (or mapping)
    /// created here serves every later read — the file is never re-opened.
    pub fn open(path: impl AsRef<Path>, backend: SourceBackend) -> Result<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        let inner = match backend {
            SourceBackend::PositionedRead => Inner::File { file, len },
            SourceBackend::Mmap => {
                #[cfg(unix)]
                {
                    match Mapping::map(&file, len) {
                        Some(m) => Inner::Mmap(m),
                        None => Inner::File { file, len },
                    }
                }
                #[cfg(not(unix))]
                {
                    Inner::File { file, len }
                }
            }
        };
        Ok(Self {
            inner,
            bytes_fetched: AtomicU64::new(0),
        })
    }

    /// The backend actually serving reads (a mmap request may have fallen
    /// back to positioned reads).
    pub fn backend(&self) -> SourceBackend {
        match &self.inner {
            Inner::File { .. } => SourceBackend::PositionedRead,
            #[cfg(unix)]
            Inner::Mmap(_) => SourceBackend::Mmap,
        }
    }

    /// Length of the underlying file in bytes, as observed at open.
    pub fn len(&self) -> u64 {
        match &self.inner {
            Inner::File { len, .. } => *len,
            #[cfg(unix)]
            Inner::Mmap(m) => m.len as u64,
        }
    }

    /// True when the underlying file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes served by this source so far, across all
    /// threads. Checksum-failed reads count too — the bytes were fetched.
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    /// Reads and checksum-verifies one blob range — the default for any read
    /// whose bytes are consumed immediately.
    pub fn read(&self, loc: BlobLoc, what: &str) -> Result<Cow<'_, [u8]>> {
        self.fetch(loc, what, true)
    }

    /// Reads one blob range, optionally deferring checksum verification.
    ///
    /// `verify = false` is for callers that track verification themselves
    /// (the lazy index verifies each segment exactly once on first touch);
    /// they call [`SegmentSource::verify`] on the returned bytes when the
    /// segment is touched for the first time.
    pub fn fetch(&self, loc: BlobLoc, what: &str, verify: bool) -> Result<Cow<'_, [u8]>> {
        let end = loc.offset.checked_add(loc.len);
        if end.is_none_or(|e| e > self.len()) {
            return Err(StoreError::Truncated { what: what.into() });
        }
        let n = usize::try_from(loc.len)
            .map_err(|_| StoreError::Corrupt(format!("{what}: length exceeds usize")))?;
        let bytes: Cow<'_, [u8]> = match &self.inner {
            Inner::File { file, .. } => {
                let mut buf = vec![0u8; n];
                read_at(file, loc.offset, &mut buf)?;
                Cow::Owned(buf)
            }
            #[cfg(unix)]
            Inner::Mmap(m) => {
                let start = loc.offset as usize;
                Cow::Borrowed(&m.as_slice()[start..start + n])
            }
        };
        self.bytes_fetched.fetch_add(loc.len, Ordering::Relaxed);
        global_bytes_fetched().add(loc.len);
        if verify {
            Self::verify(&bytes, loc, what)?;
        }
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

/// A read-only, private memory mapping of one whole file, unmapped on
/// drop. Created through raw `mmap(2)` — the offline build environment has
/// no `libc` crate, so the two calls are declared directly.
#[cfg(unix)]
struct Mapping {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    /// `PROT_READ` — pages may be read.
    pub const PROT_READ: i32 = 0x1;
    /// `MAP_PRIVATE` — copy-on-write private mapping (we never write).
    pub const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(unix)]
impl Mapping {
    /// Maps `file` read-only; `None` when the file cannot be mapped (zero
    /// length, or the kernel refuses) — callers fall back to positioned
    /// reads.
    fn map(file: &File, len: u64) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(len).ok()?;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the kernel validates fd and length. MAP_FAILED is (void*)-1.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return None;
        }
        Some(Self { ptr, len })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping covers exactly `len` readable bytes and
        // lives until drop; the store file's revision is immutable (writers
        // rename fresh files over the path, never modify in place), so the
        // pages never change under us.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region returned by mmap.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// SAFETY: the mapping is read-only and its address/extent never change;
// moving it to another thread moves nothing but the pointer.
#[cfg(unix)]
unsafe impl Send for Mapping {}
// SAFETY: same argument as Send — a shared `&Mapping` only ever exposes
// immutable pages, so concurrent reads from any thread are safe.
#[cfg(unix)]
unsafe impl Sync for Mapping {}

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
    fn both_backends_serve_identical_verified_ranges() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4_096).collect();
        let path = write_tmp("backends", &payload);
        let loc = loc_of(&payload, 100, 500);
        for backend in [SourceBackend::PositionedRead, SourceBackend::Mmap] {
            let src = SegmentSource::open(&path, backend).unwrap();
            let bytes = src.read(loc, "test").unwrap();
            assert_eq!(&bytes[..], &payload[100..600], "{backend:?}");
            assert_eq!(src.bytes_fetched(), 500, "{backend:?}");
            assert_eq!(src.len(), 4_096);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_typed_and_still_counted() {
        let payload = vec![7u8; 256];
        let path = write_tmp("checksum", &payload);
        let mut loc = loc_of(&payload, 0, 64);
        loc.checksum ^= 1;
        let src = SegmentSource::open(&path, SourceBackend::PositionedRead).unwrap();
        assert!(matches!(
            src.read(loc, "seg"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // The bytes were fetched even though verification failed.
        assert_eq!(src.bytes_fetched(), 64);
        // Deferred verification returns the bytes anyway.
        let bytes = src.fetch(loc, "seg", false).unwrap();
        assert_eq!(bytes.len(), 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_reads_are_truncation_errors() {
        let payload = vec![1u8; 100];
        let path = write_tmp("range", &payload);
        for backend in [SourceBackend::PositionedRead, SourceBackend::Mmap] {
            let src = SegmentSource::open(&path, backend).unwrap();
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
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_mmap_falls_back_to_positioned_reads() {
        let path = write_tmp("empty", &[]);
        let src = SegmentSource::open(&path, SourceBackend::Mmap).unwrap();
        assert_eq!(src.backend(), SourceBackend::PositionedRead);
        assert!(src.is_empty());
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
        for backend in [SourceBackend::PositionedRead, SourceBackend::Mmap] {
            // (Re)create the original revision, open, then swap the file.
            std::fs::write(&path, &original).unwrap();
            let src = SegmentSource::open(&path, backend).unwrap();
            let replacement = write_tmp("pinned-new", &vec![0x55u8; 512]);
            std::fs::rename(&replacement, &path).unwrap();
            let bytes = src.read(loc, "seg").unwrap();
            assert_eq!(&bytes[..], &original[8..136], "{backend:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_reads_share_one_source() {
        let payload: Vec<u8> = (0..200_000u32).flat_map(u32::to_le_bytes).collect();
        let path = write_tmp("concurrent", &payload);
        for backend in [SourceBackend::PositionedRead, SourceBackend::Mmap] {
            let src = SegmentSource::open(&path, backend).unwrap();
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
        }
        std::fs::remove_file(&path).unwrap();
    }
}
