//! The [`Adaptor`] trait: byte-level storage access behind the disk graph.
//!
//! A [`DiskGraph`](crate::storage::DiskGraph) never touches files directly;
//! every byte it reads goes through an `Adaptor`, so the same on-disk
//! layout is servable from the heap (tests, pre-loaded datasets), from
//! buffered positional file reads (the portable baseline), or from a
//! demand-paged memory mapping (the fast path on Unix).

use crate::io::IoError;
use std::fs::File;
use std::path::Path;

/// Read-at-offset access to one storage device holding an `SRGD` file.
///
/// Contract:
/// * [`len`](Adaptor::len) is the total readable size in bytes and does
///   not change for the lifetime of the adaptor (snapshot files are
///   immutable once written).
/// * [`read_at`](Adaptor::read_at) fills `buf` completely from absolute
///   offset `offset`, or fails; there are no partial successes. A range
///   extending past `len()` is an error, not a short read.
/// * Implementations are `Send + Sync`: one adaptor is shared by every
///   reader thread of a [`DiskGraph`](crate::storage::DiskGraph), so
///   `read_at` must be safe to call concurrently (positional reads, no
///   shared cursor).
pub trait Adaptor: Send + Sync + std::fmt::Debug {
    /// Total readable bytes.
    fn len(&self) -> u64;

    /// True if the underlying storage holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` from absolute byte `offset`. All-or-nothing: on `Ok`
    /// every byte of `buf` was read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), IoError>;

    /// Short stable tier name for logs, stats and bench JSON
    /// (`"mem"`, `"fs"`, `"mmap"`).
    fn tier(&self) -> &'static str;
}

/// Checks a requested `[offset, offset + buf.len())` range against `len`,
/// with overflow-safe arithmetic (a corrupt superblock can request ranges
/// near `u64::MAX`).
fn check_range(offset: u64, want: usize, len: u64, tier: &str) -> Result<(), IoError> {
    let end = offset as u128 + want as u128;
    if end > len as u128 {
        return Err(IoError::Format(format!(
            "{tier} adaptor: read of {want} bytes at offset {offset} past end ({len} bytes)"
        )));
    }
    Ok(())
}

/// In-memory backend: the whole file resident on the heap.
///
/// The degenerate "everything is RAM" tier — the control arm benchmarks
/// compare the real tiers against, and the natural adaptor for tests.
#[derive(Debug)]
pub struct MemAdaptor {
    data: Box<[u8]>,
}

impl MemAdaptor {
    /// Wraps an in-memory byte buffer.
    pub fn new(data: Vec<u8>) -> Self {
        Self {
            data: data.into_boxed_slice(),
        }
    }

    /// Reads an entire file into memory and serves from the heap.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, IoError> {
        Ok(Self::new(std::fs::read(path)?))
    }
}

impl Adaptor for MemAdaptor {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
        check_range(offset, buf.len(), self.len(), self.tier())?;
        let start = offset as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        Ok(())
    }

    fn tier(&self) -> &'static str {
        "mem"
    }
}

/// Buffered-filesystem backend: positional (`pread`-style) file reads.
///
/// Positional reads carry no shared cursor, so one open file handle serves
/// all reader threads concurrently. On non-Unix targets, where positional
/// reads aren't in std's portable API, the file is buffered on the heap at
/// open instead (read-only semantics are identical).
#[derive(Debug)]
pub struct FsAdaptor {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    data: Box<[u8]>,
    len: u64,
}

impl FsAdaptor {
    /// Opens `path` read-only.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, IoError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        {
            Ok(Self { file, len })
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut data = Vec::new();
            let mut file = file;
            file.read_to_end(&mut data)?;
            Ok(Self {
                data: data.into_boxed_slice(),
                len,
            })
        }
    }
}

impl Adaptor for FsAdaptor {
    fn len(&self) -> u64 {
        self.len
    }

    #[cfg(unix)]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
        use std::os::unix::fs::FileExt;
        check_range(offset, buf.len(), self.len, self.tier())?;
        // pread can return short; loop until the range the check above
        // proved in-bounds is fully read.
        let mut filled = 0usize;
        while filled < buf.len() {
            let got = self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)?;
            if got == 0 {
                return Err(IoError::Format(format!(
                    "fs adaptor: unexpected EOF at offset {} (file shrank under us?)",
                    offset + filled as u64
                )));
            }
            filled += got;
        }
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
        check_range(offset, buf.len(), self.len, self.tier())?;
        let start = offset as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        Ok(())
    }

    fn tier(&self) -> &'static str {
        "fs"
    }
}

/// Memory-mapped backend: the kernel demand-pages file bytes on first
/// touch; repeat reads hit the page cache at memory speed.
///
/// Built on the vendored [`memmap2`] stand-in (the one crate in this
/// workspace permitted `unsafe`); see its docs for the truncation caveat —
/// `SRGD` files are treated as immutable once written.
#[derive(Debug)]
pub struct MmapAdaptor {
    map: memmap2::Mmap,
}

impl MmapAdaptor {
    /// Opens and maps `path` read-only.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, IoError> {
        let file = File::open(path)?;
        let map = memmap2::Mmap::map_file(&file)?;
        Ok(Self { map })
    }
}

impl Adaptor for MmapAdaptor {
    fn len(&self) -> u64 {
        self.map.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
        check_range(offset, buf.len(), self.len(), self.tier())?;
        let start = offset as usize;
        buf.copy_from_slice(&self.map[start..start + buf.len()]);
        Ok(())
    }

    fn tier(&self) -> &'static str {
        "mmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("simrank-adaptor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        File::create(&path).unwrap().write_all(contents).unwrap();
        path
    }

    fn backends(path: &std::path::Path) -> Vec<Box<dyn Adaptor>> {
        vec![
            Box::new(MemAdaptor::open(path).unwrap()),
            Box::new(FsAdaptor::open(path).unwrap()),
            Box::new(MmapAdaptor::open(path).unwrap()),
        ]
    }

    #[test]
    fn all_backends_read_identical_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        let path = temp_file("identical.bin", &data);
        for a in backends(&path) {
            assert_eq!(a.len(), data.len() as u64, "{}", a.tier());
            assert!(!a.is_empty());
            let mut buf = vec![0u8; 1000];
            a.read_at(4567, &mut buf).unwrap();
            assert_eq!(&buf[..], &data[4567..5567], "{}", a.tier());
            // Zero-length read anywhere in bounds is fine.
            a.read_at(data.len() as u64, &mut []).unwrap();
        }
    }

    #[test]
    fn reads_past_end_are_format_errors() {
        let path = temp_file("bounds.bin", &[1, 2, 3, 4]);
        for a in backends(&path) {
            let mut buf = [0u8; 4];
            let err = a.read_at(1, &mut buf).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "{}: {err}", a.tier());
            // Offset chosen so offset + len wraps u64 — must still error.
            let err = a.read_at(u64::MAX - 1, &mut buf).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "{}: {err}", a.tier());
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("simrank-adaptor-no-such-file.bin");
        assert!(matches!(MemAdaptor::open(&path), Err(IoError::Io(_))));
        assert!(matches!(FsAdaptor::open(&path), Err(IoError::Io(_))));
        assert!(matches!(MmapAdaptor::open(&path), Err(IoError::Io(_))));
    }

    #[test]
    fn tier_names_are_stable() {
        let path = temp_file("tiers.bin", &[0u8; 16]);
        let names: Vec<&str> = backends(&path).iter().map(|a| a.tier()).collect();
        assert_eq!(names, ["mem", "fs", "mmap"]);
    }
}
