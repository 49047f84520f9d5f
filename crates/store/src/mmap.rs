//! Zero-copy, read-only byte images of on-disk dictionaries — the
//! ownership seam between "a `Vec<u8>` we read" and "a kernel mapping we
//! borrow".
//!
//! [`DictBytes`] is what every store reader is generic over: an owned heap
//! buffer ([`DictBytes::Owned`]) or a [`MappedFile`] backed by `mmap`
//! ([`DictBytes::Mapped`]). Mapped images cost no heap and no copy — the
//! page cache *is* the buffer — so a multi-gigabyte `.sddb` can be opened,
//! checksummed, and row-indexed without ever owning its payload, and
//! "evicting" it is a single `munmap`.
//!
//! SIGBUS discipline: a mapped read past the end of the backing file kills
//! the process, so nothing here maps a binary file before the 64-byte
//! header has been read through ordinary I/O and its declared length
//! cross-checked against the real file length ([`read_dictionary_bytes`]).
//! A truncated file therefore surfaces as the same typed
//! [`SddError::Truncated`] the owned path returns — never a signal. The
//! mapping retains its [`File`] handle so long-lived holders can
//! [`revalidate`](DictBytes::revalidate) against in-place truncation
//! before touching pages again; rename-replace is always safe (the old
//! inode stays alive under the map).
//!
//! Like [`crate::format`]'s sibling in the serve layer (`src/reactor.rs`),
//! this is the **only** module in the crate allowed to contain `unsafe`
//! code (the crate root carries `#![deny(unsafe_code)]`): the unsafety is
//! confined to the `mmap`/`munmap` FFI below, declared directly against
//! the C runtime the standard library already links — no third-party
//! crates. Non-Linux targets compile the same API with
//! [`mmap_supported`] returning `false`; [`MmapMode::Auto`] then reads to
//! a `Vec` instead, so every caller stays portable.
#![allow(unsafe_code)]

use std::fs::File;
use std::ops::Deref;
use std::path::Path;

use sdd_logic::SddError;

/// Is zero-copy mapping available on this target?
#[must_use]
pub const fn mmap_supported() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_SHARED: i32 = 0x01;

    // Declared against the C runtime std already links; no `libc` crate.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    /// A read-only shared mapping of the first `len` bytes of a file.
    pub struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ — no thread can write through it —
    // and the pointer is owned exclusively by this struct until Drop, so
    // sharing immutable views across threads is sound.
    unsafe impl Send for Mapping {}
    // SAFETY: as above; all access is through `&self` reads.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `file` read-only. `len` must be nonzero and
        /// no longer than the file (the caller has already fstat-checked
        /// this — that is the SIGBUS guard).
        pub fn new(file: &File, len: usize) -> io::Result<Self> {
            debug_assert!(len > 0, "zero-length mappings are rejected by the kernel");
            // SAFETY: no pointers go in (addr is the null hint); a valid
            // mapping base (or MAP_FAILED = -1) comes back, and ownership
            // of the region transfers to the Mapping.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr..ptr+len` is a live read-only mapping for as
            // long as `self` exists, and u8 has no validity requirements.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr` and `len` are exactly what mmap returned, and
            // no slice borrowed from this mapping can outlive it.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::fs::File;
    use std::io;

    /// Portable stub: mapping is unavailable, so construction fails with
    /// [`io::ErrorKind::Unsupported`] and callers fall back to owned reads.
    pub struct Mapping;

    impl Mapping {
        pub fn new(_file: &File, _len: usize) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "memory mapping is not supported on this target",
            ))
        }

        pub fn as_slice(&self) -> &[u8] {
            &[]
        }
    }
}

/// A whole dictionary file mapped read-only into the address space — made
/// only by [`read_dictionary_bytes`], after its SIGBUS guard.
///
/// The open [`File`] handle is retained so
/// [`still_intact`](Self::still_intact) can fstat the *mapped inode* — a
/// file truncated in place shrinks under the map (touching the lost tail
/// would SIGBUS), while a rename-replace leaves the old inode full-length
/// and safe.
#[derive(Debug)]
pub struct MappedFile {
    map: DebugMapping,
    file: File,
    len: usize,
}

/// Newtype so `MappedFile` can derive `Debug` without the raw pointer.
struct DebugMapping(sys::Mapping);

impl std::fmt::Debug for DebugMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mapping")
    }
}

impl MappedFile {
    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.map.0.as_slice()
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-checks the *mapped inode's* current length against the mapping.
    /// A long-lived holder (a serve registry entry) calls this before
    /// walking pages it has not touched recently: if the file was
    /// truncated in place since mapping, the lost tail would SIGBUS, so
    /// the typed [`SddError::Truncated`] here is the honest, recoverable
    /// version of that crash. Rename-replaced files pass — the old inode
    /// is still full-length underneath this map.
    ///
    /// # Errors
    ///
    /// [`SddError::Truncated`] when the inode shrank below the mapped
    /// length; [`SddError::Io`] when it cannot be statted.
    pub fn still_intact(&self) -> Result<(), SddError> {
        let now = self
            .file
            .metadata()
            .map_err(|e| SddError::io("fstat mapped file", &e))?
            .len();
        if now < self.len as u64 {
            return Err(SddError::Truncated {
                context: "mapped file",
                expected: self.len,
                actual: usize::try_from(now).unwrap_or(usize::MAX),
            });
        }
        Ok(())
    }
}

impl AsRef<[u8]> for MappedFile {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// When should a dictionary file be mapped instead of read? The value of
/// the `--mmap auto|on|off` flag on `sdd serve`, `sdd volume`, and
/// `sdd verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MmapMode {
    /// Map where supported (Linux), read to a `Vec` elsewhere — and fall
    /// back to reading if a mapping attempt fails at runtime.
    #[default]
    Auto,
    /// Always map; a target or file that cannot be mapped is a hard error.
    On,
    /// Always read to an owned `Vec` (the pre-mmap behavior).
    Off,
}

impl MmapMode {
    /// Parses a `--mmap` flag value.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "auto" => Some(Self::Auto),
            "on" => Some(Self::On),
            "off" => Some(Self::Off),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::On => "on",
            Self::Off => "off",
        }
    }

    /// Will this mode attempt to map on the current target?
    pub fn wants_map(self) -> bool {
        match self {
            Self::Auto => mmap_supported(),
            Self::On => true,
            Self::Off => false,
        }
    }
}

/// The bytes of one dictionary artifact, owned or mapped — the single
/// ownership seam every store reader ([`crate::SddbReader`],
/// [`crate::ShardedReader`], [`crate::verify_file_with`]) is generic over.
#[derive(Debug)]
pub enum DictBytes {
    /// A heap buffer read through ordinary I/O.
    Owned(Vec<u8>),
    /// A kernel mapping; dropping it is the `munmap`.
    Mapped(MappedFile),
}

impl DictBytes {
    /// The underlying bytes, wherever they live.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Self::Owned(bytes) => bytes,
            Self::Mapped(map) => map.as_slice(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True for the mapped variant.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Self::Mapped(_))
    }

    /// The residency token serve `STATS` reports: `"mapped"` or `"owned"`.
    pub fn mode(&self) -> &'static str {
        match self {
            Self::Owned(_) => "owned",
            Self::Mapped(_) => "mapped",
        }
    }

    /// Re-checks that deferred page reads are still safe: owned bytes
    /// always are; mapped bytes defer to [`MappedFile::still_intact`].
    ///
    /// # Errors
    ///
    /// See [`MappedFile::still_intact`].
    pub fn revalidate(&self) -> Result<(), SddError> {
        match self {
            Self::Owned(_) => Ok(()),
            Self::Mapped(map) => map.still_intact(),
        }
    }
}

impl AsRef<[u8]> for DictBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Deref for DictBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Reads or maps a dictionary file per `mode`, with the same pre-buffering
/// sanity check as [`crate::read_dictionary_file`] — and for the mapped
/// path that check is load-bearing: the 64-byte header is read through
/// ordinary I/O and its declared length cross-checked against the real
/// file length *before* any byte of the file is mapped, so a truncated
/// `.sddb` yields a typed [`SddError::Truncated`], never a SIGBUS from a
/// read past end-of-file.
///
/// Under [`MmapMode::Auto`] a runtime mapping failure (unsupported target
/// or filesystem) quietly falls back to an owned read; under
/// [`MmapMode::On`] it is the caller's error.
///
/// # Errors
///
/// As [`crate::read_dictionary_file`], plus [`SddError::Io`] when
/// [`MmapMode::On`] cannot map.
pub fn read_dictionary_bytes(
    path: impl AsRef<Path>,
    mode: MmapMode,
) -> Result<DictBytes, SddError> {
    let path = path.as_ref();
    if !mode.wants_map() {
        return crate::read_dictionary_file(path).map(DictBytes::Owned);
    }
    match map_validated(path) {
        Ok(bytes) => Ok(bytes),
        // Auto degrades map-layer Io failures (Unsupported, odd
        // filesystems) to an owned read; validation errors — truncation,
        // bad checksums, trailing bytes — describe the *file* and are
        // identical on both paths, so they propagate.
        Err(SddError::Io { .. }) if mode == MmapMode::Auto => {
            crate::read_dictionary_file(path).map(DictBytes::Owned)
        }
        Err(e) => Err(e),
    }
}

/// Maps `path` after the header-vs-file-length SIGBUS guard: the header is
/// decoded from ordinary-I/O bytes, and a file shorter than its header
/// declares is refused before it is mapped.
fn map_validated(path: &Path) -> Result<DictBytes, SddError> {
    let (file, file_len, _) = crate::open_checked(path)?;
    if file_len == 0 {
        // The kernel rejects empty mappings; an empty Vec decodes to the
        // same typed error an empty mapping would have.
        return Ok(DictBytes::Owned(Vec::new()));
    }
    let map = sys::Mapping::new(&file, file_len)
        .map_err(|e| SddError::io(path.display().to_string(), &e))?;
    Ok(DictBytes::Mapped(MappedFile {
        map: DebugMapping(map),
        file,
        len: file_len,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sdd-mmap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [MmapMode::Auto, MmapMode::On, MmapMode::Off] {
            assert_eq!(MmapMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(MmapMode::parse("yes"), None);
        assert!(!MmapMode::Off.wants_map());
        assert!(MmapMode::On.wants_map());
        assert_eq!(MmapMode::Auto.wants_map(), mmap_supported());
    }

    #[test]
    fn mapped_and_owned_bytes_are_identical() {
        let dir = scratch("ident");
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let owned = read_dictionary_bytes(&path, MmapMode::Off).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(owned.mode(), "owned");
        assert_eq!(owned.as_slice(), &payload[..]);
        owned.revalidate().unwrap();
        if mmap_supported() {
            let mapped = read_dictionary_bytes(&path, MmapMode::On).unwrap();
            assert!(mapped.is_mapped());
            assert_eq!(mapped.mode(), "mapped");
            assert_eq!(mapped.as_slice(), owned.as_slice());
            assert_eq!(mapped.len(), payload.len());
            mapped.revalidate().unwrap();
        }
        let auto = read_dictionary_bytes(&path, MmapMode::Auto).unwrap();
        assert_eq!(auto.is_mapped(), mmap_supported());
        assert_eq!(auto.as_slice(), &payload[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_place_truncation_is_detected_by_revalidate() {
        if !mmap_supported() {
            return;
        }
        let dir = scratch("shrink");
        let path = dir.join("blob.bin");
        std::fs::write(&path, vec![0xAB; 8192]).unwrap();
        let mapped = read_dictionary_bytes(&path, MmapMode::On).unwrap();
        mapped.revalidate().unwrap();
        // Shrink the inode under the live map: the typed error replaces
        // what would otherwise be a SIGBUS on the lost tail.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(16)
            .unwrap();
        assert!(matches!(
            mapped.revalidate(),
            Err(SddError::Truncated {
                context: "mapped file",
                expected: 8192,
                actual: 16,
            })
        ));
        // Rename-replace keeps the mapped inode intact: still valid.
        std::fs::write(&path, vec![0xCD; 8192]).unwrap();
        let fresh = read_dictionary_bytes(&path, MmapMode::On).unwrap();
        fresh.revalidate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_files_never_map() {
        let dir = scratch("empty");
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let bytes = read_dictionary_bytes(&path, MmapMode::Auto).unwrap();
        assert!(!bytes.is_mapped());
        assert!(bytes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
