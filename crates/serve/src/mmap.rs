//! Memory-mapped snapshot files.
//!
//! [`MappedFile`] maps a file read-only with `mmap(2)` and implements
//! [`ByteOwner`], so a snapshot's hot tables can be served directly out
//! of the page cache — the kernel pages data in on first touch and the
//! process never materializes a second copy. `mmap` returns page-aligned
//! addresses (≥ 4096), so every 64-byte-aligned section offset is valid
//! for the typed views [`cc_graphs::SharedSlice`] hands out.
//!
//! On non-Unix targets — or whenever the map fails — [`read_owner`] falls
//! back to reading the file into an [`AlignedBytes`] buffer. Callers only
//! ever see an `Arc<dyn ByteOwner>`; the fallback changes memory behavior,
//! not results.
//!
//! This is the one module in the serving crate that needs `unsafe`: the
//! raw `mmap`/`munmap` calls (no new dependencies — `std` already links
//! libc) and the pointer-to-slice view, whose validity is exactly the
//! mapping's lifetime, which [`MappedFile`] owns.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use cc_graphs::{AlignedBytes, ByteOwner};

#[cfg(all(unix, not(miri)))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only, whole-file memory map. The mapping lives as long as this
/// value; [`ByteOwner`] hands out views into it.
#[cfg(all(unix, not(miri)))]
#[derive(Debug)]
pub struct MappedFile {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(all(unix, not(miri)))]
impl MappedFile {
    /// Maps `file` read-only. Fails on empty files (zero-length maps are
    /// an `EINVAL`) and whenever the kernel refuses the map.
    pub fn map(file: &File) -> std::io::Result<MappedFile> {
        use std::os::unix::io::AsRawFd;

        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::other("snapshot larger than the address space"))?;
        if len == 0 {
            return Err(std::io::Error::other("cannot map an empty file"));
        }
        // SAFETY: a fresh private read-only mapping over a file descriptor
        // we hold open for the duration of the call; the kernel validates
        // the fd and length. The returned region stays valid until the
        // munmap in Drop — MappedFile owns it and never re-maps.
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
        if ptr == sys::map_failed() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MappedFile { ptr, len })
    }

    /// The mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty (never true — empty files do not map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// SAFETY: the mapping is read-only and file-backed; moving ownership to
// another thread moves nothing but the pointer/len pair.
#[cfg(all(unix, not(miri)))]
unsafe impl Send for MappedFile {}
// SAFETY: concurrent reads of a PROT_READ mapping are safe from any
// thread, and the pointer is never handed out mutably.
#[cfg(all(unix, not(miri)))]
unsafe impl Sync for MappedFile {}

#[cfg(all(unix, not(miri)))]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned, unmapped
        // once — after this the owner is gone, and ByteOwner's contract
        // means no views outlive it.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// SAFETY: the backing store is an owned mapping that is unmapped only in
// Drop; the bytes it hands out are stable for the owner's whole lifetime,
// which is the ByteOwner contract.
#[cfg(all(unix, not(miri)))]
unsafe impl ByteOwner for MappedFile {
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, 64-aligned (page-aligned) and never written through.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

/// Opens `path` as a [`ByteOwner`]: memory-mapped where the platform
/// allows, read into an [`AlignedBytes`] copy otherwise. Returns the owner
/// and whether it is a real map.
pub fn open_owner<P: AsRef<Path>>(path: P) -> std::io::Result<(Arc<dyn ByteOwner>, bool)> {
    let file = File::open(path.as_ref())?;
    // Under Miri there is no mmap; the AlignedBytes fallback keeps the
    // whole load path exercisable by `cargo miri test`.
    #[cfg(all(unix, not(miri)))]
    {
        if let Ok(mapped) = MappedFile::map(&file) {
            return Ok((Arc::new(mapped), true));
        }
    }
    read_owner(file)
}

/// The portable fallback: reads the whole file into an aligned buffer.
pub fn read_owner(mut file: File) -> std::io::Result<(Arc<dyn ByteOwner>, bool)> {
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    Ok((Arc::new(AlignedBytes::copy_from(&buf)), false))
}

/// The flag a `SIGHUP` sets. First call installs the handler (Unix,
/// non-Miri); the server's acceptor polls and clears the flag, running a
/// hot reload when it finds it set. Elsewhere the flag simply never
/// fires.
///
/// This lives here — not in `server.rs` — because registering a signal
/// handler is the crate's only other unavoidable `unsafe`, and the audit
/// confines `unsafe` to this module.
#[cfg(all(unix, not(miri)))]
pub fn sighup_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static FLAG: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();
    const SIGHUP: c_int = 1;

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
    extern "C" fn on_sighup(_signum: c_int) {
        // A relaxed store to a static AtomicBool is async-signal-safe:
        // no allocation, no locking, no reentrancy.
        FLAG.store(true, Ordering::Relaxed);
    }

    INSTALL.call_once(|| {
        // SAFETY: `signal(2)` with a handler that only stores to an
        // atomic; registered once, for the process lifetime, so the
        // handler pointer never dangles. `std` already links libc.
        unsafe {
            signal(SIGHUP, on_sighup);
        }
    });
    &FLAG
}

/// Non-Unix / Miri stand-in: a flag nothing ever sets, so the acceptor's
/// poll compiles everywhere and `--reload-on sighup` degrades to admin
/// reloads only.
#[cfg(not(all(unix, not(miri))))]
pub fn sighup_flag() -> &'static std::sync::atomic::AtomicBool {
    static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    &FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn mapping_serves_file_bytes() {
        let dir = std::env::temp_dir().join(format!("cc_serve_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(12_345).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();

        let (owner, mapped) = open_owner(&path).unwrap();
        assert_eq!(owner.bytes(), &payload[..]);
        assert!(mapped || !cfg!(unix) || cfg!(miri));
        // Page alignment covers the section alignment requirement.
        if mapped {
            assert_eq!(owner.bytes().as_ptr() as usize % 64, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_fall_back_to_copies() {
        let dir = std::env::temp_dir().join(format!("cc_serve_mmap_e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let (owner, mapped) = open_owner(&path).unwrap();
        assert!(owner.bytes().is_empty());
        assert!(!mapped);
        std::fs::remove_file(&path).ok();
    }
}
