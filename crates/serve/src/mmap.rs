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
//! This is the one module in the serving crate that needs `unsafe`, for
//! three uses of libc (no new dependencies — `std` already links it):
//!
//! * the raw `mmap`/`munmap` calls and the pointer-to-slice view, whose
//!   validity is exactly the mapping's lifetime, which [`MappedFile`] owns;
//! * `signal(2)`, which installs the `SIGHUP` handler behind
//!   [`sighup_flag`];
//! * `poll(2)`, with which the acceptor waits for a connection
//!   ([`wait_acceptable`]) instead of sleeping between `accept` attempts.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use cc_graphs::{AlignedBytes, ByteOwner};

#[cfg(all(unix, not(miri)))]
mod sys {
    use std::os::raw::{c_int, c_short, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const POLLIN: c_short = 1;

    /// `nfds_t` of `poll(2)`.
    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    /// `nfds_t` of `poll(2)`.
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    /// One `struct pollfd` of `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    // The C layout: two shorts after an int, eight bytes, no padding.
    const _: () = assert!(std::mem::size_of::<PollFd>() == 8);
    const _: () = assert!(std::mem::offset_of!(PollFd, events) == 4);
    const _: () = assert!(std::mem::offset_of!(PollFd, revents) == 6);

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
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
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

/// Waits until `listener` has a connection to accept or `timeout` has
/// passed, whichever comes first, and returns whether a connection is
/// pending. A signal or a failed `poll(2)` ends the wait early (`false`);
/// the caller's next `accept` finds out what is there either way.
///
/// The wait is rounded up to whole milliseconds, the unit of `poll(2)`.
#[cfg(all(unix, not(miri)))]
pub fn wait_acceptable(listener: &TcpListener, timeout: Duration) -> bool {
    use std::os::unix::io::AsRawFd;

    let millis = std::os::raw::c_int::try_from(timeout.as_micros().div_ceil(1000))
        .unwrap_or(std::os::raw::c_int::MAX);
    let mut fd = sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is one live, initialized `pollfd` (layout pinned in
    // `sys`) that outlives the call, matching `nfds = 1`; the kernel
    // writes only its `revents`. The descriptor is the listener's, open
    // for as long as the borrow.
    let ready = unsafe { sys::poll(&mut fd, 1, millis) };
    ready > 0 && fd.revents & sys::POLLIN != 0
}

/// Non-Unix / Miri stand-in for [`wait_acceptable`]: sleeps for `timeout`
/// and reports nothing pending, so the acceptor falls back to retrying
/// `accept` on a fixed period.
#[cfg(not(all(unix, not(miri))))]
pub fn wait_acceptable(_listener: &TcpListener, timeout: Duration) -> bool {
    std::thread::sleep(timeout);
    false
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

    /// The acceptor's wait returns at once when a connection is already
    /// pending, however long its timeout, and at its timeout when none
    /// is. A loopback `connect` completes its handshake before it returns,
    /// so the connection is queued on the listener by then.
    #[cfg(all(unix, not(miri)))]
    #[test]
    fn acceptor_wait_wakes_on_a_pending_connection() {
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(!wait_acceptable(&listener, Duration::from_millis(10)));
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A wait that ran out its minute would answer `false`.
        assert!(wait_acceptable(&listener, Duration::from_secs(60)));
        assert!(wait_acceptable(&listener, Duration::ZERO), "still pending");
        let _conn = listener.accept().unwrap();
        assert!(!wait_acceptable(&listener, Duration::from_millis(1)));
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
