//! Crash-safe snapshot writes: temp file → fsync → atomic rename →
//! directory sync.
//!
//! A snapshot written in place (`File::create` + `write_all`) has a torn
//! window: a crash mid-write leaves a file with a valid-looking prefix and
//! no trailing checksum, and — worse — destroys the previous good snapshot
//! the moment `create` truncates it. [`write_atomic`] closes both holes:
//! the bytes land in a same-directory temp file, are fsync'd, and only
//! then atomically renamed over the destination, so any observer (a
//! concurrent `ccd` reload, a crash-recovery boot) sees either the old
//! complete file or the new complete file, never a prefix. On Unix the
//! parent directory is fsync'd after the rename so the *name* survives a
//! power cut too.
//!
//! Every `save_v2_to_path` writer routes through here;
//! the trailing FNV-1a checksum ([`super::header`]) remains the
//! second line of defense for torn files produced by other tools.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The temp-file sibling `write_atomic` stages into: same directory (so
/// the rename cannot cross filesystems), name derived from the target.
fn temp_sibling(path: &Path) -> std::io::Result<PathBuf> {
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "atomic write target has no file name",
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    Ok(path.with_file_name(tmp_name))
}

/// Fsyncs the directory holding `path`, so the rename that just happened
/// is durable. Unix-only (directories cannot be opened for sync
/// elsewhere); a filesystem that refuses the open (some network mounts)
/// degrades to rename-without-dir-sync rather than failing the save.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(handle) = File::open(dir) {
            handle.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// Writes `bytes` to `path` crash-safely: temp sibling → `write_all` →
/// `sync_all` → atomic `rename` → parent-directory sync. On any failure
/// the temp file is removed (best effort) and the previous contents of
/// `path`, if any, are untouched.
///
/// # Errors
///
/// Propagates the first I/O failure from the staging write, the fsync,
/// the rename, or the directory sync.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = temp_sibling(path)?;
    let staged = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cc_atomic_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_land_and_leave_no_temp_behind() {
        let dir = scratch_dir("ok");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrite replaces the content wholesale.
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "staging files must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_writes_leave_the_old_file_intact() {
        let dir = scratch_dir("fail");
        let path = dir.join("keep.bin");
        write_atomic(&path, b"precious").unwrap();
        // A target whose parent does not exist fails before any rename.
        let bad = dir.join("no-such-subdir").join("x.bin");
        assert!(write_atomic(&bad, b"doomed").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_dir_all(&dir).ok();
    }
}
