//! Opening and inspecting oracle snapshot files.
//!
//! [`open`] is the server's loading path: it maps the file ([`crate::mmap`])
//! and hands the mapping straight to the zero-copy loader — the oracle's
//! hot tables alias the page cache and no per-entry decode happens at all.
//! What opening still costs is verification: the word-at-a-time frame
//! checksum over the file and its embedded `CCDO`, one pass over every
//! route-arena record, and one branch-free pass each over the origins,
//! the tree parents and the pair witnesses, which are then served in
//! place like every other table. A file in any format
//! version other than 4 — a retired v2 or v3 file included — is refused with
//! [`SnapshotError::UnsupportedVersion`] before any byte is hashed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cc_core::snapshot::{sniff, SnapshotError, SnapshotView};
use cc_core::DistOracle;

use crate::mmap::open_owner;

/// An opened snapshot: the oracle plus how it is backed.
#[derive(Debug)]
pub struct OpenedSnapshot {
    /// The loaded oracle: routes too when the file is a `CCRO` snapshot
    /// ([`DistOracle::paths`]), distances only when it is `CCDO`.
    pub oracles: Arc<DistOracle>,
    /// Whether the backing bytes are a real memory map (as opposed to an
    /// aligned in-memory copy).
    pub mapped: bool,
    /// File size in bytes.
    pub file_bytes: usize,
}

/// Opens a snapshot file for serving, zero-copy from the mapping.
///
/// # Errors
///
/// I/O failures and any [`SnapshotError`] from validation.
pub fn open<P: AsRef<Path>>(path: P) -> Result<OpenedSnapshot, SnapshotError> {
    let (owner, mapped) = open_owner(path.as_ref())?;
    let file_bytes = owner.bytes().len();
    Ok(OpenedSnapshot {
        oracles: Arc::new(DistOracle::load_v2_shared(owner)?),
        mapped,
        file_bytes,
    })
}

/// Why [`open_quarantining`] refused a file — typed, so the daemon's
/// reload path can report the refusal and keep serving the previous
/// generation instead of aborting.
#[derive(Debug)]
pub enum OpenError {
    /// The file could not be read at all (missing, permissions). Nothing
    /// was quarantined — there may be nothing to quarantine, and a
    /// transient I/O error must not destroy a good file's name.
    Io(std::io::Error),
    /// Validation failed (bad magic, bad checksum, unsupported version…);
    /// the file was renamed aside to `quarantined_to` so the next save to
    /// the serving path starts clean and the evidence survives.
    Quarantined {
        /// What validation rejected.
        reason: SnapshotError,
        /// Where the bad file went.
        quarantined_to: PathBuf,
    },
    /// Validation failed *and* the quarantine rename itself failed; the
    /// bad file is still in place.
    QuarantineFailed {
        /// What validation rejected.
        reason: SnapshotError,
        /// Why the rename-aside failed.
        rename_error: std::io::Error,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            OpenError::Quarantined {
                reason,
                quarantined_to,
            } => write!(
                f,
                "snapshot failed validation ({reason}); quarantined to {}",
                quarantined_to.display()
            ),
            OpenError::QuarantineFailed {
                reason,
                rename_error,
            } => write!(
                f,
                "snapshot failed validation ({reason}) and quarantine rename failed: {rename_error}"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

/// The sibling path a failed snapshot is renamed to.
fn quarantine_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("snapshot"), ToOwned::to_owned);
    name.push(".quarantined");
    path.with_file_name(name)
}

/// [`open`], with the daemon's containment contract: a file that fails
/// *validation* (checksum, magic, version, structure) is renamed aside to
/// `<path>.quarantined` and reported as [`OpenError::Quarantined`] — the
/// caller keeps serving whatever it was serving. Plain I/O failures pass
/// through untouched ([`OpenError::Io`]).
///
/// # Errors
///
/// [`OpenError`] as described above.
pub fn open_quarantining<P: AsRef<Path>>(path: P) -> Result<OpenedSnapshot, OpenError> {
    let path = path.as_ref();
    match open(path) {
        Ok(opened) => Ok(opened),
        Err(SnapshotError::Io(e)) => Err(OpenError::Io(e)),
        Err(reason) => {
            let aside = quarantine_sibling(path);
            match std::fs::rename(path, &aside) {
                Ok(()) => Err(OpenError::Quarantined {
                    reason,
                    quarantined_to: aside,
                }),
                Err(rename_error) => Err(OpenError::QuarantineFailed {
                    reason,
                    rename_error,
                }),
            }
        }
    }
}

/// A human-readable description of a snapshot file, one line per fact —
/// `ccd snapshot info`'s output.
///
/// # Errors
///
/// I/O failures and any [`SnapshotError`] from validation.
pub fn describe<P: AsRef<Path>>(path: P) -> Result<String, SnapshotError> {
    let (owner, mapped) = open_owner(path.as_ref())?;
    let (magic, version) = sniff(owner.bytes())?;
    let mut out = String::new();
    let magic_str = String::from_utf8_lossy(&magic).into_owned();
    out.push_str(&format!("magic    {magic_str}\n"));
    out.push_str(&format!("version  {version}\n"));
    out.push_str(&format!("bytes    {}\n", owner.bytes().len()));
    out.push_str(&format!("mapped   {mapped}\n"));
    let view = SnapshotView::parse(owner, &magic)?;
    out.push_str("sections\n");
    for (id, off, len) in view.directory() {
        let name = section_name(&magic, id);
        out.push_str(&format!(
            "  {id:>5}  off {off:>10}  len {len:>10}  {name}\n"
        ));
    }
    // Full load from the same view for the semantic facts (also proves
    // the file is sound).
    let oracle = DistOracle::from_view(&view)?;
    out.push_str(&format!("n        {}\n", oracle.n()));
    out.push_str(&format!("kind     {:?}\n", oracle.storage_kind()));
    out.push_str(&format!("routes   {}\n", oracle.paths().is_some()));
    Ok(out)
}

fn section_name(magic: &[u8; 4], id: u16) -> &'static str {
    match (magic, id) {
        (b"CCDO", 1) => "meta",
        (b"CCDO", 2) => "guarantees",
        (b"CCDO", 3) => "sources",
        (b"CCDO", 4) => "entries",
        (b"CCDO", 5) => "tags",
        (b"CCRO", 1) => "meta",
        (b"CCRO", 2) => "dist (embedded CCDO)",
        (b"CCRO", 3) => "origins",
        (b"CCRO", id) if id >= 4096 => match (id - 4096) % 8 {
            0 => "tree meta",
            1 => "tree parents",
            2 => "tree hop starts",
            3 => "tree hops",
            _ => "tree hop records",
        },
        (b"CCRO", id) if id >= 16 => match (id - 16) % 8 {
            0 => "provider meta",
            1 => "arena tags",
            2 => "arena ops a",
            3 => "arena ops b",
            4 => "arena lens",
            5 => "witness tags",
            6 => "witness payloads",
            _ => "provider sources",
        },
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`describe`] listing without its offsets and sizes: the frame,
    /// the section names in directory order, then `n`, the storage kind and
    /// the routes flag, one per line.
    fn facts(listing: &str) -> String {
        let mut out = Vec::new();
        for line in listing.lines() {
            match line.split_once(' ') {
                Some(("magic" | "version" | "n" | "kind" | "routes", value)) => {
                    out.push(value.trim().to_string());
                }
                _ if line.starts_with("  ") => {
                    let (_, name) = line.split_once(" len ").expect("a section line");
                    let (_, name) = name.trim_start().split_once("  ").expect("a section name");
                    out.push(name.to_string());
                }
                _ => {}
            }
        }
        out.join("\n")
    }

    /// `ccd snapshot info` over the golden snapshots, which it parses and
    /// loads from one view.
    #[test]
    fn describe_reads_the_golden_snapshots() {
        let provider = "provider meta\narena tags\narena ops a\narena ops b\narena lens\n\
                        witness tags\nwitness payloads";
        let ccro = format!(
            "CCRO\n4\nmeta\ndist (embedded CCDO)\norigins\n{provider}\n{provider}\n\
             provider sources\ntree meta\ntree parents\ntree hop starts\ntree hops\n\
             tree hop records\n10\nSymmetricPacked\ntrue"
        );
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        for (file, want) in [
            (
                "oracle_symmetric_v4.snap",
                "CCDO\n4\nmeta\nguarantees\nentries\n12\nSymmetricPacked\nfalse",
            ),
            (
                "oracle_rowsparse_v4.snap",
                "CCDO\n4\nmeta\nguarantees\nsources\nentries\n12\nRowSparse\nfalse",
            ),
            ("paths_v4.snap", ccro.as_str()),
        ] {
            let listing = describe(golden.join(file)).unwrap();
            assert_eq!(facts(&listing), want, "{file}:\n{listing}");
        }
    }

    /// A retired format-2 file is refused as `UnsupportedVersion(2)` and
    /// renamed aside, like any file that fails validation.
    #[test]
    fn retired_v2_golden_is_quarantined_as_unsupported() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/retired/oracle_symmetric_v2.snap");
        let dir = std::env::temp_dir().join(format!("cc_serve_retired_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oracle.snap");
        std::fs::copy(&golden, &path).unwrap();
        match open_quarantining(&path) {
            Err(OpenError::Quarantined {
                reason: SnapshotError::UnsupportedVersion(2),
                quarantined_to,
            }) => {
                assert!(quarantined_to.exists());
                assert!(!path.exists());
            }
            other => panic!("a v2 file must be quarantined as unsupported: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
