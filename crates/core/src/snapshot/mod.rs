//! Snapshot persistence of the frozen [`crate::DistOracle`]: `CCDO` for an
//! oracle without routes, `CCRO` for one with them.
//!
//! There is one format, version 4 — the serving format: each oracle's
//! content laid out as **64-byte-aligned POD sections** behind a section
//! directory, inside a `magic / version u16 / … / trailing checksum u64`
//! frame. The checksum ([`header::checksum`]) is a word-at-a-time,
//! eight-lane sum, so verifying a mapped file runs at memory speed. The hot
//! tables (distance entries, provenance tags, route-arena columns, tree
//! rows, origins, sources) are directly addressable from a mapped file:
//! loading builds [`cc_graphs::SharedSlice`] views into the snapshot bytes
//! instead of copying them (little-endian targets; elsewhere the loader
//! transparently decode-copies). A file in any other version — the retired
//! streaming v1; v2, which had this section layout under a byte-serial
//! FNV-1a checksum; or v3, which had a four-lane checksum and kept the
//! emulator trees as arena records — is refused with
//! [`SnapshotError::UnsupportedVersion`] before any byte is hashed.
//!
//! [`header`] holds the frame plumbing — magic/version inspection, the
//! trailing checksum, the bounds-checked cursor, [`SnapshotError`]. The
//! `v2` module (named for the format that introduced the section layout)
//! holds the section writer and the validated section view. The section
//! layouts live with the parts they store (`oracle.rs` for `CCDO`,
//! `path_oracle.rs` for `CCRO`); `DESIGN.md` §9 documents the layout and
//! alignment rules.

pub mod atomic;
pub mod header;
pub(crate) mod v2;

pub use atomic::write_atomic;
pub use header::SnapshotError;
pub use v2::SnapshotView;

/// Identifies a snapshot byte stream without parsing it: `(magic, version)`
/// from the 6-byte prefix every CCDO/CCRO frame starts with. The caller
/// decides whether the pair is one it understands; this only fails on
/// streams too short to carry a header.
///
/// # Errors
///
/// Returns [`SnapshotError::Corrupt`] when fewer than 6 bytes are present.
pub fn sniff(bytes: &[u8]) -> Result<([u8; 4], u16), SnapshotError> {
    let Some((magic, rest)) = bytes.split_first_chunk::<4>() else {
        return Err(SnapshotError::corrupt("shorter than magic + version"));
    };
    let Some((version_bytes, _)) = rest.split_first_chunk::<2>() else {
        return Err(SnapshotError::corrupt("shorter than magic + version"));
    };
    Ok((*magic, u16::from_le_bytes(*version_bytes)))
}
