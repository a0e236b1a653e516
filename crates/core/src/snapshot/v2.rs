//! The section layout of the snapshot format: aligned POD sections behind
//! a section directory. Format 2 introduced this layout, and formats 3 and
//! 4 keep its frame and directory (they change the trailing checksum and,
//! in 4, the `CCRO` sections), so the module keeps its name.
//!
//! Frame (see [`super::header`]):
//!
//! ```text
//!   off  0  magic            4 bytes
//!   off  4  version  u16 = 4
//!   off  6  reserved u16 = 0
//!   off  8  dir_off  u64          absolute offset of the directory
//!   off 64  sections…             each starting at a 64-byte-aligned offset
//!   dir_off section_count u32, reserved u32,
//!           count × { id u16, reserved u16, reserved u32,
//!                     byte_off u64, byte_len u64 }        (24 bytes each)
//!   tail    checksum u64          header::checksum over every preceding byte
//! ```
//!
//! Alignment rules: every section starts at a multiple of 64 **relative to
//! the snapshot's own first byte**, and embedded snapshots (the CCDO inside
//! a CCRO) are themselves sections, so their inner offsets stay 64-aligned
//! absolutely. Owners hand out at-least-8-aligned base pointers
//! ([`AlignedBytes`] by construction, `mmap` by page alignment), so every
//! `u8`/`u32`/`u64` section is in-place addressable. [`SnapshotView`] still
//! validates each view's bounds and alignment before sharing and falls back
//! to a decode-copy — a hostile directory can force a copy, never unsafety.

use std::sync::Arc;

use cc_graphs::{AlignedBytes, ByteOwner, DirEntry, PodData, Section, SharedSlice};

use super::header::{checked_frame, checksum, SnapshotError, VERSION};

/// Section alignment: every section starts at a multiple of this, relative
/// to the snapshot's first byte. Re-exported from `cc_graphs::pod`, where
/// the [`Section`] layout assertions check against it.
pub(crate) const ALIGN: usize = cc_graphs::SECTION_ALIGN;

/// Cap on the section count a directory may declare, far above what any
/// real snapshot uses (a 256-provider CCRO needs ~1.8k): bounds the one
/// allocation made while parsing a directory. The writer enforces the same
/// cap, so everything a writer produces parses back.
pub(crate) const MAX_SECTIONS: usize = 4096;

/// `N` little-endian bytes at `off` within `buf`, as a typed error instead
/// of a panic when the range is unrepresentable or out of bounds.
fn le_chunk<const N: usize>(buf: &[u8], off: usize, what: &str) -> Result<[u8; N], SnapshotError> {
    off.checked_add(N)
        .and_then(|end| buf.get(off..end))
        .and_then(|s| s.first_chunk::<N>())
        .copied()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{what} out of bounds")))
}

/// Builds a snapshot: appends sections at 64-aligned offsets, then
/// writes the directory and the trailing checksum.
pub(crate) struct SectionWriter {
    buf: Vec<u8>,
    dir: Vec<(u16, u64, u64)>,
}

impl SectionWriter {
    pub(crate) fn new(magic: &[u8; 4]) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // dir_off, patched in finish
        SectionWriter {
            buf,
            dir: Vec::new(),
        }
    }

    /// Appends a section, padding the stream so it starts 64-aligned.
    pub(crate) fn section(&mut self, id: u16, bytes: &[u8]) {
        let aligned = self.buf.len().next_multiple_of(ALIGN);
        self.buf.resize(aligned, 0);
        self.dir.push((id, aligned as u64, bytes.len() as u64));
        self.buf.extend_from_slice(bytes);
    }

    /// A section of `u32` values, serialized little-endian.
    pub(crate) fn section_u32(&mut self, id: u16, values: &[u32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for &v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.section(id, &bytes);
    }

    /// Writes the directory and checksum; returns the finished snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when more than [`MAX_SECTIONS`] sections
    /// were appended — the checked twin of the `as u32` narrowing this
    /// count used to go through.
    pub(crate) fn finish(mut self) -> Result<Vec<u8>, SnapshotError> {
        SnapshotError::check_count("section count", self.dir.len(), MAX_SECTIONS)?;
        let count = u32::try_from(self.dir.len())
            .map_err(|_| SnapshotError::corrupt("section count exceeds u32"))?;
        let aligned = self.buf.len().next_multiple_of(8);
        self.buf.resize(aligned, 0);
        let dir_off = self.buf.len() as u64;
        self.buf
            .get_mut(8..16)
            .ok_or_else(|| SnapshotError::corrupt("writer lost its header"))?
            .copy_from_slice(&dir_off.to_le_bytes());
        self.buf.extend_from_slice(&count.to_le_bytes());
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        for &(id, off, len) in &self.dir {
            self.buf.extend_from_slice(&id.to_le_bytes());
            self.buf.extend_from_slice(&0u16.to_le_bytes());
            self.buf.extend_from_slice(&0u32.to_le_bytes());
            self.buf.extend_from_slice(&off.to_le_bytes());
            self.buf.extend_from_slice(&len.to_le_bytes());
        }
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        Ok(self.buf)
    }
}

/// A validated window onto one snapshot inside a [`ByteOwner`] — the
/// whole owner for a top-level snapshot, a sub-range for an embedded one.
///
/// Parsing checks the frame (magic, version, checksum) and the directory
/// (in-bounds, 64-aligned, deduplicated section ids) up front; afterwards
/// sections are served as zero-copy [`PodData`] views on little-endian
/// targets and as decode-copies elsewhere.
#[derive(Debug)]
pub struct SnapshotView {
    owner: Arc<dyn ByteOwner>,
    /// Byte offset of this snapshot's first byte within `owner`.
    base: usize,
    /// Snapshot length including frame and checksum.
    len: usize,
    /// `(id, offset relative to base, byte length)`, directory order.
    sections: Vec<(u16, usize, usize)>,
}

impl SnapshotView {
    /// Parses the owner's entire allocation as one snapshot.
    ///
    /// # Errors
    ///
    /// Any frame or directory violation, as a typed [`SnapshotError`] —
    /// nothing beyond the (capped) directory table is allocated first.
    pub fn parse(owner: Arc<dyn ByteOwner>, magic: &[u8; 4]) -> Result<Self, SnapshotError> {
        let len = owner.bytes().len();
        SnapshotView::parse_at(owner, 0, len, magic)
    }

    /// Parses the `len` bytes starting at `base` within `owner` as one
    /// snapshot (embedded-snapshot support).
    pub(crate) fn parse_at(
        owner: Arc<dyn ByteOwner>,
        base: usize,
        len: usize,
        magic: &[u8; 4],
    ) -> Result<Self, SnapshotError> {
        let all = owner.bytes();
        let end = base
            .checked_add(len)
            .filter(|&e| e <= all.len())
            .ok_or_else(|| SnapshotError::corrupt("snapshot window out of bounds"))?;
        let bytes = all
            .get(base..end)
            .ok_or_else(|| SnapshotError::corrupt("snapshot window out of bounds"))?;
        let payload = checked_frame(bytes, magic)?;
        if payload.len() < 16 {
            return Err(SnapshotError::corrupt("header truncated"));
        }
        let dir_off = usize::try_from(u64::from_le_bytes(le_chunk::<8>(payload, 8, "dir_off")?))
            .map_err(|_| SnapshotError::corrupt("directory offset exceeds the address space"))?;
        if dir_off % 8 != 0
            || dir_off < 16
            || dir_off.checked_add(8).is_none_or(|e| e > payload.len())
        {
            return Err(SnapshotError::corrupt("directory offset out of bounds"));
        }
        let count = u32::from_le_bytes(le_chunk::<4>(payload, dir_off, "section count")?) as usize;
        if count > MAX_SECTIONS {
            return Err(SnapshotError::corrupt("section count out of range"));
        }
        let dir_body = dir_off
            .checked_add(8)
            .ok_or_else(|| SnapshotError::corrupt("directory offset out of bounds"))?;
        if count
            .checked_mul(DirEntry::WIRE_SIZE)
            .and_then(|l| dir_body.checked_add(l))
            != Some(payload.len())
        {
            return Err(SnapshotError::corrupt(
                "directory does not span the payload tail",
            ));
        }

        // Directory entries, raw: the mapped-file fast path reinterprets
        // the (8-aligned) entry table as `DirEntry` rows in place; any
        // misalignment or a big-endian target falls back to a field-wise
        // decode of the same bytes.
        let mut raw_entries: Vec<(u16, u64, u64)> = Vec::with_capacity(count);
        let typed = if cfg!(target_endian = "little") {
            SharedSlice::<DirEntry>::new(Arc::clone(&owner), base + dir_body, count)
        } else {
            None
        };
        match typed {
            Some(view) => {
                for e in view.as_slice() {
                    raw_entries.push((e.id, e.byte_off, e.byte_len));
                }
            }
            None => {
                for i in 0..count {
                    let eoff = dir_body + DirEntry::WIRE_SIZE * i;
                    let id = u16::from_le_bytes(le_chunk::<2>(payload, eoff, "section id")?);
                    let off =
                        u64::from_le_bytes(le_chunk::<8>(payload, eoff + 8, "section offset")?);
                    let slen =
                        u64::from_le_bytes(le_chunk::<8>(payload, eoff + 16, "section length")?);
                    raw_entries.push((id, off, slen));
                }
            }
        }

        let mut sections = Vec::with_capacity(count);
        for (id, off64, len64) in raw_entries {
            let off = usize::try_from(off64)
                .map_err(|_| SnapshotError::corrupt("section offset exceeds the address space"))?;
            let slen = usize::try_from(len64)
                .map_err(|_| SnapshotError::corrupt("section length exceeds the address space"))?;
            if off % ALIGN != 0 {
                return Err(SnapshotError::corrupt("section offset not 64-aligned"));
            }
            if off.checked_add(slen).is_none_or(|e| e > dir_off) {
                return Err(SnapshotError::corrupt("section out of bounds"));
            }
            if sections.iter().any(|&(other, _, _)| other == id) {
                return Err(SnapshotError::corrupt("duplicate section id"));
            }
            sections.push((id, off, slen));
        }
        Ok(SnapshotView {
            owner,
            base,
            len,
            sections,
        })
    }

    /// The snapshot's own bytes (frame and checksum included).
    pub(crate) fn raw(&self) -> &[u8] {
        // The window was validated against the owner in `parse_at`, and the
        // ByteOwner contract (stable pointer and length) keeps it valid;
        // an empty slice would only surface a broken owner, loudly, as
        // section-out-of-bounds errors downstream.
        self.owner
            .bytes()
            .get(self.base..self.base + self.len)
            .unwrap_or(&[])
    }

    /// `len` section bytes starting `off` into the snapshot, re-validated
    /// against the raw window (parse-time checks make failure unreachable).
    fn slice_at(&self, off: usize, len: usize) -> Result<&[u8], SnapshotError> {
        off.checked_add(len)
            .and_then(|end| self.raw().get(off..end))
            .ok_or_else(|| SnapshotError::corrupt("section window out of bounds"))
    }

    /// `(relative offset, byte length)` of section `id`, if present.
    fn find(&self, id: u16) -> Option<(usize, usize)> {
        self.sections
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .map(|&(_, off, len)| (off, len))
    }

    /// `true` when section `id` is present.
    pub fn has(&self, id: u16) -> bool {
        self.find(id).is_some()
    }

    /// The directory, in file order: `(section id, byte offset relative to
    /// the snapshot start, byte length)` — the raw map tools like
    /// `ccd snapshot info` report.
    pub fn directory(&self) -> impl Iterator<Item = (u16, usize, usize)> + '_ {
        self.sections.iter().copied()
    }

    /// The raw bytes of a required section.
    pub(crate) fn bytes_of(&self, id: u16, what: &str) -> Result<&[u8], SnapshotError> {
        let (off, len) = self
            .find(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing {what} section")))?;
        self.slice_at(off, len)
    }

    /// A `u8` section of exactly `count` elements, served zero-copy.
    pub(crate) fn u8_data(
        &self,
        id: u16,
        count: usize,
        what: &str,
    ) -> Result<PodData<u8>, SnapshotError> {
        let (off, len) = self
            .find(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing {what} section")))?;
        if len != count {
            return Err(SnapshotError::Corrupt(format!(
                "{what} section length mismatch"
            )));
        }
        match SharedSlice::<u8>::new(Arc::clone(&self.owner), self.base + off, count) {
            Some(s) => Ok(s.into()),
            None => Ok(self.slice_at(off, len)?.to_vec().into()),
        }
    }

    /// A little-endian `u32` section of exactly `count` elements — a
    /// zero-copy view on little-endian targets (decode-copy otherwise, or
    /// when the mapping is misaligned).
    pub(crate) fn u32_data(
        &self,
        id: u16,
        count: usize,
        what: &str,
    ) -> Result<PodData<u32>, SnapshotError> {
        let (off, len) = self
            .find(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing {what} section")))?;
        if count.checked_mul(4) != Some(len) {
            return Err(SnapshotError::Corrupt(format!(
                "{what} section length mismatch"
            )));
        }
        if cfg!(target_endian = "little") {
            if let Some(s) =
                SharedSlice::<u32>::new(Arc::clone(&self.owner), self.base + off, count)
            {
                return Ok(s.into());
            }
        }
        let bytes = self.slice_at(off, len)?;
        let (chunks, _) = bytes.as_chunks::<4>();
        let mut out = Vec::with_capacity(count);
        for chunk in chunks {
            out.push(u32::from_le_bytes(*chunk));
        }
        Ok(out.into())
    }

    /// Parses section `id` as an embedded snapshot with its own frame.
    pub(crate) fn sub_view(
        &self,
        id: u16,
        magic: &[u8; 4],
        what: &str,
    ) -> Result<SnapshotView, SnapshotError> {
        let (off, len) = self
            .find(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing {what} section")))?;
        SnapshotView::parse_at(Arc::clone(&self.owner), self.base + off, len, magic)
    }
}

/// Reads a whole stream into an [`AlignedBytes`] owner — the load path
/// for non-mapped sources (pipes, in-memory buffers, tests).
pub(crate) fn owner_from_bytes(bytes: &[u8]) -> Arc<dyn ByteOwner> {
    Arc::new(AlignedBytes::copy_from(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_aligned_sections_and_view_reads_them_back() {
        let mut w = SectionWriter::new(b"CCDO");
        w.section(1, &[1, 2, 3]);
        w.section_u32(4, &[10, 20, 30]);
        w.section(5, &[]);
        let bytes = w.finish().expect("finish");
        let view = SnapshotView::parse(owner_from_bytes(&bytes), b"CCDO").expect("valid");
        assert_eq!(view.bytes_of(1, "meta").unwrap(), &[1, 2, 3]);
        assert_eq!(&view.u32_data(4, 3, "entries").unwrap()[..], &[10, 20, 30]);
        assert_eq!(view.u8_data(5, 0, "tags").unwrap().len(), 0);
        assert!(view.has(5));
        assert!(!view.has(9));
        assert!(view.bytes_of(9, "nope").is_err());
        if cfg!(target_endian = "little") {
            assert!(view.u32_data(4, 3, "entries").unwrap().is_shared());
        }
    }

    #[test]
    fn view_rejects_frame_and_directory_corruption() {
        let mut w = SectionWriter::new(b"CCDO");
        w.section_u32(4, &[1, 2]);
        let bytes = w.finish().expect("finish");

        let wrong = SnapshotView::parse(owner_from_bytes(&bytes), b"CCRO");
        assert!(matches!(wrong, Err(SnapshotError::BadMagic(_))));

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            SnapshotView::parse(owner_from_bytes(&flipped), b"CCDO"),
            Err(SnapshotError::Corrupt(_))
        ));

        let truncated = &bytes[..bytes.len() - 3];
        assert!(SnapshotView::parse(owner_from_bytes(truncated), b"CCDO").is_err());

        // Misaligned section offset (patch the directory entry, re-seal).
        let mut crooked = bytes.clone();
        crooked.truncate(crooked.len() - 8);
        let dir_off = u64::from_le_bytes(crooked[8..16].try_into().unwrap()) as usize;
        // byte_off of entry 0: 8-byte directory header, then 8 bytes of
        // id + padding inside the entry.
        crooked[dir_off + 16..dir_off + 24].copy_from_slice(&63u64.to_le_bytes());
        let sum = checksum(&crooked);
        crooked.extend_from_slice(&sum.to_le_bytes());
        let err = SnapshotView::parse(owner_from_bytes(&crooked), b"CCDO").unwrap_err();
        assert!(err.to_string().contains("not 64-aligned"), "{err}");
    }

    #[test]
    fn section_length_mismatches_are_typed_errors() {
        let mut w = SectionWriter::new(b"CCDO");
        w.section_u32(4, &[1, 2, 3]);
        let bytes = w.finish().expect("finish");
        let view = SnapshotView::parse(owner_from_bytes(&bytes), b"CCDO").unwrap();
        assert!(view.u32_data(4, 2, "entries").is_err(), "count mismatch");
        assert!(view.u8_data(4, 3, "entries").is_err(), "u8 over 12 bytes");
    }
}
