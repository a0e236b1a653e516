//! The snapshot frame: magic, version, trailing checksum, typed errors.
//!
//! Every snapshot this workspace writes — `CCDO` and `CCRO`, both at
//! format version 2 — shares one frame shape:
//!
//! ```text
//!   magic     4 bytes   (b"CCDO" or b"CCRO")
//!   version   u16 LE
//!   …body…
//!   checksum  u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! `checked_frame` validates that frame in the only safe order: magic
//! first, then version, then the checksum. A snapshot written in any other
//! format version — the retired streaming v1 or a future one (whose
//! trailing bytes this build cannot even locate) — reports
//! [`SnapshotError::UnsupportedVersion`], never a misleading checksum
//! mismatch. The CCDO and CCRO readers go through this one implementation.

/// The snapshot format version this build reads and writes.
pub(crate) const VERSION: u16 = 2;

/// Validates a snapshot frame — magic, then version against [`VERSION`],
/// then the trailing FNV-1a checksum — and returns the checksummed payload
/// (everything before the 8-byte tail).
///
/// # Errors
///
/// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`], or
/// [`SnapshotError::Corrupt`] on truncation / checksum mismatch.
pub(crate) fn checked_frame<'a>(buf: &'a [u8], magic: &[u8; 4]) -> Result<&'a [u8], SnapshotError> {
    // Magic and version live in the first 6 bytes and are validated before
    // the checksum, so future-version snapshots fail with the actionable
    // error even though this build cannot verify their integrity.
    let Some((got, after_magic)) = buf.split_first_chunk::<4>() else {
        return Err(SnapshotError::corrupt("shorter than magic + version"));
    };
    if got != magic {
        return Err(SnapshotError::BadMagic(*got));
    }
    let Some((version_bytes, _)) = after_magic.split_first_chunk::<2>() else {
        return Err(SnapshotError::corrupt("shorter than magic + version"));
    };
    let got_version = u16::from_le_bytes(*version_bytes);
    if got_version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(got_version));
    }
    if buf.len() < 14 {
        return Err(SnapshotError::corrupt("shorter than header + checksum"));
    }
    let Some((payload, tail)) = buf.split_last_chunk::<8>() else {
        return Err(SnapshotError::corrupt("shorter than header + checksum"));
    };
    let stored = u64::from_le_bytes(*tail);
    if fnv1a(payload) != stored {
        return Err(SnapshotError::corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// FNV-1a over a byte slice (the snapshot checksum). Tools that rewrite
/// a snapshot's payload, such as the structure-aware fuzzer, reseal it
/// with this function, so they follow any change of the checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Bounds-checked reader over a snapshot payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::corrupt("truncated payload"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| SnapshotError::corrupt("truncated payload"))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn take_n<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or_else(|| SnapshotError::corrupt("truncated payload"))
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Errors reading or writing oracle snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the expected magic.
    BadMagic([u8; 4]),
    /// A version this build does not understand.
    UnsupportedVersion(u16),
    /// Structurally invalid or truncated payload (detail in the message).
    Corrupt(String),
    /// A table being **written** exceeds what the format can represent —
    /// the writer-side twin of [`SnapshotError::Corrupt`]. Surfacing this
    /// instead of narrowing with `as` keeps an oversized table from being
    /// silently truncated into a snapshot that loads as the wrong oracle.
    TooLarge {
        /// Which table or field overflowed.
        what: &'static str,
        /// The value the caller tried to write.
        count: usize,
        /// The format's inclusive maximum for that field.
        max: usize,
    },
}

impl SnapshotError {
    pub(crate) fn corrupt(msg: &str) -> Self {
        SnapshotError::Corrupt(msg.to_string())
    }

    /// Checks a writer-side count against the format's maximum for `what`.
    pub(crate) fn check_count(what: &'static str, count: usize, max: usize) -> Result<(), Self> {
        if count > max {
            Err(SnapshotError::TooLarge { what, count, max })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(m) => write!(f, "not an oracle snapshot (magic {m:02x?})"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::TooLarge { what, count, max } => {
                write!(
                    f,
                    "snapshot {what} too large: {count} exceeds the format maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for std::io::Error {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
