//! The snapshot frame: magic, version, trailing checksum, typed errors.
//!
//! Every snapshot this workspace writes — `CCDO` and `CCRO`, both at
//! format version 4 — shares one frame shape:
//!
//! ```text
//!   magic     4 bytes   (b"CCDO" or b"CCRO")
//!   version   u16 LE
//!   …body…
//!   checksum  u64 LE    [`checksum`] over every preceding byte
//! ```
//!
//! `checked_frame` validates that frame in the only safe order: magic
//! first, then version, then the checksum. A snapshot written in any other
//! format version — the retired v1, v2 and v3 or a future one (whose trailing
//! bytes this build cannot even locate) — reports
//! [`SnapshotError::UnsupportedVersion`] before any byte is hashed, never a
//! misleading checksum mismatch. The CCDO and CCRO readers and the section
//! writer go through this one implementation.

/// The snapshot format version this build reads and writes.
pub const VERSION: u16 = 4;

/// Validates a snapshot frame — magic, then version against [`VERSION`],
/// then the trailing [`checksum`] — and returns the checksummed payload
/// (everything before the 8-byte tail).
///
/// # Errors
///
/// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`], or
/// [`SnapshotError::Corrupt`] on truncation / checksum mismatch.
pub(crate) fn checked_frame<'a>(buf: &'a [u8], magic: &[u8; 4]) -> Result<&'a [u8], SnapshotError> {
    // Magic and version live in the first 6 bytes and are validated before
    // the checksum, so other-version snapshots fail with the actionable
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
    if checksum(payload) != u64::from_le_bytes(*tail) {
        return Err(SnapshotError::corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Initial states of the eight checksum lanes: distinct, so equal words
/// at the same step of different lanes leave different states.
const LANE_SEEDS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
    0x85eb_ca77_c2b2_ae63,
    0x9e37_79b1_85eb_ca87,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
];

/// The odd multiplier of a lane step.
const LANE_MUL: u64 = 0xff51_afd7_ed55_8ccd;

/// One lane step: xor in the word, multiply by an odd constant, xorshift.
/// The xor is a bijection of the word for a fixed state and of the state
/// for a fixed word; the multiply and the xorshift are bijections too.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 29)
}

/// A bijective 64-bit finalizer (MurmurHash3's `fmix64`): every input bit
/// reaches every output bit.
#[inline(always)]
fn fold(x: u64) -> u64 {
    let x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The snapshot checksum: a word-at-a-time, eight-lane sum over `bytes`.
///
/// Little-endian `u64` word `k` (bytes `8k..8k+8`) goes to lane `k % 8`,
/// so the eight lanes run as independent dependency chains and the loop
/// moves at memory speed. The lanes, then the zero-padded byte tail (the
/// last `len % 8` bytes), then the total length are folded into one word
/// with MurmurHash3's bijective `fmix64` finalizer.
///
/// Every step is a bijection of the running state for the other inputs
/// fixed, so a change confined to one aligned 8-byte word always changes
/// the sum: it changes its lane's state at that word, every later step of
/// that lane maps distinct states to distinct states, and each fold maps
/// distinct lanes to distinct sums. It protects against accident
/// (truncation, bit rot, torn writes), not forgery.
///
/// The section writer seals with it and `checked_frame` verifies with it;
/// tools that rewrite a snapshot's payload, such as the structure-aware
/// fuzzer, reseal with it too, so they follow any change of the checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (blocks, rest) = bytes.as_chunks::<64>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = lane_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = lane_step(*lane, u64::from_le_bytes(*word));
    }
    let mut last = [0u8; 8];
    for (slot, &b) in last.iter_mut().zip(tail) {
        *slot = b;
    }
    let mut sum = 0;
    for lane in lanes {
        sum = fold(sum ^ lane);
    }
    sum = fold(sum ^ u64::from_le_bytes(last));
    fold(sum ^ bytes.len() as u64)
}

/// FNV-1a over a byte slice: a content digest for tests that pin the
/// exact bytes of a snapshot or a ledger. Not the snapshot checksum — see
/// [`checksum`].
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed frame over `body`: magic, version, body, checksum.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut frame = b"CCDO".to_vec();
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(body);
        let sum = checksum(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Every body length from 0 to 96 puts every residue mod 64 and mod 8
    /// through the block, word and tail paths: the sealed frame verifies,
    /// and a one-byte change anywhere past the version is refused.
    #[test]
    fn sealing_and_checking_agree_for_every_payload_length() {
        for len in 0..=96usize {
            let body: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let frame = sealed(&body);
            let payload = checked_frame(&frame, b"CCDO").expect("sealed frame verifies");
            assert_eq!(payload, &frame[..frame.len() - 8], "len {len}");
            for at in 6..frame.len() {
                let mut bad = frame.clone();
                bad[at] ^= 0x01;
                assert!(
                    matches!(checked_frame(&bad, b"CCDO"), Err(SnapshotError::Corrupt(_))),
                    "len {len}: change at byte {at} verified"
                );
            }
        }
    }

    /// The tail is zero-padded, so the total length is what tells a
    /// payload from the same payload with zero bytes appended.
    #[test]
    fn zero_padded_payloads_of_different_lengths_differ() {
        let sums: Vec<u64> = (0..=96).map(|len| checksum(&vec![0u8; len])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(sums[i + 1..].iter().all(|b| b != a), "length {i} collides");
        }
    }
}
