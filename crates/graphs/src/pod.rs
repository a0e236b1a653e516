//! POD reinterpretation of frozen tables: shared byte buffers viewed as
//! typed rows without copying.
//!
//! The serving side of this workspace (the snapshot format, the `ccd`
//! daemon) wants the hot tables — distance entries, provenance tags, route
//! arena sections — addressable **in place** from an `mmap`'d snapshot,
//! with zero deserialization. This module is the one place that
//! reinterpretation is allowed to happen:
//!
//! * [`ByteOwner`] — an `unsafe` trait for stable byte allocations (an
//!   `mmap`'d file, an aligned heap buffer). The contract is pointer
//!   stability: `bytes()` must return the same allocation every call.
//! * [`SharedSlice`] — a typed window `&[T]` into a [`ByteOwner`],
//!   validated (bounds + alignment) once at construction.
//! * [`PodData`] — either an owned `Vec<T>` or a [`SharedSlice`]; the
//!   storage type frozen tables hold so the same query code serves both
//!   heap-built and mapped oracles.
//! * [`AlignedBytes`] — an 8-byte-aligned owned buffer, the fallback owner
//!   when a snapshot arrives through a stream instead of a file.
//!
//! Byte order: shared views reinterpret file bytes in **native** order.
//! Snapshot files are little-endian, so loaders must only construct shared
//! views on little-endian targets and fall back to decode-copy elsewhere
//! (see `cc_core`'s snapshot module).

// The unsafe below is confined to `AlignedBytes`'s copy and view,
// `SharedSlice::as_slice` with the `Send`/`Sync` impls its cached pointer
// needs, and the `ByteOwner` trait contract — and every invariant (bounds,
// alignment, pointer stability) is checked or required at construction.
#![allow(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// A stable byte allocation that typed views can borrow from.
///
/// # Safety
///
/// Implementors guarantee that `bytes()` returns a slice with the **same
/// pointer and length on every call** for the whole lifetime of the value
/// (no reallocation, no interior mutability, no remapping). [`SharedSlice`]
/// caches validation results against that pointer.
pub unsafe trait ByteOwner: Send + Sync + fmt::Debug + 'static {
    /// The owned bytes.
    fn bytes(&self) -> &[u8];
}

/// An owned byte buffer backed by a `Vec<u64>`, so its base pointer is
/// 8-byte aligned. Copying a snapshot stream into one of these makes every
/// 64-byte-aligned section offset valid for `u8`/`u32`/`u64` views.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-byte-aligned allocation.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut buf: Vec<u64> = vec![0; words];
        // SAFETY: the Vec<u64> allocation is at least `bytes.len()` bytes
        // and u64 has no padding or validity requirements on raw bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                buf.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        AlignedBytes {
            words: buf,
            len: bytes.len(),
        }
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBytes({} bytes)", self.len)
    }
}

// SAFETY: the Vec is never touched after construction, so the pointer and
// length are stable for the owner's lifetime.
unsafe impl ByteOwner for AlignedBytes {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the allocation holds at least `len` initialized bytes
        // (zero-filled words, then overwritten by the copy).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for super::DirEntry {}
}

/// Plain-old-data element types a byte buffer may be reinterpreted as:
/// fixed size, no padding, every bit pattern valid.
pub trait Pod: Copy + Send + Sync + PartialEq + fmt::Debug + sealed::Sealed + 'static {}
impl Pod for u8 {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for DirEntry {}

/// Section alignment of the snapshot format: every section starts at a
/// multiple of this, relative to the snapshot's own first byte.
pub const SECTION_ALIGN: usize = 64;

/// Compile-time layout contract for every row type a snapshot section is
/// reinterpreted as.
///
/// Each implementation states the intended wire layout (`WIRE_SIZE`, the
/// sum of its field sizes) and the `LAYOUT_CHECKED` constant proves, at
/// compile time, that the in-memory layout matches it:
///
/// * `size_of::<Self>() == WIRE_SIZE` — no size drift;
/// * `FIELD_SIZE_SUM == WIRE_SIZE` — no interior or trailing padding, so
///   every byte of a row is a declared field and reinterpretation never
///   reads uninitialized padding;
/// * `SECTION_ALIGN % align_of::<Self>() == 0` — any 64-aligned section
///   offset (over an at-least-8-aligned owner base) satisfies the type's
///   alignment.
///
/// A layout drift — a reordered field, a changed `repr`, a platform where
/// the compiler would insert padding — breaks the build here instead of
/// corrupting a snapshot. The trait is sealed: new section row types must
/// be added in this module, which the `cc-analyze` POD manifest
/// cross-checks.
pub trait Section: Pod {
    /// Size in bytes of one row on the wire (and, checked, in memory).
    const WIRE_SIZE: usize;
    /// Sum of the declared field sizes; equal to [`Section::WIRE_SIZE`]
    /// exactly when the layout is padding-free.
    const FIELD_SIZE_SUM: usize;
    /// Forces the layout assertions; evaluated via the `const _` items
    /// below, so an impl with a drifted layout fails to compile.
    const LAYOUT_CHECKED: () = {
        assert!(
            std::mem::size_of::<Self>() == Self::WIRE_SIZE,
            "section row size drifted from its wire layout"
        );
        assert!(
            Self::FIELD_SIZE_SUM == Self::WIRE_SIZE,
            "section row has padding (field sizes do not sum to its size)"
        );
        assert!(
            SECTION_ALIGN.is_multiple_of(std::mem::align_of::<Self>()),
            "section row alignment does not divide the section alignment"
        );
    };
}

impl Section for u8 {
    const WIRE_SIZE: usize = 1;
    const FIELD_SIZE_SUM: usize = 1;
}
impl Section for u32 {
    const WIRE_SIZE: usize = 4;
    const FIELD_SIZE_SUM: usize = 4;
}
impl Section for u64 {
    const WIRE_SIZE: usize = 8;
    const FIELD_SIZE_SUM: usize = 8;
}
impl Section for DirEntry {
    const WIRE_SIZE: usize = 24;
    // id u16 + reserved u16 + reserved2 u32 + byte_off u64 + byte_len u64.
    const FIELD_SIZE_SUM: usize = 2 + 2 + 4 + 8 + 8;
}

const _: () = <u8 as Section>::LAYOUT_CHECKED;
const _: () = <u32 as Section>::LAYOUT_CHECKED;
const _: () = <u64 as Section>::LAYOUT_CHECKED;
const _: () = <DirEntry as Section>::LAYOUT_CHECKED;

/// One section-directory entry, as laid out on the wire (24 bytes,
/// little-endian fields): the row type a mapped snapshot's directory is
/// reinterpreted as on little-endian targets.
///
/// Registered in the `cc-analyze` POD manifest; layout pinned by its
/// [`Section`] impl.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// Section id (format-specific namespace).
    pub id: u16,
    /// Reserved, written as zero.
    pub reserved: u16,
    /// Reserved, written as zero.
    pub reserved2: u32,
    /// Section offset in bytes, relative to the snapshot's first byte.
    pub byte_off: u64,
    /// Section length in bytes.
    pub byte_len: u64,
}

/// A typed window `&[T]` into a [`ByteOwner`], keeping the owner alive.
///
/// Bounds and alignment are validated once in [`SharedSlice::new`], which
/// keeps the validated element pointer; the [`ByteOwner`] contract
/// (pointer stability) keeps that pointer good for every later access, so
/// an index costs what it costs on a `Vec`.
pub struct SharedSlice<T: Pod> {
    /// Keeps the allocation `ptr` points into alive.
    owner: Arc<dyn ByteOwner>,
    /// The first element, validated in [`SharedSlice::new`].
    ptr: *const T,
    byte_off: usize,
    len: usize,
    _marker: PhantomData<T>,
}

// SAFETY: `ptr` points into `owner`'s allocation, which is `Send + Sync`
// (a `ByteOwner` bound) and immutable, and the slice only ever hands out
// shared `&[T]` of a `Pod` (itself `Send + Sync`). Moving or sharing the
// view moves or shares nothing the owner does not already allow.
unsafe impl<T: Pod> Send for SharedSlice<T> {}
// SAFETY: as for `Send`: concurrent readers see the same immutable bytes.
unsafe impl<T: Pod> Sync for SharedSlice<T> {}

impl<T: Pod> SharedSlice<T> {
    /// A view of `len` elements of `T` starting `byte_off` bytes into
    /// `owner`'s allocation. Returns `None` when the window is out of
    /// bounds or the absolute address is not aligned for `T` — callers
    /// (snapshot loaders) fall back to a decode-copy in that case.
    pub fn new(owner: Arc<dyn ByteOwner>, byte_off: usize, len: usize) -> Option<Self> {
        let bytes = owner.bytes();
        let size = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_off.checked_add(size)?;
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes.as_ptr().wrapping_add(byte_off).cast::<T>();
        if !ptr.is_aligned() {
            return None;
        }
        Some(SharedSlice {
            owner,
            ptr,
            byte_off,
            len,
            _marker: PhantomData,
        })
    }

    /// The typed view. Native byte order — see the module docs.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` is `byte_off` bytes into the owner's allocation,
        // and `new` checked that `len` elements from it are in bounds and
        // aligned. The ByteOwner contract keeps that allocation at the
        // same address for as long as `owner` (held here) lives, so the
        // check still holds; T is Pod, so any bit pattern is a valid value.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice {
            owner: Arc::clone(&self.owner),
            ptr: self.ptr,
            byte_off: self.byte_off,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedSlice<{}>(off {}, len {})",
            std::any::type_name::<T>(),
            self.byte_off,
            self.len
        )
    }
}

/// The storage behind a frozen POD table: an owned `Vec<T>` (built in
/// memory) or a [`SharedSlice`] into a mapped snapshot (served in place).
///
/// Dereferences to `[T]` either way, so query code never distinguishes the
/// two. Equality and ordering compare element content, like `Vec<T>`.
/// Mutating accessors ([`PodData::push`], [`PodData::extend_from_slice`])
/// convert a shared table to an owned copy first — freezing is the normal
/// direction, so that copy only happens when a loaded table is extended,
/// which no serving path does.
#[derive(Clone, Debug)]
pub struct PodData<T: Pod>(Inner<T>);

#[derive(Clone, Debug)]
enum Inner<T: Pod> {
    Owned(Vec<T>),
    Shared(SharedSlice<T>),
}

impl<T: Pod> PodData<T> {
    /// The element slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Inner::Owned(v) => v,
            Inner::Shared(s) => s.as_slice(),
        }
    }

    /// `true` when the table is a view into a shared byte buffer (zero-copy
    /// snapshot) rather than an owned allocation.
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Inner::Shared(_))
    }

    /// Owned mutable access, converting a shared view into an owned copy on
    /// first use.
    fn make_owned(&mut self) -> &mut Vec<T> {
        if let Inner::Shared(s) = &self.0 {
            self.0 = Inner::Owned(s.as_slice().to_vec());
        }
        match &mut self.0 {
            Inner::Owned(v) => v,
            Inner::Shared(_) => unreachable!("converted above"),
        }
    }

    /// The element slice, mutable (copy-on-write for shared tables).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.make_owned()
    }

    /// Appends one element (copy-on-write for shared tables).
    pub fn push(&mut self, value: T) {
        self.make_owned().push(value);
    }

    /// Appends a slice (copy-on-write for shared tables).
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.make_owned().extend_from_slice(values);
    }
}

impl<T: Pod> Extend<T> for PodData<T> {
    /// Appends every element (copy-on-write for shared tables).
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        self.make_owned().extend(values);
    }
}

impl<T: Pod> Deref for PodData<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for PodData<T> {
    fn default() -> Self {
        PodData(Inner::Owned(Vec::new()))
    }
}

impl<T: Pod> From<Vec<T>> for PodData<T> {
    fn from(v: Vec<T>) -> Self {
        PodData(Inner::Owned(v))
    }
}

impl<T: Pod> From<SharedSlice<T>> for PodData<T> {
    fn from(s: SharedSlice<T>) -> Self {
        PodData(Inner::Shared(s))
    }
}

impl<T: Pod> PartialEq for PodData<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for PodData<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_layouts_match_their_wire_contracts() {
        // The real checks are the `const _` items above (compile-time);
        // this pins the same facts at run time for the test report.
        assert_eq!(std::mem::size_of::<DirEntry>(), DirEntry::WIRE_SIZE);
        assert_eq!(DirEntry::FIELD_SIZE_SUM, DirEntry::WIRE_SIZE);
        assert_eq!(SECTION_ALIGN % std::mem::align_of::<DirEntry>(), 0);
        assert_eq!(std::mem::size_of::<u64>(), <u64 as Section>::WIRE_SIZE);
    }

    #[test]
    fn dir_entries_reinterpret_from_le_bytes() {
        let mut bytes = Vec::new();
        for (id, off, len) in [(1u16, 64u64, 3u64), (4, 128, 12)] {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&0u16.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&off.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
        }
        let owner: Arc<dyn ByteOwner> = Arc::new(AlignedBytes::copy_from(&bytes));
        let s = SharedSlice::<DirEntry>::new(owner, 0, 2).expect("aligned");
        if cfg!(target_endian = "little") {
            assert_eq!(
                s.as_slice()[1],
                DirEntry {
                    id: 4,
                    reserved: 0,
                    reserved2: 0,
                    byte_off: 128,
                    byte_len: 12,
                }
            );
        }
    }

    #[test]
    fn aligned_bytes_round_trip() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..len as u8).collect();
            let a = AlignedBytes::copy_from(&src);
            assert_eq!(a.bytes(), &src[..]);
            assert_eq!(a.bytes().as_ptr() as usize % 8, 0, "8-byte aligned");
        }
    }

    #[test]
    fn shared_slice_views_typed_rows() {
        let mut bytes = Vec::new();
        for v in [7u32, 11, 13, 17] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let owner: Arc<dyn ByteOwner> = Arc::new(AlignedBytes::copy_from(&bytes));
        let s = SharedSlice::<u32>::new(Arc::clone(&owner), 0, 4).expect("aligned");
        // Native == little-endian on every CI target; the snapshot loaders
        // gate shared views on target_endian = "little".
        if cfg!(target_endian = "little") {
            assert_eq!(s.as_slice(), &[7, 11, 13, 17]);
        }
        let tail = SharedSlice::<u32>::new(Arc::clone(&owner), 8, 2).expect("mid view");
        assert_eq!(tail.as_slice().len(), 2);
        assert!(
            SharedSlice::<u32>::new(Arc::clone(&owner), 8, 3).is_none(),
            "out of bounds"
        );
        assert!(
            SharedSlice::<u32>::new(Arc::clone(&owner), 2, 1).is_none(),
            "misaligned"
        );
        assert!(SharedSlice::<u8>::new(owner, 2, 1).is_some(), "u8 any off");
    }

    #[test]
    fn pod_data_owned_and_shared_compare_equal() {
        let mut bytes = Vec::new();
        for v in [3u32, 5, 9] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let owner: Arc<dyn ByteOwner> = Arc::new(AlignedBytes::copy_from(&bytes));
        let shared: PodData<u32> = SharedSlice::new(owner, 0, 3).expect("aligned").into();
        if cfg!(target_endian = "little") {
            let owned: PodData<u32> = vec![3, 5, 9].into();
            assert_eq!(owned, shared);
            assert!(!owned.is_shared());
            assert!(shared.is_shared());
            assert_eq!(&shared[1..], &[5, 9]);
        }
    }

    #[test]
    fn mutation_converts_shared_to_owned() {
        let bytes = 42u32.to_le_bytes();
        let owner: Arc<dyn ByteOwner> = Arc::new(AlignedBytes::copy_from(&bytes));
        let mut data: PodData<u32> = SharedSlice::new(owner, 0, 1).expect("aligned").into();
        data.push(7);
        assert!(!data.is_shared(), "copy-on-write");
        if cfg!(target_endian = "little") {
            assert_eq!(&data[..], &[42, 7]);
        }
        let mut empty = PodData::<u8>::default();
        empty.extend_from_slice(&[1, 2]);
        assert_eq!(&empty[..], &[1, 2]);
        let owner: Arc<dyn ByteOwner> = Arc::new(AlignedBytes::copy_from(&[5, 6]));
        let mut written: PodData<u8> = SharedSlice::new(owner, 0, 2).expect("u8").into();
        written.as_mut_slice()[1] = 9;
        assert!(!written.is_shared(), "copy-on-write");
        assert_eq!(&written[..], &[5, 9]);
    }
}
