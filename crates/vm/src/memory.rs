//! VM memory: a little-endian 32-bit address space, materialized on
//! demand.
//!
//! Addresses are 32-bit offsets, mirroring the paper's x86 target.
//! Address 0 is never mapped, so null dereferences fault cleanly. The
//! mapped addresses `[1, size)` split at the frame stack's base into two
//! regions:
//!
//! * `[1, split)` holds data, bss and the bump-allocated heap;
//! * `[split, size)` holds the frame stack.
//!
//! Each region is backed by a byte vector that covers a prefix of it,
//! the region's *materialized* part. A read past that part returns 0,
//! the value a zero-filled memory would hold there; a write past it
//! first grows the vector (at least doubling, capped at the region's
//! size). A run therefore pays for the bytes it touches, not for the
//! megabytes its configuration allows, while every value and every
//! fault equals those of one zero-filled array of `size` bytes (the
//! reference model in this module's tests).
//!
//! A region's offsets are taken from its base with wrapping arithmetic,
//! so an address below the base wraps out of range and one compare
//! decides whether an access lies in the materialized part (address 0
//! fails both regions). General accesses probe the low region, then the
//! stack; the `*_stack_u32` accessors, used by the fused local and
//! argument superinstructions, probe the stack only. Faults, zero reads,
//! growth and accesses that straddle the split are handled out of line.

use crate::error::VmError;
use std::borrow::Cow;
use std::ops::Range;

/// Smallest step by which a region's materialized part grows.
const MIN_GROWTH: usize = 4096;

/// One region: `bytes` materializes `[base, base + bytes.len())` of the
/// region's addresses `[base, base + cap)`.
#[derive(Debug, Clone)]
struct Region {
    base: u32,
    cap: u32,
    bytes: Vec<u8>,
}

impl Region {
    /// The materialized bytes at `[addr, addr + N)`, if all of them are.
    #[inline(always)]
    fn get<const N: usize>(&self, addr: u32) -> Option<&[u8; N]> {
        let off = addr.wrapping_sub(self.base) as usize;
        self.bytes.get(off..off.checked_add(N)?)?.try_into().ok()
    }

    /// [`Region::get`], mutably.
    #[inline(always)]
    fn get_mut<const N: usize>(&mut self, addr: u32) -> Option<&mut [u8; N]> {
        let off = addr.wrapping_sub(self.base) as usize;
        self.bytes
            .get_mut(off..off.checked_add(N)?)?
            .try_into()
            .ok()
    }

    /// The index range of `[addr, addr + len)` in `bytes`, if all of it
    /// is materialized.
    #[inline(always)]
    fn span(&self, addr: u32, len: u32) -> Option<Range<usize>> {
        let off = addr.wrapping_sub(self.base) as usize;
        let end = off.checked_add(len as usize)?;
        (end <= self.bytes.len()).then_some(off..end)
    }

    /// Copy `[addr, addr + out.len())`, which lies in the region, into
    /// `out`, reading 0 past the materialized part.
    fn read(&self, addr: u32, out: &mut [u8]) {
        let off = ((addr - self.base) as usize).min(self.bytes.len());
        let have = (self.bytes.len() - off).min(out.len());
        out[..have].copy_from_slice(&self.bytes[off..off + have]);
        out[have..].fill(0);
    }

    /// Materialize `[addr, addr + len)`, which lies in the region, and
    /// return it.
    fn materialize(&mut self, addr: u32, len: u32) -> &mut [u8] {
        let off = (addr - self.base) as usize;
        let need = off + len as usize;
        let have = self.bytes.len();
        if need > have {
            let grown = need.max(2 * have).max(MIN_GROWTH).min(self.cap as usize);
            self.bytes.reserve_exact(grown - have);
            self.bytes.resize(grown, 0);
        }
        &mut self.bytes[off..need]
    }

    /// The bytes of `[from, to)`, which lies in the region, before its
    /// first NUL, and whether there is one.
    fn scan(&self, from: u32, to: u32) -> (&[u8], bool) {
        let off = (from - self.base) as usize;
        let to = (to - self.base) as usize;
        let start = off.min(self.bytes.len());
        let end = to.min(self.bytes.len()).max(start);
        let bytes = &self.bytes[start..end];
        match bytes.iter().position(|&b| b == 0) {
            Some(n) => (&bytes[..n], true),
            // Past the materialized part every byte reads 0.
            None => (bytes, to > end.max(off)),
        }
    }
}

/// The VM's address space.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Data, bss and heap: `[1, split)`.
    low: Region,
    /// The frame stack: `[split, size)`.
    stack: Region,
    size: u32,
}

impl Memory {
    /// An address space of `size` bytes whose frame stack starts at
    /// `split`, with `[1, eager)` (data and bss) materialized up front
    /// and nothing else.
    ///
    /// # Panics
    ///
    /// If `split` is 0 or above `size`.
    pub fn new(split: u32, size: u32, eager: u32) -> Memory {
        assert!(
            (1..=size).contains(&split),
            "the stack base {split} must lie in [1, {size}]"
        );
        let low_cap = split - 1;
        Memory {
            low: Region {
                base: 1,
                cap: low_cap,
                bytes: vec![0; eager.saturating_sub(1).min(low_cap) as usize],
            },
            stack: Region {
                base: split,
                cap: size - split,
                bytes: Vec::new(),
            },
            size,
        }
    }

    /// Mapped size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Bytes materialized so far, over both regions.
    pub(crate) fn materialized(&self) -> usize {
        self.low.bytes.len() + self.stack.bytes.len()
    }

    fn check(&self, addr: u32, size: u32) -> Result<(), VmError> {
        let end = u64::from(addr) + u64::from(size);
        if addr == 0 || end > u64::from(self.size) {
            return Err(VmError::BadAddress { addr, size });
        }
        Ok(())
    }

    /// How many of the `len` bytes from `addr` lie in the low region.
    fn low_part(&self, addr: u32, len: u32) -> u32 {
        self.stack.base.saturating_sub(addr).min(len)
    }

    /// Copy the checked range `[addr, addr + out.len())` into `out`.
    fn read_checked(&self, addr: u32, out: &mut [u8]) {
        let low = self.low_part(addr, out.len() as u32);
        let (lo, hi) = out.split_at_mut(low as usize);
        if !lo.is_empty() {
            self.low.read(addr, lo);
        }
        if !hi.is_empty() {
            self.stack.read(addr + low, hi);
        }
    }

    /// Materialize the checked range `[addr, addr + len)` and hand each
    /// region's part to `write` with its offset into the range.
    fn write_checked(&mut self, addr: u32, len: u32, mut write: impl FnMut(&mut [u8], usize)) {
        let low = self.low_part(addr, len);
        if low > 0 {
            write(self.low.materialize(addr, low), 0);
        }
        if len > low {
            write(self.stack.materialize(addr + low, len - low), low as usize);
        }
    }

    // The probes and the typed accessors built on them are always
    // inlined: `exec_op` runs one per memory operator, and left as
    // out-of-line calls they cost compressed runs several percent.
    #[inline(always)]
    fn load<const N: usize>(&self, addr: u32) -> Result<[u8; N], VmError> {
        if let Some(b) = self.low.get::<N>(addr) {
            return Ok(*b);
        }
        if let Some(b) = self.stack.get::<N>(addr) {
            return Ok(*b);
        }
        self.load_slow(addr)
    }

    #[cold]
    #[inline(never)]
    fn load_slow<const N: usize>(&self, addr: u32) -> Result<[u8; N], VmError> {
        self.check(addr, N as u32)?;
        let mut out = [0; N];
        self.read_checked(addr, &mut out);
        Ok(out)
    }

    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u32, v: [u8; N]) -> Result<(), VmError> {
        if let Some(b) = self.low.get_mut::<N>(addr) {
            *b = v;
            return Ok(());
        }
        if let Some(b) = self.stack.get_mut::<N>(addr) {
            *b = v;
            return Ok(());
        }
        self.store_slow(addr, &v)
    }

    #[cold]
    #[inline(never)]
    fn store_slow(&mut self, addr: u32, data: &[u8]) -> Result<(), VmError> {
        self.check(addr, data.len() as u32)?;
        self.write_checked(addr, data.len() as u32, |dst, at| {
            dst.copy_from_slice(&data[at..at + dst.len()]);
        });
        Ok(())
    }

    /// Read `len` bytes: borrowed when they are materialized in one
    /// region, assembled otherwise.
    #[inline]
    pub fn load_bytes(&self, addr: u32, len: u32) -> Result<Cow<'_, [u8]>, VmError> {
        if let Some(r) = self.low.span(addr, len) {
            return Ok(Cow::Borrowed(&self.low.bytes[r]));
        }
        if let Some(r) = self.stack.span(addr, len) {
            return Ok(Cow::Borrowed(&self.stack.bytes[r]));
        }
        self.check(addr, len)?;
        let mut out = vec![0; len as usize];
        self.read_checked(addr, &mut out);
        Ok(Cow::Owned(out))
    }

    /// Write bytes.
    #[inline]
    pub fn store_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), VmError> {
        let len = data.len() as u32;
        if let Some(r) = self.low.span(addr, len) {
            self.low.bytes[r].copy_from_slice(data);
            return Ok(());
        }
        if let Some(r) = self.stack.span(addr, len) {
            self.stack.bytes[r].copy_from_slice(data);
            return Ok(());
        }
        self.store_slow(addr, data)
    }

    /// Set `len` bytes to `byte`. The bounds are checked before anything
    /// is written or allocated.
    #[inline]
    pub fn fill(&mut self, addr: u32, len: u32, byte: u8) -> Result<(), VmError> {
        if let Some(r) = self.low.span(addr, len) {
            self.low.bytes[r].fill(byte);
            return Ok(());
        }
        if let Some(r) = self.stack.span(addr, len) {
            self.stack.bytes[r].fill(byte);
            return Ok(());
        }
        self.fill_slow(addr, len, byte)
    }

    #[cold]
    #[inline(never)]
    fn fill_slow(&mut self, addr: u32, len: u32, byte: u8) -> Result<(), VmError> {
        self.check(addr, len)?;
        self.write_checked(addr, len, |dst, _| dst.fill(byte));
        Ok(())
    }

    /// Copy `len` bytes within memory (overlap-safe).
    #[inline]
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) -> Result<(), VmError> {
        for region in [&mut self.low, &mut self.stack] {
            if let (Some(s), Some(d)) = (region.span(src, len), region.span(dst, len)) {
                region.bytes.copy_within(s, d.start);
                return Ok(());
            }
        }
        self.copy_slow(dst, src, len)
    }

    #[cold]
    #[inline(never)]
    fn copy_slow(&mut self, dst: u32, src: u32, len: u32) -> Result<(), VmError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut data = vec![0; len as usize];
        self.read_checked(src, &mut data);
        self.write_checked(dst, len, |out, at| {
            out.copy_from_slice(&data[at..at + out.len()]);
        });
        Ok(())
    }

    /// Read one byte.
    #[inline(always)]
    pub fn load_u8(&self, addr: u32) -> Result<u8, VmError> {
        self.load::<1>(addr).map(|[b]| b)
    }

    /// Read a 16-bit little-endian value.
    #[inline(always)]
    pub fn load_u16(&self, addr: u32) -> Result<u16, VmError> {
        self.load(addr).map(u16::from_le_bytes)
    }

    /// Read a 32-bit little-endian value.
    #[inline(always)]
    pub fn load_u32(&self, addr: u32) -> Result<u32, VmError> {
        self.load(addr).map(u32::from_le_bytes)
    }

    /// Read a 64-bit little-endian value.
    #[inline(always)]
    pub fn load_u64(&self, addr: u32) -> Result<u64, VmError> {
        self.load(addr).map(u64::from_le_bytes)
    }

    /// Read a 32-bit value that is expected on the frame stack: the
    /// same result as [`Memory::load_u32`], probing the stack region
    /// first.
    #[inline(always)]
    pub(crate) fn load_stack_u32(&self, addr: u32) -> Result<u32, VmError> {
        match self.stack.get::<4>(addr) {
            Some(b) => Ok(u32::from_le_bytes(*b)),
            None => self.load_slow(addr).map(u32::from_le_bytes),
        }
    }

    /// Write one byte.
    #[inline(always)]
    pub fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), VmError> {
        self.store(addr, [v])
    }

    /// Write a 16-bit little-endian value.
    #[inline(always)]
    pub fn store_u16(&mut self, addr: u32, v: u16) -> Result<(), VmError> {
        self.store(addr, v.to_le_bytes())
    }

    /// Write a 32-bit little-endian value.
    #[inline(always)]
    pub fn store_u32(&mut self, addr: u32, v: u32) -> Result<(), VmError> {
        self.store(addr, v.to_le_bytes())
    }

    /// Write a 64-bit little-endian value.
    #[inline(always)]
    pub fn store_u64(&mut self, addr: u32, v: u64) -> Result<(), VmError> {
        self.store(addr, v.to_le_bytes())
    }

    /// Write a 32-bit value that is expected on the frame stack: the
    /// same effect as [`Memory::store_u32`], probing the stack region
    /// first.
    #[inline(always)]
    pub(crate) fn store_stack_u32(&mut self, addr: u32, v: u32) -> Result<(), VmError> {
        match self.stack.get_mut::<4>(addr) {
            Some(b) => {
                *b = v.to_le_bytes();
                Ok(())
            }
            None => self.store_slow(addr, &v.to_le_bytes()),
        }
    }

    /// Read a float.
    #[inline(always)]
    pub fn load_f32(&self, addr: u32) -> Result<f32, VmError> {
        Ok(f32::from_bits(self.load_u32(addr)?))
    }

    /// Read a double.
    #[inline(always)]
    pub fn load_f64(&self, addr: u32) -> Result<f64, VmError> {
        Ok(f64::from_bits(self.load_u64(addr)?))
    }

    /// Read a NUL-terminated string of at most `max` bytes before the
    /// NUL (for natives like `putstr`).
    pub fn load_cstr(&self, addr: u32, max: u32) -> Result<Cow<'_, [u8]>, VmError> {
        self.check(addr, 1)?;
        let limit = (u64::from(addr) + u64::from(max)).min(u64::from(self.size)) as u32;
        let split = self.stack.base;
        let mut head: &[u8] = &[];
        if addr < split {
            let (bytes, found) = self.low.scan(addr, limit.min(split));
            if found {
                return Ok(Cow::Borrowed(bytes));
            }
            head = bytes;
        }
        let from = addr.max(split);
        if from < limit {
            let (bytes, found) = self.stack.scan(from, limit);
            if found {
                return Ok(if head.is_empty() {
                    Cow::Borrowed(bytes)
                } else {
                    Cow::Owned([head, bytes].concat())
                });
            }
        }
        Err(VmError::BadAddress {
            addr: limit,
            size: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The reference model: one zero-filled array of `size` bytes.
    struct Flat {
        bytes: Vec<u8>,
    }

    impl Flat {
        fn new(size: u32) -> Flat {
            Flat {
                bytes: vec![0; size as usize],
            }
        }

        fn check(&self, addr: u32, size: u32) -> Result<usize, VmError> {
            let end = addr as u64 + size as u64;
            if addr == 0 || end > self.bytes.len() as u64 {
                return Err(VmError::BadAddress { addr, size });
            }
            Ok(addr as usize)
        }

        fn load_bytes(&self, addr: u32, len: u32) -> Result<&[u8], VmError> {
            let a = self.check(addr, len)?;
            Ok(&self.bytes[a..a + len as usize])
        }

        fn store_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), VmError> {
            let a = self.check(addr, data.len() as u32)?;
            self.bytes[a..a + data.len()].copy_from_slice(data);
            Ok(())
        }

        fn fill(&mut self, addr: u32, len: u32, byte: u8) -> Result<(), VmError> {
            let a = self.check(addr, len)?;
            self.bytes[a..a + len as usize].fill(byte);
            Ok(())
        }

        fn copy(&mut self, dst: u32, src: u32, len: u32) -> Result<(), VmError> {
            let s = self.check(src, len)?;
            let d = self.check(dst, len)?;
            self.bytes.copy_within(s..s + len as usize, d);
            Ok(())
        }

        fn load_cstr(&self, addr: u32, max: u32) -> Result<&[u8], VmError> {
            let start = self.check(addr, 1)?;
            let limit = (addr as u64 + max as u64).min(self.bytes.len() as u64) as usize;
            match self.bytes[start..limit].iter().position(|&b| b == 0) {
                Some(n) => Ok(&self.bytes[start..start + n]),
                None => Err(VmError::BadAddress {
                    addr: limit as u32,
                    size: 1,
                }),
            }
        }
    }

    /// The 64-bit value of an unsigned little-endian load of `width`
    /// bytes, through the typed accessors.
    fn load_width(m: &Memory, width: u32, addr: u32) -> Result<u64, VmError> {
        match width {
            1 => m.load_u8(addr).map(u64::from),
            2 => m.load_u16(addr).map(u64::from),
            4 => m.load_u32(addr).map(u64::from),
            _ => m.load_u64(addr),
        }
    }

    fn store_width(m: &mut Memory, width: u32, addr: u32, v: u64) -> Result<(), VmError> {
        match width {
            1 => m.store_u8(addr, v as u8),
            2 => m.store_u16(addr, v as u16),
            4 => m.store_u32(addr, v as u32),
            _ => m.store_u64(addr, v),
        }
    }

    fn flat_load(f: &Flat, width: u32, addr: u32) -> Result<u64, VmError> {
        let b = f.load_bytes(addr, width)?;
        let mut le = [0; 8];
        le[..b.len()].copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut m = Memory::new(32, 64, 1);
        m.store_u8(8, 0xAB).unwrap();
        assert_eq!(m.load_u8(8).unwrap(), 0xAB);
        m.store_u16(10, 0x1234).unwrap();
        assert_eq!(m.load_u16(10).unwrap(), 0x1234);
        m.store_u32(12, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load_u32(12).unwrap(), 0xDEAD_BEEF);
        m.store_u64(16, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.load_u64(16).unwrap(), 0x0123_4567_89AB_CDEF);
        m.store_stack_u32(40, 7).unwrap();
        assert_eq!(m.load_stack_u32(40).unwrap(), 7);
        assert_eq!(m.load_u32(40).unwrap(), 7);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(8, 16, 8);
        m.store_u32(4, 0x0102_0304).unwrap();
        assert_eq!(&*m.load_bytes(4, 4).unwrap(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn null_and_oob_fault() {
        let mut m = Memory::new(8, 16, 8);
        assert!(m.load_u8(0).is_err());
        assert!(m.store_u32(0, 1).is_err());
        assert!(m.load_stack_u32(0).is_err());
        assert!(m.load_u32(14).is_err());
        assert!(m.load_u8(16).is_err());
        // Address arithmetic must not wrap.
        assert!(m.load_u32(u32::MAX - 1).is_err());
        assert!(m.store_stack_u32(u32::MAX - 1, 1).is_err());
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let mut m = Memory::new(16, 32, 1);
        m.store_bytes(4, &[1, 2, 3, 4, 5]).unwrap();
        m.copy(6, 4, 5).unwrap();
        assert_eq!(&*m.load_bytes(6, 5).unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn cstr_reading() {
        let mut m = Memory::new(16, 32, 1);
        m.store_bytes(4, b"hi\0junk").unwrap();
        assert_eq!(&*m.load_cstr(4, 16).unwrap(), b"hi");
        // Unterminated within max -> error.
        m.store_bytes(20, &[65; 12]).unwrap();
        assert!(m.load_cstr(20, 8).is_err());
    }

    #[test]
    fn reads_past_the_materialized_end_return_zero() {
        let mut m = Memory::new(1 << 16, 1 << 17, 100);
        assert_eq!(m.materialized(), 99);
        // Inside each region but past its materialized part: zeros, and
        // nothing grows.
        assert_eq!(m.load_u64(5_000).unwrap(), 0);
        assert_eq!(m.load_u32((1 << 16) + 64).unwrap(), 0);
        assert_eq!(m.load_stack_u32((1 << 16) + 64).unwrap(), 0);
        assert_eq!(&*m.load_bytes(96, 8).unwrap(), &[0; 8]);
        assert_eq!(&*m.load_cstr(90, 100).unwrap(), b"");
        assert_eq!(m.materialized(), 99);
        // A load straddling the materialized end sees the written bytes,
        // then zeros.
        m.store_u8(99, 0xAA).unwrap();
        assert_eq!(m.materialized(), 99);
        assert_eq!(m.load_u32(99).unwrap(), 0xAA);
    }

    #[test]
    fn a_write_may_straddle_the_split() {
        let split = 1 << 12;
        let mut m = Memory::new(split, split + 4096, 1);
        m.store_u64(split - 3, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(m.load_u64(split - 3).unwrap(), 0x0807_0605_0403_0201);
        assert_eq!(m.load_stack_u32(split).unwrap(), 0x0706_0504);
        assert_eq!(&*m.load_bytes(split - 1, 2).unwrap(), &[3, 4]);
        m.fill(split - 2, 4, 0xEE).unwrap();
        assert_eq!(m.load_u32(split - 2).unwrap(), 0xEEEE_EEEE);
        m.copy(split - 8, split - 4, 8).unwrap();
        assert_eq!(m.load_u64(split - 8).unwrap(), 0x0706_EEEE_EEEE_0100);
        m.store_bytes(split - 2, b"ab\0").unwrap();
        assert_eq!(&*m.load_cstr(split - 2, 8).unwrap(), b"ab");
    }

    #[test]
    fn growth_doubles_and_stops_at_the_region_cap() {
        let split = 1 + 20_000;
        let mut m = Memory::new(split, split + 10_000, 1);
        m.store_u8(1, 1).unwrap();
        assert_eq!(m.low.bytes.len(), MIN_GROWTH);
        m.store_u8(MIN_GROWTH as u32 + 1, 1).unwrap();
        assert_eq!(m.low.bytes.len(), 2 * MIN_GROWTH);
        m.store_u8(4 * MIN_GROWTH as u32, 1).unwrap();
        assert_eq!(m.low.bytes.len(), 4 * MIN_GROWTH);
        // Doubling again would pass the cap: the region stops there.
        m.store_u8(split - 1, 1).unwrap();
        assert_eq!(m.low.bytes.len(), 20_000);
        assert_eq!(m.low.bytes.capacity(), 20_000);
        // The stack grows the same way, and its cap is the space's end.
        m.store_stack_u32(split, 1).unwrap();
        assert_eq!(m.stack.bytes.len(), MIN_GROWTH);
        m.fill(split + 9_000, 1_000, 3).unwrap();
        assert_eq!(m.stack.bytes.len(), 10_000);
        assert_eq!(m.materialized(), 30_000);
        assert!(m.store_u8(split + 10_000, 1).is_err());
        assert_eq!(m.materialized(), 30_000);
    }

    #[test]
    fn a_huge_fill_faults_before_touching_memory() {
        let mut m = Memory::new(1 << 20, 1 << 21, 64);
        assert_eq!(
            m.fill(0x40, u32::MAX, 1),
            Err(VmError::BadAddress {
                addr: 0x40,
                size: u32::MAX
            })
        );
        assert_eq!(m.materialized(), 63);
    }

    /// Where an operation's address is drawn from, resolved against the
    /// memory's current layout when the operation runs.
    fn anchor(m: &Memory, which: u8, delta: i32) -> u32 {
        let at = |base: u32| base.wrapping_add_signed(delta);
        match which % 7 {
            0 => 0,
            1 => at(1),
            2 => at(m.stack.base),
            3 => at(m.low.base + m.low.bytes.len() as u32),
            4 => at(m.stack.base + m.stack.bytes.len() as u32),
            5 => at(m.size),
            _ => u32::MAX,
        }
    }

    /// An access length: mostly short, sometimes long enough to cross
    /// a growth step, sometimes absurd.
    fn length(pick: u32) -> u32 {
        match pick % 8 {
            0 => 0,
            1..=5 => pick % 24,
            6 => pick % 9_000,
            _ => u32::MAX - pick % 4,
        }
    }

    type Op = (u8, (u8, i32), (u8, i32), u32, u64);

    /// Run one operation on both models and compare what it returns.
    fn step(m: &mut Memory, f: &mut Flat, op: Op) -> Result<(), TestCaseError> {
        let (kind, (a_which, a_delta), (b_which, b_delta), pick, value) = op;
        let addr = anchor(m, a_which, a_delta);
        let width = [1, 2, 4, 8][(pick % 4) as usize];
        match kind % 9 {
            0 => prop_assert_eq!(load_width(m, width, addr), flat_load(f, width, addr)),
            1 => prop_assert_eq!(
                store_width(m, width, addr, value),
                f.store_bytes(addr, &value.to_le_bytes()[..width as usize])
            ),
            2 => prop_assert_eq!(m.load_stack_u32(addr).map(u64::from), flat_load(f, 4, addr)),
            3 => prop_assert_eq!(
                m.store_stack_u32(addr, value as u32),
                f.store_bytes(addr, &(value as u32).to_le_bytes())
            ),
            4 => {
                let len = length(pick);
                prop_assert_eq!(
                    m.load_bytes(addr, len).map(|b| b.into_owned()),
                    f.load_bytes(addr, len).map(<[u8]>::to_vec)
                );
            }
            5 => {
                let len = length(pick) % (1 << 16);
                let data: Vec<u8> = (0..len).map(|i| (value >> (i % 8 * 8)) as u8).collect();
                prop_assert_eq!(m.store_bytes(addr, &data), f.store_bytes(addr, &data));
            }
            6 => {
                let max = length(pick);
                prop_assert_eq!(
                    m.load_cstr(addr, max).map(|b| b.into_owned()),
                    f.load_cstr(addr, max).map(<[u8]>::to_vec)
                );
            }
            7 => {
                // Overlapping copies: the source lies near the
                // destination as often as at another anchor.
                let src = if b_which % 2 == 0 {
                    addr.wrapping_add_signed(b_delta)
                } else {
                    anchor(m, b_which / 2, b_delta)
                };
                let len = length(pick);
                prop_assert_eq!(m.copy(addr, src, len), f.copy(addr, src, len));
            }
            _ => {
                let len = length(pick);
                prop_assert_eq!(
                    m.fill(addr, len, value as u8),
                    f.fill(addr, len, value as u8)
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn materialized_memory_matches_the_flat_model(
            split in 1u32..30_000,
            stack in 0u32..30_000,
            eager in 0u32..30_000,
            ops in prop::collection::vec(
                (any::<u8>(), (any::<u8>(), -8i32..=8), (any::<u8>(), -8i32..=8),
                 any::<u32>(), any::<u64>()),
                1..64,
            ),
        ) {
            let size = split + stack;
            let mut m = Memory::new(split, size, eager);
            let mut f = Flat::new(size);
            for op in ops {
                step(&mut m, &mut f, op)?;
            }
            // Every byte of the space agrees at the end.
            prop_assert_eq!(
                m.load_bytes(1, size.saturating_sub(1)).map(|b| b.into_owned()),
                f.load_bytes(1, size.saturating_sub(1)).map(<[u8]>::to_vec)
            );
            prop_assert!(m.low.bytes.len() <= m.low.cap as usize);
            prop_assert!(m.stack.bytes.len() <= m.stack.cap as usize);
        }
    }
}
