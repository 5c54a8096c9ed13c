//! IPv4 prefixes and address allocation.
//!
//! Every AS in the synthetic topology originates one or more IPv4
//! prefixes. Individual addresses (router interfaces in facilities, probe
//! hosts, PlanetLab nodes) are carved out of these prefixes by an
//! [`IpAllocator`]. The datasets crate builds its CAIDA-style prefix→AS
//! table from the same prefixes, so IP-to-ASN mapping is consistent by
//! construction — except where the staleness model deliberately breaks it
//! to exercise the paper's §2.2 filters.

use crate::ids::Asn;
use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 prefix (`base/len`).
///
/// Invariant (enforced by [`Prefix::new`]): the host bits of `base` are
/// zero and `len <= 32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    base: u32,
    len: u8,
}

/// Error constructing a [`Prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length greater than 32.
    LengthTooLong,
    /// Host bits of the base address were not zero.
    HostBitsSet,
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthTooLong => write!(f, "prefix length must be <= 32"),
            PrefixError::HostBitsSet => write!(f, "host bits must be zero"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Prefix {
    /// Creates a prefix, validating that host bits are clear.
    pub fn new(base: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthTooLong);
        }
        let base_u = u32::from(base);
        let mask = Self::mask_for(len);
        if base_u & !mask != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Prefix { base: base_u, len })
    }

    fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network mask for this prefix.
    pub fn mask(&self) -> u32 {
        Self::mask_for(self.len)
    }

    /// Base address.
    pub fn base(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// Prefix length in bits (CIDR notation; a prefix always covers at
    /// least one address, so there is no `is_empty` counterpart).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered by this prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & self.mask() == self.base
    }

    /// The `i`-th address in the prefix (0 = base), or `None` if out of
    /// range.
    pub fn nth(&self, i: u64) -> Option<Ipv4Addr> {
        if i >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(self.base + i as u32))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

/// Sequential IPv4 allocator over the synthetic address space.
///
/// ASes receive `/18` blocks carved out of `10.0.0.0/8`-style space
/// extended over the full 32-bit range (this is a simulation — there is
/// no requirement to avoid reserved ranges, but we start at `16.0.0.0`
/// to keep addresses looking "public").
#[derive(Debug)]
pub struct IpAllocator {
    next_block: u32,
    block_bits: u8,
}

impl IpAllocator {
    /// Default per-AS prefix length.
    pub const DEFAULT_PREFIX_LEN: u8 = 18;

    /// Creates an allocator handing out `/len` blocks.
    pub fn new(len: u8) -> Self {
        assert!((8..=24).contains(&len), "unreasonable block size");
        IpAllocator {
            // Start allocations at 16.0.0.0.
            next_block: 16u32 << 24,
            block_bits: len,
        }
    }

    /// Allocates the next `/len` block.
    ///
    /// Panics if the synthetic address space is exhausted (cannot happen
    /// at the topology sizes used here; treat as a logic error).
    pub fn alloc_prefix(&mut self) -> Prefix {
        let base = self.next_block;
        let size = 1u32 << (32 - self.block_bits);
        self.next_block = self
            .next_block
            .checked_add(size)
            .expect("synthetic IPv4 space exhausted");
        Prefix::new(Ipv4Addr::from(base), self.block_bits)
            .expect("allocator produces aligned blocks")
    }
}

impl Default for IpAllocator {
    fn default() -> Self {
        IpAllocator::new(Self::DEFAULT_PREFIX_LEN)
    }
}

/// A prefix origination record: which AS originates which prefix.
///
/// Nothing constructs one: the generator keeps each AS's prefixes on
/// its [`crate::AsInfo`], and the datasets crate builds the CAIDA-style
/// `prefix2as` table from those directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origination {
    /// The originated prefix.
    pub prefix: Prefix,
    /// The originating AS.
    pub asn: Asn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_rejects_bad_inputs() {
        assert_eq!(
            Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 24),
            Err(PrefixError::HostBitsSet)
        );
        assert_eq!(
            Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 33),
            Err(PrefixError::LengthTooLong)
        );
    }

    #[test]
    fn prefix_contains_and_size() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16).unwrap();
        assert!(p.contains(Ipv4Addr::new(10, 1, 200, 3)));
        assert!(!p.contains(Ipv4Addr::new(10, 2, 0, 0)));
        assert_eq!(p.size(), 65536);
    }

    #[test]
    fn prefix_nth_addresses() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 0), 24).unwrap();
        assert_eq!(p.nth(0), Some(Ipv4Addr::new(10, 1, 2, 0)));
        assert_eq!(p.nth(255), Some(Ipv4Addr::new(10, 1, 2, 255)));
        assert_eq!(p.nth(256), None);
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let p = Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0).unwrap();
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(p.size(), 1u64 << 32);
    }

    #[test]
    fn allocator_hands_out_disjoint_blocks() {
        let mut alloc = IpAllocator::default();
        let a = alloc.alloc_prefix();
        let b = alloc.alloc_prefix();
        assert_ne!(a, b);
        assert!(!a.contains(b.base()));
        assert!(!b.contains(a.base()));
        assert_eq!(a.len(), IpAllocator::DEFAULT_PREFIX_LEN);
    }

    #[test]
    fn allocator_blocks_are_contiguous() {
        let mut alloc = IpAllocator::new(20);
        let a = alloc.alloc_prefix();
        let b = alloc.alloc_prefix();
        assert_eq!(u32::from(b.base()), u32::from(a.base()) + (1 << 12));
    }

    #[test]
    fn display_format() {
        let p = Prefix::new(Ipv4Addr::new(16, 0, 0, 0), 18).unwrap();
        assert_eq!(p.to_string(), "16.0.0.0/18");
    }
}
