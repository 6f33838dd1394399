//! Bitstring identifiers for segment-tree nodes.
//!
//! Every node of a segment tree is uniquely identified by the bitstring of
//! the path from the root: the root is the empty string, appending `0`
//! selects the left child and `1` the right child (Section 3).  The ancestor
//! relation corresponds exactly to the prefix relation on bitstrings
//! (Property 3.2(1)), which is what the forward reduction exploits to turn
//! intersection joins into equality joins on bitstring fragments.

use std::fmt;

/// Maximum supported bitstring length.
///
/// Segment trees over `n` intervals have depth `O(log n)`, so 63 bits is far
/// more than any in-memory workload requires.  Concatenations performed by
/// the reduction never exceed the depth of a single tree.
pub const MAX_BITS: u8 = 63;

/// A bitstring of length at most [`MAX_BITS`], stored most-significant-bit
/// first in the low `len` bits of a `u64`.
///
/// The empty bitstring denotes the root of a segment tree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitString {
    /// The bits, left-aligned at bit index `len - 1` (i.e. the first bit of
    /// the string is the most significant of the low `len` bits).
    bits: u64,
    /// Number of valid bits.
    len: u8,
}

impl BitString {
    /// The empty bitstring (the segment-tree root).
    #[inline]
    pub const fn empty() -> Self {
        BitString { bits: 0, len: 0 }
    }

    /// Creates a bitstring from the low `len` bits of `bits` (interpreted
    /// most-significant-first).
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS` or if `bits` has bits set above `len`.
    #[inline]
    pub fn from_bits(bits: u64, len: u8) -> Self {
        assert!(len <= MAX_BITS, "bitstring too long");
        assert!(
            len == 64 || bits < (1u64 << len),
            "bits exceed declared length"
        );
        BitString { bits, len }
    }

    /// Parses a bitstring from a `0`/`1` text representation, e.g. `"010"`.
    /// The empty string parses to the empty bitstring.
    pub fn parse(text: &str) -> Option<Self> {
        if text.len() > MAX_BITS as usize {
            return None;
        }
        let mut bits = 0u64;
        for ch in text.chars() {
            bits <<= 1;
            match ch {
                '0' => {}
                '1' => bits |= 1,
                _ => return None,
            }
        }
        Some(BitString {
            bits,
            len: text.len() as u8,
        })
    }

    /// Number of bits.
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the empty bitstring.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Raw bit value (low `len` bits).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The bit at position `i` (0 = first/most significant position).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.bits >> (self.len - 1 - i)) & 1 == 1
    }

    /// Appends a single bit, producing the child node identifier.
    #[inline]
    pub fn child(self, right: bool) -> BitString {
        assert!(self.len < MAX_BITS, "bitstring too long");
        BitString {
            bits: (self.bits << 1) | (right as u64),
            len: self.len + 1,
        }
    }

    /// The parent node identifier (drops the last bit); `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<BitString> {
        if self.len == 0 {
            None
        } else {
            Some(BitString {
                bits: self.bits >> 1,
                len: self.len - 1,
            })
        }
    }

    /// Returns true if `self` is a prefix of `other` (equivalently: the node
    /// `self` is an ancestor of `other` or equal to it, Property 3.2(1)).
    #[inline]
    pub fn is_prefix_of(self, other: BitString) -> bool {
        self.len <= other.len && (other.bits >> (other.len - self.len)) == self.bits
    }

    /// Returns true if `self` is a *strict* prefix of `other`.
    #[inline]
    pub fn is_strict_prefix_of(self, other: BitString) -> bool {
        self.len < other.len && self.is_prefix_of(other)
    }

    /// Concatenation `self ◦ other`.
    ///
    /// # Panics
    ///
    /// Panics if the combined length exceeds [`MAX_BITS`].
    #[inline]
    pub fn concat(self, other: BitString) -> BitString {
        assert!(self.len + other.len <= MAX_BITS, "concatenation too long");
        BitString {
            bits: (self.bits << other.len) | other.bits,
            len: self.len + other.len,
        }
    }

    /// Concatenation of a sequence of bitstrings.
    pub fn concat_all<I: IntoIterator<Item = BitString>>(parts: I) -> BitString {
        parts
            .into_iter()
            .fold(BitString::empty(), BitString::concat)
    }

    /// The prefix consisting of the first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    #[inline]
    pub fn prefix(self, n: u8) -> BitString {
        assert!(n <= self.len, "prefix longer than bitstring");
        BitString {
            bits: self.bits >> (self.len - n),
            len: n,
        }
    }

    /// The suffix starting after the first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    #[inline]
    pub fn suffix(self, n: u8) -> BitString {
        assert!(n <= self.len, "suffix offset longer than bitstring");
        let len = self.len - n;
        let mask = if len == 0 { 0 } else { (1u64 << len) - 1 };
        BitString {
            bits: self.bits & mask,
            len,
        }
    }

    /// Splits the bitstring into the prefix of length `n` and the remaining
    /// suffix.
    #[inline]
    pub fn split_at(self, n: u8) -> (BitString, BitString) {
        (self.prefix(n), self.suffix(n))
    }

    /// All ancestors of the node identified by this bitstring, *including*
    /// the node itself (the `anc(u)` of Section 3), ordered from the root
    /// down to the node.
    pub fn ancestors(self) -> Vec<BitString> {
        (0..=self.len).map(|n| self.prefix(n)).collect()
    }

    /// The node's 1-based heap index `(1 << len) | bits`: the root is `1` and
    /// node `j` has children `2j` / `2j + 1` — the 0-based `2i + 1` /
    /// `2i + 2` numbering of [`FlatSegmentTree`](crate::FlatSegmentTree)
    /// plus one.  The leading `1` marks the length, so the index is injective
    /// over all bitstrings: a canonical integer name for a segment-tree node.
    #[inline]
    pub fn heap_index(self) -> u64 {
        (1u64 << self.len) | self.bits
    }

    /// The bitstring with the given 1-based heap index (the inverse of
    /// [`BitString::heap_index`]); `None` for `0`, which names no node.
    #[inline]
    pub fn from_heap_index(index: u64) -> Option<BitString> {
        if index == 0 {
            return None;
        }
        let len = (u64::BITS - 1 - index.leading_zeros()) as u8;
        Some(BitString {
            bits: index ^ (1u64 << len),
            len,
        })
    }

    /// Number of compositions into `parts` parts (binomial `C(len+parts-1, parts-1)`).
    pub fn composition_count(self, parts: usize) -> u64 {
        if parts == 0 {
            return u64::from(self.len == 0);
        }
        binomial(self.len as u64 + parts as u64 - 1, parts as u64 - 1)
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k.min(n));
    let mut result = 1u64;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return write!(f, "ε");
        }
        for i in 0..self.len {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A reusable walk over the compositions of a bitstring into a fixed number
/// of (possibly empty) parts — the set `𝔉(u, i)` used in the proof of
/// Lemma 4.10.  The number of compositions of a string of length `ℓ` into
/// `i` parts is `C(ℓ + i - 1, i - 1) = O(ℓ^{i-1})`
/// ([`BitString::composition_count`]).
///
/// The walk hands out parts by value and keeps its only state — the cut
/// positions — in a buffer reused across calls, so enumerating compositions
/// allocates nothing once the buffer has grown to `parts - 1` cuts.
#[derive(Debug, Clone, Default)]
pub struct CompositionWalk {
    /// Cut positions `0 <= c_1 <= c_2 <= ... <= c_{parts-1} <= len` of the
    /// current composition.
    cuts: Vec<u8>,
}

impl CompositionWalk {
    /// A walk with an empty cut buffer.
    pub fn new() -> Self {
        CompositionWalk::default()
    }

    /// Visits every composition of `source` into `parts` parts, calling
    /// `part` on each part in order — `parts` calls per composition,
    /// compositions one after the other — and returns the number of
    /// compositions.  Only the empty string decomposes into zero parts (one
    /// composition, no `part` calls).
    pub fn for_each_part(
        &mut self,
        source: BitString,
        parts: usize,
        mut part: impl FnMut(BitString),
    ) -> usize {
        if parts == 0 {
            return usize::from(source.is_empty());
        }
        let len = source.len();
        self.cuts.clear();
        self.cuts.resize(parts - 1, 0);
        let mut count = 0;
        loop {
            let mut prev = 0u8;
            for &cut in &self.cuts {
                part(source.prefix(cut).suffix(prev));
                prev = cut;
            }
            part(source.suffix(prev));
            count += 1;
            // Advance the cut vector (non-decreasing sequences over 0..=len):
            // bump the last cut that can move and pull every later cut to it.
            let Some(i) = self.cuts.iter().rposition(|&c| c < len) else {
                return count;
            };
            let next = self.cuts[i] + 1;
            self.cuts[i..].fill(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every composition of `b` into `parts` parts, one `Vec` each.
    fn compositions(b: BitString, parts: usize) -> Vec<Vec<BitString>> {
        let mut flat = Vec::new();
        let count = CompositionWalk::new().for_each_part(b, parts, |p| flat.push(p));
        if parts == 0 {
            return vec![Vec::new(); count];
        }
        assert_eq!(flat.len(), count * parts);
        flat.chunks(parts).map(<[BitString]>::to_vec).collect()
    }

    #[test]
    fn construction_and_text_round_trip() {
        let b = BitString::parse("0110").unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(format!("{b}"), "0110");
        assert_eq!(BitString::parse("").unwrap(), BitString::empty());
        assert_eq!(format!("{}", BitString::empty()), "ε");
        assert!(BitString::parse("01x").is_none());
    }

    #[test]
    fn child_and_parent_are_inverses() {
        let root = BitString::empty();
        let left = root.child(false);
        let lr = left.child(true);
        assert_eq!(format!("{lr}"), "01");
        assert_eq!(lr.parent(), Some(left));
        assert_eq!(left.parent(), Some(root));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn prefix_relation_matches_ancestry() {
        let a = BitString::parse("01").unwrap();
        let b = BitString::parse("0110").unwrap();
        assert!(a.is_prefix_of(b));
        assert!(a.is_strict_prefix_of(b));
        assert!(a.is_prefix_of(a));
        assert!(!a.is_strict_prefix_of(a));
        assert!(!b.is_prefix_of(a));
        let c = BitString::parse("10").unwrap();
        assert!(!a.is_prefix_of(c));
        // The empty string is a prefix of everything.
        assert!(BitString::empty().is_prefix_of(c));
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = BitString::parse("011").unwrap();
        let b = BitString::parse("10").unwrap();
        let ab = a.concat(b);
        assert_eq!(format!("{ab}"), "01110");
        assert_eq!(ab.split_at(3), (a, b));
        assert_eq!(BitString::concat_all([a, BitString::empty(), b]), ab);
    }

    #[test]
    fn ancestors_are_all_prefixes() {
        let b = BitString::parse("101").unwrap();
        let anc = b.ancestors();
        assert_eq!(anc.len(), 4);
        assert_eq!(anc[0], BitString::empty());
        assert_eq!(anc[3], b);
        for a in &anc {
            assert!(a.is_prefix_of(b));
        }
    }

    #[test]
    fn bit_access() {
        let b = BitString::parse("101").unwrap();
        assert!(b.bit(0));
        assert!(!b.bit(1));
        assert!(b.bit(2));
    }

    #[test]
    fn compositions_enumerate_all_splits() {
        let b = BitString::parse("10").unwrap();
        let comps: Vec<Vec<BitString>> = compositions(b, 2);
        // ℓ = 2, i = 2 → C(3,1) = 3 compositions: (ε,10), (1,0), (10,ε).
        assert_eq!(comps.len(), 3);
        assert_eq!(comps.len() as u64, b.composition_count(2));
        for parts in &comps {
            assert_eq!(BitString::concat_all(parts.iter().copied()), b);
            assert_eq!(parts.len(), 2);
        }
        // All compositions are distinct.
        let mut seen = std::collections::HashSet::new();
        for parts in &comps {
            assert!(seen.insert(parts.clone()));
        }
    }

    #[test]
    fn compositions_into_three_parts() {
        let b = BitString::parse("0110").unwrap();
        let comps: Vec<Vec<BitString>> = compositions(b, 3);
        // C(4+2, 2) = 15.
        assert_eq!(comps.len(), 15);
        assert_eq!(b.composition_count(3), 15);
        for parts in &comps {
            assert_eq!(BitString::concat_all(parts.iter().copied()), b);
        }
    }

    #[test]
    fn compositions_of_empty_string() {
        let comps: Vec<Vec<BitString>> = compositions(BitString::empty(), 2);
        assert_eq!(comps, vec![vec![BitString::empty(), BitString::empty()]]);
        let comps0: Vec<Vec<BitString>> = compositions(BitString::empty(), 0);
        assert_eq!(comps0, vec![Vec::new()]);
        let none: Vec<Vec<BitString>> = compositions(BitString::parse("1").unwrap(), 0);
        assert!(none.is_empty());
    }

    #[test]
    fn single_part_composition_is_identity() {
        let b = BitString::parse("0101").unwrap();
        let comps: Vec<Vec<BitString>> = compositions(b, 1);
        assert_eq!(comps, vec![vec![b]]);
    }

    #[test]
    fn one_walk_serves_many_sources() {
        // The reused cut buffer must not leak state between sources or part
        // counts.
        let mut walk = CompositionWalk::new();
        for text in ["0110", "", "1", "10101", "0"] {
            let b = BitString::parse(text).unwrap();
            for parts in [3, 1, 2, 0, 4] {
                let mut flat = Vec::new();
                let count = walk.for_each_part(b, parts, |p| flat.push(p));
                assert_eq!(count as u64, b.composition_count(parts), "{text} / {parts}");
                assert_eq!(flat, compositions(b, parts).concat(), "{text} / {parts}");
            }
        }
    }

    #[test]
    fn heap_index_is_the_one_based_heap_numbering() {
        assert_eq!(BitString::empty().heap_index(), 1);
        assert_eq!(BitString::parse("0").unwrap().heap_index(), 2);
        assert_eq!(BitString::parse("1").unwrap().heap_index(), 3);
        assert_eq!(BitString::parse("101").unwrap().heap_index(), 0b1101);
        assert_eq!(BitString::from_heap_index(0), None);
        // Children of heap index j sit at 2j and 2j + 1; the inverse
        // round-trips at every length, up to the longest bitstring.
        let mut b = BitString::empty();
        for i in 0..MAX_BITS {
            let j = b.heap_index();
            assert_eq!(b.child(false).heap_index(), 2 * j);
            assert_eq!(b.child(true).heap_index(), 2 * j + 1);
            assert_eq!(BitString::from_heap_index(j), Some(b));
            b = b.child(i % 3 == 0);
        }
        assert_eq!(b.len(), MAX_BITS);
        assert_eq!(BitString::from_heap_index(b.heap_index()), Some(b));
    }
}
