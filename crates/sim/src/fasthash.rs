//! A deterministic, multiply-based hasher for the simulator's
//! integer-keyed tables, shared with `cc-heap`.
//!
//! Users: the prefetch in-flight map ([`crate::MemorySystem`]) and
//! `cc-heap`'s allocator bookkeeping (`CcMalloc`'s page and
//! live-allocation maps, the snapshot ledger). Every key is an address
//! the simulator or the simulated allocator produced itself, never one
//! taken from outside the program, so there is no adversary to defend
//! against.
//!
//! The standard library's default hasher is SipHash with a per-process
//! random seed: robust against adversarial keys, but tens of nanoseconds
//! per probe — which is most of the cost of simulating a cache hit — and
//! randomly seeded, so iteration-order-dependent behaviour could differ
//! between runs. A multiply mix is an order of magnitude cheaper and
//! (being unseeded) fully deterministic across processes.
//!
//! # The finish fold
//!
//! `std`'s `HashMap` picks a bucket from the *low* bits of the hash (and
//! a control byte from the top seven). A bare `n · K` keeps every zero
//! low bit of `n`: page-aligned keys (13 zero bits at 8 KiB) all land in
//! the same bucket group, and lookups degrade to long probe sequences:
//! over 20K page-aligned keys a lookup measured ~600 ns, against ~7 ns
//! with the fold and ~20 ns with SipHash (std `HashMap`, 2-core Xeon
//! host). [`FastHasher::finish`] therefore rotates the
//! well-mixed high half of the product down into the low bits (the
//! `rotate_left(26)` finish rustc-hash 2 uses).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix hasher for integer keys (block and page addresses).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

/// 2^64 / φ, the usual Fibonacci-hashing multiplier: odd, so the multiply
/// is a bijection that carries each input bit into every higher bit.
/// Shared with the TLB's inline page table, which indexes by the top
/// bits of `page · K` directly.
pub(crate) const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // The product's high bits are its well-mixed ones; bring them
        // down to where the table reads its bucket index (module docs).
        self.hash.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 keys stored here, but
        // required for completeness): fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Rotate before mixing so field order matters for multi-field keys;
        // multiply to diffuse low-entropy (block-aligned) inputs upward.
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` keyed by simulated addresses, with the fast deterministic
/// hasher.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn h(n: u64) -> u64 {
        let mut x = FastHasher::default();
        x.write_u64(n);
        x.finish()
    }

    #[test]
    fn deterministic_and_spreading() {
        let mut set = HashSet::<u64, BuildHasherDefault<FastHasher>>::default();
        for b in (0..4096u64).map(|i| i * 64) {
            set.insert(b);
        }
        assert_eq!(set.len(), 4096);
        assert!(set.contains(&(64 * 100)));
        // Same key hashes identically across hasher instances.
        assert_eq!(h(0xABCD), h(0xABCD));
        // Block-aligned neighbours do not collide to the same hash.
        assert_ne!(h(0), h(64));
    }

    /// Distinct values of `finish() & 4095` — the bucket index of a
    /// 4096-bucket table — over 4096 consecutive keys `i · stride`.
    fn low_bit_spread(stride: u64) -> usize {
        let mut seen = vec![false; 4096];
        for i in 0..4096u64 {
            seen[(h(0x4000_0000 + i * stride) & 4095) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// The table indexes by the low bits, so aligned keys must still
    /// spread there. Random placement of 4096 keys into 4096 buckets
    /// fills ~63% of them; a finish that kept the key's zero low bits
    /// would fill at most 4096 / 2^13 = 1 (pages) or 4096 / 2^7 = 32
    /// (128 B blocks).
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        for stride in [8192, 128] {
            let distinct = low_bit_spread(stride);
            assert!(
                distinct >= 2048,
                "stride {stride}: only {distinct} of 4096 low-bit values used"
            );
        }
    }

    #[test]
    fn byte_fallback_handles_ragged_lengths() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different logical inputs may or may not collide; just ensure the
        // fallback runs and produces a stable value.
        let mut a2 = FastHasher::default();
        a2.write(&[1, 2, 3]);
        assert_eq!(a.finish(), a2.finish());
        let _ = b.finish();
    }
}
