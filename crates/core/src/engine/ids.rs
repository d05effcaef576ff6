//! Checked narrowing helpers for the engine's typed id widths.
//!
//! The exploration engine stores configuration ids, edge targets,
//! probability-pool indices and CSR offsets as `u32` — a deliberate
//! memory/format decision (the durable frame and spill formats encode
//! them as 4-byte fields, and [`Plan`](crate::engine::Plan) caps
//! reachable exploration at the id width). Every narrowing from the
//! host-width `usize`/`u64`/`i64` world into those ids goes through
//! this module instead of a bare `as` cast, so overflow is either
//! routed to [`CoreError::OffsetOverflow`] (fallible constructors) or
//! aborts with a named invariant (per-edge fast paths where the bound
//! was already enforced upstream) — never silently wrapped.
//!
//! The `stab-lint` cast audit enforces the discipline: a raw narrowing
//! `as` in the engine must either call through here or carry a
//! `// lint: cast-ok(<reason>)` annotation.

use std::{collections::HashMap, hash::BuildHasherDefault, hash::Hasher};

use crate::CoreError;

/// Fallibly narrows a count or byte offset into a `u32` id, naming
/// `what` in the error.
///
/// ```
/// use stab_core::engine::ids;
/// assert_eq!(ids::try_u32(7, "config id").unwrap(), 7);
/// assert!(ids::try_u32(1 << 33, "config id").is_err());
/// ```
///
/// # Errors
///
/// Returns [`CoreError::OffsetOverflow`] when `value` exceeds
/// `u32::MAX`.
#[inline]
pub fn try_u32(value: u64, what: &'static str) -> Result<u32, CoreError> {
    u32::try_from(value).map_err(|_| CoreError::OffsetOverflow {
        what,
        value: value as u128,
    })
}

/// [`try_u32`] for host-width indices (lengths, `Vec` sizes).
///
/// # Errors
///
/// Returns [`CoreError::OffsetOverflow`] when `index` exceeds
/// `u32::MAX`.
#[inline]
pub fn try_id(index: usize, what: &'static str) -> Result<u32, CoreError> {
    try_u32(index as u64, what)
}

/// Narrows an in-bounds index into a `u32` id, aborting with the named
/// invariant if it does not fit.
///
/// For per-edge fast paths where the bound is already enforced upstream
/// (interning fails at the id width, `Plan` rejects caps above it), so
/// an overflow here is a logic error, not an input error. The check is
/// a single compare — cheap enough for hot loops — and turns silent
/// wrapping into a loud, named failure.
#[inline]
pub fn id_u32(index: usize, invariant: &'static str) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("{invariant}: {index} exceeds u32"))
}

/// [`id_u32`] for `u64` values (full-space indices, delta cursors).
#[inline]
pub fn id_u32_wide(value: u64, invariant: &'static str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("{invariant}: {value} exceeds u32"))
}

/// Narrows a delta-stream cursor's running `i64` target back to the
/// `u32` id it was encoded from, aborting if the stream is corrupt
/// enough to leave the range.
///
/// Zigzag delta decoding accumulates into `i64` (deltas may be
/// negative); a well-formed stream's partial sums are exactly the
/// original `u32` targets, so leaving `[0, u32::MAX]` means the stream
/// bytes are corrupt.
#[inline]
pub fn delta_target(acc: i64, invariant: &'static str) -> u32 {
    u32::try_from(acc).unwrap_or_else(|_| panic!("{invariant}: accumulated target {acc}"))
}

/// A hash map keyed by `u64` (full-space indices, probability bit
/// patterns), hashed by [`IdHasher`]: the engine's intern tables, row
/// memos and the equivariance gate's kernel caches.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The hasher of [`U64Map`]: the SplitMix64 finalizer over the key, a
/// full-avalanche mix that costs a few multiplies where the default
/// SipHash costs dozens of operations. The table places keys by their
/// low hash bits, so a plain multiply would pile the gate's stride-`2^k`
/// indices into one bucket group; every key bit here moves every hash
/// bit. The keys are values the engine computes, never outside input, so
/// dropping SipHash's resistance to crafted collisions costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let z = self.0 ^ key;
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_u32_round_trips_and_overflows() {
        assert_eq!(try_id(0usize, "config id"), Ok(0));
        assert_eq!(try_u32(u32::MAX as u64, "config id"), Ok(u32::MAX));
        let e = try_u32(u32::MAX as u64 + 1, "csr offset").unwrap_err();
        assert_eq!(
            e,
            CoreError::OffsetOverflow {
                what: "csr offset",
                value: u32::MAX as u128 + 1,
            }
        );
        assert!(e.to_string().contains("csr offset"));
    }

    #[test]
    fn id_u32_passes_in_range() {
        assert_eq!(id_u32(42, "test id"), 42);
        assert_eq!(id_u32(u32::MAX as usize, "test id"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "interned ids stay below u32::MAX")]
    fn id_u32_names_the_invariant_on_overflow() {
        id_u32(u32::MAX as usize + 1, "interned ids stay below u32::MAX");
    }

    #[test]
    fn delta_target_accepts_the_u32_range() {
        assert_eq!(delta_target(0, "t"), 0);
        assert_eq!(delta_target(u32::MAX as i64, "t"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "corrupt delta stream")]
    fn delta_target_rejects_negatives() {
        delta_target(-1, "corrupt delta stream");
    }

    #[test]
    fn id_hasher_spreads_strided_keys_over_the_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        // Keys 2^12 apart share their 12 low bits; their hashes must not.
        let low: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|k| build.hash_one(k << 12) & 0xff)
            .collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
        let mut map = U64Map::default();
        map.insert(7u64, 'a');
        assert_eq!(map.get(&7), Some(&'a'));
    }
}
