//! The precomputed QARMA-64 encryption key schedule.
//!
//! The reference data path re-derives `w1`, the per-round tweakeys and the
//! reflector key on every call. All of that material is a pure function of
//! the 128-bit key, so [`Schedule::new`] derives it once when the cipher is
//! built and the hot path only XORs precomputed words. There is one
//! schedule per key, for encryption; decryption is not precomputed (see
//! [`crate::reference`]).

use crate::cells::{from_cells, permute, to_cells};
use crate::constants::{ALPHA, ROUND_CONSTANTS, TAU_INV};
use crate::Key128;

/// A 64-bit packed state spread to one cell per byte (lane `d` = cell `d`),
/// as two little-endian `u64` halves — the in-register layout of the SIMD
/// data path, precomputed here so the hot loop just loads it.
#[cfg(target_arch = "x86_64")]
pub(crate) type Spread = [u64; 2];

/// Spreads a packed word into the one-cell-per-byte layout.
#[cfg(target_arch = "x86_64")]
pub(crate) fn spread_cells(x: u64) -> Spread {
    let mut halves = [0u64; 2];
    for d in 0..16 {
        halves[d / 8] |= ((x >> (60 - 4 * d)) & 0xF) << (8 * (d % 8));
    }
    halves
}

/// The precomputed QARMA-64 encryption key schedule, derived once per key
/// in `Qarma64::with_key`.
///
/// Only the encryption direction is scheduled: a PAC is a truncated
/// encryption, and nothing on the PA path decrypts. Decryption lives in
/// [`crate::reference::decrypt`], which derives its own schedule per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Schedule {
    /// Whitening `w0`, XORed into the input block.
    pub w_in: u64,
    /// Whitening `w1`, XORed into the output block; also the tweakey core
    /// of the extra forward round before the reflector.
    pub w_out: u64,
    /// Forward-round tweakeys `k0 ⊕ c_i` (tweak added per call).
    pub fwd_key: [u64; 8],
    /// Backward-round tweakeys `k0 ⊕ c_i ⊕ α`.
    pub bwd_key: [u64; 8],
    /// The reflector key `k0`, pre-permuted by τ⁻¹ and packed, so the
    /// reflector centre collapses to one table application and one XOR.
    pub reflect_key: u64,
    /// [`Schedule::w_in`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub w_in_spread: Spread,
    /// [`Schedule::w_out`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub w_out_spread: Spread,
    /// [`Schedule::fwd_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub fwd_key_spread: [Spread; 8],
    /// [`Schedule::bwd_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub bwd_key_spread: [Spread; 8],
    /// [`Schedule::reflect_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub reflect_key_spread: Spread,
}

impl Schedule {
    /// Derives the encryption schedule from a 128-bit key.
    pub fn new(key: Key128) -> Self {
        let w_in = key.w0();
        let w_out = w_in.rotate_right(1) ^ (w_in >> 63);
        let k0 = key.k0();
        let mut fwd_key = [0u64; 8];
        let mut bwd_key = [0u64; 8];
        for (i, c) in ROUND_CONSTANTS.iter().enumerate() {
            fwd_key[i] = k0 ^ c;
            bwd_key[i] = k0 ^ c ^ ALPHA;
        }
        let reflect_key = from_cells(&permute(&to_cells(k0), &TAU_INV));
        Self {
            w_in,
            w_out,
            fwd_key,
            bwd_key,
            reflect_key,
            #[cfg(target_arch = "x86_64")]
            w_in_spread: spread_cells(w_in),
            #[cfg(target_arch = "x86_64")]
            w_out_spread: spread_cells(w_out),
            #[cfg(target_arch = "x86_64")]
            fwd_key_spread: fwd_key.map(spread_cells),
            #[cfg(target_arch = "x86_64")]
            bwd_key_spread: bwd_key.map(spread_cells),
            #[cfg(target_arch = "x86_64")]
            reflect_key_spread: spread_cells(reflect_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_in_the_key() {
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        assert_eq!(Schedule::new(key), Schedule::new(key));
        assert_ne!(
            Schedule::new(key),
            Schedule::new(Key128::new(0x84be85ce9804e94b ^ 1, 0xec2802d4e0a488e9))
        );
    }

    #[test]
    fn derived_whitening_matches_reference_formula() {
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let s = Schedule::new(key);
        let w0 = key.w0();
        let w1 = w0.rotate_right(1) ^ (w0 >> 63);
        assert_eq!(s.w_in, w0);
        assert_eq!(s.w_out, w1);
    }

    #[test]
    fn round_keys_fold_constants_and_alpha() {
        let key = Key128::new(7, 9);
        let s = Schedule::new(key);
        for (i, c) in ROUND_CONSTANTS.iter().enumerate() {
            assert_eq!(s.fwd_key[i], key.k0() ^ c);
            assert_eq!(s.bwd_key[i], key.k0() ^ c ^ ALPHA);
        }
    }
}
