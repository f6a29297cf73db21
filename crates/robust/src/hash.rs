//! The workspace's one content digest: 64-bit FNV-1a. Not cryptographic
//! — it keys local caches and fingerprints, where speed and stability
//! across runs and platforms are what matters.

/// The digest of no bytes (the FNV-1a offset basis).
pub const FNV1A_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `hash`, the digest of everything before them.
#[must_use]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a digest of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_EMPTY, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), FNV1A_EMPTY);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
