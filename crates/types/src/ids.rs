//! Validator identities.

use std::fmt;

/// Identity of a validator `v_i` in the system `V = {v_1, …, v_n}`.
///
/// Identities are small dense integers so per-validator state can live in
/// flat vectors. Each identity deterministically maps to a keypair seed,
/// making "public keys are common knowledge" (paper §3.1) trivially true.
///
/// ```
/// use tobsvd_types::ValidatorId;
/// let v = ValidatorId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValidatorId(u32);

impl ValidatorId {
    /// Creates the identity of validator `i` (0-based).
    pub fn new(i: u32) -> Self {
        ValidatorId(i)
    }

    /// The dense 0-based index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// The raw u32 value.
    pub fn raw(&self) -> u32 {
        self.0
    }

    /// The keypair seed conventionally used by this validator.
    pub fn key_seed(&self) -> u64 {
        // Offset so validator seeds never collide with other seed uses.
        0x5641_4c00_0000_0000 | u64::from(self.0)
    }

    /// Iterator over the first `n` validator identities.
    pub fn all(n: usize) -> impl Iterator<Item = ValidatorId> {
        (0..n as u32).map(ValidatorId)
    }
}

impl fmt::Display for ValidatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        assert_eq!(ValidatorId::new(7).index(), 7);
        assert_eq!(ValidatorId::new(7).raw(), 7);
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<_> = ValidatorId::all(3).collect();
        assert_eq!(ids, vec![ValidatorId::new(0), ValidatorId::new(1), ValidatorId::new(2)]);
    }

    #[test]
    fn key_seeds_distinct() {
        assert_ne!(ValidatorId::new(0).key_seed(), ValidatorId::new(1).key_seed());
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ValidatorId::new(1) < ValidatorId::new(2));
    }
}
