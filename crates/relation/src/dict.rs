//! Per-column string dictionaries.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::value::STAR_CODE;

/// FNV-1a (64-bit) over the key's bytes: the hasher of [`Dict`]'s
/// index. Interning hashes one short string per CSV cell, where
/// SipHash's per-call setup dominates; the keys come from an operator's
/// input file, and no order is ever taken from the map (codes live in
/// `values`), so a keyed hash buys nothing here.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An append-only string dictionary mapping distinct attribute values to
/// dense `u32` codes.
///
/// One `Dict` exists per column of a [`crate::Relation`]. Codes are
/// assigned in first-seen order starting from zero; [`STAR_CODE`] is
/// reserved and never assigned. Derived relations (anonymized copies)
/// share their parent's dictionaries, so a suppressed copy of a relation
/// costs one `u32` per cell and no string duplication.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    values: Vec<Box<str>>,
    index: HashMap<Box<str>, u32, BuildHasherDefault<Fnv1a>>,
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its code. Existing values return their
    /// original code; new values are appended.
    ///
    /// # Panics
    ///
    /// Panics if the dictionary would exceed `u32::MAX - 1` distinct
    /// values (the last code is reserved for `★`).
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        assert!(
            u32::try_from(self.values.len()).is_ok_and(|c| c != STAR_CODE),
            "dictionary overflow: code space exhausted"
        );
        let code = self.values.len() as u32;
        let boxed: Box<str> = value.into();
        self.values.push(boxed.clone());
        self.index.insert(boxed, code);
        code
    }

    /// Looks up the code for `value` without interning.
    pub fn code(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Decodes `code` back to its string. Returns `None` for
    /// [`STAR_CODE`] and for out-of-range codes.
    pub fn decode(&self, code: u32) -> Option<&str> {
        if code == STAR_CODE {
            return None;
        }
        self.values.get(code as usize).map(AsRef::as_ref)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dict::new();
        let a = d.intern("Asian");
        let b = d.intern("African");
        let a2 = d.intern("Asian");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dict::new();
        for v in ["x", "y", "z"] {
            let c = d.intern(v);
            assert_eq!(d.decode(c), Some(v));
        }
    }

    #[test]
    fn decode_star_is_none() {
        let d = Dict::new();
        assert_eq!(d.decode(STAR_CODE), None);
        assert_eq!(d.decode(7), None);
    }

    #[test]
    fn code_does_not_intern() {
        let mut d = Dict::new();
        assert_eq!(d.code("missing"), None);
        d.intern("present");
        assert_eq!(d.code("present"), Some(0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn iter_in_code_order() {
        let mut d = Dict::new();
        d.intern("b");
        d.intern("a");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "b"), (1, "a")]);
    }
}
