//! A packed, growable bitmap over small integer keys.
//!
//! The metadata hot paths (dirty-chunk feeds, promotion-candidate indexes,
//! unit-head maps) all need an ordered set of small integers with O(1)
//! insert/remove/contains and allocation-free iteration. [`DenseBitSet`]
//! packs those sets 64 keys per word; iteration walks set bits in
//! ascending order with `trailing_zeros`, and [`DenseBitSet::drain_into`]
//! empties the set into a caller-provided buffer without giving up the
//! word storage — the drain-in-place API the promotion daemon's per-tick
//! loop relies on to stay zero-alloc in steady state.

/// A packed bitmap over `u64` keys, growable on insert.
///
/// # Examples
///
/// ```
/// use trident_types::DenseBitSet;
///
/// let mut set = DenseBitSet::new();
/// set.insert(3);
/// set.insert(130);
/// set.insert(3);
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(3));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 130]);
/// let mut out = Vec::new();
/// set.drain_into(&mut out);
/// assert_eq!(out, vec![3, 130]);
/// assert!(set.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set.
    #[inline]
    #[must_use]
    pub fn new() -> DenseBitSet {
        DenseBitSet::default()
    }

    /// Creates an empty set with capacity for keys below `keys`.
    #[inline]
    #[must_use]
    pub fn with_capacity(keys: u64) -> DenseBitSet {
        DenseBitSet {
            words: vec![0; Self::word_of(keys.saturating_sub(1)) + 1],
            len: 0,
        }
    }

    #[inline]
    fn word_of(key: u64) -> usize {
        usize::try_from(key / 64).expect("bitset key fits usize")
    }

    /// Number of keys in the set.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.words
            .get(Self::word_of(key))
            .is_some_and(|w| w & (1 << (key % 64)) != 0)
    }

    /// Inserts `key`, growing the word storage as needed. Returns whether
    /// the key was newly inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        let word = Self::word_of(key);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (key % 64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(newly);
        newly
    }

    /// Removes `key`. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(w) = self.words.get_mut(Self::word_of(key)) else {
            return false;
        };
        let mask = 1u64 << (key % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// Removes every key without shrinking the word storage.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the keys in ascending order. Allocation-free.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(i, &w)| BitIter {
                word: w,
                base: i as u64 * 64,
            })
    }

    /// Iterates the keys in `[start, end)` in ascending order without
    /// touching words outside the range. Allocation-free — the word-skipping
    /// scan behind ranged head/unit enumeration.
    #[inline]
    pub fn iter_range(&self, start: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        let first_word = Self::word_of(start);
        self.words
            .iter()
            .enumerate()
            .skip(first_word)
            .take_while(move |(i, _)| (*i as u64) * 64 < end)
            .flat_map(move |(i, &w)| {
                let base = i as u64 * 64;
                let mut word = w;
                if base < start {
                    word &= !0u64 << (start - base);
                }
                if base + 64 > end {
                    word &= (1u64 << (end - base)) - 1;
                }
                BitIter { word, base }
            })
    }

    /// Drains the set into `out` (cleared first) in ascending key order,
    /// keeping the word storage for reuse — the zero-alloc replacement for
    /// "take the set and collect it into a fresh `Vec`".
    #[inline]
    pub fn drain_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.len);
        for (i, w) in self.words.iter_mut().enumerate() {
            let mut word = core::mem::take(w);
            while word != 0 {
                let bit = word.trailing_zeros() as u64;
                out.push(i as u64 * 64 + bit);
                word &= word - 1;
            }
        }
        self.len = 0;
    }

    /// The smallest key in the set, if any.
    #[inline]
    #[must_use]
    pub fn first(&self) -> Option<u64> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i as u64 * 64 + u64::from(w.trailing_zeros()))
    }
}

impl FromIterator<u64> for DenseBitSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> DenseBitSet {
        let mut set = DenseBitSet::new();
        for key in iter {
            set.insert(key);
        }
        set
    }
}

/// Iterator over the set bits of one word.
struct BitIter {
    word: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::new();
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(63));
        assert!(!s.contains(62));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.remove(10_000));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_ascending() {
        let keys = [513u64, 2, 64, 1, 511];
        let s: DenseBitSet = keys.into_iter().collect();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.iter().collect::<Vec<_>>(), sorted);
        assert_eq!(s.first(), Some(1));
    }

    #[test]
    fn drain_keeps_storage_and_empties() {
        let mut s = DenseBitSet::with_capacity(256);
        s.insert(200);
        s.insert(7);
        let mut out = vec![99];
        s.drain_into(&mut out);
        assert_eq!(out, vec![7, 200]);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        // Storage survives; reinserting the same keys reallocates nothing.
        assert!(s.insert(200));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![200]);
    }

    #[test]
    fn iter_range_masks_both_ends() {
        let s: DenseBitSet = [0u64, 5, 63, 64, 65, 130, 200].into_iter().collect();
        assert_eq!(
            s.iter_range(5, 131).collect::<Vec<_>>(),
            vec![5, 63, 64, 65, 130]
        );
        assert_eq!(s.iter_range(6, 63).count(), 0);
        assert_eq!(s.iter_range(64, 65).collect::<Vec<_>>(), vec![64]);
        assert_eq!(s.iter_range(10, 10).count(), 0);
        assert_eq!(s.iter_range(150, 100_000).collect::<Vec<_>>(), vec![200]);
    }

    #[test]
    fn clear_resets() {
        let mut s: DenseBitSet = (0..100).collect();
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(50));
    }
}
