//! A set-associative TLB structure with LRU replacement.

/// A set-associative translation cache over abstract tags.
///
/// Tags are page numbers in units of the page size the structure caches
/// (the caller shifts). A fully-associative structure is expressed as
/// `ways == entries`.
///
/// # Examples
///
/// ```
/// use trident_tlb::SetAssocTlb;
///
/// let mut tlb = SetAssocTlb::new(4, 4); // fully associative, 4 entries
/// assert!(!tlb.access(7));
/// assert!(tlb.access(7));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    /// Every set's tags in one flat array, `ways` slots per set. The first
    /// `fill[set]` slots of a set are live, least recently used first.
    tags: Vec<u64>,
    /// Live entries per set.
    fill: Vec<usize>,
    ways: usize,
    /// `sets - 1`: the set count is a power of two, so a mask selects the
    /// set.
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocTlb {
    /// Creates a TLB with `entries` total entries organized as `ways`-way
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or if the
    /// set count `entries / ways` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> SetAssocTlb {
        assert!(ways > 0 && entries > 0, "TLB cannot be empty");
        assert_eq!(entries % ways, 0, "entries must be a multiple of ways");
        let set_count = entries / ways;
        assert!(
            set_count.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocTlb {
            tags: vec![0; entries],
            fill: vec![0; set_count],
            ways,
            set_mask: set_count as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Total entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.tags.len()
    }

    fn set_of(&self, tag: u64) -> usize {
        (tag & self.set_mask) as usize
    }

    /// Looks up `tag`; on a hit refreshes its LRU position, on a miss
    /// inserts it (evicting the LRU way if the set is full). Returns
    /// whether it hit.
    pub fn access(&mut self, tag: u64) -> bool {
        let hit = self.touch(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inserts `tag` without counting a lookup (used for fill-on-L2-hit).
    pub fn fill(&mut self, tag: u64) {
        self.touch(tag);
    }

    /// Makes `tag` its set's most recently used entry, inserting it (and
    /// evicting the LRU way of a full set) if absent. Returns whether it
    /// was present.
    fn touch(&mut self, tag: u64) -> bool {
        let set_index = self.set_of(tag);
        let len = self.fill[set_index];
        let base = set_index * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set[..len].iter().position(|&t| t == tag) {
            // Most-recently-used lives at the back: shift the newer
            // entries down one slot and put `tag` last.
            set.copy_within(pos + 1..len, pos);
            set[len - 1] = tag;
            return true;
        }
        if len == self.ways {
            set.copy_within(1.., 0);
            set[len - 1] = tag;
        } else {
            set[len] = tag;
            self.fill[set_index] = len + 1;
        }
        false
    }

    /// Whether `tag` is currently cached (no LRU update, no counting).
    #[must_use]
    pub fn probe(&self, tag: u64) -> bool {
        let set_index = self.set_of(tag);
        let base = set_index * self.ways;
        self.tags[base..base + self.fill[set_index]].contains(&tag)
    }

    /// Drops all entries (counters are preserved).
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Lookup hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = SetAssocTlb::new(2, 2);
        t.access(1);
        t.access(2);
        t.access(1); // refresh 1; 2 becomes LRU
        t.access(3); // evicts 2
        assert!(t.probe(1));
        assert!(!t.probe(2));
        assert!(t.probe(3));
    }

    #[test]
    fn set_conflicts_evict_within_set_only() {
        // 4 entries, 2-way => 2 sets; even tags map to set 0.
        let mut t = SetAssocTlb::new(4, 2);
        t.access(0);
        t.access(2);
        t.access(4); // evicts 0 from set 0
        assert!(!t.probe(0));
        assert!(t.probe(2) && t.probe(4));
        t.access(1); // set 1 untouched by the above
        assert!(t.probe(1));
    }

    #[test]
    fn fill_does_not_count() {
        let mut t = SetAssocTlb::new(2, 2);
        t.fill(9);
        assert_eq!(t.hits() + t.misses(), 0);
        assert!(t.access(9));
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn flush_clears_contents_not_counters() {
        let mut t = SetAssocTlb::new(2, 2);
        t.access(5);
        t.flush();
        assert!(!t.probe(5));
        assert_eq!(t.misses(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn rejects_ragged_geometry() {
        let _ = SetAssocTlb::new(5, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_a_set_count_that_is_not_a_power_of_two() {
        let _ = SetAssocTlb::new(12, 4);
    }
}
