//! Property tests for the flat set-associative TLB: it must behave
//! exactly like the straightforward structure it replaced — one `Vec` of
//! tags per set, least recently used first, the set picked by
//! `tag % sets`.

use proptest::prelude::*;
use trident_tlb::SetAssocTlb;

/// The reference LRU: each set a `Vec`, most recently used at the back.
struct ModelTlb {
    sets: Vec<Vec<u64>>,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl ModelTlb {
    fn new(sets: usize, ways: usize) -> ModelTlb {
        ModelTlb {
            sets: vec![Vec::new(); sets],
            ways,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, tag: u64) -> &mut Vec<u64> {
        let count = self.sets.len() as u64;
        &mut self.sets[(tag % count) as usize]
    }

    fn touch(&mut self, tag: u64) -> bool {
        let ways = self.ways;
        let set = self.set(tag);
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.push(t);
            return true;
        }
        if set.len() == ways {
            set.remove(0);
        }
        set.push(tag);
        false
    }

    fn access(&mut self, tag: u64) -> bool {
        let hit = self.touch(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn probe(&mut self, tag: u64) -> bool {
        self.set(tag).contains(&tag)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Fill(u64),
    Probe(u64),
    Flush,
}

/// A shape (1 to 128 sets, a power of two; 1 to 16 ways) and an op
/// stream. Most tags come from a pool three times the capacity, so hits,
/// conflict evictions and refreshes all happen; a few are arbitrary
/// 64-bit tags, whose high bits must not disturb the set index.
fn shape_and_ops() -> impl Strategy<Value = (usize, usize, Vec<Op>)> {
    (0u32..8, 1usize..=16).prop_flat_map(|(log_sets, ways)| {
        let sets = 1usize << log_sets;
        let pool = 3 * (sets * ways) as u64;
        let op = (0u8..40, any::<u64>()).prop_map(move |(kind, raw)| {
            let tag = if raw.is_multiple_of(16) {
                raw
            } else {
                raw % pool
            };
            match kind {
                0..=27 => Op::Access(tag),
                28..=33 => Op::Fill(tag),
                34..=38 => Op::Probe(tag),
                _ => Op::Flush,
            }
        });
        (Just(sets), Just(ways), prop::collection::vec(op, 1..400))
    })
}

proptest! {
    /// Every `access` and `probe` answer, and the hit and miss counters
    /// after every op, match the reference; at the end every pool tag
    /// probes alike, so both hold the same entries.
    #[test]
    fn flat_tlb_matches_the_per_set_vec_lru((sets, ways, ops) in shape_and_ops()) {
        let mut tlb = SetAssocTlb::new(sets * ways, ways);
        let mut model = ModelTlb::new(sets, ways);
        prop_assert_eq!(tlb.entries(), sets * ways);
        for op in ops {
            match op {
                Op::Access(tag) => prop_assert_eq!(tlb.access(tag), model.access(tag), "{:?}", op),
                Op::Fill(tag) => {
                    tlb.fill(tag);
                    model.touch(tag);
                }
                Op::Probe(tag) => prop_assert_eq!(tlb.probe(tag), model.probe(tag), "{:?}", op),
                Op::Flush => {
                    tlb.flush();
                    model.sets.iter_mut().for_each(Vec::clear);
                }
            }
            prop_assert_eq!(tlb.hits(), model.hits);
            prop_assert_eq!(tlb.misses(), model.misses);
        }
        for tag in 0..3 * (sets * ways) as u64 {
            prop_assert_eq!(tlb.probe(tag), model.probe(tag), "tag {}", tag);
        }
    }
}
