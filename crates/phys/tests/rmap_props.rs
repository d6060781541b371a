//! Property-based tests for the packed frame table and reverse map: the
//! flag-byte records, head bitmap, and lazily-allocated owner slabs must
//! be indistinguishable from a plain `HashMap` model under arbitrary
//! allocate/free/retag sequences.

use std::collections::HashMap;

use proptest::prelude::*;
use trident_phys::{FrameTable, FrameUse, MappingOwner};
use trident_types::{AsId, Pfn, Vpn};

/// Two owner-slab regions' worth of frames, so sequences cross the slab
/// boundary and leave at least one region slab unmaterialized sometimes.
const TOTAL: u64 = 2048;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `2^order` frames at the `slot`-th aligned position, with
    /// an optional owner; skipped when any frame of the span is used.
    Alloc {
        order: u8,
        slot: u64,
        use_: FrameUse,
        owner: Option<(u32, u64)>,
    },
    /// Free the `nth` live unit (modulo the live count).
    Free(usize),
    /// Re-point or clear the `nth` live unit's owner.
    SetOwner(usize, Option<(u32, u64)>),
}

fn any_use() -> impl Strategy<Value = FrameUse> {
    prop_oneof![
        Just(FrameUse::User),
        Just(FrameUse::PageCache),
        Just(FrameUse::Kernel),
    ]
}

/// An owner anywhere in the packed slot's range (asid up to 65,535, vpn
/// below 2^48), with both limits drawn often.
fn any_owner() -> impl Strategy<Value = Option<(u32, u64)>> {
    let asid = prop_oneof![0u32..=u32::from(u16::MAX), Just(u32::from(u16::MAX))];
    let vpn = prop_oneof![0u64..1 << 48, Just((1u64 << 48) - 1)];
    (any::<bool>(), asid, vpn).prop_map(|(some, asid, vpn)| some.then_some((asid, vpn)))
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        // Uniform choice with the alloc arm doubled, so sequences keep a
        // healthy population of live units to free and retag.
        prop_oneof![
            (0u8..=6, 0u64..TOTAL, any_use(), any_owner()).prop_map(
                |(order, slot, use_, owner)| Op::Alloc {
                    order,
                    slot,
                    use_,
                    owner
                }
            ),
            (0u8..=6, 0u64..TOTAL, any_use(), any_owner()).prop_map(
                |(order, slot, use_, owner)| Op::Alloc {
                    order,
                    slot,
                    use_,
                    owner
                }
            ),
            (0usize..64).prop_map(Op::Free),
            ((0usize..64), any_owner()).prop_map(|(n, o)| Op::SetOwner(n, o)),
        ],
        1..150,
    )
}

/// The model's view of one unit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ModelUnit {
    order: u8,
    use_: FrameUse,
    owner: Option<MappingOwner>,
}

fn mk_owner(raw: Option<(u32, u64)>) -> Option<MappingOwner> {
    raw.map(|(asid, vpn)| MappingOwner {
        asid: AsId::new(asid),
        vpn: Vpn::new(vpn),
    })
}

proptest! {
    /// Packed table == HashMap model: membership, per-unit metadata,
    /// owner lookups, and the ranged unit enumeration (in both its
    /// allocating and buffer-reusing forms) agree after every operation.
    #[test]
    fn frame_table_matches_hashmap_model(ops in ops()) {
        let mut table = FrameTable::new(TOTAL);
        let mut model: HashMap<u64, ModelUnit> = HashMap::new();
        // Sorted unit heads, for nth-unit selection and span checks.
        let mut heads: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { order, slot, use_, owner } => {
                    let span = 1u64 << order;
                    let head = (slot % (TOTAL / span)) * span;
                    let overlaps = heads.iter().any(|&h| {
                        let m = model[&h];
                        h < head + span && head < h + (1u64 << m.order)
                    });
                    if overlaps {
                        continue;
                    }
                    table.mark_allocated(Pfn::new(head), order, use_, mk_owner(owner));
                    model.insert(head, ModelUnit { order, use_, owner: mk_owner(owner) });
                    let at = heads.partition_point(|&h| h < head);
                    heads.insert(at, head);
                }
                Op::Free(n) => {
                    if heads.is_empty() {
                        continue;
                    }
                    let head = heads.remove(n % heads.len());
                    let expect = model.remove(&head).expect("model tracks heads");
                    let unit = table.mark_freed(Pfn::new(head));
                    prop_assert_eq!(unit.order, expect.order);
                    prop_assert_eq!(unit.use_, expect.use_);
                    prop_assert_eq!(unit.owner, expect.owner);
                }
                Op::SetOwner(n, owner) => {
                    if heads.is_empty() {
                        continue;
                    }
                    let head = heads[n % heads.len()];
                    table.set_owner(Pfn::new(head), mk_owner(owner));
                    model.get_mut(&head).expect("model tracks heads").owner = mk_owner(owner);
                }
            }
            // Every model unit reads back intact through the packed table.
            for (&head, m) in &model {
                let unit = table.unit_at(Pfn::new(head)).expect("model head is a unit");
                prop_assert_eq!(unit.order, m.order);
                prop_assert_eq!(unit.use_, m.use_);
                prop_assert_eq!(unit.owner, m.owner);
                prop_assert_eq!(table.owner(Pfn::new(head)), m.owner);
                prop_assert_eq!(table.is_unmovable(Pfn::new(head)), !m.use_.is_movable());
            }
        }
        // Final sweep: the ranged enumeration yields exactly the model's
        // units in ascending head order.
        let units = table.units_in(Pfn::new(0), Pfn::new(TOTAL));
        let got: Vec<u64> = units.iter().map(|u| u.head.raw()).collect();
        prop_assert_eq!(&got, &heads);
        // Per-frame used/head predicates and unit attribution agree with
        // a flat expansion of the model.
        let mut flat = vec![None::<u64>; TOTAL as usize];
        for (&head, m) in &model {
            for i in 0..1u64 << m.order {
                flat[(head + i) as usize] = Some(head);
            }
        }
        for pfn in 0..TOTAL {
            prop_assert_eq!(table.is_used(Pfn::new(pfn)), flat[pfn as usize].is_some());
            prop_assert_eq!(
                table.head_of(Pfn::new(pfn)),
                flat[pfn as usize].map(Pfn::new)
            );
            prop_assert_eq!(
                table.is_unit_head(Pfn::new(pfn)),
                flat[pfn as usize] == Some(pfn)
            );
        }
        let used: u64 = model.values().map(|m| 1u64 << m.order).sum();
        prop_assert_eq!(table.used_in(Pfn::new(0), Pfn::new(TOTAL)), used);
    }
}
