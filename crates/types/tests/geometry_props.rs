//! Property-based tests for the geometry arithmetic, run over random
//! custom geometries and every shipped architecture ladder.

use proptest::prelude::*;
use trident_types::{PageGeometry, PageSize};

fn any_geometry() -> impl Strategy<Value = PageGeometry> {
    let custom = (10u8..=13, 1u8..=10).prop_flat_map(|(base, huge)| {
        ((huge + 1)..=(huge + 12)).prop_map(move |giant| PageGeometry::new(base, huge, giant))
    });
    prop_oneof![
        custom,
        Just(PageGeometry::X86_64),
        Just(PageGeometry::RISCV_SV48),
        Just(PageGeometry::AARCH64),
        Just(PageGeometry::TINY),
    ]
}

/// A (geometry, rung) pair where the rung is valid for the ladder.
fn geometry_and_size() -> impl Strategy<Value = (PageGeometry, PageSize)> {
    any_geometry()
        .prop_flat_map(|geo| (0..geo.rung_count()).prop_map(move |i| (geo, PageSize::new(i))))
}

proptest! {
    #[test]
    fn ladder_sizes_strictly_increase(geo in any_geometry()) {
        let sizes: Vec<u64> = geo.rungs().map(|s| geo.bytes(s)).collect();
        for pair in sizes.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        prop_assert_eq!(sizes[0], geo.base_bytes());
        prop_assert_eq!(*sizes.last().unwrap(), geo.bytes(geo.largest()));
    }

    #[test]
    fn order_roundtrips_through_size_for_order((geo, size) in geometry_and_size()) {
        prop_assert_eq!(geo.size_for_order(geo.order(size)), Some(size));
    }

    #[test]
    fn off_ladder_orders_have_no_rung(geo in any_geometry(), order in 0u8..64) {
        let on_ladder = geo.rungs().any(|s| geo.order(s) == order);
        prop_assert_eq!(geo.size_for_order(order).is_some(), on_ladder);
    }

    #[test]
    fn larger_and_smaller_are_inverse((geo, size) in geometry_and_size()) {
        if let Some(up) = geo.larger(size) {
            prop_assert_eq!(up.smaller(), Some(size));
            prop_assert!(geo.bytes(up) > geo.bytes(size));
        } else {
            prop_assert_eq!(size, geo.largest());
        }
    }

    #[test]
    fn group_span_covers_the_rung((geo, size) in geometry_and_size()) {
        let class = geo.class(size);
        let level_span = 1u64 << geo.level_order(class.level);
        prop_assert_eq!(geo.group_span(size) * level_span, geo.base_pages(size));
        // Natural leaves span exactly one entry; hint rungs never exceed
        // their declared contiguous span.
        if !geo.is_group(size) {
            prop_assert_eq!(geo.group_span(size), 1);
        }
        if let Some(span) = class.contiguous_span {
            prop_assert_eq!(geo.group_span(size), u64::from(span));
        }
    }

    #[test]
    fn giant_region_contains_its_start(geo in any_geometry(), region in 0u64..(1 << 20)) {
        let start = geo.giant_region_start(region);
        prop_assert_eq!(geo.giant_region_of(start), region);
        prop_assert_eq!(
            geo.giant_region_of(start + geo.base_pages(geo.largest()) - 1),
            region
        );
    }

    #[test]
    fn bytes_equals_base_pages_times_base_bytes((geo, size) in geometry_and_size()) {
        prop_assert_eq!(geo.bytes(size), geo.base_pages(size) * geo.base_bytes());
    }

    #[test]
    fn scaling_preserves_ladder_invariants(geo in any_geometry(), shift in 0u8..=8) {
        let s = geo.scaled(shift);
        prop_assert_eq!(s.name(), geo.name());
        prop_assert_eq!(s.base_shift(), geo.base_shift());
        prop_assert!(s.rung_count() >= 3);
        prop_assert!(s.rung_count() <= geo.rung_count());
        let orders: Vec<u8> = s.rungs().map(|r| s.order(r)).collect();
        for pair in orders.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        for size in s.rungs() {
            prop_assert_eq!(s.size_for_order(s.order(size)), Some(size));
            prop_assert!(s.order(size) >= s.level_order(s.level(size)));
        }
    }
}
