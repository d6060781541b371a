//! Strongly-typed addresses and page numbers.
//!
//! Virtual and physical quantities are deliberately distinct types so that
//! the simulator cannot confuse a guest-virtual page with a physical frame —
//! exactly the class of bug the paper's nested-translation machinery (gVA →
//! gPA → hPA) invites.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw 64-bit value.
            #[inline]
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Checked addition; `None` on overflow.
            #[inline]
            #[must_use]
            pub fn checked_add(self, rhs: u64) -> Option<Self> {
                self.0.checked_add(rhs).map(Self)
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0.checked_add(rhs).expect("address overflow"))
            }
        }

        impl AddAssign<u64> for $name {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                *self = *self + rhs;
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $name) -> u64 {
                self.0.checked_sub(rhs.0).expect("address underflow")
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_newtype!(
    /// A virtual byte address.
    ///
    /// Under virtualization this is a *guest* virtual address; the simulator
    /// never exposes host-virtual addresses.
    VirtAddr
);

addr_newtype!(
    /// A physical byte address. Under virtualization, the meaning (guest- or
    /// host-physical) is determined by which address space produced it.
    PhysAddr
);

addr_newtype!(
    /// A virtual page number, counted in base pages.
    Vpn
);

addr_newtype!(
    /// A physical frame number, counted in base pages.
    ///
    /// # Examples
    ///
    /// ```
    /// use trident_types::Pfn;
    /// let f = Pfn::new(512);
    /// assert_eq!((f + 512).raw(), 1024);
    /// assert_eq!(Pfn::new(1024) - f, 512);
    /// ```
    Pfn
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = VirtAddr::new(0x1000);
        assert_eq!((a + 0x234).raw(), 0x1234);
        assert_eq!(VirtAddr::new(0x2000) - a, 0x1000);
        let mut b = a;
        b += 8;
        assert_eq!(b.raw(), 0x1008);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Pfn::new(u64::MAX).checked_add(1), None);
        assert_eq!(Pfn::new(1).checked_add(1), Some(Pfn::new(2)));
    }

    #[test]
    #[should_panic(expected = "address underflow")]
    fn subtraction_underflow_panics() {
        let _ = Pfn::new(0) - Pfn::new(1);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", Vpn::new(255)), "ff");
    }

    #[test]
    fn types_are_distinct() {
        // Compile-time property: a function over Pfn cannot take a Vpn.
        fn takes_pfn(p: Pfn) -> u64 {
            p.raw()
        }
        assert_eq!(takes_pfn(Pfn::new(7)), 7);
    }
}
