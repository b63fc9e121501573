//! One declaration per counter section: the [`counter_table!`](crate::counter_table) macro.
//!
//! Every stats surface of the workspace — the engine's cache counters,
//! the analyzer/optimizer/snapshot counters of a session, a
//! certificate's fast-path attribution, the socket server's stream
//! counters — is a struct of cumulative `u64` counters that must be
//! diffed (per-query deltas), summed (worker pools, parallel batches),
//! tested for activity, and rendered by name. [`counter_table!`](crate::counter_table)
//! declares such a struct from one table of `name` + doc comment lines
//! and generates all of that, so adding a counter is one table line
//! plus its increment site.
//!
//! The macro lives here because this is the one crate every crate with
//! a counter section already depends on.
//!
//! # Examples
//!
//! ```
//! nka_syntax::counter_table! {
//!     /// Hits and misses of some cache.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct CacheStats {
//!         /// Lookups answered from the cache.
//!         hits,
//!         /// Lookups that had to compute.
//!         misses,
//!     }
//! }
//!
//! let a = CacheStats { hits: 3, misses: 1 };
//! let b = CacheStats { hits: u64::MAX, misses: 0 };
//! assert_eq!(CacheStats::NAMES, ["hits", "misses"]);
//! assert_eq!(a.values(), [3, 1]);
//! assert_eq!(a.merged(&b).hits, u64::MAX); // saturating
//! assert_eq!(a.delta_since(&CacheStats { hits: 1, misses: 1 }), CacheStats { hits: 2, misses: 0 });
//! assert!(CacheStats::default().is_zero() && !a.is_zero());
//! ```

/// Counter arithmetic for one field of a [`counter_table!`](crate::counter_table) struct:
/// saturating merge, saturating delta, and the all-zero test. The
/// scalar `u64` counters use it, and so do the extra fields a table
/// may carry (per-pass arrays, per-worker vectors, a timestamp, or a
/// nested table).
pub trait Tally {
    /// `self + other`, saturating at `u64::MAX`.
    #[must_use]
    fn merged(&self, other: &Self) -> Self;
    /// `self - earlier`, saturating at zero.
    #[must_use]
    fn delta_since(&self, earlier: &Self) -> Self;
    /// Whether nothing has been counted.
    fn is_zero(&self) -> bool;
}

impl Tally for u64 {
    fn merged(&self, other: &u64) -> u64 {
        self.saturating_add(*other)
    }

    fn delta_since(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }

    fn is_zero(&self) -> bool {
        *self == 0
    }
}

/// Element-wise, for per-pass / per-rule buckets.
impl<const N: usize> Tally for [u64; N] {
    fn merged(&self, other: &[u64; N]) -> [u64; N] {
        std::array::from_fn(|i| self[i].saturating_add(other[i]))
    }

    fn delta_since(&self, earlier: &[u64; N]) -> [u64; N] {
        std::array::from_fn(|i| self[i].saturating_sub(earlier[i]))
    }

    fn is_zero(&self) -> bool {
        self.iter().all(|&n| n == 0)
    }
}

/// Element-wise over the longer of the two, for per-worker columns.
impl Tally for Vec<u64> {
    fn merged(&self, other: &Vec<u64>) -> Vec<u64> {
        let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        (0..self.len().max(other.len()))
            .map(|i| at(self, i).saturating_add(at(other, i)))
            .collect()
    }

    fn delta_since(&self, earlier: &Vec<u64>) -> Vec<u64> {
        self.iter()
            .enumerate()
            .map(|(i, n)| n.saturating_sub(earlier.get(i).copied().unwrap_or(0)))
            .collect()
    }

    fn is_zero(&self) -> bool {
        self.iter().all(|&n| n == 0)
    }
}

/// A point-in-time tag (e.g. a creation timestamp), not a count: the
/// merge keeps the first present value and the delta keeps `self`.
impl Tally for Option<u64> {
    fn merged(&self, other: &Option<u64>) -> Option<u64> {
        self.or(*other)
    }

    fn delta_since(&self, _earlier: &Option<u64>) -> Option<u64> {
        *self
    }

    fn is_zero(&self) -> bool {
        self.is_none()
    }
}

/// Declares a counter section: a struct of `pub` `u64` counters, one
/// table line (doc comment + name) each, in rendering order. An
/// optional `extra { name: Type, … }` block adds non-scalar fields
/// whose type implements [`Tally`](crate::counters::Tally); they are
/// merged and diffed with the rest but are not among the named scalar
/// counters. See the [module docs](crate::counters).
///
/// Generated on the struct:
///
/// * `NAMES` / `values()` — the scalar counters' names and values, in
///   table order (what every JSON renderer and binary codec walks);
/// * `from_values` — the inverse of `values()` (extras default);
/// * `merged` (saturating sum), `delta_since` (saturating difference)
///   and `is_zero`, plus the matching [`Tally`](crate::counters::Tally)
///   impl so a table can nest inside another table's `extra` block.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$doc:meta])* $field:ident, )+
        }
        $( extra {
            $( $(#[$xdoc:meta])* $xfield:ident : $xty:ty, )+
        } )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$doc])* pub $field: u64, )+
            $($( $(#[$xdoc])* pub $xfield: $xty, )+)?
        }

        impl $name {
            /// The scalar counters' names, in table (rendering) order.
            pub const NAMES: [&'static str; [$(stringify!($field)),+].len()] =
                [$(stringify!($field)),+];

            /// The scalar counters' values, in [`Self::NAMES`] order.
            #[must_use]
            pub fn values(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$field),+]
            }

            /// The section with the given scalar values (in
            /// [`Self::NAMES`] order) and every extra field at its
            /// default — the inverse of [`Self::values`].
            #[must_use]
            pub fn from_values(values: [u64; Self::NAMES.len()]) -> Self {
                let [$($field),+] = values;
                Self {
                    $($field,)+
                    $($( $xfield: ::core::default::Default::default(), )+)?
                }
            }

            /// The field-wise sum `self + other`, saturating at
            /// `u64::MAX` — for folding per-query deltas, per-worker
            /// totals, or retired engines into one figure.
            #[must_use]
            pub fn merged(&self, other: &Self) -> Self {
                use $crate::counters::Tally as _;
                Self {
                    $( $field: self.$field.saturating_add(other.$field), )+
                    $($( $xfield: self.$xfield.merged(&other.$xfield), )+)?
                }
            }

            /// The field-wise difference `self - earlier`, saturating at
            /// zero. Counters are monotone, so with two snapshots of the
            /// same source this is the activity in between.
            #[must_use]
            pub fn delta_since(&self, earlier: &Self) -> Self {
                use $crate::counters::Tally as _;
                Self {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                    $($( $xfield: self.$xfield.delta_since(&earlier.$xfield), )+)?
                }
            }

            /// Whether nothing has been counted (every field zero).
            #[must_use]
            pub fn is_zero(&self) -> bool {
                use $crate::counters::Tally as _;
                true $( && self.$field == 0 )+ $($( && self.$xfield.is_zero() )+)?
            }
        }

        impl $crate::counters::Tally for $name {
            fn merged(&self, other: &Self) -> Self {
                $name::merged(self, other)
            }

            fn delta_since(&self, earlier: &Self) -> Self {
                $name::delta_since(self, earlier)
            }

            fn is_zero(&self) -> bool {
                $name::is_zero(self)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Tally;

    crate::counter_table! {
        /// A section with every kind of extra field.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Sample {
            /// First.
            a,
            /// Second.
            b,
        }
        extra {
            /// Buckets.
            buckets: [u64; 2],
            /// Columns.
            columns: Vec<u64>,
            /// A tag.
            tag: Option<u64>,
        }
    }

    #[test]
    fn table_order_names_and_values_round_trip() {
        assert_eq!(Sample::NAMES, ["a", "b"]);
        let s = Sample {
            a: 4,
            b: 9,
            ..Sample::default()
        };
        assert_eq!(s.values(), [4, 9]);
        assert_eq!(Sample::from_values(s.values()), s);
    }

    #[test]
    fn merge_saturates_and_delta_floors_at_zero_for_every_field_kind() {
        let max = Sample {
            a: u64::MAX,
            b: 1,
            buckets: [u64::MAX, 0],
            columns: vec![u64::MAX],
            tag: None,
        };
        let one = Sample {
            a: 1,
            b: 1,
            buckets: [1, 1],
            columns: vec![1, 2],
            tag: Some(7),
        };
        let sum = max.merged(&one);
        assert_eq!(sum.a, u64::MAX);
        assert_eq!(sum.b, 2);
        assert_eq!(sum.buckets, [u64::MAX, 1]);
        assert_eq!(sum.columns, vec![u64::MAX, 2]);
        assert_eq!(sum.tag, Some(7));
        let back = one.delta_since(&max);
        assert_eq!((back.a, back.b, back.buckets), (0, 0, [0, 1]));
        assert_eq!(back.columns, vec![0, 2]);
        assert!(Sample::default().is_zero());
        assert!(!one.is_zero());
        assert!(!Sample {
            tag: Some(0),
            ..Sample::default()
        }
        .is_zero());
    }

    #[test]
    fn tables_nest_through_tally() {
        let s = Sample {
            a: 2,
            ..Sample::default()
        };
        assert_eq!(Tally::merged(&s, &s).a, 4);
        assert!(Tally::is_zero(&Sample::default()));
    }
}
