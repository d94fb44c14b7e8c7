//! Collections for the decision path whose lookups cannot panic.
//!
//! `map[&k]` panics on a missing key and `deque[i]` out of range, and
//! `clippy::indexing_slicing` misses both where the map or deque is
//! reached through a `&`-typed binding. So the hot-path crates hold
//! their maps and deques in these wrappers, which have no `Index` impl (a lookup is
//! `get`, and a miss is a `None` to handle), and `clippy.toml`'s
//! `disallowed-types` keeps the std types out of their library code.
//! [`HashMap`] also has no iteration, so hash order cannot reach an
//! output; iterate a [`BTreeMap`], whose order is the key order.
//!
//! Every method forwards to the std method of the same name.
//!
//! The crate also holds the workspace's one FNV-1a ([`fnv1a`]): the
//! engine's pid index hashes with it, the workloads mix benchmark names
//! into their seeds with it, and the tenants digests fold with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The hot-path invariants on non-test library code (DESIGN.md §3f).
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]
#![expect(
    clippy::disallowed_types,
    reason = "the one place the std types are named: wrapped, without their Index impls"
)]

use std::borrow::Borrow;
use std::collections::hash_map::{self, RandomState};
use std::collections::{btree_map, vec_deque};
use std::hash::{BuildHasher, Hash};

/// A `std::collections::HashMap` without `Index` and without iteration.
#[derive(Debug, Clone, Default)]
pub struct HashMap<K, V, S = RandomState>(std::collections::HashMap<K, V, S>);

impl<K, V> HashMap<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self(std::collections::HashMap::new())
    }
}

impl<K, V, S> HashMap<K, V, S> {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K: Eq + Hash, V, S: BuildHasher> HashMap<K, V, S> {
    /// The value at `k`, if any.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// Inserts `v` at `k`, returning the value it replaced.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes the value at `k`, returning it.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(k)
    }

    /// The entry at `k`, for in-place insertion or update.
    pub fn entry(&mut self, k: K) -> hash_map::Entry<'_, K, V> {
        self.0.entry(k)
    }
}

/// A `std::collections::BTreeMap` without `Index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTreeMap<K, V>(std::collections::BTreeMap<K, V>);

impl<K, V> Default for BTreeMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> BTreeMap<K, V> {
    /// An empty map.
    #[must_use]
    pub const fn new() -> Self {
        Self(std::collections::BTreeMap::new())
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.0.iter()
    }

    /// The entries in key order, values mutable.
    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, K, V> {
        self.0.iter_mut()
    }

    /// The keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.0.keys()
    }

    /// The values in key order.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.0.values()
    }
}

impl<K: Ord, V> BTreeMap<K, V> {
    /// The value at `k`, if any.
    pub fn get<Q: Ord + ?Sized>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// The value at `k`, mutable, if any.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(k)
    }

    /// Inserts `v` at `k`, returning the value it replaced.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes the value at `k`, returning it.
    pub fn remove<Q: Ord + ?Sized>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(k)
    }

    /// The entry at `k`, for in-place insertion or update.
    pub fn entry(&mut self, k: K) -> btree_map::Entry<'_, K, V> {
        self.0.entry(k)
    }
}

impl<'a, K, V> IntoIterator for &'a BTreeMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A `std::collections::VecDeque` without `Index`.
#[derive(Debug, Clone, Default)]
pub struct VecDeque<T>(std::collections::VecDeque<T>);

impl<T> VecDeque<T> {
    /// An empty deque.
    #[must_use]
    pub const fn new() -> Self {
        Self(std::collections::VecDeque::new())
    }

    /// An empty deque with room for `capacity` elements.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self(std::collections::VecDeque::with_capacity(capacity))
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the deque holds no element.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The last element, if any.
    pub fn back(&self) -> Option<&T> {
        self.0.back()
    }

    /// Appends `value` at the back.
    pub fn push_back(&mut self, value: T) {
        self.0.push_back(value);
    }

    /// Prepends `value` at the front.
    pub fn push_front(&mut self, value: T) {
        self.0.push_front(value);
    }

    /// Removes and returns the first element, if any.
    pub fn pop_front(&mut self) -> Option<T> {
        self.0.pop_front()
    }

    /// The elements front to back.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.0.iter()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// FNV-1a's 64-bit offset basis: the state a fresh hash starts from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a state `hash`; start from
/// [`FNV_OFFSET_BASIS`]. Inlined because the engine probes its pid
/// index through it on every decision.
#[inline]
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::{BTreeMap, HashMap, VecDeque};

    #[test]
    fn lookups_forward_to_the_std_maps() {
        let mut h: HashMap<u32, &str> = HashMap::new();
        assert_eq!(h.insert(1, "a"), None);
        *h.entry(2).or_insert("b") = "c";
        assert_eq!(
            (h.get(&1), h.get(&2), h.get(&3)),
            (Some(&"a"), Some(&"c"), None)
        );
        assert_eq!(h.len(), 2);
        assert_eq!(h.remove(&1), Some("a"));
        h.clear();
        assert!(h.is_empty());

        let mut b: BTreeMap<u32, u32> = BTreeMap::new();
        for k in [3, 1, 2] {
            b.insert(k, k * 10);
        }
        *b.get_mut(&2).unwrap() += 1;
        assert_eq!(
            b.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            [(1, 10), (2, 21), (3, 30)]
        );
        assert_eq!(b.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(b.remove(&1), Some(10));
        assert_eq!(b.len(), 2);

        let mut d: VecDeque<u8> = VecDeque::with_capacity(2);
        d.push_back(2);
        d.push_front(1);
        assert_eq!((d.len(), d.back()), (2, Some(&2)));
        assert_eq!(d.pop_front(), Some(1));
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), [2]);
        d.clear();
        assert!(d.is_empty() && d.pop_front().is_none());
    }
}
