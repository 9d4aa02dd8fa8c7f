//! In-memory write buffer: an ordered map of key → entry with size
//! accounting. Deletes are tombstones so they shadow older SSTable
//! versions until compaction drops them at the bottom level.

use std::collections::BTreeMap;
use tb_common::{Key, Value};

/// A live value or a deletion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    Put(Value),
    Tombstone,
}

impl Entry {
    pub fn as_option(&self) -> Option<&Value> {
        match self {
            Entry::Put(v) => Some(v),
            Entry::Tombstone => None,
        }
    }

    fn cost(&self) -> usize {
        match self {
            Entry::Put(v) => v.len(),
            Entry::Tombstone => 1,
        }
    }
}

/// Sorted in-memory buffer of recent writes.
#[derive(Default)]
pub struct Memtable {
    map: BTreeMap<Key, Entry>,
    approx_bytes: usize,
}

impl Memtable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a put; returns the new approximate size.
    pub fn put(&mut self, key: Key, value: Value) -> usize {
        self.insert(key, Entry::Put(value))
    }

    /// Records a delete (tombstone).
    pub fn delete(&mut self, key: Key) -> usize {
        self.insert(key, Entry::Tombstone)
    }

    fn insert(&mut self, key: Key, entry: Entry) -> usize {
        let key_len = key.len();
        let new_cost = entry.cost();
        match self.map.insert(key, entry) {
            Some(old) => {
                // Key bytes already counted; swap the payload cost.
                self.approx_bytes = self.approx_bytes - old.cost() + new_cost;
            }
            None => {
                self.approx_bytes += key_len + new_cost;
            }
        }
        self.approx_bytes
    }

    /// Point lookup.
    pub fn get(&self, key: &Key) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Approximate resident bytes (keys + values + tombstones).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Ordered iteration for flushing to an SSTable.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Entry)> {
        self.map.iter()
    }

    /// Ordered iteration over `start <= key < end` (`end = None` =
    /// unbounded above), including tombstones — the memtable's
    /// contribution to a range scan's merge.
    pub fn scan_range<'a>(
        &'a self,
        start: &Key,
        end: Option<&'a Key>,
    ) -> impl Iterator<Item = (&'a Key, &'a Entry)> + 'a {
        self.map
            .range(start.clone()..)
            .take_while(move |(k, _)| end.is_none_or(|e| *k < e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put(k("a"), v("1"));
        assert_eq!(m.get(&k("a")), Some(&Entry::Put(v("1"))));
        m.delete(k("a"));
        assert_eq!(m.get(&k("a")), Some(&Entry::Tombstone));
        assert_eq!(m.get(&k("b")), None);
    }

    #[test]
    fn overwrite_updates_size_accounting() {
        let mut m = Memtable::new();
        m.put(k("key"), v("short"));
        let s1 = m.approx_bytes();
        m.put(k("key"), v("a-much-longer-value-here"));
        let s2 = m.approx_bytes();
        assert!(s2 > s1);
        m.put(k("key"), v("s"));
        let s3 = m.approx_bytes();
        assert!(s3 < s2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn size_matches_exact_recount() {
        let mut m = Memtable::new();
        for i in 0..100 {
            m.put(k(&format!("key-{i}")), v(&format!("value-{i}")));
        }
        m.delete(k("key-50"));
        let exact: usize = m.iter().map(|(k, e)| k.len() + e.cost()).sum();
        assert_eq!(m.approx_bytes(), exact);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Memtable::new();
        for key in ["zebra", "apple", "mango"] {
            m.put(k(key), v("x"));
        }
        let keys: Vec<&Key> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&k("apple"), &k("mango"), &k("zebra")]);
    }

    #[test]
    fn scan_range_bounds_and_tombstones() {
        let mut m = Memtable::new();
        for key in ["a", "b", "c", "d"] {
            m.put(k(key), v(key));
        }
        m.delete(k("c"));
        let end = k("d");
        let got: Vec<(&Key, &Entry)> = m.scan_range(&k("b"), Some(&end)).collect();
        assert_eq!(
            got,
            vec![(&k("b"), &Entry::Put(v("b"))), (&k("c"), &Entry::Tombstone)]
        );
        let unbounded: Vec<&Key> = m.scan_range(&k("c"), None).map(|(k, _)| k).collect();
        assert_eq!(unbounded, vec![&k("c"), &k("d")]);
    }
}
