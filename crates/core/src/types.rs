//! Redis-style data structures on top of the byte-string core (§3).
//!
//! Lists, sets, hashes and sorted sets are serialized into single
//! values and updated with CAS retry loops, so concurrent structure
//! mutations never lose updates (the engine's CAS supplies atomicity).
//! A structure emptied by an update is removed by one compare-and-delete.

use tb_common::{
    apply_write, read_bytes, read_varint, write_bytes, write_varint, EngineOp, Error, Key,
    KvEngine, Result, Value,
};

/// Where a list push lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListEnd {
    Head,
    Tail,
}

/// Typed operations over any [`KvEngine`].
pub struct DataTypes<'e, E: KvEngine + ?Sized> {
    engine: &'e E,
}

impl<'e, E: KvEngine + ?Sized> DataTypes<'e, E> {
    pub fn new(engine: &'e E) -> Self {
        Self { engine }
    }

    /// CAS retry loop: read, transform, then write-if-unchanged (`next:
    /// None` deletes) as one `Cas` or `CasDelete` op.
    fn update<T>(
        &self,
        key: &Key,
        mut f: impl FnMut(Option<&Value>) -> Result<(Option<Value>, T)>,
    ) -> Result<T> {
        loop {
            let current = self.engine.get(key)?;
            let (next, out) = f(current.as_ref())?;
            if current.is_none() && next.is_none() {
                return Ok(out); // deleting an absent structure
            }
            match apply_write(self.engine, EngineOp::cas(key.clone(), current, next)) {
                Ok(()) => return Ok(out),
                Err(Error::CasMismatch) => continue, // lost the race; retry
                Err(e) => return Err(e),
            }
        }
    }

    // ----- lists ---------------------------------------------------------

    /// Pushes an element; returns the new length.
    pub fn list_push(&self, key: &Key, item: &[u8], end: ListEnd) -> Result<usize> {
        self.update(key, |cur| {
            let mut items = decode_items(cur)?;
            match end {
                ListEnd::Head => items.insert(0, item.to_vec()),
                ListEnd::Tail => items.push(item.to_vec()),
            }
            let len = items.len();
            Ok((Some(encode_items(&items)), len))
        })
    }

    /// Pops from an end; `None` when empty.
    pub fn list_pop(&self, key: &Key, end: ListEnd) -> Result<Option<Vec<u8>>> {
        self.update(key, |cur| {
            let mut items = decode_items(cur)?;
            if items.is_empty() {
                return Ok((None, None));
            }
            let popped = match end {
                ListEnd::Head => items.remove(0),
                ListEnd::Tail => items.pop().expect("non-empty"),
            };
            let next = if items.is_empty() {
                None
            } else {
                Some(encode_items(&items))
            };
            Ok((next, Some(popped)))
        })
    }

    /// Elements in `[start, stop)` (clamped).
    pub fn list_range(&self, key: &Key, start: usize, stop: usize) -> Result<Vec<Vec<u8>>> {
        let items = decode_items(self.engine.get(key)?.as_ref())?;
        let stop = stop.min(items.len());
        let start = start.min(stop);
        Ok(items[start..stop].to_vec())
    }

    /// List length.
    pub fn list_len(&self, key: &Key) -> Result<usize> {
        Ok(decode_items(self.engine.get(key)?.as_ref())?.len())
    }

    // ----- sets ----------------------------------------------------------

    /// Adds a member; returns true when newly added.
    pub fn set_add(&self, key: &Key, member: &[u8]) -> Result<bool> {
        self.update(key, |cur| {
            let mut items = decode_items(cur)?;
            match items.binary_search(&member.to_vec()) {
                Ok(_) => Ok((Some(encode_items(&items)), false)),
                Err(pos) => {
                    items.insert(pos, member.to_vec());
                    Ok((Some(encode_items(&items)), true))
                }
            }
        })
    }

    /// Removes a member; returns true when it was present.
    pub fn set_remove(&self, key: &Key, member: &[u8]) -> Result<bool> {
        self.update(key, |cur| {
            let mut items = decode_items(cur)?;
            match items.binary_search(&member.to_vec()) {
                Ok(pos) => {
                    items.remove(pos);
                    let next = if items.is_empty() {
                        None
                    } else {
                        Some(encode_items(&items))
                    };
                    Ok((next, true))
                }
                Err(_) => Ok((Some(encode_items(&items)), false)),
            }
        })
    }

    /// Membership test.
    pub fn set_contains(&self, key: &Key, member: &[u8]) -> Result<bool> {
        let items = decode_items(self.engine.get(key)?.as_ref())?;
        Ok(items.binary_search(&member.to_vec()).is_ok())
    }

    /// All members (sorted).
    pub fn set_members(&self, key: &Key) -> Result<Vec<Vec<u8>>> {
        decode_items(self.engine.get(key)?.as_ref())
    }

    // ----- hashes ----------------------------------------------------------

    /// Sets a field; returns true when the field is new.
    pub fn hash_set(&self, key: &Key, field: &[u8], value: &[u8]) -> Result<bool> {
        self.update(key, |cur| {
            let mut pairs = decode_pairs(cur)?;
            let existing = pairs.iter_mut().find(|(f, _)| f == field);
            let added = match existing {
                Some((_, v)) => {
                    *v = value.to_vec();
                    false
                }
                None => {
                    pairs.push((field.to_vec(), value.to_vec()));
                    true
                }
            };
            Ok((Some(encode_pairs(&pairs)), added))
        })
    }

    /// Reads a field.
    pub fn hash_get(&self, key: &Key, field: &[u8]) -> Result<Option<Vec<u8>>> {
        let pairs = decode_pairs(self.engine.get(key)?.as_ref())?;
        Ok(pairs.into_iter().find(|(f, _)| f == field).map(|(_, v)| v))
    }

    /// Deletes a field; returns true when it existed.
    pub fn hash_del(&self, key: &Key, field: &[u8]) -> Result<bool> {
        self.update(key, |cur| {
            let mut pairs = decode_pairs(cur)?;
            let before = pairs.len();
            pairs.retain(|(f, _)| f != field);
            let removed = pairs.len() != before;
            let next = if pairs.is_empty() {
                None
            } else {
                Some(encode_pairs(&pairs))
            };
            Ok((next, removed))
        })
    }

    /// All field/value pairs.
    pub fn hash_get_all(&self, key: &Key) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        decode_pairs(self.engine.get(key)?.as_ref())
    }

    // ----- sorted sets -----------------------------------------------------

    /// Adds or updates a member with a score; true when newly added. A
    /// NaN score is an `InvalidArgument`: it has no rank.
    pub fn zset_add(&self, key: &Key, member: &[u8], score: f64) -> Result<bool> {
        if score.is_nan() {
            return Err(Error::InvalidArgument("zset score is NaN".into()));
        }
        self.update(key, |cur| {
            let mut entries = decode_scored(cur)?;
            let existed = entries.iter().position(|(_, m)| m == member);
            if let Some(pos) = existed {
                entries.remove(pos);
            }
            let item = (score, member.to_vec());
            let pos = entries
                .binary_search_by(|(s, m)| s.total_cmp(&item.0).then_with(|| m.cmp(&item.1)))
                .unwrap_or_else(|p| p);
            entries.insert(pos, item);
            Ok((Some(encode_scored(&entries)), existed.is_none()))
        })
    }

    /// Score of a member.
    pub fn zset_score(&self, key: &Key, member: &[u8]) -> Result<Option<f64>> {
        let entries = decode_scored(self.engine.get(key)?.as_ref())?;
        Ok(entries
            .into_iter()
            .find(|(_, m)| m == member)
            .map(|(s, _)| s))
    }

    /// Members with rank in `[start, stop)`, ascending by score.
    pub fn zset_range(&self, key: &Key, start: usize, stop: usize) -> Result<Vec<(f64, Vec<u8>)>> {
        let entries = decode_scored(self.engine.get(key)?.as_ref())?;
        let stop = stop.min(entries.len());
        let start = start.min(stop);
        Ok(entries[start..stop].to_vec())
    }

    /// Removes a member; true when present.
    pub fn zset_remove(&self, key: &Key, member: &[u8]) -> Result<bool> {
        self.update(key, |cur| {
            let mut entries = decode_scored(cur)?;
            let before = entries.len();
            entries.retain(|(_, m)| m != member);
            let removed = entries.len() != before;
            let next = if entries.is_empty() {
                None
            } else {
                Some(encode_scored(&entries))
            };
            Ok((next, removed))
        })
    }
}

// ----- codecs --------------------------------------------------------------

fn encode_items(items: &[Vec<u8>]) -> Value {
    let mut out = Vec::new();
    write_varint(&mut out, items.len() as u64);
    for item in items {
        write_bytes(&mut out, item);
    }
    Value::from(out)
}

fn decode_items(value: Option<&Value>) -> Result<Vec<Vec<u8>>> {
    let Some(value) = value else {
        return Ok(vec![]);
    };
    let buf = value.as_slice();
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos)? as usize;
    let mut items = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        items.push(read_bytes(buf, &mut pos)?.to_vec());
    }
    Ok(items)
}

fn encode_pairs(pairs: &[(Vec<u8>, Vec<u8>)]) -> Value {
    let mut out = Vec::new();
    write_varint(&mut out, pairs.len() as u64);
    for (f, v) in pairs {
        write_bytes(&mut out, f);
        write_bytes(&mut out, v);
    }
    Value::from(out)
}

fn decode_pairs(value: Option<&Value>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let Some(value) = value else {
        return Ok(vec![]);
    };
    let buf = value.as_slice();
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos)? as usize;
    let mut pairs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let field = read_bytes(buf, &mut pos)?.to_vec();
        pairs.push((field, read_bytes(buf, &mut pos)?.to_vec()));
    }
    Ok(pairs)
}

fn encode_scored(entries: &[(f64, Vec<u8>)]) -> Value {
    let mut out = Vec::new();
    write_varint(&mut out, entries.len() as u64);
    for (score, member) in entries {
        out.extend_from_slice(&score.to_bits().to_le_bytes());
        write_bytes(&mut out, member);
    }
    Value::from(out)
}

fn decode_scored(value: Option<&Value>) -> Result<Vec<(f64, Vec<u8>)>> {
    let Some(value) = value else {
        return Ok(vec![]);
    };
    let buf = value.as_slice();
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos)? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        if pos + 8 > buf.len() {
            return Err(Error::Corruption("zset score truncated".into()));
        }
        let score = f64::from_bits(u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()));
        pos += 8;
        entries.push((score, read_bytes(buf, &mut pos)?.to_vec()));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierBaseConfig;
    use crate::store::TierBase;
    use std::sync::Arc;

    fn store(name: &str) -> TierBase {
        let dir = std::env::temp_dir().join(format!("tb-types-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TierBase::open(TierBaseConfig::builder(dir).build()).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn list_push_pop_range() {
        let tb = store("list");
        let t = DataTypes::new(&tb);
        assert_eq!(t.list_push(&k("l"), b"b", ListEnd::Tail).unwrap(), 1);
        assert_eq!(t.list_push(&k("l"), b"c", ListEnd::Tail).unwrap(), 2);
        assert_eq!(t.list_push(&k("l"), b"a", ListEnd::Head).unwrap(), 3);
        assert_eq!(
            t.list_range(&k("l"), 0, 10).unwrap(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
        assert_eq!(
            t.list_pop(&k("l"), ListEnd::Head).unwrap(),
            Some(b"a".to_vec())
        );
        assert_eq!(
            t.list_pop(&k("l"), ListEnd::Tail).unwrap(),
            Some(b"c".to_vec())
        );
        assert_eq!(t.list_len(&k("l")).unwrap(), 1);
        t.list_pop(&k("l"), ListEnd::Head).unwrap();
        assert_eq!(t.list_pop(&k("l"), ListEnd::Head).unwrap(), None);
        // Fully-emptied structures free their key.
        assert_eq!(tb.get(&k("l")).unwrap(), None);
    }

    #[test]
    fn set_semantics() {
        let tb = store("set");
        let t = DataTypes::new(&tb);
        assert!(t.set_add(&k("s"), b"x").unwrap());
        assert!(!t.set_add(&k("s"), b"x").unwrap(), "duplicate add");
        assert!(t.set_add(&k("s"), b"y").unwrap());
        assert!(t.set_contains(&k("s"), b"x").unwrap());
        assert!(!t.set_contains(&k("s"), b"z").unwrap());
        assert_eq!(t.set_members(&k("s")).unwrap().len(), 2);
        assert!(t.set_remove(&k("s"), b"x").unwrap());
        assert!(!t.set_remove(&k("s"), b"x").unwrap());
    }

    #[test]
    fn hash_semantics() {
        let tb = store("hash");
        let t = DataTypes::new(&tb);
        assert!(t.hash_set(&k("h"), b"f1", b"v1").unwrap());
        assert!(!t.hash_set(&k("h"), b"f1", b"v2").unwrap(), "overwrite");
        assert_eq!(t.hash_get(&k("h"), b"f1").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(t.hash_get(&k("h"), b"nope").unwrap(), None);
        t.hash_set(&k("h"), b"f2", b"v3").unwrap();
        assert_eq!(t.hash_get_all(&k("h")).unwrap().len(), 2);
        assert!(t.hash_del(&k("h"), b"f1").unwrap());
        assert!(!t.hash_del(&k("h"), b"f1").unwrap());
    }

    #[test]
    fn zset_ordering() {
        let tb = store("zset");
        let t = DataTypes::new(&tb);
        t.zset_add(&k("z"), b"mid", 5.0).unwrap();
        t.zset_add(&k("z"), b"low", 1.0).unwrap();
        t.zset_add(&k("z"), b"high", 9.0).unwrap();
        let range = t.zset_range(&k("z"), 0, 10).unwrap();
        let members: Vec<&[u8]> = range.iter().map(|(_, m)| m.as_slice()).collect();
        assert_eq!(members, vec![&b"low"[..], b"mid", b"high"]);
        // Score update re-ranks.
        assert!(!t.zset_add(&k("z"), b"low", 100.0).unwrap());
        let range = t.zset_range(&k("z"), 0, 10).unwrap();
        assert_eq!(range.last().unwrap().1, b"low".to_vec());
        assert_eq!(t.zset_score(&k("z"), b"mid").unwrap(), Some(5.0));
        assert!(t.zset_remove(&k("z"), b"mid").unwrap());
        assert_eq!(t.zset_score(&k("z"), b"mid").unwrap(), None);
    }

    #[test]
    fn nan_score_is_refused_and_never_panics() {
        let tb = store("nan");
        let t = DataTypes::new(&tb);
        t.zset_add(&k("z"), b"a", 1.0).unwrap();
        assert!(matches!(
            t.zset_add(&k("z"), b"b", f64::NAN),
            Err(Error::InvalidArgument(_))
        ));
        // A NaN already stored (a damaged value) still orders.
        tb.put(k("z"), encode_scored(&[(f64::NAN, b"n".to_vec())]))
            .unwrap();
        assert!(t.zset_add(&k("z"), b"c", 2.0).unwrap());
        assert_eq!(t.zset_range(&k("z"), 0, 10).unwrap().len(), 2);
    }

    #[test]
    fn concurrent_structure_updates_do_not_lose_elements() {
        let tb = Arc::new(store("conc"));
        let mut handles = vec![];
        for t in 0..4 {
            let tb = tb.clone();
            handles.push(std::thread::spawn(move || {
                let types = DataTypes::new(tb.as_ref());
                for i in 0..100 {
                    types
                        .set_add(&k("shared"), format!("{t}-{i}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let types = DataTypes::new(tb.as_ref());
        assert_eq!(types.set_members(&k("shared")).unwrap().len(), 400);
    }

    #[test]
    fn corrupted_structure_is_error() {
        let tb = store("corrupt");
        let t = DataTypes::new(&tb);
        // A varint promising more items than bytes exist.
        tb.put(k("bad"), Value::from(vec![200u8, 200, 1, 5]))
            .unwrap();
        assert!(t.list_len(&k("bad")).is_err() || t.list_len(&k("bad")).is_ok());
        // Must not panic either way (count may decode but items overflow).
        let _ = t.set_members(&k("bad"));
        // One entry whose length is u64::MAX: its end overflows usize.
        let huge = [0xff; 9].into_iter().chain([1]);
        let list: Vec<u8> = [1].into_iter().chain(huge.clone()).collect();
        let zset: Vec<u8> = [1].into_iter().chain([0; 8]).chain(huge).collect();
        tb.put(k("list"), Value::from(list.clone())).unwrap();
        tb.put(k("hash"), Value::from(list)).unwrap();
        tb.put(k("zset"), Value::from(zset)).unwrap();
        let corrupt = |got: Result<usize>| assert!(matches!(got, Err(Error::Corruption(_))));
        corrupt(t.list_len(&k("list")));
        corrupt(t.hash_get_all(&k("hash")).map(|h| h.len()));
        corrupt(t.zset_range(&k("zset"), 0, 1).map(|z| z.len()));
    }
}
