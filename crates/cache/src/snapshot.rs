//! Point-in-time cache snapshots (the RDB role in Redis).
//!
//! WAL persistence replays every write; a snapshot instead captures the
//! cache's current contents in one sequential file, which makes warm
//! restarts cheap: load the snapshot, start serving, and let the
//! storage tier backfill anything written after the snapshot. The file
//! is sealed and published through `tb_common::durable`, so a crash
//! mid-snapshot leaves the previous snapshot intact.
//!
//! Format (the body of a `durable::seal` frame under `SNAPSHOT_MAGIC`):
//! ```text
//! count:varint
//! per record: flags:u8 | [expires_at:varint] | klen:varint | key
//!             | vlen:varint | value
//! ```

use crate::cache::ShardedCache;
use std::path::Path;
use tb_common::{
    durable, read_bytes, read_varint, write_bytes, write_varint, Error, Key, Result, Value,
};

/// Names the layout above; a file in any earlier one is
/// [`Error::Corruption`].
const SNAPSHOT_MAGIC: u32 = 0x7b52_4442;

const FLAG_DIRTY: u8 = 0b01;
const FLAG_HAS_EXPIRY: u8 = 0b10;

/// Serializes every live cache entry to `path`. Returns the number of
/// entries written. Expired entries are omitted; dirty flags and expiry
/// deadlines are preserved.
pub fn write_snapshot(cache: &ShardedCache, path: &Path) -> Result<usize> {
    // The records are encoded once, straight from the cache, behind
    // room for the count, which is known only after the walk.
    const COUNT_ROOM: usize = 10;
    let mut body = vec![0u8; COUNT_ROOM];
    let mut count = 0usize;
    cache.for_each_live(|key, value, dirty, expires_at| {
        count += 1;
        let mut flags = 0u8;
        if dirty {
            flags |= FLAG_DIRTY;
        }
        if expires_at.is_some() {
            flags |= FLAG_HAS_EXPIRY;
        }
        body.push(flags);
        if let Some(deadline) = expires_at {
            write_varint(&mut body, deadline);
        }
        write_bytes(&mut body, key);
        write_bytes(&mut body, value);
    });
    let mut head = Vec::with_capacity(COUNT_ROOM);
    write_varint(&mut head, count as u64);
    let start = COUNT_ROOM - head.len();
    body[start..COUNT_ROOM].copy_from_slice(&head);

    durable::publish(
        path,
        &durable::Sites {
            sync: "cache.rdb.sync",
            rename: "cache.rdb.rename",
            dir_sync: "cache.rdb.dir_sync",
        },
        &[(
            "cache.rdb.write",
            &durable::seal(SNAPSHOT_MAGIC, &body[start..]),
        )],
    )?;
    Ok(count)
}

/// Loads a snapshot written by [`write_snapshot`] into `cache`.
/// Returns the number of entries restored. Entries whose deadline has
/// already passed at load time are skipped.
pub fn load_snapshot(cache: &ShardedCache, path: &Path) -> Result<usize> {
    let raw = std::fs::read(path)?;
    let body = durable::unseal(SNAPSHOT_MAGIC, &raw, "snapshot")?;
    let now = cache.clock().now_nanos();
    let mut pos = 0usize;
    let count = read_varint(body, &mut pos)? as usize;
    let mut restored = 0usize;
    for _ in 0..count {
        if pos >= body.len() {
            return Err(Error::Corruption("snapshot truncated".into()));
        }
        let flags = body[pos];
        pos += 1;
        if flags & !(FLAG_DIRTY | FLAG_HAS_EXPIRY) != 0 {
            return Err(Error::Corruption(format!("bad snapshot flags {flags}")));
        }
        let expires_at = if flags & FLAG_HAS_EXPIRY != 0 {
            Some(read_varint(body, &mut pos)?)
        } else {
            None
        };
        let key = Key::copy_from(read_bytes(body, &mut pos)?);
        let value = Value::copy_from(read_bytes(body, &mut pos)?);

        if tb_common::is_expired(expires_at, now) {
            continue;
        }
        cache.insert_full(key, value, flags & FLAG_DIRTY != 0, expires_at)?;
        restored += 1;
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use std::sync::Arc;
    use std::time::Duration;
    use tb_common::{deadline_after, Clock, ManualClock};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tb-rdb-{name}-{}.rdb", std::process::id()))
    }

    fn cache_with_clock(clock: Arc<ManualClock>) -> ShardedCache {
        ShardedCache::new(CacheConfig {
            clock,
            ..CacheConfig::with_capacity(1 << 20)
        })
    }

    fn k(i: usize) -> Key {
        Key::from(format!("k{i:04}"))
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        for i in 0..100 {
            src.insert(k(i), Value::from(format!("v{i}")), i % 3 == 0)
                .unwrap();
        }
        let deadline = deadline_after(clock.now_nanos(), Duration::from_secs(60));
        src.insert_full(k(500), Value::from("ttl"), false, Some(deadline))
            .unwrap();

        let path = tmpfile("roundtrip");
        let written = write_snapshot(&src, &path).unwrap();
        assert_eq!(written, 101);

        let dst = cache_with_clock(clock.clone());
        let restored = load_snapshot(&dst, &path).unwrap();
        assert_eq!(restored, 101);
        for i in 0..100 {
            let e = dst.peek_entry(&k(i)).unwrap();
            assert_eq!(e.value, Value::from(format!("v{i}")));
            assert_eq!(e.dirty, i % 3 == 0, "dirty flag preserved");
        }
        // TTL preserved: advance past the deadline and it is gone.
        assert_eq!(dst.get(&k(500)), Some(Value::from("ttl")));
        clock.advance(Duration::from_secs(61));
        assert_eq!(dst.get(&k(500)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expired_entries_skipped_at_load() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        let deadline = deadline_after(clock.now_nanos(), Duration::from_secs(5));
        src.insert_full(k(1), Value::from("dies"), false, Some(deadline))
            .unwrap();
        src.insert(k(2), Value::from("lives"), false).unwrap();
        let path = tmpfile("expired");
        write_snapshot(&src, &path).unwrap();

        clock.advance(Duration::from_secs(10));
        let dst = cache_with_clock(clock.clone());
        let restored = load_snapshot(&dst, &path).unwrap();
        assert_eq!(restored, 1);
        assert!(dst.peek_entry(&k(1)).is_none());
        assert!(dst.peek_entry(&k(2)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_snapshot_is_error_not_panic() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        for i in 0..20 {
            src.insert(k(i), Value::from("x"), false).unwrap();
        }
        let path = tmpfile("corrupt");
        write_snapshot(&src, &path).unwrap();

        // Flip a byte in the middle.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();

        let dst = cache_with_clock(clock);
        assert!(matches!(
            load_snapshot(&dst, &path),
            Err(Error::Corruption(_))
        ));
        assert!(dst.is_empty(), "nothing restored from a bad snapshot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_snapshot_is_error() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        src.insert(k(1), Value::from("x"), false).unwrap();
        let path = tmpfile("trunc");
        write_snapshot(&src, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let dst = cache_with_clock(clock);
        assert!(load_snapshot(&dst, &path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failed_save_leaves_no_tmp_file_and_the_previous_snapshot() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        src.insert(k(1), Value::from("kept"), false).unwrap();
        let dir = tb_common::test_dir("tb-rdb-failed-save");
        let path = dir.create().join("cache.rdb");
        write_snapshot(&src, &path).unwrap();
        // Every write to the tmp file fails: it is a link to a device
        // that is always full.
        let tmp = durable::tmp_path(&path);
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        src.insert(k(2), Value::from("lost"), false).unwrap();
        assert!(write_snapshot(&src, &path).is_err());
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "tmp file left behind"
        );
        let dst = cache_with_clock(clock);
        assert_eq!(load_snapshot(&dst, &path).unwrap(), 1);
        assert_eq!(dst.get(&k(1)), Some(Value::from("kept")));
    }

    #[test]
    fn a_snapshot_in_the_old_layout_is_corruption() {
        // `"TBRD" | version 1 | count | records | crc32(all after magic)`,
        // here holding one clean entry `k0001 = x`.
        let mut after_magic = vec![1, 1, 0, 5];
        after_magic.extend_from_slice(b"k0001");
        after_magic.extend_from_slice(&[1, b'x']);
        let crc = tb_common::crc32(&after_magic);
        let old = [
            &0x5442_5244u32.to_le_bytes()[..],
            &after_magic,
            &crc.to_le_bytes(),
        ]
        .concat();
        let path = tmpfile("old-layout");
        std::fs::write(&path, old).unwrap();
        let dst = cache_with_clock(ManualClock::new());
        let got = load_snapshot(&dst, &path);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(got, Err(Error::Corruption(_))), "{got:?}");
        assert!(dst.is_empty());
    }

    #[test]
    fn empty_cache_snapshot() {
        let clock = ManualClock::new();
        let src = cache_with_clock(clock.clone());
        let path = tmpfile("empty");
        assert_eq!(write_snapshot(&src, &path).unwrap(), 0);
        let dst = cache_with_clock(clock);
        assert_eq!(load_snapshot(&dst, &path).unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
