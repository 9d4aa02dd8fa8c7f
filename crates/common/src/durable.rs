//! Durable files: the one way the store publishes, frames and sweeps a
//! file it creates or replaces.
//!
//! The rule every persistence file follows: a file the store creates or
//! replaces is durable by name before anything in it is acknowledged.
//!
//! * [`publish`] replaces a whole file: write `<name>.tmp`, fsync it,
//!   rename it over `<name>`, fsync the directory. A crash at any step
//!   leaves `<name>` holding the old bytes or the new ones, never a
//!   mix, plus at worst the tmp file. An error removes the tmp file. A
//!   publisher names a fault site for each step ([`Sites`], and one
//!   write site per part), so torture tests reach every one of them.
//! * [`sync_parent`] makes a just-created file's name durable, for a
//!   file that grows in place (a write-ahead log) rather than being
//!   published.
//! * [`sweep_tmp`] removes the tmp files a crash left behind; an `open`
//!   calls it on its directory.
//! * [`seal`] and [`unseal`] frame a whole file as
//!   `MAGIC u32 | crc32(body) u32 | body`. `MAGIC` names the body's
//!   layout, so a file in any other layout fails [`unseal`] as
//!   [`Error::Corruption`], as does a torn or bit-flipped one.

use crate::{crc32, fault, Error, Result};
use std::fs::File;
use std::path::{Path, PathBuf};

/// The suffix [`publish`] appends to a file's name for its tmp file.
const TMP_SUFFIX: &str = ".tmp";

/// The fault sites of [`publish`]'s steps after the writes.
#[derive(Debug, Clone, Copy)]
pub struct Sites {
    /// Hit before the tmp file is fsynced.
    pub sync: &'static str,
    /// Hit before the tmp file is renamed over the target.
    pub rename: &'static str,
    /// Hit before the parent directory is fsynced.
    pub dir_sync: &'static str,
}

/// `path` with [`TMP_SUFFIX`] appended to its file name.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Durably replaces `path` with the concatenation of `parts`, each
/// written through its `(write site, bytes)` pair. On `Ok`, the new
/// file is in place by name. On `Err`, no tmp file remains and `path`
/// holds its old bytes, or the new ones when only the directory fsync
/// failed.
pub fn publish(path: &Path, sites: &Sites, parts: &[(&'static str, &[u8])]) -> Result<()> {
    let tmp = tmp_path(path);
    let published = (|| -> Result<()> {
        let mut f = File::create(&tmp)?;
        for &(site, bytes) in parts {
            fault::write_all(site, &mut f, bytes)?;
        }
        fault::hit(sites.sync)?;
        f.sync_all()?;
        fault::hit(sites.rename)?;
        std::fs::rename(&tmp, path)?;
        fault::hit(sites.dir_sync)?;
        sync_parent(path)
    })();
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Fsyncs the directory holding `path`, so a file just created or
/// renamed there survives a power loss by name. A bare relative file
/// name's directory is `.`.
pub fn sync_parent(path: &Path) -> Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Removes every `*.tmp` file in `dir`: what a crash mid-[`publish`]
/// left behind. Removal is best effort; a file that stays is swept
/// again at the next open.
pub fn sweep_tmp(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Frames `body` as a whole file: `magic | crc32(body) | body`.
pub fn seal(magic: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The body of a file [`seal`]ed under `magic`. A short file, another
/// magic or a checksum mismatch is [`Error::Corruption`] naming `what`.
pub fn unseal<'a>(magic: u32, file: &'a [u8], what: &str) -> Result<&'a [u8]> {
    let corrupt = |why: &str| Error::Corruption(format!("{what}: {why}"));
    let (header, body) = file
        .split_first_chunk::<8>()
        .ok_or_else(|| corrupt("truncated"))?;
    let (found, crc) = header.split_at(4);
    if found != magic.to_le_bytes() {
        return Err(corrupt("bad magic"));
    }
    if crc != crc32(body).to_le_bytes() {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{arm_scoped, FaultMode};

    const MAGIC: u32 = 0x7b54_4553;

    /// Site names of their own per test: injections are scoped to the
    /// arming thread, and tests run in parallel.
    fn sites(tag: &'static str) -> (&'static str, Sites) {
        let name = |step: &str| -> &'static str { format!("t.durable.{tag}.{step}").leak() };
        let sites = Sites {
            sync: name("sync"),
            rename: name("rename"),
            dir_sync: name("dir_sync"),
        };
        (name("write"), sites)
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_str().unwrap().ends_with(TMP_SUFFIX))
            .collect()
    }

    #[test]
    fn an_error_at_any_step_leaves_no_tmp_and_the_old_or_new_file() {
        for (tag, step) in [
            ("err-write", 0),
            ("err-sync", 1),
            ("err-rename", 2),
            ("err-dir", 3),
        ] {
            let dir = crate::test_dir(&format!("tb-durable-{tag}"));
            let path = dir.create().join("target");
            let (write, sites) = sites(tag);
            publish(&path, &sites, &[(write, b"old")]).unwrap();
            let site = [write, sites.sync, sites.rename, sites.dir_sync][step];
            let guard = arm_scoped(site, 1, FaultMode::Error);
            let err = publish(&path, &sites, &[(write, b"new"), (write, b" bytes")]);
            assert!(guard.fired(), "{site}");
            assert!(
                matches!(err, Err(Error::FaultInjected(_))),
                "{site}: {err:?}"
            );
            assert!(tmp_files(dir.path()).is_empty(), "{site}: tmp left behind");
            let now = std::fs::read(&path).unwrap();
            assert!(
                now == b"old" || now == b"new bytes",
                "{site}: target is {now:?}"
            );
        }
    }

    #[test]
    fn a_crash_leaves_the_old_or_new_file_and_a_sweepable_tmp() {
        for (tag, step) in [("crash-write", 0), ("crash-rename", 2)] {
            let dir = crate::test_dir(&format!("tb-durable-{tag}"));
            let path = dir.create().join("target");
            let (write, sites) = sites(tag);
            publish(&path, &sites, &[(write, b"old")]).unwrap();
            let site = [write, sites.sync, sites.rename, sites.dir_sync][step];
            let guard = arm_scoped(site, 1, FaultMode::Torn { keep: 1 });
            let crashed = std::panic::catch_unwind(|| publish(&path, &sites, &[(write, b"new")]));
            assert!(crashed.is_err(), "{site}: the crash unwinds");
            drop(guard);
            assert_eq!(std::fs::read(&path).unwrap(), b"old", "{site}");
            assert_eq!(
                tmp_files(dir.path()).len(),
                1,
                "{site}: the crash left its tmp"
            );
            sweep_tmp(dir.path()).unwrap();
            assert!(tmp_files(dir.path()).is_empty(), "{site}: swept");
            assert_eq!(std::fs::read(&path).unwrap(), b"old", "{site}");
        }
    }

    #[test]
    fn publish_replaces_an_existing_file() {
        let dir = crate::test_dir("tb-durable-replace");
        let path = dir.create().join("target");
        let (write, sites) = sites("replace");
        publish(&path, &sites, &[(write, b"first, and longer")]).unwrap();
        publish(&path, &sites, &[(write, b"second")]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(tmp_files(dir.path()).is_empty());
    }

    #[test]
    fn a_bare_relative_file_name_publishes() {
        // The only test that publishes into the working directory.
        let name = Path::new("tb-durable-bare-name.bin");
        let (write, sites) = sites("bare");
        publish(name, &sites, &[(write, b"here")]).unwrap();
        let read = std::fs::read(name);
        let _ = std::fs::remove_file(name);
        assert_eq!(read.unwrap(), b"here");
        assert!(!tmp_path(name).exists());
    }

    #[test]
    fn tmp_path_appends_the_suffix_to_the_name() {
        assert_eq!(
            tmp_path(Path::new("d/cache.rdb")),
            Path::new("d/cache.rdb.tmp")
        );
        assert_eq!(tmp_path(Path::new("7.sst")), Path::new("7.sst.tmp"));
    }

    #[test]
    fn sweep_removes_only_tmp_files() {
        let dir = crate::test_dir("tb-durable-sweep");
        let d = dir.create();
        for name in ["a.tmp", "cache.model.7.tmp", "cache.model.7", "keep.tmpx"] {
            std::fs::write(d.join(name), b"x").unwrap();
        }
        sweep_tmp(d).unwrap();
        let mut left: Vec<_> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["cache.model.7", "keep.tmpx"]);
    }

    #[test]
    fn unseal_returns_the_sealed_body() {
        for body in [&b""[..], b"x", b"a longer body of bytes"] {
            assert_eq!(unseal(MAGIC, &seal(MAGIC, body), "t").unwrap(), body);
        }
    }

    #[test]
    fn wrong_magic_flipped_bits_and_truncation_are_corruption() {
        let file = seal(MAGIC, b"some body bytes");
        let corrupt = |bytes: &[u8], magic: u32| {
            let got = unseal(magic, bytes, "t");
            assert!(matches!(got, Err(Error::Corruption(_))), "{got:?}");
        };
        corrupt(&file, MAGIC ^ 1);
        for bit in 0..file.len() * 8 {
            let mut flipped = file.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            corrupt(&flipped, MAGIC);
        }
        for cut in 0..file.len() {
            corrupt(&file[..cut], MAGIC);
        }
    }
}
