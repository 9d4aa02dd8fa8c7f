//! Offline shim for the `bytes` crate.
//!
//! The build container has no network access to crates.io, so the
//! workspace vendors a minimal, API-compatible subset of `bytes`:
//! a cheaply-clonable, reference-counted, sliceable immutable byte
//! buffer. Clones and sub-slices share one backing allocation, which
//! is the property `tb-common`'s `Key`/`Value` types rely on.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// Copies `data` into a freshly allocated buffer: one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(data);
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same backing allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted, matching the
    /// real crate's behavior.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range out of bounds: {begin}..{end} of {len}"
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v);
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Self::from(b.into_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    /// Collects through `Arc<[u8]>`, which allocates once for an
    /// iterator of known length (a chain of slices, say) and goes
    /// through a `Vec` otherwise.
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let data: Arc<[u8]> = iter.into_iter().collect();
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn slices_share_and_window() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = a.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(unsafe { a.as_ptr().add(2) }, s.as_ptr());
        let t = s.slice(1..);
        assert_eq!(&t[..], &[3, 4]);
    }

    #[test]
    fn ordering_and_eq() {
        assert!(Bytes::from(vec![1u8]) < Bytes::from(vec![1u8, 0]));
        assert_eq!(Bytes::copy_from_slice(b"ab"), Bytes::from(b"ab".to_vec()));
    }
}
