//! Key and value byte-string types.

use bytes::Bytes;
use std::fmt;

/// An immutable key. Cheap to clone (reference-counted).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Key(pub Bytes);

/// An immutable value. Cheap to clone (reference-counted).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Value(pub Bytes);

macro_rules! bytes_newtype_impls {
    ($t:ident) => {
        impl $t {
            /// Wraps raw bytes without copying.
            pub fn from_bytes(b: Bytes) -> Self {
                Self(b)
            }

            /// Copies a byte slice into a new instance.
            pub fn copy_from(b: &[u8]) -> Self {
                Self(Bytes::copy_from_slice(b))
            }

            /// Borrow the underlying bytes.
            pub fn as_slice(&self) -> &[u8] {
                &self.0
            }

            /// Length in bytes.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// True when empty.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Consumes self, returning the inner [`Bytes`].
            pub fn into_bytes(self) -> Bytes {
                self.0
            }
        }

        impl From<&str> for $t {
            fn from(s: &str) -> Self {
                Self(Bytes::copy_from_slice(s.as_bytes()))
            }
        }

        impl From<String> for $t {
            fn from(s: String) -> Self {
                Self(Bytes::from(s.into_bytes()))
            }
        }

        impl From<Vec<u8>> for $t {
            fn from(v: Vec<u8>) -> Self {
                Self(Bytes::from(v))
            }
        }

        impl From<&[u8]> for $t {
            fn from(v: &[u8]) -> Self {
                Self::copy_from(v)
            }
        }

        impl AsRef<[u8]> for $t {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match std::str::from_utf8(&self.0) {
                    Ok(s) if s.chars().all(|c| !c.is_control()) => {
                        write!(f, "{}({:?})", stringify!($t), s)
                    }
                    _ => write!(f, "{}(0x{})", stringify!($t), hex(&self.0)),
                }
            }
        }
    };
}

bytes_newtype_impls!(Key);
bytes_newtype_impls!(Value);

/// Smallest key strictly greater than every key starting with `prefix`
/// — the exclusive end of the range scan `[prefix, end)` that serves a
/// prefix scan — or `None` when no such bound exists (empty prefix or
/// all `0xff` bytes: the range is unbounded above).
pub fn prefix_successor(prefix: &[u8]) -> Option<Key> {
    let mut up = prefix.to_vec();
    while let Some(last) = up.pop() {
        if last != 0xff {
            up.push(last + 1);
            return Some(Key::from(up));
        }
    }
    None
}

fn hex(b: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(b.len() * 2);
    for &x in b {
        s.push(TABLE[(x >> 4) as usize] as char);
        s.push(TABLE[(x & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let k = Key::from("user:42");
        assert_eq!(k.as_slice(), b"user:42");
        assert_eq!(k.len(), 7);
        assert!(!k.is_empty());

        let v = Value::from(vec![1u8, 2, 3]);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn clone_is_shallow() {
        let v = Value::from(vec![0u8; 1024]);
        let w = v.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(v.0.as_ptr(), w.0.as_ptr());
    }

    #[test]
    fn debug_printable_and_binary() {
        let k = Key::from("abc");
        assert_eq!(format!("{k:?}"), "Key(\"abc\")");
        let b = Key::from(vec![0u8, 255]);
        assert_eq!(format!("{b:?}"), "Key(0x00ff)");
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor(b"abc"), Some(Key::from("abd")));
        assert_eq!(prefix_successor(b"a\xff"), Some(Key::from("b")));
        assert_eq!(prefix_successor(b"\xff\xff"), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Key::from("a");
        let b = Key::from("ab");
        let c = Key::from("b");
        assert!(a < b && b < c);
    }
}
