//! LEB128 variable-length integers for on-disk encodings.

use crate::{Error, Result};

/// Hands `v`'s LEB128 bytes to `emit` in order: the one encoder behind
/// [`write_varint`] and [`varint_bytes`].
#[inline(always)]
fn encode(mut v: u64, mut emit: impl FnMut(u8)) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return emit(b);
        }
        emit(b | 0x80);
    }
}

/// Appends `v` as a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    encode(v, |b| out.push(b));
}

/// `v` as a LEB128 varint on the stack, for a caller that must not
/// allocate: the varint is the first `len` bytes of the returned
/// buffer.
#[inline]
pub fn varint_bytes(v: u64) -> ([u8; 10], usize) {
    let (mut bytes, mut len) = ([0u8; 10], 0);
    encode(v, |b| {
        bytes[len] = b;
        len += 1;
    });
    (bytes, len)
}

/// Reads a LEB128 varint at `*pos`, advancing it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| Error::Corruption("varint truncated".into()))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corruption("varint too long".into()));
        }
    }
}

/// Appends `bytes` after their length as a varint.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads bytes [`write_bytes`] wrote at `*pos`, advancing it. A length
/// past the end of `buf` is [`Error::Corruption`].
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = read_varint(buf, pos)?;
    let bytes = usize::try_from(len)
        .ok()
        .and_then(|len| buf.get(*pos..pos.checked_add(len)?))
        .ok_or_else(|| {
            Error::Corruption(format!("{len} bytes overflow a {}-byte buffer", buf.len()))
        })?;
    *pos += bytes.len();
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = vec![];
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
            let (stacked, len) = varint_bytes(v);
            assert_eq!(&stacked[..len], &buf[..]);
        }
    }

    #[test]
    fn truncated_is_error() {
        let mut buf = vec![];
        write_varint(&mut buf, 1 << 20);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn bytes_roundtrip_and_overflow_is_corruption() {
        let mut buf = vec![];
        write_bytes(&mut buf, b"abc");
        write_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"abc");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
        // A length one past the end, and one whose end overflows usize.
        for len in [4, u64::MAX] {
            let mut buf = vec![];
            write_varint(&mut buf, len);
            buf.extend_from_slice(b"abc");
            let got = read_bytes(&buf, &mut 0);
            assert!(matches!(got, Err(Error::Corruption(_))), "{len}: {got:?}");
        }
    }

    #[test]
    fn overlong_is_error() {
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }
}
