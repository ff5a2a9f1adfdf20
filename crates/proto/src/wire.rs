//! Length-prefixed framing and primitive codecs.
//!
//! Every protocol message travels as one frame: a 4-byte big-endian
//! payload length followed by the payload. Primitives are fixed-width
//! big-endian integers and length-prefixed UTF-8 strings / byte blobs.

use bytes::{Buf, BufMut, BytesMut};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Frames larger than this are rejected (a 1 MB body plus slack — larger
/// results are legal HTTP but out of scope for the paper's workloads).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Protocol-level errors.
#[derive(Debug)]
pub enum ProtoError {
    Io(io::Error),
    /// Frame length field exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Payload ended before the expected field.
    Truncated(&'static str),
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// A string field held invalid UTF-8.
    BadString,
    /// A field decoded but held an impossible value (e.g. a histogram
    /// bucket index past the layout's end).
    Invalid(&'static str),
    /// A `Batch` frame contained another `Batch` (forbidden: batches are
    /// one level deep so decoding cannot recurse unboundedly).
    NestedBatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            ProtoError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadString => write!(f, "invalid UTF-8 in string field"),
            ProtoError::Invalid(what) => write!(f, "invalid field value: {what}"),
            ProtoError::NestedBatch => write!(f, "nested batch frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Send `parts` as one logical write: a single vectored write, and when
/// the stream took only part of it (a full socket buffer), the rest of
/// each part in order. Nothing is copied.
fn write_all_parts<W: Write>(out: &mut W, parts: [&[u8]; 3]) -> io::Result<()> {
    let slices = parts.map(IoSlice::new);
    let mut written = loop {
        match out.write_vectored(&slices) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => break other?,
        }
    };
    for part in parts {
        let skip = written.min(part.len());
        written -= skip;
        out.write_all(&part[skip..])?;
    }
    out.flush()
}

/// Write one frame: length prefix and payload in one vectored write, so
/// a notice costs one syscall and no payload-sized copy.
pub fn write_frame<W: Write>(out: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    write_frame_split(out, payload, &[])
}

/// Write one frame whose payload is `prefix` followed by `body`,
/// without concatenating them first.
///
/// This is the zero-copy half of the cache-daemon fetch reply: the
/// `FetchHit` tag + content-type + body-length prefix is a few dozen
/// bytes, while `body` is the cached entry (an `Arc<[u8]>` from the
/// memory tier), which goes straight from the cache allocation to the
/// socket.
pub fn write_frame_split<W: Write>(
    out: &mut W,
    prefix: &[u8],
    body: &[u8],
) -> Result<(), ProtoError> {
    let len = prefix.len() + body.len();
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let head = (len as u32).to_be_bytes();
    write_all_parts(out, [&head, prefix, body])?;
    Ok(())
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame<R: Read>(input: &mut R) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut head = [0u8; 4];
    if !read_exact_or_eof(input, &mut head)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(head) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Like `read_exact` but distinguishes EOF-before-first-byte (`false`)
/// from success (`true`); EOF mid-buffer is an error.
fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8]) -> Result<bool, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = input.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof mid-frame",
            )));
        }
        filled += n;
    }
    Ok(true)
}

// ---- primitive codecs over bytes::{Buf, BufMut} ----

pub fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

pub fn get_u8(buf: &mut &[u8]) -> Result<u8, ProtoError> {
    if buf.remaining() < 1 {
        return Err(ProtoError::Truncated("u8"));
    }
    Ok(buf.get_u8())
}

pub fn get_u16(buf: &mut &[u8]) -> Result<u16, ProtoError> {
    if buf.remaining() < 2 {
        return Err(ProtoError::Truncated("u16"));
    }
    Ok(buf.get_u16())
}

pub fn get_u32(buf: &mut &[u8]) -> Result<u32, ProtoError> {
    if buf.remaining() < 4 {
        return Err(ProtoError::Truncated("u32"));
    }
    Ok(buf.get_u32())
}

pub fn get_u64(buf: &mut &[u8]) -> Result<u64, ProtoError> {
    if buf.remaining() < 8 {
        return Err(ProtoError::Truncated("u64"));
    }
    Ok(buf.get_u64())
}

pub fn get_f64(buf: &mut &[u8]) -> Result<f64, ProtoError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, ProtoError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(ProtoError::Truncated("bytes body"));
    }
    let out = buf[..len].to_vec();
    buf.advance(len);
    Ok(out)
}

pub fn get_string(buf: &mut &[u8]) -> Result<String, ProtoError> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| ProtoError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xff; 1000]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![0xff; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn split_frame_equals_concatenated_frame() {
        // Small or large, the wire bytes must be identical to a normal
        // write of prefix ++ body.
        for body_len in [10usize, 100_000] {
            let prefix = b"\x05some-prefix".to_vec();
            let body = vec![0xabu8; body_len];
            let mut split = Vec::new();
            write_frame_split(&mut split, &prefix, &body).unwrap();
            let mut joined = Vec::new();
            let mut payload = prefix.clone();
            payload.extend_from_slice(&body);
            write_frame(&mut joined, &payload).unwrap();
            assert_eq!(split, joined, "body_len={body_len}");
            let mut r = &split[..];
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn split_frame_respects_max_frame() {
        let body = vec![0u8; MAX_FRAME];
        assert!(matches!(
            write_frame_split(&mut Vec::new(), b"p", &body),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"full-frame").unwrap();
        let cut = &wire[..wire.len() - 3];
        let mut r = cut;
        assert!(read_frame(&mut r).is_err());
        // EOF inside the header is also an error.
        let mut r = &wire[..2];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_rejected_on_both_sides() {
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &big),
            Err(ProtoError::FrameTooLarge(_))
        ));
        // Forged header claiming a huge length.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &wire[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn primitive_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(1998);
        buf.put_u32(69_337);
        buf.put_u64(46_156_000_000);
        buf.put_u64(2.5f64.to_bits());
        put_string(&mut buf, "swala");
        put_bytes(&mut buf, &[1, 2, 3]);
        let frozen = buf.freeze();
        let mut r = &frozen[..];
        assert_eq!(get_u8(&mut r).unwrap(), 7);
        assert_eq!(get_u16(&mut r).unwrap(), 1998);
        assert_eq!(get_u32(&mut r).unwrap(), 69_337);
        assert_eq!(get_u64(&mut r).unwrap(), 46_156_000_000);
        assert_eq!(get_f64(&mut r).unwrap(), 2.5);
        assert_eq!(get_string(&mut r).unwrap(), "swala");
        assert_eq!(get_bytes(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_primitives_error_not_panic() {
        let empty: &[u8] = &[];
        assert!(matches!(
            get_u8(&mut { empty }),
            Err(ProtoError::Truncated(_))
        ));
        assert!(matches!(
            get_u64(&mut { empty }),
            Err(ProtoError::Truncated(_))
        ));
        // String length says 10 but only 2 bytes follow.
        let mut bad = BytesMut::new();
        bad.put_u32(10);
        bad.put_slice(b"ab");
        let frozen = bad.freeze();
        let mut r = &frozen[..];
        assert!(matches!(get_string(&mut r), Err(ProtoError::Truncated(_))));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let frozen = buf.freeze();
        let mut r = &frozen[..];
        assert!(matches!(get_string(&mut r), Err(ProtoError::BadString)));
    }
}
