//! `swt-wire`: the frame layer shared by every TCP protocol in the
//! workspace — `[u32 len LE][u8 type][payload]`.
//!
//! Extracted from `swt-dist` so the checkpoint server (`swt-ckpt-server`)
//! can speak the same framing without a dependency cycle: the store crate
//! needs frames, and `swt-dist`'s worker needs the store's client. This
//! crate is dependency-free and holds only mechanism — no counters, no
//! protocol versions, no message types. Each protocol layers its own
//! message enum, version constant, and observability on top (`swt-dist`
//! wraps [`read_frame`]/[`write_frame`] to count `dist.frames_*`; the
//! store server counts `ckptsrv.*`).
//!
//! `len` counts the payload bytes only (the type byte is part of the fixed
//! 5-byte header). Frames are capped at [`MAX_FRAME_LEN`]; anything larger
//! is a protocol violation, reported as a [`WireError`] — this crate never
//! panics on malformed input, whatever the peer sends.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame's payload. Large transfers (checkpoints run to
/// megabytes) are chunked into multiple frames by their protocol rather
/// than raising this cap: 1 MiB bounds what a confused or hostile peer can
/// make a receiver allocate per frame.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Everything that can go wrong on the wire. Self-describing (via
/// `Display`) so failures surface as readable run errors, never panics.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes EOF mid-frame).
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Payload too short / trailing garbage / invalid field encoding.
    Malformed(&'static str),
    /// Handshake version disagreement.
    VersionMismatch { ours: u32, theirs: u32 },
    /// The peer reported an error, or sent a frame that is valid but
    /// impossible in the current protocol state.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Write one frame and flush. Protocols that meter traffic wrap this.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(payload.len() as u32));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = ty;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame into `buf` (reused across calls), returning the type
/// byte. EOF before a complete header surfaces as
/// `WireError::Io(UnexpectedEof)`. The length prefix is validated against
/// [`MAX_FRAME_LEN`] *before* any allocation.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<u8, WireError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len as usize > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(header[4])
}

/// Bounds-checked little-endian payload reader used by frame decoders.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Take `n` raw bytes off the front.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed("truncated payload"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Every byte not yet consumed (consumes them). For frames whose tail
    /// is raw data — a chunk of checkpoint bytes — rather than fields.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `[u16 len][bytes]` string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }

    /// Decoding must consume the whole payload: trailing bytes mean the
    /// peer speaks a different dialect.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

/// Append a `[u16 len][bytes]` string to an encode buffer.
pub fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len()).map_err(|_| WireError::Malformed("string too long"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() -> Result<(), WireError> {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x03, b"hello")?;
        write_frame(&mut wire, 0x07, b"")?;
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let ty = read_frame(&mut r, &mut buf)?;
        assert_eq!((ty, buf.as_slice()), (0x03, &b"hello"[..]));
        let ty = read_frame(&mut r, &mut buf)?;
        assert_eq!((ty, buf.len()), (0x07, 0));
        Ok(())
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        // A hostile header announcing 4 GiB must fail fast.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(0x01);
        let mut buf = Vec::new();
        let got = read_frame(&mut &wire[..], &mut buf);
        assert!(matches!(got, Err(WireError::FrameTooLarge(u32::MAX))), "got {got:?}");
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), 0x01, &big),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut wire = Vec::new();
        let _ = write_frame(&mut wire, 0x03, b"hello");
        wire.truncate(wire.len() - 2);
        let mut buf = Vec::new();
        assert!(matches!(read_frame(&mut &wire[..], &mut buf), Err(WireError::Io(_))));
    }

    #[test]
    fn cursor_rejects_truncation_and_trailing_bytes() {
        let mut c = Cursor::new(&[1, 0]);
        assert!(matches!(c.u32(), Err(WireError::Malformed(_))));
        let mut c = Cursor::new(&[1, 0, 0, 0, 9]);
        let _ = c.u32();
        assert!(matches!(c.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn cursor_rest_drains_everything() -> Result<(), WireError> {
        let mut c = Cursor::new(&[7, 1, 2, 3]);
        assert_eq!(c.u8()?, 7);
        assert_eq!(c.rest(), &[1, 2, 3]);
        assert_eq!(c.rest(), &[] as &[u8]);
        c.finish()
    }

    #[test]
    fn string_round_trip_and_invalid_utf8() -> Result<(), WireError> {
        let mut out = Vec::new();
        put_string(&mut out, "namespace_α")?;
        let mut c = Cursor::new(&out);
        assert_eq!(c.string()?, "namespace_α");
        c.finish()?;
        let bad = [2u8, 0, 0xff, 0xfe];
        let mut c = Cursor::new(&bad);
        assert!(matches!(c.string(), Err(WireError::Malformed(_))));
        Ok(())
    }
}
