//! Frame layer of the dist wire protocol.
//!
//! The mechanism — `[u32 len LE][u8 type][payload]` framing, the
//! bounds-checked [`Cursor`], [`put_string`], and the typed [`WireError`] —
//! lives in the shared `swt-wire` crate (the checkpoint server speaks the
//! same framing). This module re-exports those primitives and layers the
//! dist-specific pieces on top: the protocol version and the
//! `dist.frames_tx` / `dist.frames_rx` counters.

use std::io::{Read, Write};

pub use swt_wire::{put_string, Cursor, WireError, MAX_FRAME_LEN};

/// Protocol version exchanged in the handshake. Bump on any frame-layout
/// change: coordinator and worker refuse a peer whose version differs, so
/// each frame has exactly one layout (see [`crate::wire`]).
pub const PROTOCOL_VERSION: u32 = 8;

/// Write one frame. Counts `dist.frames_tx`.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), WireError> {
    swt_wire::write_frame(w, ty, payload)?;
    swt_obs::counter!("dist.frames_tx").inc();
    Ok(())
}

/// Read one frame into `buf` (reused across calls), returning the type
/// byte. Counts `dist.frames_rx`. EOF before a complete header surfaces as
/// `WireError::Io(UnexpectedEof)`.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<u8, WireError> {
    let ty = swt_wire::read_frame(r, buf)?;
    swt_obs::counter!("dist.frames_rx").inc();
    Ok(ty)
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
    fn frame_counters_advance() -> Result<(), WireError> {
        swt_obs::enable(); // counter mutators are gated on enabled()
        let tx0 = swt_obs::counter!("dist.frames_tx").get();
        let rx0 = swt_obs::counter!("dist.frames_rx").get();
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x01, b"x")?;
        let mut buf = Vec::new();
        read_frame(&mut &wire[..], &mut buf)?;
        assert!(swt_obs::counter!("dist.frames_tx").get() > tx0);
        assert!(swt_obs::counter!("dist.frames_rx").get() > rx0);
        Ok(())
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
