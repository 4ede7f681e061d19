//! The "WTC" (weight-transfer checkpoint) binary formats.
//!
//! Two container versions share this module (all integers little-endian):
//!
//! **WTC2** (current, indexed) — a table-of-contents header followed by the
//! raw payloads, so a reader can recover every tensor's name/shape and
//! verify integrity *without touching payload bytes*:
//!
//! ```text
//! magic    [u8; 4] = b"WTC2"
//! toc_len  u32                     byte length of the TOC block below
//! count    u32
//! repeat count times:
//!   name_len u32, name [u8; name_len] (UTF-8)
//!   rank     u32, dims [u64; rank]
//!   offset   u64                   absolute payload offset in the buffer
//!   checksum u64                   FNV-1a over the payload bytes
//! toc_crc  u64                     FNV-1a over everything before it
//! payloads [f32; ...]              concatenated in TOC order
//! ```
//!
//! Payload offsets are redundant with the shape data; the decoder verifies
//! they match the computed layout, so a corrupted header cannot alias two
//! tensors onto one payload.
//!
//! **WTC1** (legacy, decode-only) interleaves each tensor's header with its
//! data and protects the whole file with one trailing checksum — reading
//! *anything* requires scanning *everything*. [`decode`] accepts both
//! versions; [`encode`] writes WTC2. [`encode_v1`] is kept for
//! compatibility round-trip tests against archived checkpoints.
//!
//! The format is the role HDF5 plays in the paper: a portable container of
//! named, shaped weight tensors. Checksums catch truncation and bit rot —
//! important because NAS reads thousands of provider checkpoints.

use crate::index::{CheckpointIndex, TensorMeta};
use std::fmt;
use std::io::{self, Write};
use swt_tensor::{with_thread_workspace, Tensor, Workspace};

const MAGIC_V1: &[u8; 4] = b"WTC1";
const MAGIC_V2: &[u8; 4] = b"WTC2";

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Wrong magic bytes — not a WTC file.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A tensor name was not valid UTF-8.
    BadName,
    /// Checksum mismatch: the payload was corrupted.
    Corrupt,
    /// Declared sizes overflow addressable memory.
    Oversized,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a WTC checkpoint (bad magic)"),
            FormatError::Truncated => write!(f, "checkpoint truncated"),
            FormatError::BadName => write!(f, "tensor name is not valid UTF-8"),
            FormatError::Corrupt => write!(f, "checksum mismatch (corrupted checkpoint)"),
            FormatError::Oversized => write!(f, "declared tensor size is implausibly large"),
        }
    }
}

impl std::error::Error for FormatError {}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// --- bulk (de)serialisation -------------------------------------------------
//
// The hot loops convert whole slices at once instead of pushing 4 bytes per
// element through `Vec::extend_from_slice`: the destination is sized up
// front and filled through `chunks_exact`, which the compiler lowers to
// straight block copies on little-endian targets (`to_le_bytes` /
// `from_le_bytes` are free there).

/// Append `src` to `out` as little-endian f32 bytes.
fn f32s_to_le_bytes(src: &[f32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + 4 * src.len(), 0);
    for (chunk, &v) in out[start..].chunks_exact_mut(4).zip(src) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Fill `dst` from little-endian f32 bytes. `src.len()` must be
/// `4 * dst.len()`.
fn le_bytes_to_f32s(src: &[u8], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), 4 * dst.len());
    for (v, chunk) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes(chunk.try_into().unwrap());
    }
}

/// FNV-1a over the little-endian byte image of an f32 slice, without
/// materialising it.
fn fnv1a_f32s(data: &[f32]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for v in data {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.buf.len() {
            return Err(FormatError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// One `name_len/name/rank/dims` tensor descriptor (shared by both
    /// container versions).
    fn descriptor(&mut self) -> Result<(String, Vec<usize>, usize), FormatError> {
        let name_len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(name_len)?)
            .map_err(|_| FormatError::BadName)?
            .to_string();
        let rank = self.u32()? as usize;
        let mut raw_dims = Vec::with_capacity(rank.min(16));
        for _ in 0..rank {
            raw_dims.push(self.u64()?);
        }
        let (dims, numel) = checked_dims(&raw_dims)?;
        Ok((name, dims, numel))
    }
}

/// Per-tensor sanity cap: no single tensor in this repository is remotely
/// close to 1 GiB; a declared size beyond that indicates corruption.
const MAX_TENSOR_BYTES: u64 = 1 << 30;

/// Validate declared dimensions with one overflow-checked accumulator (the
/// same value gates the size cap *and* becomes the element count, so a
/// crafted header cannot pass the cap in `u64` and then overflow a 32-bit
/// `usize` product).
fn checked_dims(raw: &[u64]) -> Result<(Vec<usize>, usize), FormatError> {
    let mut numel: u64 = 1;
    for &d in raw {
        // `max(1)` keeps zero dims from masking an overflowing neighbour.
        numel = numel.checked_mul(d.max(1)).ok_or(FormatError::Oversized)?;
    }
    if numel.saturating_mul(4) > MAX_TENSOR_BYTES {
        return Err(FormatError::Oversized);
    }
    let numel = if raw.contains(&0) { 0 } else { numel as usize };
    let dims = raw
        .iter()
        .map(|&d| usize::try_from(d).map_err(|_| FormatError::Oversized))
        .collect::<Result<Vec<usize>, _>>()?;
    Ok((dims, numel))
}

// --- encoding ---------------------------------------------------------------

/// Exact encoded size of a WTC2 checkpoint, computed without encoding.
/// [`encode`] sizes its output buffer with it.
pub fn encoded_len(entries: &[(String, Tensor)]) -> u64 {
    let toc: u64 = 4 + entries
        .iter()
        .map(|(n, t)| 24 + n.len() as u64 + 8 * t.shape().rank() as u64)
        .sum::<u64>();
    8 + toc + 8 + entries.iter().map(|(_, t)| 4 * t.numel() as u64).sum::<u64>()
}

/// Serialise named tensors into a WTC2 buffer.
///
/// ```
/// use swt_checkpoint::{encode, decode};
/// use swt_tensor::Tensor;
/// let entries = vec![("layer/kernel".to_string(), Tensor::ones([2, 3]))];
/// let decoded = decode(&encode(&entries)).unwrap();
/// assert_eq!(decoded[0].0, "layer/kernel");
/// assert!(decoded[0].1.approx_eq(&entries[0].1, 0.0));
/// ```
pub fn encode(entries: &[(String, Tensor)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(entries) as usize);
    encode_to(entries, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Stream a WTC2 checkpoint into `w`, returning the bytes written. The
/// header is materialised (it is small); payloads are written straight from
/// the tensors, so saving never allocates a full copy of the checkpoint.
pub fn encode_to<W: Write>(entries: &[(String, Tensor)], w: &mut W) -> io::Result<u64> {
    let toc_len: usize =
        4 + entries.iter().map(|(n, t)| 24 + n.len() + 8 * t.shape().rank()).sum::<usize>();
    let mut header = Vec::with_capacity(8 + toc_len + 8);
    header.extend_from_slice(MAGIC_V2);
    header.extend_from_slice(&(toc_len as u32).to_le_bytes());
    header.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let mut offset = (8 + toc_len + 8) as u64;
    for (name, tensor) in entries {
        header.extend_from_slice(&(name.len() as u32).to_le_bytes());
        header.extend_from_slice(name.as_bytes());
        header.extend_from_slice(&(tensor.shape().rank() as u32).to_le_bytes());
        for &d in tensor.shape().dims() {
            header.extend_from_slice(&(d as u64).to_le_bytes());
        }
        header.extend_from_slice(&offset.to_le_bytes());
        header.extend_from_slice(&fnv1a_f32s(tensor.data()).to_le_bytes());
        offset += 4 * tensor.numel() as u64;
    }
    debug_assert_eq!(header.len(), 8 + toc_len);
    let crc = fnv1a(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&header)?;
    let mut scratch = Vec::new();
    for (_, tensor) in entries {
        scratch.clear();
        f32s_to_le_bytes(tensor.data(), &mut scratch);
        w.write_all(&scratch)?;
    }
    Ok(offset)
}

/// Serialise into the legacy WTC1 layout. Kept so compatibility round-trip
/// tests can prove [`decode`] still reads pre-index checkpoints.
pub fn encode_v1(entries: &[(String, Tensor)]) -> Vec<u8> {
    let payload: usize =
        entries.iter().map(|(n, t)| 4 + n.len() + 4 + 8 * t.shape().rank() + 4 * t.numel()).sum();
    let mut buf = Vec::with_capacity(4 + 4 + payload + 8);
    buf.extend_from_slice(MAGIC_V1);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, tensor) in entries {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(tensor.shape().rank() as u32).to_le_bytes());
        for &d in tensor.shape().dims() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        f32s_to_le_bytes(tensor.data(), &mut buf);
    }
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

// --- index parsing ----------------------------------------------------------

/// Parse a checkpoint's table of contents.
///
/// For WTC2, `buf` only needs to hold the header (magic through `toc_crc`) —
/// this is what lets [`crate::DirStore`] index a checkpoint by reading a few
/// hundred bytes of a multi-megabyte file. For WTC1 the layout interleaves
/// headers with data, so the full buffer is required (and its trailing
/// checksum is verified).
pub fn parse_index(buf: &[u8]) -> Result<CheckpointIndex, FormatError> {
    if buf.len() < 4 {
        return Err(FormatError::Truncated);
    }
    match &buf[..4] {
        m if m == MAGIC_V2 => parse_index_v2(buf),
        m if m == MAGIC_V1 => parse_index_v1(buf),
        _ => Err(FormatError::BadMagic),
    }
}

fn parse_index_v2(buf: &[u8]) -> Result<CheckpointIndex, FormatError> {
    if buf.len() < 8 {
        return Err(FormatError::Truncated);
    }
    let toc_len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let header_end = 8 + toc_len;
    if buf.len() < header_end + 8 {
        return Err(FormatError::Truncated);
    }
    let declared = u64::from_le_bytes(buf[header_end..header_end + 8].try_into().unwrap());
    if fnv1a(&buf[..header_end]) != declared {
        return Err(FormatError::Corrupt);
    }
    let mut r = Reader { buf: &buf[..header_end], pos: 8 };
    let count = r.u32()? as usize;
    // Each entry occupies at least 24 TOC bytes; a larger count is a lie.
    if count > toc_len / 24 {
        return Err(FormatError::Corrupt);
    }
    let mut tensors = Vec::with_capacity(count);
    let mut expected_offset = (header_end + 8) as u64;
    for _ in 0..count {
        let (name, dims, numel) = r.descriptor()?;
        let offset = r.u64()?;
        let checksum = r.u64()?;
        // Offsets are implied by the shapes; a mismatch means the header
        // was tampered with (e.g. two entries aliasing one payload).
        if offset != expected_offset {
            return Err(FormatError::Corrupt);
        }
        expected_offset += 4 * numel as u64;
        tensors.push(TensorMeta { name, dims, offset, checksum });
    }
    if r.pos != header_end {
        return Err(FormatError::Corrupt);
    }
    Ok(CheckpointIndex::new(2, tensors, expected_offset))
}

fn parse_index_v1(buf: &[u8]) -> Result<CheckpointIndex, FormatError> {
    if buf.len() < 4 + 4 + 8 {
        return Err(FormatError::Truncated);
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != declared {
        return Err(FormatError::Corrupt);
    }
    let mut r = Reader { buf: body, pos: 4 };
    let count = r.u32()? as usize;
    let mut tensors = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let (name, dims, numel) = r.descriptor()?;
        let offset = r.pos as u64;
        r.take(4 * numel)?; // skip the payload, bounds-checked
        tensors.push(TensorMeta { name, dims, offset, checksum: 0 });
    }
    if r.pos != body.len() {
        return Err(FormatError::Corrupt);
    }
    Ok(CheckpointIndex::new(1, tensors, buf.len() as u64))
}

// --- decoding ---------------------------------------------------------------

/// Convert one tensor's raw payload bytes (already isolated, e.g. by a
/// seeked file read or a network range response) into a tensor, verifying
/// the per-tensor checksum when the container records one. The f32 buffer
/// comes from `ws`, so steady-state decoding reuses storage instead of
/// allocating. Public because the remote store's client reassembles
/// tensors from `GetTensors` range payloads with exactly this routine.
pub fn tensor_from_payload(
    meta: &TensorMeta,
    raw: &[u8],
    version: u8,
    ws: &mut Workspace,
) -> Result<Tensor, FormatError> {
    let numel = meta.numel();
    if raw.len() != 4 * numel {
        return Err(FormatError::Truncated);
    }
    if version == 2 && fnv1a(raw) != meta.checksum {
        return Err(FormatError::Corrupt);
    }
    let mut data = ws.take(numel);
    le_bytes_to_f32s(raw, &mut data);
    Ok(Tensor::from_vec(meta.dims.clone(), data))
}

fn extract(
    buf: &[u8],
    index: &CheckpointIndex,
    meta: &TensorMeta,
    ws: &mut Workspace,
) -> Result<Tensor, FormatError> {
    let start = usize::try_from(meta.offset).map_err(|_| FormatError::Oversized)?;
    let len = 4 * meta.numel();
    if start.checked_add(len).is_none_or(|end| end > buf.len()) {
        return Err(FormatError::Truncated);
    }
    tensor_from_payload(meta, &buf[start..start + len], index.version(), ws)
}

/// Deserialise a full WTC buffer (either container version).
pub fn decode(buf: &[u8]) -> Result<Vec<(String, Tensor)>, FormatError> {
    let index = parse_index(buf)?;
    if (buf.len() as u64) < index.encoded_len() {
        return Err(FormatError::Truncated);
    }
    if (buf.len() as u64) > index.encoded_len() {
        return Err(FormatError::Corrupt);
    }
    with_thread_workspace(|ws| {
        index.tensors().iter().map(|m| Ok((m.name.clone(), extract(buf, &index, m, ws)?))).collect()
    })
}

/// Deserialise only the named tensors from an encoded buffer, using a
/// previously parsed index. Names absent from the checkpoint are silently
/// omitted (mirroring `CheckpointStore::load_tensors`); payload bytes of
/// unrequested tensors are never touched.
pub fn decode_tensors(
    buf: &[u8],
    index: &CheckpointIndex,
    names: &[String],
) -> Result<Vec<(String, Tensor)>, FormatError> {
    let want: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
    with_thread_workspace(|ws| {
        index
            .tensors()
            .iter()
            .filter(|m| want.contains(m.name.as_str()))
            .map(|m| Ok((m.name.clone(), extract(buf, index, m, ws)?)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_tensor::Rng;

    fn sample_entries() -> Vec<(String, Tensor)> {
        let mut rng = Rng::seed(1);
        vec![
            ("n1_conv2d/kernel".into(), Tensor::rand_normal([3, 3, 1, 4], 0.0, 1.0, &mut rng)),
            ("n1_conv2d/bias".into(), Tensor::zeros([4])),
            ("n5_dense/kernel".into(), Tensor::rand_normal([36, 10], 0.0, 1.0, &mut rng)),
            ("scalarish".into(), Tensor::from_vec([1], vec![42.0])),
        ]
    }

    fn assert_same(a: &[(String, Tensor)], b: &[(String, Tensor)]) {
        assert_eq!(a.len(), b.len());
        for ((n1, t1), (n2, t2)) in a.iter().zip(b) {
            assert_eq!(n1, n2);
            assert_eq!(t1.shape(), t2.shape());
            assert!(t1.approx_eq(t2, 0.0));
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let entries = sample_entries();
        assert_same(&entries, &decode(&encode(&entries)).unwrap());
    }

    #[test]
    fn wtc1_compat_round_trip() {
        // Archived WTC1 checkpoints must stay readable by the v2 decoder.
        let entries = sample_entries();
        assert_same(&entries, &decode(&encode_v1(&entries)).unwrap());
    }

    #[test]
    fn encoded_len_is_exact() {
        for entries in [sample_entries(), Vec::new()] {
            assert_eq!(encode(&entries).len() as u64, encoded_len(&entries));
        }
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let decoded = decode(&encode(&[])).unwrap();
        assert!(decoded.is_empty());
        assert!(decode(&encode_v1(&[])).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = encode(&sample_entries());
        buf[0] = b'X';
        assert_eq!(decode(&buf).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn truncation_detected_in_both_versions() {
        for buf in [encode(&sample_entries()), encode_v1(&sample_entries())] {
            // Any prefix must fail (checksum or truncation, never panic).
            for cut in [0, 3, 10, buf.len() / 2, buf.len() - 1] {
                assert!(decode(&buf[..cut]).is_err(), "cut at {cut} accepted");
            }
            let mut extended = buf.clone();
            extended.push(0);
            assert!(decode(&extended).is_err(), "trailing junk accepted");
        }
    }

    #[test]
    fn bit_flip_detected_everywhere() {
        let clean = encode(&sample_entries());
        // Flip one bit at a spread of positions covering the header (TOC),
        // the TOC checksum and several payload bytes: every flip must be
        // caught by either the header CRC or a per-tensor checksum.
        for pos in [5, 9, 20, clean.len() / 2, clean.len() - 1] {
            let mut buf = clean.clone();
            buf[pos] ^= 0x40;
            assert!(decode(&buf).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn index_reads_from_header_prefix_alone() {
        let entries = sample_entries();
        let buf = encode(&entries);
        let full = parse_index(&buf).unwrap();
        assert_eq!(full.version(), 2);
        assert_eq!(full.len(), entries.len());
        assert_eq!(full.encoded_len(), buf.len() as u64);
        // The header alone (no payload bytes at all) yields the same index.
        let header_len = (buf.len() as u64 - full.payload_bytes()) as usize;
        let from_prefix = parse_index(&buf[..header_len]).unwrap();
        assert_eq!(full, from_prefix);
        for (meta, (name, tensor)) in full.tensors().iter().zip(&entries) {
            assert_eq!(&meta.name, name);
            assert_eq!(meta.shape(), *tensor.shape());
            assert!(meta.offset >= header_len as u64);
        }
    }

    #[test]
    fn wtc1_index_recovers_names_and_shapes() {
        let entries = sample_entries();
        let index = parse_index(&encode_v1(&entries)).unwrap();
        assert_eq!(index.version(), 1);
        let shapes = index.param_shapes();
        assert_eq!(shapes.len(), entries.len());
        for ((name, shape), (n, t)) in shapes.iter().zip(&entries) {
            assert_eq!(name, n);
            assert_eq!(shape, t.shape());
        }
    }

    #[test]
    fn partial_decode_touches_only_requested_tensors() {
        let entries = sample_entries();
        let buf = encode(&entries);
        let index = parse_index(&buf).unwrap();
        let names = vec!["n5_dense/kernel".to_string(), "missing".to_string()];
        let got = decode_tensors(&buf, &index, &names).unwrap();
        assert_eq!(got.len(), 1, "missing names are omitted, not errors");
        assert_eq!(got[0].0, "n5_dense/kernel");
        assert!(got[0].1.approx_eq(&entries[2].1, 0.0));
        // Corrupt an *unrequested* payload: the partial read must not care.
        let mut dirty = buf.clone();
        let first = index.get("n1_conv2d/kernel").unwrap();
        dirty[first.offset as usize] ^= 0xFF;
        assert!(decode_tensors(&dirty, &index, &names).is_ok());
        // ... but a corrupt *requested* payload is caught.
        let dense = index.get("n5_dense/kernel").unwrap();
        let mut dirty = buf;
        dirty[dense.offset as usize] ^= 0xFF;
        assert_eq!(decode_tensors(&dirty, &index, &names).unwrap_err(), FormatError::Corrupt);
    }

    #[test]
    fn oversized_dims_rejected_without_overflow() {
        // A crafted header declaring astronomically large dims must yield
        // Oversized via the checked accumulator, not overflow (the old
        // decoder recomputed numel unchecked as usize).
        for dims in [vec![u64::MAX, u64::MAX], vec![u64::MAX], vec![1 << 40, 1 << 40]] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC_V1);
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(b'x');
            buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for d in &dims {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            let checksum = fnv1a(&buf);
            buf.extend_from_slice(&checksum.to_le_bytes());
            assert_eq!(decode(&buf).unwrap_err(), FormatError::Oversized);
        }
    }

    #[test]
    fn size_matches_f32_payload_plus_small_overhead() {
        // Fig. 11 reads checkpoint sizes; they must track parameter bytes.
        // WTC2 adds 24 TOC bytes per tensor over WTC1, still negligible
        // next to any real layer's payload.
        let entries = sample_entries();
        let payload: usize = entries.iter().map(|(_, t)| t.numel() * 4).sum();
        let buf = encode(&entries);
        assert!(buf.len() > payload);
        assert!(buf.len() < payload + 384, "overhead too large: {}", buf.len() - payload);
    }
}
