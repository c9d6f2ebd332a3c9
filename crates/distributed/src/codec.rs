//! The wire format of a round's records (DESIGN.md §6.13) — the one place
//! that decides how they are laid out in a packet.
//!
//! Every batch the distributed algorithm exchanges is a run of records
//! whose integer fields are small and strongly clustered: module and
//! vertex IDs within one bucket are near each other (the senders sort
//! buckets by ID), member counts are tiny, and flags are booleans. The
//! codecs here exploit that with three primitives —
//!
//! * **LEB128 unsigned varints** for counts and magnitudes,
//! * **zigzag deltas** between consecutive IDs of the same field stream
//!   (sorted buckets make most deltas one byte),
//! * **bit-packed flag bitmaps** hoisted in front of the records,
//!
//! while every `f64` travels as its raw 8 little-endian bytes. Floats are
//! never transformed, rounded or delta-encoded: the payloads that feed δL
//! arithmetic and MDL sums have to arrive with the exact bits they left
//! with, or ranks would diverge. Decoding mirrors
//! encoding exactly; `decode(encode(batch)) == batch` holds for
//! *arbitrary* batches — including NaN payloads and unsorted IDs — which
//! the seeded sweep in `tests/codec_sweep.rs` exercises.
//!
//! Each record codec has one implementation: closure-fed encoders
//! (`encode_*_with(buf, n, |i| record)`) that encode straight from a
//! sender's state, and visitor decoders (`for_each_*(buf, pos, |record|
//! ..)`) that apply record by record; the slice APIs wrap them. Decoders
//! bounds-check every byte and believe a count only if the bytes left can
//! hold it, so a short or corrupt packet is a named [`CodecError`] — never
//! a panic, nor an allocation sized off the wire.

use std::fmt;

use crate::messages::{DelegateProposal, ModuleContribution, ModuleInfoMsg, VertexUpdate};

/// Why a batch did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends at byte `at`, inside a field.
    Truncated { at: usize },
    /// A batch count larger than the bytes left after it can hold.
    CountExceedsRemaining { count: u64, remaining: usize },
    /// A varint at byte `at` runs past the 10 bytes of a `u64`.
    OverlongVarint { at: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed batch: {self:?}")
    }
}

impl std::error::Error for CodecError {}

/// What a decoder returns: the records it read, or why it stopped.
pub type Decoded<T = usize> = Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// Append `v` as a LEB128 unsigned varint (1–10 bytes).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read a LEB128 unsigned varint at `*pos`, advancing it.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Decoded<u64> {
    let start = *pos;
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let b = get_byte(buf, pos)?;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    Err(CodecError::OverlongVarint { at: start })
}

fn get_byte(buf: &[u8], pos: &mut usize) -> Decoded<u8> {
    let b = *buf.get(*pos).ok_or(CodecError::Truncated { at: *pos })?;
    *pos += 1;
    Ok(b)
}

/// Map a signed value onto an unsigned one with small magnitudes first
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `cur` as a zigzag delta from `prev` (wrapping, so arbitrary
/// u64 pairs — sorted or not — roundtrip).
fn put_delta(buf: &mut Vec<u8>, prev: u64, cur: u64) {
    put_uvarint(buf, zigzag(cur.wrapping_sub(prev) as i64));
}

/// Read a zigzag delta and apply it to `prev`.
fn get_delta(buf: &[u8], pos: &mut usize, prev: u64) -> Decoded<u64> {
    Ok(prev.wrapping_add(unzigzag(get_uvarint(buf, pos)?) as u64))
}

/// Append the raw bits of `v` (8 bytes, little-endian). Bit-exact for
/// every payload including NaNs and signed zeros.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read 8 little-endian bytes back into an `f64`, bit-exactly.
pub fn get_f64(buf: &[u8], pos: &mut usize) -> Decoded<f64> {
    let raw = buf.get(*pos..).and_then(|rest| rest.first_chunk::<8>());
    let raw = raw.ok_or(CodecError::Truncated { at: *pos })?;
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(*raw)))
}

/// Append a zeroed bitmap of `n` bits (⌈n/8⌉ bytes; the length travels
/// separately as the batch count) and return its offset, so the records
/// that follow set their bits as they are written.
fn put_bitmap(buf: &mut Vec<u8>, n: usize) -> usize {
    let at = buf.len();
    buf.resize(at + n.div_ceil(8), 0);
    at
}

/// Set bit `i` (LSB first) of the bitmap at `at`.
fn set_bit(buf: &mut [u8], at: usize, i: usize, bit: bool) {
    buf[at + i / 8] |= (bit as u8) << (i % 8);
}

/// Bit `i` of the bitmap at `at`; [`get_count`] has checked it is there.
fn bit(buf: &[u8], at: usize, i: usize) -> bool {
    buf[at + i / 8] >> (i % 8) & 1 == 1
}

/// Read a batch count, believing it only if the bytes after it can hold
/// that many records: `bitmaps` bitmaps of ⌈n/8⌉ bytes plus at least
/// `min` bytes per record. Returns the count and the offset of the
/// first bitmap, with `*pos` past the bitmaps.
fn get_count(buf: &[u8], pos: &mut usize, bitmaps: u128, min: u128) -> Decoded<(usize, usize)> {
    let count = get_uvarint(buf, pos)?;
    let remaining = buf.len() - *pos;
    let n = count as u128;
    if n * min + bitmaps * n.div_ceil(8) > remaining as u128 {
        return Err(CodecError::CountExceedsRemaining { count, remaining });
    }
    let at = *pos;
    *pos += bitmaps as usize * (count as usize).div_ceil(8);
    Ok((count as usize, at))
}

/// The slice API over a visitor decoder. A malformed batch panics with the
/// decoder's error: the round exchanges call the visitors and name the
/// exchange and the sending rank instead.
fn collect<T>(visit: impl FnOnce(&mut dyn FnMut(T)) -> Decoded) -> Vec<T> {
    let mut out = Vec::new();
    if let Err(e) = visit(&mut |record| out.push(record)) {
        panic!("{e}");
    }
    out
}

// ---------------------------------------------------------------------------
// Batch codecs. Encoders append to `buf` (so several batches fuse into one
// packet); decoders advance `pos` symmetrically and return the record count.
// ---------------------------------------------------------------------------

/// Boundary community-ID updates: count, then per record a zigzag-delta
/// vertex and a zigzag-delta module (each field delta-chained against its
/// own predecessor).
pub fn encode_updates_with(
    buf: &mut Vec<u8>,
    n: usize,
    mut record: impl FnMut(usize) -> VertexUpdate,
) {
    put_uvarint(buf, n as u64);
    let (mut pv, mut pm) = (0u64, 0u64);
    for i in 0..n {
        let u = record(i);
        put_delta(buf, pv, u.vertex as u64);
        put_delta(buf, pm, u.module);
        pv = u.vertex as u64;
        pm = u.module;
    }
}

/// [`encode_updates_with`] over a slice.
pub fn encode_updates(buf: &mut Vec<u8>, updates: &[VertexUpdate]) {
    encode_updates_with(buf, updates.len(), |i| updates[i]);
}

/// Visit every record of an [`encode_updates_with`] batch.
pub fn for_each_update(buf: &[u8], pos: &mut usize, mut f: impl FnMut(VertexUpdate)) -> Decoded {
    let (n, _) = get_count(buf, pos, 0, 2)?;
    let (mut pv, mut pm) = (0u64, 0u64);
    for _ in 0..n {
        pv = get_delta(buf, pos, pv)?;
        pm = get_delta(buf, pos, pm)?;
        f(VertexUpdate {
            vertex: pv as u32,
            module: pm,
        });
    }
    Ok(n)
}

/// [`for_each_update`] into a `Vec`.
pub fn decode_updates(buf: &[u8], pos: &mut usize) -> Vec<VertexUpdate> {
    collect(|f| for_each_update(buf, pos, f))
}

/// Full `Module_Info` records (List 1): count, `is_sent` bitmap, then per
/// record a zigzag-delta module ID, the raw flow/exit doubles and a
/// varint member count.
pub fn encode_infos_with(
    buf: &mut Vec<u8>,
    n: usize,
    mut record: impl FnMut(usize) -> ModuleInfoMsg,
) {
    put_uvarint(buf, n as u64);
    let sent = put_bitmap(buf, n);
    let mut pm = 0u64;
    for i in 0..n {
        let m = record(i);
        set_bit(buf, sent, i, m.is_sent);
        put_delta(buf, pm, m.mod_id);
        pm = m.mod_id;
        put_f64(buf, m.flow);
        put_f64(buf, m.exit);
        put_uvarint(buf, m.members as u64);
    }
}

/// [`encode_infos_with`] over a slice.
pub fn encode_infos(buf: &mut Vec<u8>, infos: &[ModuleInfoMsg]) {
    encode_infos_with(buf, infos.len(), |i| infos[i]);
}

/// Visit every record of an [`encode_infos_with`] batch.
pub fn for_each_info(buf: &[u8], pos: &mut usize, mut f: impl FnMut(ModuleInfoMsg)) -> Decoded {
    let (n, sent) = get_count(buf, pos, 1, 18)?;
    let mut pm = 0u64;
    for i in 0..n {
        pm = get_delta(buf, pos, pm)?;
        f(ModuleInfoMsg {
            mod_id: pm,
            flow: get_f64(buf, pos)?,
            exit: get_f64(buf, pos)?,
            members: get_uvarint(buf, pos)? as u32,
            is_sent: bit(buf, sent, i),
        });
    }
    Ok(n)
}

/// [`for_each_info`] into a `Vec`.
pub fn decode_infos(buf: &[u8], pos: &mut usize) -> Vec<ModuleInfoMsg> {
    collect(|f| for_each_info(buf, pos, f))
}

/// Owner-reduction contribution deltas: count, `retract` bitmap,
/// zero-payload bitmap, exit-only bitmap, then per record a zigzag-delta
/// module ID and its payload: none if the deltas are exactly (+0.0, +0.0,
/// 0), the shape of a pure subscription; the raw exit double alone if only
/// the flow delta is +0.0 and the member delta 0, the shape of a module
/// whose members stayed and whose boundary moved; else the raw flow and
/// exit doubles and the zigzag member delta.
pub fn encode_contribs_with(
    buf: &mut Vec<u8>,
    n: usize,
    mut record: impl FnMut(usize) -> ModuleContribution,
) {
    put_uvarint(buf, n as u64);
    let retract = put_bitmap(buf, n);
    let zero = put_bitmap(buf, n);
    let exit_only = put_bitmap(buf, n);
    let mut pm = 0u64;
    for i in 0..n {
        let r = record(i);
        let stays = r.flow.to_bits() == 0 && r.members == 0;
        let z = stays && r.exit.to_bits() == 0;
        set_bit(buf, retract, i, r.retract);
        set_bit(buf, zero, i, z);
        set_bit(buf, exit_only, i, stays && !z);
        put_delta(buf, pm, r.mod_id);
        pm = r.mod_id;
        if !stays {
            put_f64(buf, r.flow);
            put_f64(buf, r.exit);
            put_uvarint(buf, zigzag(r.members as i64));
        } else if !z {
            put_f64(buf, r.exit);
        }
    }
}

/// [`encode_contribs_with`] over a slice.
pub fn encode_contribs(buf: &mut Vec<u8>, recs: &[ModuleContribution]) {
    encode_contribs_with(buf, recs.len(), |i| recs[i]);
}

/// Visit every record of an [`encode_contribs_with`] batch.
pub fn for_each_contrib(
    buf: &[u8],
    pos: &mut usize,
    mut f: impl FnMut(ModuleContribution),
) -> Decoded {
    let (n, retract) = get_count(buf, pos, 3, 1)?;
    let zero = retract + n.div_ceil(8);
    let exit_only = zero + n.div_ceil(8);
    let mut pm = 0u64;
    for i in 0..n {
        pm = get_delta(buf, pos, pm)?;
        let (flow, exit, members) = if bit(buf, zero, i) {
            (0.0, 0.0, 0)
        } else if bit(buf, exit_only, i) {
            (0.0, get_f64(buf, pos)?, 0)
        } else {
            let (flow, exit) = (get_f64(buf, pos)?, get_f64(buf, pos)?);
            (flow, exit, unzigzag(get_uvarint(buf, pos)?) as i32)
        };
        f(ModuleContribution {
            mod_id: pm,
            flow,
            exit,
            members,
            retract: bit(buf, retract, i),
        });
    }
    Ok(n)
}

/// [`for_each_contrib`] into a `Vec`.
pub fn decode_contribs(buf: &[u8], pos: &mut usize) -> Vec<ModuleContribution> {
    collect(|f| for_each_contrib(buf, pos, f))
}

/// Delegate-election proposals: count, then per record zigzag-delta
/// delegate and target module IDs, the raw δL double and a varint
/// proposer.
pub fn encode_proposals(buf: &mut Vec<u8>, props: &[DelegateProposal]) {
    put_uvarint(buf, props.len() as u64);
    let (mut pd, mut pm) = (0u64, 0u64);
    for p in props {
        put_delta(buf, pd, p.delegate as u64);
        put_delta(buf, pm, p.to_module);
        pd = p.delegate as u64;
        pm = p.to_module;
        put_f64(buf, p.delta);
        put_uvarint(buf, p.proposer as u64);
    }
}

/// Visit every record of an [`encode_proposals`] batch.
pub fn for_each_proposal(
    buf: &[u8],
    pos: &mut usize,
    mut f: impl FnMut(DelegateProposal),
) -> Decoded {
    let (n, _) = get_count(buf, pos, 0, 11)?;
    let (mut pd, mut pm) = (0u64, 0u64);
    for _ in 0..n {
        pd = get_delta(buf, pos, pd)?;
        pm = get_delta(buf, pos, pm)?;
        f(DelegateProposal {
            delegate: pd as u32,
            to_module: pm,
            delta: get_f64(buf, pos)?,
            proposer: get_uvarint(buf, pos)? as u32,
        });
    }
    Ok(n)
}

/// [`for_each_proposal`] into a `Vec`.
pub fn decode_proposals(buf: &[u8], pos: &mut usize) -> Vec<DelegateProposal> {
    collect(|f| for_each_proposal(buf, pos, f))
}

/// `(u32, u32)` pairs (assignment migration): count, then per record a
/// zigzag delta of each component against its own predecessor.
pub fn encode_pairs(buf: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    put_uvarint(buf, pairs.len() as u64);
    let (mut pa, mut pb) = (0u64, 0u64);
    for &(a, b) in pairs {
        put_delta(buf, pa, a as u64);
        put_delta(buf, pb, b as u64);
        pa = a as u64;
        pb = b as u64;
    }
}

/// Visit every pair of an [`encode_pairs`] batch.
pub fn for_each_pair(buf: &[u8], pos: &mut usize, mut f: impl FnMut((u32, u32))) -> Decoded {
    let (n, _) = get_count(buf, pos, 0, 2)?;
    let (mut pa, mut pb) = (0u64, 0u64);
    for _ in 0..n {
        pa = get_delta(buf, pos, pa)?;
        pb = get_delta(buf, pos, pb)?;
        f((pa as u32, pb as u32));
    }
    Ok(n)
}

/// [`for_each_pair`] into a `Vec`.
pub fn decode_pairs(buf: &[u8], pos: &mut usize) -> Vec<(u32, u32)> {
    collect(|f| for_each_pair(buf, pos, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(mod_id: u64, flow: f64, members: u32, is_sent: bool) -> ModuleInfoMsg {
        ModuleInfoMsg {
            mod_id,
            flow,
            exit: flow * 0.25,
            members,
            is_sent,
        }
    }

    #[test]
    fn uvarint_roundtrips_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_is_involutive_and_small_first() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, 42, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn f64_roundtrips_bit_patterns() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            1e-300,
        ] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_f64(&buf, &mut pos).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn updates_roundtrip_and_compress_sorted_ids() {
        let ups: Vec<VertexUpdate> = (0..100)
            .map(|i| VertexUpdate {
                vertex: 1000 + i,
                module: 500 + i as u64,
            })
            .collect();
        let mut buf = Vec::new();
        encode_updates(&mut buf, &ups);
        // Two varint bytes for the first record's deltas is the worst case
        // here; consecutive IDs then cost 1 byte per field.
        assert!(buf.len() as u64 <= 8 + 2 * ups.len() as u64);
        let mut pos = 0;
        assert_eq!(decode_updates(&buf, &mut pos), ups);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn infos_roundtrip_below_packed_size() {
        let infos: Vec<ModuleInfoMsg> = (0..50)
            .map(|i| info(40 + i, 0.01 * i as f64, i as u32 % 7, i % 3 == 0))
            .collect();
        let mut buf = Vec::new();
        encode_infos(&mut buf, &infos);
        // Packed field extent of one record: u64 + f64 + f64 + u32 + u8.
        assert!(buf.len() < infos.len() * 29);
        let mut pos = 0;
        assert_eq!(decode_infos(&buf, &mut pos), infos);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn proposals_roundtrip_in_eleven_bytes_each() {
        let props: Vec<DelegateProposal> = [(3, 7, -0.1, 1), (5, 7, -0.2, 1), (9, 9, 0.4, 2)]
            .map(|(delegate, to_module, delta, proposer)| DelegateProposal {
                delegate,
                to_module,
                delta,
                proposer,
            })
            .to_vec();
        let mut buf = Vec::new();
        encode_proposals(&mut buf, &props);
        let mut pos = 0;
        assert_eq!(decode_proposals(&buf, &mut pos), props);
        assert_eq!(pos, buf.len());
        // Count byte + per record two one-byte deltas, δL, one-byte proposer.
        assert_eq!(buf.len(), 1 + props.len() * 11);
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i * 3, 1000 - i)).collect();
        let mut buf = Vec::new();
        encode_pairs(&mut buf, &pairs);
        let mut pos = 0;
        assert_eq!(decode_pairs(&buf, &mut pos), pairs);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn batches_fuse_in_one_packet() {
        let ups = vec![VertexUpdate {
            vertex: 4,
            module: 2,
        }];
        let infos = vec![info(2, 0.5, 2, false)];
        let mut buf = Vec::new();
        encode_updates(&mut buf, &ups);
        encode_infos(&mut buf, &infos);
        let mut pos = 0;
        assert_eq!(decode_updates(&buf, &mut pos), ups);
        assert_eq!(decode_infos(&buf, &mut pos), infos);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn empty_batches_cost_one_count_byte() {
        let mut buf = Vec::new();
        encode_updates(&mut buf, &[]);
        encode_infos(&mut buf, &[]);
        encode_contribs(&mut buf, &[]);
        encode_proposals(&mut buf, &[]);
        encode_pairs(&mut buf, &[]);
        assert_eq!(buf.len(), 5);
        let mut pos = 0;
        assert!(decode_updates(&buf, &mut pos).is_empty());
        assert!(decode_infos(&buf, &mut pos).is_empty());
        assert!(decode_contribs(&buf, &mut pos).is_empty());
        assert!(decode_proposals(&buf, &mut pos).is_empty());
        assert!(decode_pairs(&buf, &mut pos).is_empty());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn malformed_batches_are_named_errors() {
        let mut pos = 0;
        assert_eq!(
            get_uvarint(&[0x80; 11], &mut pos),
            Err(CodecError::OverlongVarint { at: 0 })
        );
        // A count of 2^40 updates behind three bytes: refused before
        // anything is sized by it.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            for_each_update(&buf, &mut 0, |_| {}),
            Err(CodecError::CountExceedsRemaining {
                count: 1 << 40,
                remaining: 3
            })
        );
        // An info that lost the last byte of its two-byte member count, and
        // a proposal whose proposer varint never ends.
        let mut buf = Vec::new();
        encode_infos(&mut buf, &[info(3, 0.5, 300, false)]);
        let short = &buf[..buf.len() - 1];
        let at = short.len();
        assert_eq!(
            for_each_info(short, &mut 0, |_| {}),
            Err(CodecError::Truncated { at })
        );
        let mut buf = vec![1, 2, 2];
        put_f64(&mut buf, -0.5);
        buf.push(0x80);
        assert_eq!(
            for_each_proposal(&buf, &mut 0, |_| {}),
            Err(CodecError::Truncated { at: 12 })
        );
    }
}
