//! The wire format of a round's records (DESIGN.md §6.13) — the one place
//! that decides how they are laid out in a packet.
//!
//! Every batch the distributed algorithm exchanges is a `Vec` of records
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
//! the proptests in `tests/proptests.rs` exercise.
//!
//! The one stateful codec is [`encode_proposals`]: a proposal's
//! `target_info` is omitted when an earlier proposal in the same batch
//! already carried the *bit-identical* info for the same target module
//! (the known-modules filter of Algorithm 3 applied to the election
//! path). The filter compares all fields by bits rather than assuming
//! "same module ⇒ same info" because module statistics mutate during the
//! greedy sweep that emits the proposals — two proposals for one module
//! may legitimately carry different snapshots, and both must survive the
//! roundtrip exactly.

use std::collections::HashMap;

use crate::messages::{DelegateProposal, ModuleContribution, ModuleInfoMsg, VertexUpdate};

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
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
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
fn get_delta(buf: &[u8], pos: &mut usize, prev: u64) -> u64 {
    prev.wrapping_add(unzigzag(get_uvarint(buf, pos)) as u64)
}

/// Append the raw bits of `v` (8 bytes, little-endian). Bit-exact for
/// every payload including NaNs and signed zeros.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read 8 little-endian bytes back into an `f64`, bit-exactly.
pub fn get_f64(buf: &[u8], pos: &mut usize) -> f64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[*pos..*pos + 8]);
    *pos += 8;
    f64::from_bits(u64::from_le_bytes(raw))
}

/// Append `bits` packed 8-per-byte, LSB first (⌈n/8⌉ bytes; the length
/// travels separately as the batch count).
fn put_bitmap(buf: &mut Vec<u8>, bits: &[bool]) {
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            b |= (bit as u8) << i;
        }
        buf.push(b);
    }
}

/// Read `n` bits packed by [`put_bitmap`].
fn get_bitmap(buf: &[u8], pos: &mut usize, n: usize) -> Vec<bool> {
    let nbytes = n.div_ceil(8);
    let mut bits = Vec::with_capacity(n);
    for i in 0..n {
        bits.push(buf[*pos + i / 8] >> (i % 8) & 1 == 1);
    }
    *pos += nbytes;
    bits
}

// ---------------------------------------------------------------------------
// Batch codecs. Encoders append to `buf` (so several batches fuse into one
// packet); decoders advance `pos` symmetrically.
// ---------------------------------------------------------------------------

/// Boundary community-ID updates: count, then per record a zigzag-delta
/// vertex and a zigzag-delta module (each field delta-chained against its
/// own predecessor).
pub fn encode_updates(buf: &mut Vec<u8>, updates: &[VertexUpdate]) {
    put_uvarint(buf, updates.len() as u64);
    let (mut pv, mut pm) = (0u64, 0u64);
    for u in updates {
        put_delta(buf, pv, u.vertex as u64);
        put_delta(buf, pm, u.module);
        pv = u.vertex as u64;
        pm = u.module;
    }
}

/// Inverse of [`encode_updates`].
pub fn decode_updates(buf: &[u8], pos: &mut usize) -> Vec<VertexUpdate> {
    let n = get_uvarint(buf, pos) as usize;
    let (mut pv, mut pm) = (0u64, 0u64);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        pv = get_delta(buf, pos, pv);
        pm = get_delta(buf, pos, pm);
        out.push(VertexUpdate {
            vertex: pv as u32,
            module: pm,
        });
    }
    out
}

/// Full `Module_Info` records (List 1): count, `is_sent` bitmap, then per
/// record a zigzag-delta module ID, the raw flow/exit doubles and a
/// varint member count.
pub fn encode_infos(buf: &mut Vec<u8>, infos: &[ModuleInfoMsg]) {
    put_uvarint(buf, infos.len() as u64);
    let sent: Vec<bool> = infos.iter().map(|m| m.is_sent).collect();
    put_bitmap(buf, &sent);
    let mut pm = 0u64;
    for m in infos {
        put_delta(buf, pm, m.mod_id);
        pm = m.mod_id;
        put_f64(buf, m.flow);
        put_f64(buf, m.exit);
        put_uvarint(buf, m.members as u64);
    }
}

/// Inverse of [`encode_infos`].
pub fn decode_infos(buf: &[u8], pos: &mut usize) -> Vec<ModuleInfoMsg> {
    let n = get_uvarint(buf, pos) as usize;
    let sent = get_bitmap(buf, pos, n);
    let mut pm = 0u64;
    let mut out = Vec::with_capacity(n);
    for &is_sent in sent.iter().take(n) {
        pm = get_delta(buf, pos, pm);
        let flow = get_f64(buf, pos);
        let exit = get_f64(buf, pos);
        let members = get_uvarint(buf, pos) as u32;
        out.push(ModuleInfoMsg {
            mod_id: pm,
            flow,
            exit,
            members,
            is_sent,
        });
    }
    out
}

/// Owner-reduction contributions: count, `retract` bitmap, zero-payload
/// bitmap, then per record a zigzag-delta module ID and — unless the
/// payload is exactly (+0.0, +0.0, 0), the shape of every retract and
/// pure-subscription record — the raw doubles and varint member count.
pub fn encode_contribs(buf: &mut Vec<u8>, recs: &[ModuleContribution]) {
    put_uvarint(buf, recs.len() as u64);
    let retract: Vec<bool> = recs.iter().map(|r| r.retract).collect();
    put_bitmap(buf, &retract);
    let zero: Vec<bool> = recs
        .iter()
        .map(|r| r.flow.to_bits() == 0 && r.exit.to_bits() == 0 && r.members == 0)
        .collect();
    put_bitmap(buf, &zero);
    let mut pm = 0u64;
    for (r, &z) in recs.iter().zip(&zero) {
        put_delta(buf, pm, r.mod_id);
        pm = r.mod_id;
        if !z {
            put_f64(buf, r.flow);
            put_f64(buf, r.exit);
            put_uvarint(buf, r.members as u64);
        }
    }
}

/// Inverse of [`encode_contribs`].
pub fn decode_contribs(buf: &[u8], pos: &mut usize) -> Vec<ModuleContribution> {
    let n = get_uvarint(buf, pos) as usize;
    let retract = get_bitmap(buf, pos, n);
    let zero = get_bitmap(buf, pos, n);
    let mut pm = 0u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        pm = get_delta(buf, pos, pm);
        let (flow, exit, members) = if zero[i] {
            (0.0, 0.0, 0)
        } else {
            let flow = get_f64(buf, pos);
            let exit = get_f64(buf, pos);
            (flow, exit, get_uvarint(buf, pos) as u32)
        };
        out.push(ModuleContribution {
            mod_id: pm,
            flow,
            exit,
            members,
            retract: retract[i],
        });
    }
    out
}

/// Delegate-election proposals: count, `has_info` bitmap, then per record
/// zigzag-delta delegate and target module IDs, the raw δL double and a
/// varint proposer. When `has_info` is set the target's `Module_Info`
/// follows — its module ID as a zigzag delta *from the target module*
/// (normally zero), raw doubles, varint members and the `is_sent` byte.
///
/// `has_info` is cleared only when an earlier proposal in the batch
/// carried the bit-identical info for the same target module — the
/// known-modules filter. The decoder replays the same cache, so omitted
/// infos are reconstructed exactly.
pub fn encode_proposals(buf: &mut Vec<u8>, props: &[DelegateProposal]) {
    put_uvarint(buf, props.len() as u64);
    let mut cache: HashMap<u64, ModuleInfoMsg> = HashMap::new();
    let has_info: Vec<bool> = props
        .iter()
        .map(|p| {
            let dup = cache
                .get(&p.to_module)
                .is_some_and(|c| bits_eq(c, &p.target_info));
            if !dup {
                cache.insert(p.to_module, p.target_info);
            }
            !dup
        })
        .collect();
    put_bitmap(buf, &has_info);
    let (mut pd, mut pm) = (0u64, 0u64);
    for (p, &carry) in props.iter().zip(&has_info) {
        put_delta(buf, pd, p.delegate as u64);
        put_delta(buf, pm, p.to_module);
        pd = p.delegate as u64;
        pm = p.to_module;
        put_f64(buf, p.delta);
        put_uvarint(buf, p.proposer as u64);
        if carry {
            let t = &p.target_info;
            put_delta(buf, p.to_module, t.mod_id);
            put_f64(buf, t.flow);
            put_f64(buf, t.exit);
            put_uvarint(buf, t.members as u64);
            buf.push(t.is_sent as u8);
        }
    }
}

/// Inverse of [`encode_proposals`].
pub fn decode_proposals(buf: &[u8], pos: &mut usize) -> Vec<DelegateProposal> {
    let n = get_uvarint(buf, pos) as usize;
    let has_info = get_bitmap(buf, pos, n);
    let mut cache: HashMap<u64, ModuleInfoMsg> = HashMap::new();
    let (mut pd, mut pm) = (0u64, 0u64);
    let mut out = Vec::with_capacity(n);
    for &carry in has_info.iter().take(n) {
        pd = get_delta(buf, pos, pd);
        pm = get_delta(buf, pos, pm);
        let delta = get_f64(buf, pos);
        let proposer = get_uvarint(buf, pos) as u32;
        let target_info = if carry {
            let mod_id = get_delta(buf, pos, pm);
            let flow = get_f64(buf, pos);
            let exit = get_f64(buf, pos);
            let members = get_uvarint(buf, pos) as u32;
            let is_sent = buf[*pos] != 0;
            *pos += 1;
            let info = ModuleInfoMsg {
                mod_id,
                flow,
                exit,
                members,
                is_sent,
            };
            cache.insert(pm, info);
            info
        } else {
            cache[&pm]
        };
        out.push(DelegateProposal {
            delegate: pd as u32,
            to_module: pm,
            delta,
            proposer,
            target_info,
        });
    }
    out
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

/// Inverse of [`encode_pairs`].
pub fn decode_pairs(buf: &[u8], pos: &mut usize) -> Vec<(u32, u32)> {
    let n = get_uvarint(buf, pos) as usize;
    let (mut pa, mut pb) = (0u64, 0u64);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        pa = get_delta(buf, pos, pa);
        pb = get_delta(buf, pos, pb);
        out.push((pa as u32, pb as u32));
    }
    out
}

/// All fields bit-equal (floats compared by bits so NaN == NaN and
/// +0.0 ≠ -0.0 — the cache must never merge records a bit-exact
/// roundtrip could tell apart).
fn bits_eq(a: &ModuleInfoMsg, b: &ModuleInfoMsg) -> bool {
    a.mod_id == b.mod_id
        && a.flow.to_bits() == b.flow.to_bits()
        && a.exit.to_bits() == b.exit.to_bits()
        && a.members == b.members
        && a.is_sent == b.is_sent
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
            assert_eq!(get_uvarint(&buf, &mut pos), v);
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
            assert_eq!(get_f64(&buf, &mut pos).to_bits(), v.to_bits());
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
    fn contribs_omit_retract_payloads() {
        let recs = vec![
            ModuleContribution {
                mod_id: 9,
                flow: 0.5,
                exit: 0.1,
                members: 3,
                retract: false,
            },
            ModuleContribution {
                mod_id: 11,
                flow: 0.0,
                exit: 0.0,
                members: 0,
                retract: true,
            },
            ModuleContribution {
                mod_id: 12,
                flow: -0.0,
                exit: 0.0,
                members: 0,
                retract: false,
            },
        ];
        let mut buf = Vec::new();
        encode_contribs(&mut buf, &recs);
        let mut pos = 0;
        let back = decode_contribs(&buf, &mut pos);
        assert_eq!(back, recs);
        // The -0.0 record must keep its payload (sign bit is information).
        assert_eq!(back[2].flow.to_bits(), (-0.0f64).to_bits());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn proposals_roundtrip_with_info_dedup() {
        let a = info(7, 0.25, 4, false);
        let a_mut = info(7, 0.26, 5, false); // stats mutated mid-sweep
        let props = vec![
            DelegateProposal {
                delegate: 3,
                to_module: 7,
                delta: -0.1,
                proposer: 1,
                target_info: a,
            },
            DelegateProposal {
                delegate: 5,
                to_module: 7,
                delta: -0.2,
                proposer: 1,
                target_info: a,
            },
            DelegateProposal {
                delegate: 8,
                to_module: 7,
                delta: -0.3,
                proposer: 1,
                target_info: a_mut,
            },
            DelegateProposal {
                delegate: 9,
                to_module: 9,
                delta: 0.4,
                proposer: 2,
                target_info: a,
            },
        ];
        let mut buf = Vec::new();
        encode_proposals(&mut buf, &props);
        let mut pos = 0;
        assert_eq!(decode_proposals(&buf, &mut pos), props);
        assert_eq!(pos, buf.len());
        // One duplicate info elided: well under 4 packed proposals.
        // (packed field extent: u32 + u64 + f64 + u32 + 29-byte info)
        assert!(buf.len() < props.len() * 53);
        // The second proposal's identical info must have been elided; an
        // encoding that carried all four infos would be at least 25 bytes
        // larger (info payload ≥ 8+8+1+1+1 bytes).
        let mut full = Vec::new();
        let distinct: Vec<DelegateProposal> = props
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut q = *p;
                q.target_info.members = 100 + i as u32; // defeat the cache
                q
            })
            .collect();
        encode_proposals(&mut full, &distinct);
        assert!(full.len() > buf.len());
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
}
