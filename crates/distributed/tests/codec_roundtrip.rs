//! Property tests for the compact wire codecs: every batch codec must
//! roundtrip arbitrary message batches *exactly* — including NaN, ±inf,
//! -0.0 and subnormal f64 payloads, unsorted and wrapping ids — because
//! the compact communication path's bit-identity guarantee rests on the
//! decoder reproducing the encoder's input bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use infomap_distributed::codec::{self, CodecError};
use infomap_distributed::messages::{
    DelegateProposal, ModuleContribution, ModuleInfoMsg, VertexUpdate,
};

/// The 64 cases each property runs: case `c` draws from
/// `StdRng::seed_from_u64(c)`.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..64).map(|c| (c, StdRng::seed_from_u64(c)))
}

/// Fewer than `max` arbitrary words.
fn words(rng: &mut StdRng, max: usize) -> Vec<u64> {
    (0..rng.gen_range(0..max)).map(|_| rng.next_u64()).collect()
}

/// f64 equality by bit pattern: NaN == NaN, +0.0 != -0.0.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn info_eq(a: &ModuleInfoMsg, b: &ModuleInfoMsg) -> bool {
    a.mod_id == b.mod_id
        && bits_eq(a.flow, b.flow)
        && bits_eq(a.exit, b.exit)
        && a.members == b.members
        && a.is_sent == b.is_sent
}

/// Build a `ModuleInfoMsg` from five raw words. Using raw words (rather
/// than typed draws) guarantees every f64 bit pattern is reachable.
fn info_from(w: &[u64]) -> ModuleInfoMsg {
    ModuleInfoMsg {
        mod_id: w[0],
        flow: f64::from_bits(w[1]),
        exit: f64::from_bits(w[2]),
        members: w[3] as u32,
        is_sent: w[4] & 1 == 1,
    }
}

fn update_from(w: &[u64]) -> VertexUpdate {
    VertexUpdate {
        vertex: w[0] as u32,
        module: w[1],
    }
}

/// For each case, cut its words into records of `width` by `record`,
/// encode the batch and decode it back: the decoder must consume exactly
/// the batch and return records `same` as the input.
fn roundtrips<T: std::fmt::Debug>(
    max: usize,
    width: usize,
    record: fn(&[u64]) -> T,
    encode: fn(&mut Vec<u8>, &[T]),
    decode: fn(&[u8], &mut usize) -> Vec<T>,
    same: fn(&T, &T) -> bool,
) {
    for (case, mut rng) in cases() {
        let batch: Vec<T> = words(&mut rng, max)
            .chunks_exact(width)
            .map(record)
            .collect();
        let mut buf = Vec::new();
        encode(&mut buf, &batch);
        let mut pos = 0;
        let back = decode(&buf, &mut pos);
        assert_eq!(pos, buf.len(), "case {case}");
        assert_eq!(back.len(), batch.len(), "case {case}");
        for (a, b) in back.iter().zip(&batch) {
            assert!(same(a, b), "case {case}: {a:?} != {b:?}");
        }
    }
}

/// `w`, or zero for a third of the words.
fn zero_for_a_third(w: u64) -> u64 {
    if w.is_multiple_of(3) {
        0
    } else {
        w
    }
}

#[test]
fn updates_roundtrip_exactly() {
    let (enc, dec) = (codec::encode_updates, codec::decode_updates);
    roundtrips(120, 2, update_from, enc, dec, PartialEq::eq);
}

#[test]
fn infos_roundtrip_exactly() {
    let (enc, dec) = (codec::encode_infos, codec::decode_infos);
    roundtrips(200, 5, info_from, enc, dec, info_eq);
}

fn contrib_eq(a: &ModuleContribution, b: &ModuleContribution) -> bool {
    a.mod_id == b.mod_id
        && bits_eq(a.flow, b.flow)
        && bits_eq(a.exit, b.exit)
        && a.members == b.members
        && a.retract == b.retract
}

#[test]
fn contribs_roundtrip_exactly() {
    // Mix arbitrary bit patterns with exact zeros so the zero and
    // exit-only elision paths are exercised; member deltas of either sign.
    let record = |w: &[u64]| ModuleContribution {
        mod_id: w[0],
        flow: f64::from_bits(zero_for_a_third(w[1])),
        exit: f64::from_bits(zero_for_a_third(w[2])),
        members: zero_for_a_third(w[3]) as i32,
        retract: w[4] & 1 == 1,
    };
    let (enc, dec) = (codec::encode_contribs, codec::decode_contribs);
    roundtrips(200, 5, record, enc, dec, contrib_eq);
}

/// A contribution delta record of module `mod_id`.
fn delta(mod_id: u64, flow: f64, exit: f64, members: i32, retract: bool) -> ModuleContribution {
    ModuleContribution {
        mod_id,
        flow,
        exit,
        members,
        retract,
    }
}

#[test]
fn contrib_deltas_keep_every_shape_in_its_fewest_bytes() {
    // (record, payload bytes after its one-byte module-id delta).
    let shapes = [
        (delta(1, 0.0, 0.0, 0, false), 0),         // a subscription
        (delta(2, 0.0, 0.25, 0, false), 8),        // exit only
        (delta(3, 0.0, -0.125, 0, true), 8),       // retract, exit only
        (delta(4, -0.5, -0.25, -3, true), 17),     // retract of 3 members
        (delta(5, 0.5, 0.0, i32::MIN, false), 21), // zigzag 2^32 - 1
        (delta(6, 0.0, 0.0, i32::MAX, false), 21),
        (delta(7, 0.0, 0.0, -1, false), 17),
        (delta(8, -0.0, 0.0, 0, false), 17), // the sign bit is a payload
        (delta(9, 0.0, -0.0, 0, false), 8),
        (delta(10, f64::NAN, 1e-300, 1, false), 17),
    ];
    let recs: Vec<ModuleContribution> = shapes.iter().map(|s| s.0).collect();
    let mut buf = Vec::new();
    codec::encode_contribs(&mut buf, &recs);
    // Count byte, three one-byte bitmaps per 8 records, one id byte each.
    let head = 1 + 3 * recs.len().div_ceil(8) + recs.len();
    let payload: usize = shapes.iter().map(|s| s.1).sum();
    assert_eq!(buf.len(), head + payload);
    let mut pos = 0;
    let back = codec::decode_contribs(&buf, &mut pos);
    assert_eq!(pos, buf.len());
    for (a, b) in back.iter().zip(&recs) {
        assert!(contrib_eq(a, b), "{a:?} != {b:?}");
    }
    assert_eq!(back.len(), recs.len());
}

#[test]
fn a_short_contrib_batch_or_a_cut_exit_only_record_is_refused_by_name() {
    // Nine records need three two-byte bitmaps and nine id bytes after
    // the count: a batch one byte short cannot hold them.
    let recs: Vec<ModuleContribution> = (0..9).map(|m| delta(m, 0.0, 0.0, 0, false)).collect();
    let mut buf = Vec::new();
    codec::encode_contribs(&mut buf, &recs);
    assert_eq!(buf.len(), 1 + 6 + 9);
    let short = &buf[..buf.len() - 1];
    assert_eq!(
        codec::for_each_contrib(short, &mut 0, |_| {}),
        Err(CodecError::CountExceedsRemaining {
            count: 9,
            remaining: 14
        })
    );
    // An exit-only record that lost the last byte of its exit.
    let mut buf = Vec::new();
    codec::encode_contribs(&mut buf, &[delta(3, 0.0, 0.5, 0, false)]);
    assert_eq!(buf.len(), 1 + 3 + 1 + 8);
    let cut = &buf[..buf.len() - 1];
    assert_eq!(
        codec::for_each_contrib(cut, &mut 0, |_| {}),
        Err(CodecError::Truncated { at: 5 })
    );
}

#[test]
fn proposals_roundtrip_exactly() {
    let record = |w: &[u64]| DelegateProposal {
        delegate: w[0] as u32,
        to_module: w[1],
        delta: f64::from_bits(w[2]),
        proposer: w[3] as u32,
    };
    let same = |a: &DelegateProposal, b: &DelegateProposal| {
        a.delegate == b.delegate
            && a.to_module == b.to_module
            && bits_eq(a.delta, b.delta)
            && a.proposer == b.proposer
    };
    let (enc, dec) = (codec::encode_proposals, codec::decode_proposals);
    roundtrips(320, 4, record, enc, dec, same);
}

#[test]
fn pairs_roundtrip_exactly() {
    let record = |w: &[u64]| (w[0] as u32, w[1] as u32);
    let (enc, dec) = (codec::encode_pairs, codec::decode_pairs);
    roundtrips(120, 2, record, enc, dec, PartialEq::eq);
}

#[test]
fn fused_batches_roundtrip_in_sequence() {
    for (case, mut rng) in cases() {
        // The wire packets fuse header varints + several batches into one
        // buffer; decoding must consume each section exactly where the
        // encoder left it.
        let header = [rng.next_u64(), rng.next_u64()];
        let words = words(&mut rng, 150);
        let ups: Vec<_> = words
            .chunks_exact(7)
            .map(|w| update_from(&w[5..]))
            .collect();
        let infos: Vec<_> = words.chunks_exact(7).map(info_from).collect();
        let mut buf = Vec::new();
        codec::put_uvarint(&mut buf, header[0]);
        codec::put_uvarint(&mut buf, header[1]);
        codec::encode_updates(&mut buf, &ups);
        codec::encode_infos(&mut buf, &infos);
        let mut pos = 0;
        for h in header {
            assert_eq!(codec::get_uvarint(&buf, &mut pos), Ok(h), "case {case}");
        }
        assert_eq!(codec::decode_updates(&buf, &mut pos), ups, "case {case}");
        let back = codec::decode_infos(&buf, &mut pos);
        assert_eq!(pos, buf.len(), "case {case}");
        for (a, b) in back.iter().zip(&infos) {
            assert!(info_eq(a, b), "case {case}: {a:?} != {b:?}");
        }
    }
}
