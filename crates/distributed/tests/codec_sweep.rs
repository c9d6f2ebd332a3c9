//! Seeded sweep over the record codecs. For every record kind, 560
//! batches of n ∈ {0, 1, 7, 8, 9, 64} and a random n, drawn from NaN (several payloads), ±0.0, subnormal,
//! infinite and arbitrary-bit floats, sorted, unsorted and repeated ids,
//! and flag patterns that are all off, all on, alternating, random, or
//! (for short batches) every pattern in turn. Each batch checks that:
//!
//! * the closure-fed encoder writes the bytes of the slice encoder and of
//!   a reference encoder that builds the bitmaps up front (the layout
//!   before the encoders filled bitmaps in place), calling its closure
//!   once per record in order;
//! * the visitor decoder yields the encoded records bit for bit, in order,
//!   consumes exactly the batch, and agrees with the slice decoder;
//! * every truncation of the batch is an `Err`, a count larger than the
//!   bytes after it can hold is `CountExceedsRemaining`, and a count they
//!   could hold but the batch lacks never panics (and is an `Err` where
//!   the records do not depend on the count: updates, proposals and
//!   pairs).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use infomap_distributed::codec::{self, CodecError};
use infomap_distributed::messages::{
    DelegateProposal, ModuleContribution, ModuleInfoMsg, VertexUpdate,
};

const BATCHES: usize = 560;
const SIZES: [usize; 6] = [0, 1, 7, 8, 9, 64];

/// One batch's shape: its length and how its ids and flags are drawn.
struct Shape {
    n: usize,
    /// 0 ascending, 1 unsorted, 2 repeated, 3 extremes.
    ids: usize,
    /// 0 off, 1 on, 2 alternating, 3 random, 4 the batch index's bits.
    flags: usize,
    batch: usize,
}

fn shape(batch: usize, rng: &mut StdRng) -> Shape {
    Shape {
        n: SIZES
            .get(batch % 7)
            .copied()
            .unwrap_or_else(|| rng.gen_range(10..40)),
        ids: (batch / 7) % 4,
        flags: (batch / 28) % 5,
        batch,
    }
}

impl Shape {
    fn id(&self, i: usize, rng: &mut StdRng) -> u64 {
        match self.ids {
            0 => 1000 + 3 * i as u64,
            1 => rng.next_u64() % 100_000,
            2 => [7, 7, 9, 7][i % 4],
            _ => [0, u64::MAX, u32::MAX as u64, 1 << 63][rng.gen_range(0..4)],
        }
    }

    fn flag(&self, i: usize, salt: usize, rng: &mut StdRng) -> bool {
        match self.flags {
            0 => false,
            1 => true,
            2 => (i + salt).is_multiple_of(2),
            3 => rng.gen_bool(0.5),
            _ => (self.batch >> ((i + salt) % 16)) & 1 == 1,
        }
    }
}

/// A float from the classes a bit-exact codec must keep apart.
fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..9) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64() >> 13),
        3 => f64::from_bits(1 + rng.next_u64() % ((1 << 52) - 1)),
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => rng.gen_range(0.0..1.0),
        7 => f64::from_bits(rng.next_u64()),
        _ => -rng.gen_range(0.0..1.0) * 1e-300,
    }
}

fn info(shape: &Shape, i: usize, rng: &mut StdRng) -> ModuleInfoMsg {
    ModuleInfoMsg {
        mod_id: shape.id(i, rng),
        flow: float(rng),
        exit: float(rng),
        members: [0, 1, 300, u32::MAX][rng.gen_range(0..4)],
        is_sent: shape.flag(i, 0, rng),
    }
}

/// A record as the words a bit-exact roundtrip must keep: floats by
/// their bits, so NaN payloads and signed zeros count.
trait Bits {
    fn bits(&self) -> Vec<u64>;
}

impl Bits for VertexUpdate {
    fn bits(&self) -> Vec<u64> {
        vec![self.vertex as u64, self.module]
    }
}

impl Bits for ModuleInfoMsg {
    fn bits(&self) -> Vec<u64> {
        let (flow, exit) = (self.flow.to_bits(), self.exit.to_bits());
        vec![
            self.mod_id,
            flow,
            exit,
            self.members as u64,
            self.is_sent as u64,
        ]
    }
}

impl Bits for ModuleContribution {
    fn bits(&self) -> Vec<u64> {
        let (flow, exit) = (self.flow.to_bits(), self.exit.to_bits());
        vec![
            self.mod_id,
            flow,
            exit,
            self.members as u64,
            self.retract as u64,
        ]
    }
}

impl Bits for DelegateProposal {
    fn bits(&self) -> Vec<u64> {
        let (to, delta) = (self.to_module, self.delta.to_bits());
        vec![self.delegate as u64, to, delta, self.proposer as u64]
    }
}

impl Bits for (u32, u32) {
    fn bits(&self) -> Vec<u64> {
        vec![self.0 as u64, self.1 as u64]
    }
}

fn bits<T: Bits>(records: &[T]) -> Vec<Vec<u64>> {
    records.iter().map(Bits::bits).collect()
}

/// A record kind's visitor decoder, behind a `dyn` callback.
type Visitor<T> = fn(&[u8], &mut usize, &mut dyn FnMut(T)) -> Result<usize, CodecError>;

/// What every batch of every kind must satisfy, given its records, the
/// slice encoder's bytes, the closure-fed encoder's bytes, the reference
/// bytes and the codec's visitor.
fn check<T: Bits>(
    what: &str,
    records: &[T],
    slice: &[u8],
    fed: &[u8],
    reference: &[u8],
    visit: Visitor<T>,
    count_free: bool,
) {
    assert_eq!(fed, slice, "{what}: closure-fed bytes");
    assert_eq!(slice, reference, "{what}: layout changed");

    // The visitor, alone and behind a fused prefix.
    let mut packet = vec![0xAA];
    packet.extend_from_slice(slice);
    let (mut seen, mut pos) = (Vec::new(), 1);
    let n = visit(&packet, &mut pos, &mut |r| seen.push(r)).expect(what);
    assert_eq!((n, pos), (records.len(), packet.len()), "{what}");
    assert_eq!(bits(&seen), bits(records), "{what}: records");

    // Every truncation.
    for len in 0..slice.len() {
        let got = visit(&slice[..len], &mut 0, &mut |_| {});
        assert!(
            got.is_err(),
            "{what}: {len} of {} bytes decoded",
            slice.len()
        );
    }

    // Inflated counts: re-encode the count in front of the same body.
    let mut count_len = 0;
    codec::get_uvarint(slice, &mut count_len).unwrap();
    let body = &slice[count_len..];
    let with_count = |count: u64| {
        let mut buf = Vec::new();
        codec::put_uvarint(&mut buf, count);
        buf.extend_from_slice(body);
        buf
    };
    for extra in 1..=3 {
        let buf = with_count(records.len() as u64 + extra);
        let got = visit(&buf, &mut 0, &mut |_| {});
        assert!(
            !count_free || got.is_err(),
            "{what}: count + {extra} decoded"
        );
    }
    for count in [body.len() as u64 + 1, 1 << 40, u64::MAX] {
        let buf = with_count(count);
        let got = visit(&buf, &mut 0, &mut |_| {});
        assert!(
            matches!(got, Err(CodecError::CountExceedsRemaining { .. })),
            "{what}: count {count}: {got:?}"
        );
    }
}

/// Reference layout: count, the bitmaps built up front, then the bodies.
fn reference<T>(
    records: &[T],
    flags: &[fn(&T) -> bool],
    mut body: impl FnMut(&mut Vec<u8>, &T),
) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_uvarint(&mut buf, records.len() as u64);
    for flag in flags {
        for chunk in records.chunks(8) {
            let byte = (chunk.iter().enumerate()).fold(0u8, |b, (i, r)| b | (flag(r) as u8) << i);
            buf.push(byte);
        }
    }
    for r in records {
        body(&mut buf, r);
    }
    buf
}

fn put_delta(buf: &mut Vec<u8>, prev: u64, cur: u64) {
    codec::put_uvarint(buf, codec::zigzag(cur.wrapping_sub(prev) as i64));
}

/// A closure-fed encoder's record source that insists on being asked for
/// each record once, in order.
fn in_order<T: Copy>(records: &[T]) -> impl FnMut(usize) -> T + '_ {
    let mut next = 0;
    move |i| {
        assert_eq!(i, next, "records fed out of order");
        next += 1;
        records[i]
    }
}

#[test]
fn updates_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for batch in 0..BATCHES {
        let s = shape(batch, &mut rng);
        let recs: Vec<VertexUpdate> = (0..s.n)
            .map(|i| VertexUpdate {
                vertex: s.id(i, &mut rng) as u32,
                module: s.id(i + 1, &mut rng),
            })
            .collect();
        let (mut slice, mut fed) = (Vec::new(), Vec::new());
        codec::encode_updates(&mut slice, &recs);
        codec::encode_updates_with(&mut fed, recs.len(), in_order(&recs));
        let (mut pv, mut pm) = (0, 0);
        let refb = reference(&recs, &[], |buf, u| {
            put_delta(buf, pv, u.vertex as u64);
            put_delta(buf, pm, u.module);
            (pv, pm) = (u.vertex as u64, u.module);
        });
        let mut back = 0;
        assert_eq!(codec::decode_updates(&slice, &mut back), recs);
        assert_eq!(back, slice.len());
        let what = format!("updates batch {batch}");
        check(
            &what,
            &recs,
            &slice,
            &fed,
            &refb,
            |b, p, f| codec::for_each_update(b, p, f),
            true,
        );
    }
}

#[test]
fn infos_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for batch in 0..BATCHES {
        let s = shape(batch, &mut rng);
        let recs: Vec<ModuleInfoMsg> = (0..s.n).map(|i| info(&s, i, &mut rng)).collect();
        let (mut slice, mut fed) = (Vec::new(), Vec::new());
        codec::encode_infos(&mut slice, &recs);
        codec::encode_infos_with(&mut fed, recs.len(), in_order(&recs));
        let mut pm = 0;
        let refb = reference(&recs, &[|m| m.is_sent], |buf, m| {
            put_delta(buf, pm, m.mod_id);
            pm = m.mod_id;
            codec::put_f64(buf, m.flow);
            codec::put_f64(buf, m.exit);
            codec::put_uvarint(buf, m.members as u64);
        });
        let mut back = 0;
        assert_eq!(bits(&codec::decode_infos(&slice, &mut back)), bits(&recs));
        assert_eq!(back, slice.len());
        let what = format!("infos batch {batch}");
        check(
            &what,
            &recs,
            &slice,
            &fed,
            &refb,
            |b, p, f| codec::for_each_info(b, p, f),
            false,
        );
    }
}

#[test]
fn contribs_sweep() {
    let stays = |c: &ModuleContribution| c.flow.to_bits() == 0 && c.members == 0;
    let zero =
        |c: &ModuleContribution| c.flow.to_bits() == 0 && c.members == 0 && c.exit.to_bits() == 0;
    let exit_only =
        |c: &ModuleContribution| c.flow.to_bits() == 0 && c.members == 0 && c.exit.to_bits() != 0;
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for batch in 0..BATCHES {
        let s = shape(batch, &mut rng);
        let recs: Vec<ModuleContribution> = (0..s.n)
            .map(|i| {
                // Zero deltas (subscriptions), exit-only deltas, deltas one
                // bit away from either, and arbitrary ones, with member
                // deltas of either sign up to the ends of `i32`. Retract
                // flags are drawn apart from the deltas: a retract carries
                // the negated contribution.
                let members = [0, 1, -1, 300, -300, i32::MAX, i32::MIN][rng.gen_range(0..7)];
                let (flow, exit, members) = match (s.flag(i, 1, &mut rng), rng.gen_range(0..4)) {
                    (true, _) => (0.0, 0.0, 0),
                    (false, 0) => [(-0.0, 0.0, 0), (0.0, -0.0, 0), (0.0, 0.0, 1)][i % 3],
                    (false, 1) => (0.0, float(&mut rng), 0),
                    (false, 2) => [(-0.0, float(&mut rng), 0), (0.0, float(&mut rng), -1)][i % 2],
                    _ => (float(&mut rng), float(&mut rng), members),
                };
                ModuleContribution {
                    mod_id: s.id(i, &mut rng),
                    flow,
                    exit,
                    members,
                    retract: s.flag(i, 0, &mut rng),
                }
            })
            .collect();
        let (mut slice, mut fed) = (Vec::new(), Vec::new());
        codec::encode_contribs(&mut slice, &recs);
        codec::encode_contribs_with(&mut fed, recs.len(), in_order(&recs));
        let mut pm = 0;
        let refb = reference(&recs, &[|c| c.retract, zero, exit_only], |buf, c| {
            put_delta(buf, pm, c.mod_id);
            pm = c.mod_id;
            if !stays(c) {
                codec::put_f64(buf, c.flow);
                codec::put_f64(buf, c.exit);
                codec::put_uvarint(buf, codec::zigzag(c.members as i64));
            } else if exit_only(c) {
                codec::put_f64(buf, c.exit);
            }
        });
        let mut back = 0;
        assert_eq!(
            bits(&codec::decode_contribs(&slice, &mut back)),
            bits(&recs)
        );
        assert_eq!(back, slice.len());
        let what = format!("contribs batch {batch}");
        check(
            &what,
            &recs,
            &slice,
            &fed,
            &refb,
            |b, p, f| codec::for_each_contrib(b, p, f),
            false,
        );
    }
}

#[test]
fn proposals_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for batch in 0..BATCHES {
        let s = shape(batch, &mut rng);
        let recs: Vec<DelegateProposal> = (0..s.n)
            .map(|i| DelegateProposal {
                delegate: s.id(i, &mut rng) as u32,
                to_module: s.id(i + 3, &mut rng),
                delta: float(&mut rng),
                proposer: [0, 3, 200, u32::MAX][rng.gen_range(0..4)],
            })
            .collect();
        let mut slice = Vec::new();
        codec::encode_proposals(&mut slice, &recs);
        let (mut pd, mut pm) = (0, 0);
        let refb = reference(&recs, &[], |buf, p| {
            put_delta(buf, pd, p.delegate as u64);
            put_delta(buf, pm, p.to_module);
            (pd, pm) = (p.delegate as u64, p.to_module);
            codec::put_f64(buf, p.delta);
            codec::put_uvarint(buf, p.proposer as u64);
        });
        let mut back = 0;
        assert_eq!(
            bits(&codec::decode_proposals(&slice, &mut back)),
            bits(&recs)
        );
        assert_eq!(back, slice.len());
        let what = format!("proposals batch {batch}");
        check(
            &what,
            &recs,
            &slice,
            &slice,
            &refb,
            |b, p, f| codec::for_each_proposal(b, p, f),
            true,
        );
    }
}

#[test]
fn pairs_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for batch in 0..BATCHES {
        let s = shape(batch, &mut rng);
        let recs: Vec<(u32, u32)> = (0..s.n)
            .map(|i| (s.id(i, &mut rng) as u32, s.id(i + 2, &mut rng) as u32))
            .collect();
        let mut slice = Vec::new();
        codec::encode_pairs(&mut slice, &recs);
        let (mut pa, mut pb) = (0, 0);
        let refb = reference(&recs, &[], |buf, &(a, b)| {
            put_delta(buf, pa, a as u64);
            put_delta(buf, pb, b as u64);
            (pa, pb) = (a as u64, b as u64);
        });
        let mut back = 0;
        assert_eq!(codec::decode_pairs(&slice, &mut back), recs);
        assert_eq!(back, slice.len());
        let what = format!("pairs batch {batch}");
        check(
            &what,
            &recs,
            &slice,
            &slice,
            &refb,
            |b, p, f| codec::for_each_pair(b, p, f),
            true,
        );
    }
}
