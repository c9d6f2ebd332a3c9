//! Property tests for the log-round collective layer: for arbitrary world
//! sizes (odd, even, prime, power-of-two) and arbitrary per-rank blobs
//! (including empty ones), a lockstep execution of the Bruck schedule must
//! deliver the exchange contract — every rank ends with
//! all p blobs indexed by source rank. The round codec must round-trip
//! arbitrary block lists and reject arbitrary damage without panicking.

use proptest::prelude::*;

use infomap_transport_socket::collectives::{
    bruck_rounds, ceil_log2, decode_round, encode_round, reindex,
};

/// Execute the schedule for every rank against an in-memory "network":
/// the transport-free ground truth of what the socket ranks compute.
fn run_schedule(blobs: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
    let p = blobs.len();
    let mut have: Vec<Vec<Option<Vec<u8>>>> = (0..p)
        .map(|r| {
            let mut h = vec![None; p];
            h[0] = Some(blobs[r].clone());
            h
        })
        .collect();
    let schedules: Vec<_> = (0..p).map(|r| bruck_rounds(r, p)).collect();
    for k in 0..schedules[0].len() {
        // Every rank's round-k frame travels through the wire codec, like
        // the real transport's CollRound payloads.
        let wires: Vec<(usize, Vec<u8>)> = (0..p)
            .map(|r| {
                let plan = schedules[r][k];
                let body = encode_round(
                    plan.round,
                    (0..plan.send_blocks)
                        .map(|v| ((r + v) % p, have[r][v].as_deref().expect("held"))),
                );
                (plan.send_to, body)
            })
            .collect();
        for (dest, body) in wires {
            let plan = schedules[dest][k];
            let (round, blocks) = decode_round(&body).expect("well-formed round");
            assert_eq!(round, plan.round);
            for (i, (gsrc, blob)) in blocks.into_iter().enumerate() {
                assert_eq!(gsrc, (plan.recv_from + i) % p);
                have[dest][plan.recv_at + i] = Some(blob);
            }
        }
    }
    (0..p)
        .map(|r| reindex(r, std::mem::take(&mut have[r])))
        .collect()
}

fn arb_blobs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // World sizes 1..=13 cover p=1 (no rounds), odd p, primes, and 8.
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..=13)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn logp_delivers_exactly_the_flat_result(blobs in arb_blobs()) {
        // The exchange contract: out[s] = blobs[s] at every rank.
        let all = run_schedule(&blobs);
        for (rank, out) in all.iter().enumerate() {
            prop_assert_eq!(out.len(), blobs.len(), "rank {}", rank);
            for (s, blob) in out.iter().enumerate() {
                prop_assert_eq!(blob, &blobs[s], "rank {} slot {}", rank, s);
            }
        }
    }

    #[test]
    fn frame_budget_is_ceil_log2_for_every_rank(p in 1usize..=64) {
        for r in 0..p {
            prop_assert_eq!(bruck_rounds(r, p).len() as u32, ceil_log2(p));
        }
    }

    #[test]
    fn round_codec_roundtrips_arbitrary_blocks(
        round in any::<u32>(),
        blocks in proptest::collection::vec(
            (0usize..4096, proptest::collection::vec(any::<u8>(), 0..128)),
            0..8,
        ),
    ) {
        let body = encode_round(round, blocks.iter().map(|(s, b)| (*s, b.as_slice())));
        let (r, decoded) = decode_round(&body).expect("roundtrip");
        prop_assert_eq!(r, round);
        prop_assert_eq!(decoded, blocks);
    }

    #[test]
    fn damaged_round_bodies_never_panic(
        blocks in proptest::collection::vec(
            (0usize..16, proptest::collection::vec(any::<u8>(), 0..32)),
            1..4,
        ),
        cut in any::<usize>(),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // Truncations and bit flips must come back as Err or as a
        // different (but structurally valid) decode — never a panic, and
        // never trailing silence.
        let body = encode_round(0, blocks.iter().map(|(s, b)| (*s, b.as_slice())));
        let truncated = &body[..cut % body.len()];
        let _ = decode_round(truncated);
        let mut flipped = body.clone();
        let pos = flip_pos % flipped.len();
        flipped[pos] ^= 1 << flip_bit;
        let _ = decode_round(&flipped);
    }
}
