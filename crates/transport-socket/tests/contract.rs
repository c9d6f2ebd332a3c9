//! The `Transport` contract, one body over both implementations: the
//! in-memory mesh a `World` runs on and a Unix-domain `SocketTransport`
//! mesh (ranks on threads of this process; each only ever talks through
//! its sockets). `Comm` lowers every operation onto these four calls, so
//! what holds here holds for every collective over either carrier.

use std::time::Duration;

use infomap_mpisim::{MemTransport, Transport};
use infomap_transport_socket::{SocketConfig, SocketTransport};

const MIB: usize = 1 << 20;

/// Rank `rank`'s blob for slot `seq`: empty, large, one byte and an odd
/// size in between, rotating over ranks and slots. Large is 1 MiB in the
/// first ten slots (and the tagged message), 1 KiB after.
fn blob(rank: usize, seq: u64, dest: usize) -> Vec<u8> {
    let large = if seq < 10 { MIB } else { 1 << 10 };
    let len = [0, large, 1, 93][(rank + seq as usize) % 4];
    (0..len)
        .map(|i| (rank as u8) ^ (seq as u8) ^ (dest as u8).rotate_left(4) ^ (i as u8))
        .collect()
}

/// What every rank runs. Panics on any breach of the contract.
fn contract(t: &mut dyn Transport) {
    let (me, p) = (t.rank(), t.size());

    // Selective receive: frames are taken by (src, tag), whatever order
    // they arrived in. Every rank sends two tags to each peer, then takes
    // them from the highest source down, second tag first.
    for dest in (0..p).filter(|&d| d != me) {
        t.send(dest, 7, vec![me as u8, 7]).unwrap();
        t.send(dest, 9, blob(me, 9, dest)).unwrap();
    }
    for src in (0..p).rev().filter(|&s| s != me) {
        assert_eq!(t.recv(src, 9).unwrap(), blob(src, 9, me), "{me} <- {src}");
        assert_eq!(t.recv(src, 7).unwrap(), vec![src as u8, 7], "{me} <- {src}");
    }

    // Collectives back to back: 100 slots, allgather and personalized
    // exchange alternating, no barrier between them. Slot `seq` must
    // return slot `seq`'s frames, indexed by source rank, own included.
    for seq in 0..100_u64 {
        if seq % 2 == 0 {
            let all = t.exchange(seq, blob(me, seq, p)).unwrap();
            assert_eq!(all.len(), p);
            for (src, got) in all.iter().enumerate() {
                assert!(got == &blob(src, seq, p), "exchange {seq}: {me} <- {src}");
            }
        } else {
            let outgoing = (0..p).map(|dest| blob(me, seq, dest)).collect();
            let rows = t.alltoallv(seq, outgoing).unwrap();
            assert_eq!(rows.len(), p);
            for (src, got) in rows.iter().enumerate() {
                assert!(got == &blob(src, seq, me), "alltoallv {seq}: {me} <- {src}");
            }
        }
    }
}

#[test]
fn in_memory_mesh_honours_the_contract() {
    for p in [1, 3, 4] {
        std::thread::scope(|scope| {
            for mut t in MemTransport::mesh(p) {
                scope.spawn(move || contract(&mut t));
            }
        });
    }
}

#[test]
fn uds_socket_mesh_honours_the_contract() {
    for p in [1, 3, 4] {
        let dir = std::env::temp_dir().join(format!("tsock-contract-{}-{p}", std::process::id()));
        let mut cfg = SocketConfig::uds(&dir);
        cfg.timeout = Duration::from_secs(20);
        std::thread::scope(|scope| {
            for rank in 0..p {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let mut t = SocketTransport::connect(rank, p, cfg)
                        .unwrap_or_else(|e| panic!("rank {rank} connect: {e}"));
                    contract(&mut t);
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
