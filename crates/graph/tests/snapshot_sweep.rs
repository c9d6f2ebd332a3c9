//! Seeded sweep over the snapshot readers of `graph/src/snapshot.rs`:
//! `read_header`, `SnapshotStore::open` with both cache shapes (the
//! whole file resident, and a bounded LRU) and `SnapshotStore::from_bytes`:
//! 46 608 cases from one seeded `StdRng` stream, a few seconds in a debug
//! build.
//!
//! * 3 000 arbitrary byte strings: random bytes, a valid magic and
//!   version followed by noise, and valid files with bytes overwritten or
//!   cut short;
//! * every single-bit flip of 24 small valid files — the full snapshots
//!   of three graphs (one with no edges), each of their shards at p = 2
//!   and p = 3, and the weighted graph's level records at p = 1, 2 and 3,
//!   each with a 40-byte carry — with the trailing FNV-1a checksum
//!   repaired, so that the header and section checks are what a flip
//!   meets.
//!
//! The edgeless graph's files have `W = 0`, which no rank can price, so
//! they are refused by name (no writer makes them any more: the sweep
//! patches them in); every other valid file is accepted.
//! Every input is refused by both cache shapes and the byte-slice reader
//! with the same named `SnapshotError` (never `Io`; `read_header`, which
//! checks no checksum, refuses it by name too or accepts it), or accepted
//! by all three, and by `read_header` with the same header. An accepted
//! store reads the same rows and carry whole, paged and from the slice,
//! and re-encodes to exactly the input bytes. No open panics, and none
//! holds more than `4 × len + 128 KiB` of heap at once while it reads a
//! `len`-byte file: nothing is sized by a count the bytes cannot back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use infomap_graph::snapshot::{
    owned_row_count, read_header, shard_path, write_parts, write_shard_parts, write_shards,
    write_snapshot, PageCacheConfig, ShardSpec, SnapshotError, SnapshotHeader, SnapshotKind,
    SnapshotStore, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use infomap_graph::{generators, Graph, GraphStore};

const ARBITRARY: usize = 3_000;
/// Heap a reader may hold beyond four times the file's length.
const HEAP_SLACK: usize = 128 * 1024;
/// A small cache, so that the paged reads of a flip evict.
const PAGED: PageCacheConfig = PageCacheConfig {
    block_bytes: 64,
    capacity_blocks: 2,
};

/// The system allocator, counting live and peak heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to `System` with the caller's arguments, so
// `System`'s guarantees are this allocator's; the counters are statistics
// and publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `p` came from `System` through `alloc` above.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `read` on a `len`-byte file and insist it neither panicked nor
/// held more heap than the bound.
fn bounded<T>(what: String, len: usize, read: impl FnOnce() -> T) -> T {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| panic!("{what} panicked"));
    let held = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    assert!(
        held <= 4 * len + HEAP_SLACK,
        "{what}: {held} heap bytes for {len}"
    );
    out
}

/// Write `bytes` to `path` as a new file: replacing or truncating an
/// existing one makes some file systems flush it to disk first, which
/// would dominate the sweep's time.
fn fresh_file(path: &Path, bytes: &[u8]) {
    let _ = std::fs::remove_file(path);
    std::fs::write(path, bytes).unwrap();
}

/// A store's rows re-encoded under its header, as the bytes of a file;
/// with a `carry`, as a level record.
fn reencode(store: &SnapshotStore, carry: Option<&[u8]>) -> Vec<u8> {
    let header = store.header();
    let (mut offsets, mut targets, mut weights, mut strengths) = (vec![0], vec![], vec![], vec![]);
    let mut arcs = Vec::new();
    for row in 0..header.rows {
        let v = header.vertex_of_row(row);
        store.arcs_into(v, &mut arcs);
        targets.extend(arcs.iter().map(|a| a.0));
        weights.extend(arcs.iter().map(|a| a.1));
        offsets.push(targets.len() as u64);
        strengths.push(store.strength(v));
    }
    let spec = ShardSpec {
        rank: header.rank,
        nranks: header.nranks,
        global_vertices: header.global_vertices,
        global_edges: header.global_edges,
        global_weight: header.global_weight,
    };
    let mut out = Vec::new();
    write_parts(
        &mut out, &spec, &offsets, &targets, &weights, &strengths, carry,
    )
    .unwrap();
    out
}

/// Every row of `header` reads the same from `a` and `b`, to the bit.
fn same_rows(a: &impl GraphStore, b: &impl GraphStore, header: &SnapshotHeader) -> bool {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    (0..header.rows).all(|row| {
        let v = header.vertex_of_row(row);
        a.arcs_into(v, &mut x);
        b.arcs_into(v, &mut y);
        let bits = |arcs: &[(u32, f64)]| arcs.iter().map(|&(t, w)| (t, w.to_bits())).collect();
        let (xs, ys): (Vec<_>, Vec<_>) = (bits(&x), bits(&y));
        xs == ys && a.strength(v).to_bits() == b.strength(v).to_bits()
    })
}

/// Feed `bytes` to `read_header`, both cache shapes and the byte-slice
/// reader as case number `cases + 1`; true if they accept it.
fn snapshot_case(bytes: &[u8], dir: &Path, cases: &mut usize) -> bool {
    *cases += 1;
    let case = *cases;
    let path = dir.join("case.snap");
    fresh_file(&path, bytes);
    let len = bytes.len();
    let whole = bounded(format!("case {case}: whole"), len, || {
        SnapshotStore::open(&path, None)
    });
    let paged = bounded(format!("case {case}: paged"), len, || {
        SnapshotStore::open(&path, Some(PAGED))
    });
    let slice = bounded(format!("case {case}: bytes"), len, || {
        SnapshotStore::from_bytes(bytes)
    });
    let header = read_header(&path);
    match (&whole, &slice) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {case}"),
        (Ok(a), Ok(b)) => assert!(
            a.header() == b.header() && same_rows(a, b, a.header()) && a.carry() == b.carry(),
            "case {case}: the file and byte-slice readers read different stores"
        ),
        _ => panic!("case {case}: the file and byte-slice readers disagree"),
    }
    let (whole, paged) = match (whole, paged) {
        (Err(a), Err(b)) => {
            let named = |e: &SnapshotError| !matches!(e, SnapshotError::Io(_));
            assert!(named(&a) && named(&b), "case {case}: unnamed: {a} / {b}");
            // `read_header` checks no checksum, so it may accept.
            assert!(header.as_ref().err().is_none_or(named), "case {case}");
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "case {case}: the cache shapes disagree"
            );
            return false;
        }
        (Ok(whole), Ok(paged)) => (whole, paged),
        (a, b) => panic!("case {case}: whole {:?}, paged {:?}", a.err(), b.err()),
    };
    let h = *whole.header();
    assert_eq!(header.ok(), Some(h), "case {case}: read_header disagrees");
    assert_eq!(paged.header(), &h, "case {case}");
    assert!(
        same_rows(&whole, &paged, &h),
        "case {case}: paged rows differ"
    );
    assert_eq!(whole.carry(), paged.carry(), "case {case}: carries differ");
    let carry = (h.kind == SnapshotKind::LevelRecord).then_some(whole.carry());
    assert!(
        reencode(&whole, carry) == bytes,
        "case {case}: re-encoding {h:?}"
    );
    true
}

/// A 7-vertex weighted graph with a self-loop, one with no edges, and a
/// random 10-vertex one.
fn graphs(rng: &mut StdRng) -> Vec<Graph> {
    let weighted = Graph::from_edges(
        7,
        &[
            (0, 1, 0.5),
            (1, 2, 1.25),
            (2, 0, 3.0),
            (3, 3, 2.0),
            (4, 5, 1.0),
            (6, 0, 0.75),
        ],
    );
    let empty = Graph::from_edges(3, &[]);
    vec![
        weighted,
        empty,
        generators::erdos_renyi(10, 14, rng.next_u64()),
    ]
}

/// Random bytes, a valid magic and version followed by noise, or a valid
/// file with bytes overwritten or cut short.
fn arbitrary(rng: &mut StdRng, valid: &[Vec<u8>]) -> Vec<u8> {
    let noise =
        |rng: &mut StdRng, n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
    match rng.gen_range(0..4) {
        0 => {
            let n = rng.gen_range(0..128);
            noise(rng, n)
        }
        1 => {
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.extend(SNAPSHOT_VERSION.to_le_bytes());
            let n = rng.gen_range(0..256);
            bytes.extend(noise(rng, n));
            bytes
        }
        shape => {
            let mut bytes = valid[rng.gen_range(0..valid.len())].clone();
            if shape == 2 {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.next_u64() as u8;
                }
            } else {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            }
            bytes
        }
    }
}

/// FNV-1a, the snapshot trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The edgeless graph `g`'s files, full and at p = 2 and p = 3, byte for
/// byte as a writer that let its `W = 0` through wrote them. Every writer
/// now refuses that `W`, so each file is written with `W = 1`, then its
/// header's `W` (bytes 64..72) is zeroed and its checksum resealed.
fn edgeless_files(g: &Graph, dir: &Path) -> Vec<Vec<u8>> {
    let n = g.num_vertices();
    let path = dir.join("edgeless.snap");
    let shards = [1, 2, 3]
        .into_iter()
        .flat_map(|p| (0..p).map(move |r| (p, r)));
    shards
        .map(|(nranks, rank)| {
            let rows = owned_row_count(n, nranks, rank);
            let spec = ShardSpec {
                rank,
                nranks,
                global_vertices: n,
                global_edges: 0,
                global_weight: 1.0,
            };
            let _ = std::fs::remove_file(&path);
            write_shard_parts(&path, &spec, &vec![0; rows + 1], &[], &[], &vec![0.0; rows])
                .unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[64..72].copy_from_slice(&0f64.to_bits().to_le_bytes());
            let sum_at = bytes.len() - 8;
            let sum = fnv1a(&bytes[..sum_at]);
            bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
            bytes
        })
        .collect()
}

#[test]
fn snapshot_readers_survive_the_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_54a9);
    let dir = std::env::temp_dir().join(format!("dinf-snapshot-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut valid: Vec<Vec<u8>> = Vec::new();
    // Per valid file: its graph has edges, so its `W` can be priced.
    let mut priced = Vec::new();
    for (i, g) in graphs(&mut rng).iter().enumerate() {
        if g.num_edges() == 0 {
            valid.extend(edgeless_files(g, &dir));
            priced.resize(valid.len(), false);
            continue;
        }
        let full = dir.join(format!("g{i}.snap"));
        write_snapshot(g, &full).unwrap();
        valid.push(std::fs::read(&full).unwrap());
        for p in [2, 3] {
            let shards = dir.join(format!("g{i}-p{p}"));
            write_shards(g, p, &shards).unwrap();
            valid.extend((0..p).map(|r| std::fs::read(shard_path(&shards, r)).unwrap()));
        }
        if i == 0 {
            // Its rows at p = 1, 2 and 3 as level records, each with an
            // opaque 40-byte carry.
            let carry: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37)).collect();
            let stores = valid.iter().map(|f| SnapshotStore::from_bytes(f).unwrap());
            let records: Vec<_> = stores.map(|s| reencode(&s, Some(&carry))).collect();
            valid.extend(records);
        }
        priced.resize(valid.len(), true);
    }
    let mut cases = 0;

    for _ in 0..ARBITRARY {
        let bytes = arbitrary(&mut rng, &valid);
        snapshot_case(&bytes, &dir, &mut cases);
    }

    let mut accepted = 0;
    for (file, &priced) in valid.iter().zip(&priced) {
        assert_eq!(
            snapshot_case(file, &dir, &mut cases),
            priced,
            "a file with edges is refused, or an edgeless one accepted"
        );
        if !priced {
            // `W = 0`: the header names why no rank could price a flow.
            let path = dir.join("edgeless.snap");
            fresh_file(&path, file);
            let refusal = read_header(&path).unwrap_err().to_string();
            assert!(
                refusal.contains("weights the map equation cannot price"),
                "{refusal}"
            );
        }
        let sum_at = file.len() - 8;
        for bit in 0..file.len() * 8 {
            let mut bytes = file.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 < sum_at {
                let sum = fnv1a(&bytes[..sum_at]);
                bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
            }
            accepted += usize::from(snapshot_case(&bytes, &dir, &mut cases));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A flip of a weight, a strength, a target or a global total is a
    // different valid file, so close to half the flips of the 12 graph
    // files with edges are accepted; not the one that makes `W` negative,
    // and not the 258 that make one of their 168 weights and strengths
    // unpriceable: each one's sign bit, and the top exponent bit of the
    // 90 in [1, 2), which gives ∞ or NaN. The 2 full files also accept the
    // flip of their kind from full (0) to level record (2): a level record
    // with an empty carry. 12 531 in all. Of the edgeless graph's 6 files
    // (`W = 0`) only the flips that give `W` a priceable value are: 11
    // exponent bits and 2 mantissa bits each. Of the 6 level records'
    // flips, 6 179 are accepted: every flip of a carry byte (6 × 320),
    // which the reader hands back as it is, and close to half the rest.
    assert_eq!(accepted, 18_710, "accepted flips");
    assert_eq!(cases, 46_608, "the case count the module doc states");
}
