//! Binary CSR snapshots: an on-disk graph format with one block-cached
//! reader, plus per-rank shards for out-of-core runs and level records
//! for checkpoints.
//!
//! ## Format (version 1, all integers little-endian)
//!
//! ```text
//! magic            b"DINFSNAP"                      8 bytes
//! version          u32                              = 1
//! kind             u32                   0 = full, 1 = shard, 2 = level record
//! rank             u64                              owning rank (0 for full)
//! nranks           u64                              world size (1 for full)
//! global_vertices  u64
//! rows             u64   local row count (== global_vertices when full)
//! arcs             u64   stored arc count
//! global_edges     u64   global undirected edge count (0 in a level record)
//! global_weight    u64   IEEE-754 bits of the global total weight W (finite,
//!                        > 0, with a finite, nonzero 1/(2W))
//! offsets          (rows+1) × u64   CSR row offsets into the arc arrays
//! targets          arcs × u32       global target vertex ids
//! weights          arcs × u64       IEEE-754 bits per arc (finite, >= 0)
//! strengths        rows × u64       IEEE-754 bits per row (finite, >= 0)
//! carry            level record only: opaque bytes, up to the checksum
//! checksum         u64   FNV-1a over every preceding byte
//! ```
//!
//! A level record's carry is whatever lies between its per-row section and
//! the checksum; a graph file has none. The framing discipline: magic +
//! version gate, length-exact sections, a trailing checksum that rejects
//! torn or bit-flipped files with named errors, and atomic tmp+rename
//! writes ([`write_atomic`]). Floats travel as bit patterns so a loaded
//! graph is *the same bits* the writer held, whatever the cache shape,
//! which the clustering equivalence gates then assert end to end.
//!
//! A *shard* for rank `r` of `p` holds the adjacency rows of the
//! round-robin-owned vertices `{v : v mod p == r}` in ascending order
//! (row `i` is global vertex `r + i·p`), with targets kept as global ids
//! and the global totals baked into every shard header. Rank `r` can
//! therefore partition and cluster from its shard alone plus collectives
//! over scalar summaries (degrees, strengths) — it never needs the global
//! graph in memory.
//!
//! A *level record* is a checkpoint (DESIGN.md §6): rank `r`'s share of a
//! stage-2 level graph in the shard layout, its owned vertices' flows in
//! the per-row section, the input's `W` in the header and the caller's
//! carry behind the rows. [`write_parts`] writes one into any [`Write`];
//! [`SnapshotStore::from_bytes`] verifies it as `open` verifies a file.
//! Where a graph is expected, [`SnapshotHeader::graph`] refuses it.
//!
//! One cutter writes every shard and full snapshot of an edge set:
//! [`write_edge_shards`] over a sorted, folded edge list (the launcher's,
//! straight from [`crate::io::read_edges`], with no [`Graph`] built), and
//! [`write_shards`] / [`write_snapshot`] over [`Graph::edges`]. The same
//! list gives the same bytes either way. [`ShardSink`] streams a
//! generator's edges through spill files instead.
//!
//! [`SnapshotStore`] is the one reader: `open` and `from_bytes` verify the
//! whole input in one streaming pass, and reads are served from a cache of
//! file blocks — no mmap, so `#![forbid(unsafe_code)]` stays intact. The
//! cache has two shapes: the whole file, each section one block kept from
//! that pass, or a bounded LRU ([`PageCacheConfig`]) that faults
//! fixed-size blocks in by seek+read. Blocks are addressed per section and
//! the block size must be a multiple of 8, so a typed element never
//! straddles two blocks.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::csr::{strengths_of, total_weight_of, Graph, VertexId};
use crate::store::GraphStore;

/// File magic: "DINF" + snapshot discriminator.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DINFSNAP";

/// Current format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Fixed byte length of the header (magic through `global_weight`).
pub const HEADER_BYTES: u64 = 72;

/// Checksum trailer length.
pub const CHECKSUM_BYTES: u64 = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What a snapshot file claims to hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// The whole graph (one shard of a world of 1).
    Full,
    /// One rank's rows of a sharded graph.
    Shard,
    /// One rank's share of a stage-2 level: its rows, its owned vertices'
    /// flows and a carry (see the module doc). Not a graph.
    LevelRecord,
}

/// Decoded snapshot header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotHeader {
    pub kind: SnapshotKind,
    /// Owning rank (0 for full snapshots).
    pub rank: usize,
    /// World size the shard was written for (1 for full snapshots).
    pub nranks: usize,
    /// Global vertex count.
    pub global_vertices: usize,
    /// Local row count: vertices stored in this file.
    pub rows: usize,
    /// Stored arc count.
    pub arcs: usize,
    /// Global undirected edge count (self-loops once).
    pub global_edges: usize,
    /// Global total undirected edge weight `W` (self-loops once).
    pub global_weight: f64,
}

impl SnapshotHeader {
    /// Global vertex id of local row `i`.
    pub fn vertex_of_row(&self, row: usize) -> VertexId {
        (self.rank + row * self.nranks) as VertexId
    }

    /// Local row of global vertex `v`. Panics if `v` is not local.
    pub fn row_of_vertex(&self, v: VertexId) -> usize {
        let v = v as usize;
        assert_eq!(
            v % self.nranks,
            self.rank,
            "vertex {v} is not local to shard rank {} of {}",
            self.rank,
            self.nranks
        );
        (v - self.rank) / self.nranks
    }

    /// This header, unless it is a level record's: a checkpoint is no graph.
    pub fn graph(self) -> Result<Self, SnapshotError> {
        if self.kind == SnapshotKind::LevelRecord {
            return Err(SnapshotError::Malformed {
                context: "a checkpoint level record, not a graph",
            });
        }
        Ok(self)
    }

    fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut out = [0u8; HEADER_BYTES as usize];
        out[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
        out[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let kind: u32 = match self.kind {
            SnapshotKind::Full => 0,
            SnapshotKind::Shard => 1,
            SnapshotKind::LevelRecord => 2,
        };
        out[12..16].copy_from_slice(&kind.to_le_bytes());
        out[16..24].copy_from_slice(&(self.rank as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.nranks as u64).to_le_bytes());
        out[32..40].copy_from_slice(&(self.global_vertices as u64).to_le_bytes());
        out[40..48].copy_from_slice(&(self.rows as u64).to_le_bytes());
        out[48..56].copy_from_slice(&(self.arcs as u64).to_le_bytes());
        out[56..64].copy_from_slice(&(self.global_edges as u64).to_le_bytes());
        out[64..72].copy_from_slice(&self.global_weight.to_bits().to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<Self, SnapshotError> {
        if buf.len() < HEADER_BYTES as usize {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        if buf[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let kind = match u32_at(12) {
            0 => SnapshotKind::Full,
            1 => SnapshotKind::Shard,
            2 => SnapshotKind::LevelRecord,
            _ => {
                return Err(SnapshotError::Malformed {
                    context: "unknown snapshot kind",
                })
            }
        };
        let header = SnapshotHeader {
            kind,
            rank: u64_at(16) as usize,
            nranks: u64_at(24) as usize,
            global_vertices: u64_at(32) as usize,
            rows: u64_at(40) as usize,
            arcs: u64_at(48) as usize,
            global_edges: u64_at(56) as usize,
            global_weight: f64::from_bits(u64_at(64)),
        };
        if header.nranks == 0 || header.rank >= header.nranks {
            return Err(SnapshotError::Malformed {
                context: "rank outside world",
            });
        }
        // The graph writers pick the kind from the world size, so any
        // other pairing would read back as a file no writer produces.
        let graph = header.kind != SnapshotKind::LevelRecord;
        if graph && (header.kind == SnapshotKind::Full) != (header.nranks == 1) {
            return Err(SnapshotError::Malformed {
                context: "a full snapshot is a world of one rank, a shard of several",
            });
        }
        // The section lengths are computed from these counts: refuse
        // counts no file could hold before that arithmetic overflows.
        if header.rows as u64 > u64::MAX / 32 || header.arcs as u64 > u64::MAX / 32 {
            return Err(SnapshotError::Malformed {
                context: "counts exceed any file length",
            });
        }
        if header.rows != owned_row_count(header.global_vertices, header.nranks, header.rank) {
            return Err(SnapshotError::Malformed {
                context: "row count disagrees with round-robin ownership",
            });
        }
        priceable(header.global_weight)?;
        Ok(header)
    }

    /// Byte length of each section, in file order (no overflow for a
    /// header [`SnapshotHeader::decode`] accepts).
    fn section_bytes(&self) -> [u64; 4] {
        [
            (self.rows as u64 + 1) * 8,
            self.arcs as u64 * 4,
            self.arcs as u64 * 8,
            self.rows as u64 * 8,
        ]
    }

    /// The carry's length in a file of `len` bytes under this header: what
    /// a level record holds beyond its sections; a graph file has none.
    fn carry_bytes(&self, len: u64) -> Result<u64, SnapshotError> {
        let sections = self.section_bytes().iter().sum::<u64>();
        match len.checked_sub(HEADER_BYTES + sections + CHECKSUM_BYTES) {
            None => Err(SnapshotError::Truncated {
                context: "sections",
            }),
            Some(carry) if carry > 0 && self.kind != SnapshotKind::LevelRecord => {
                Err(SnapshotError::Malformed {
                    context: "trailing bytes after checksum",
                })
            }
            Some(carry) => Ok(carry),
        }
    }
}

/// The one rule on a header's `W`, which the writers check before they
/// write a byte and the decoder checks on every read. Every rank prices
/// its flows as `w/(2W)` from this `W` alone, so it is held to the
/// edge-list reader's domain (paper §2.2): a NaN, infinite, zero,
/// negative or subnormal `W` gives no finite `1/(2W)` > 0.
fn priceable(global_weight: f64) -> Result<(), SnapshotError> {
    let scale = 1.0 / (2.0 * global_weight);
    if scale.is_finite() && scale > 0.0 {
        return Ok(());
    }
    Err(SnapshotError::Malformed {
        context: "weights the map equation cannot price: the total weight W \
                  is not finite and > 0 with a finite, nonzero 1/(2W)",
    })
}

const UNPRICEABLE_FLOW: &str =
    "weights the map equation cannot price: an arc weight or strength is not finite and >= 0";

/// The one rule on arc weights and strengths (a level record's flows),
/// which the writers check before they write a byte and the verifying
/// pass checks on every read: each finite and >= 0, so every flow
/// `w/(2W)` is too.
fn priceable_flows(mut values: impl Iterator<Item = f64>) -> Result<(), SnapshotError> {
    let priced = values.all(|x| x.is_finite() && x >= 0.0);
    priced.then_some(()).ok_or(SnapshotError::Malformed {
        context: UNPRICEABLE_FLOW,
    })
}

/// Number of round-robin-owned vertices of rank `r` in a world of `p`.
pub fn owned_row_count(global_vertices: usize, nranks: usize, rank: usize) -> usize {
    if rank >= global_vertices {
        return 0;
    }
    (global_vertices - rank).div_ceil(nranks)
}

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion { found: u32 },
    /// The file ends before the named region is complete.
    Truncated { context: &'static str },
    /// The trailing FNV-1a checksum disagrees with the content.
    ChecksumMismatch,
    /// Structurally invalid content (bad kind, inconsistent counts,
    /// out-of-range offsets…).
    Malformed { context: &'static str },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated at {context}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Buffered writer that folds everything written into an FNV-1a hash,
/// a buffer at a time: the sections go out as many 4- and 8-byte
/// elements, each one copy into the buffer.
struct HashingWriter<'a> {
    out: &'a mut dyn Write,
    buf: Box<[u8; 1 << 16]>,
    len: usize,
    hash: u64,
}

impl<'a> HashingWriter<'a> {
    fn new(out: &'a mut dyn Write) -> Self {
        HashingWriter {
            out,
            buf: Box::new([0; 1 << 16]),
            len: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Hash and write out the buffer.
    fn drain(&mut self) -> std::io::Result<()> {
        self.hash = fnv1a(self.hash, &self.buf[..self.len]);
        self.out.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }

    /// Append one element's bytes.
    #[inline]
    fn put<const N: usize>(&mut self, bytes: [u8; N]) -> std::io::Result<()> {
        if self.len + N > self.buf.len() {
            self.drain()?;
        }
        self.buf[self.len..self.len + N].copy_from_slice(&bytes);
        self.len += N;
        Ok(())
    }
}

/// Identity and global totals of a shard file about to be written.
#[derive(Clone, Copy, Debug)]
pub struct ShardSpec {
    pub rank: usize,
    pub nranks: usize,
    pub global_vertices: usize,
    pub global_edges: usize,
    pub global_weight: f64,
}

impl ShardSpec {
    /// The header of this shard with `rows` rows and `arcs` arcs.
    fn header(&self, rows: usize, arcs: usize) -> SnapshotHeader {
        assert!(self.nranks > 0 && self.rank < self.nranks, "rank in world");
        assert!(
            self.global_vertices <= u32::MAX as usize,
            "snapshot vertex ids are u32"
        );
        SnapshotHeader {
            kind: if self.nranks == 1 {
                SnapshotKind::Full
            } else {
                SnapshotKind::Shard
            },
            rank: self.rank,
            nranks: self.nranks,
            global_vertices: self.global_vertices,
            rows,
            arcs,
            global_edges: self.global_edges,
            global_weight: self.global_weight,
        }
    }
}

/// Conventional file name of rank `rank`'s shard inside a shard dir.
pub fn shard_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("shard-{rank}.snap"))
}

/// Write `path` through `<path>.tmp` + `rename`, so a failed or
/// interrupted write never damages what `path` held; a failed write
/// removes its tmp file.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (File::create(&tmp).map_err(SnapshotError::from))
        .and_then(|mut file| write(&mut file))
        .and_then(|()| Ok(std::fs::rename(&tmp, path)?));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Write `header`, what `sections` writes behind it in file order, and
/// the checksum over both into `out`. A `W` no reader would accept is
/// refused before a byte is written.
fn write_into(
    out: &mut dyn Write,
    header: &SnapshotHeader,
    sections: impl FnOnce(&mut HashingWriter) -> std::io::Result<()>,
) -> Result<(), SnapshotError> {
    priceable(header.global_weight)?;
    let mut w = HashingWriter::new(out);
    w.put(header.encode())?;
    sections(&mut w)?;
    w.drain()?;
    let checksum = w.hash;
    w.out.write_all(&checksum.to_le_bytes())?;
    Ok(())
}

/// Write one shard (or, with `nranks == 1`, a full snapshot) from raw row
/// arrays: [`write_parts`] into `path`, atomically. An arc weight or
/// strength no reader would accept is refused, and no file is left.
pub fn write_shard_parts(
    path: &Path,
    spec: &ShardSpec,
    offsets: &[u64],
    targets: &[VertexId],
    weights: &[f64],
    strengths: &[f64],
) -> Result<(), SnapshotError> {
    write_atomic(path, |file| {
        write_parts(file, spec, offsets, targets, weights, strengths, None)
    })
}

/// Write `spec`'s rows into `out`. `offsets` has `rows + 1` entries;
/// `targets`/`weights` hold the arcs of row `i` at
/// `offsets[i]..offsets[i+1]` in CSR order; targets are global ids. With a
/// `carry` the file is a level record: `strengths` are its owned
/// vertices' flows, and the reader hands `carry` back as it is
/// ([`SnapshotStore::carry`]). A `W`, arc weight or per-row value no
/// reader would accept is refused before a byte is written.
pub fn write_parts(
    out: &mut dyn Write,
    spec: &ShardSpec,
    offsets: &[u64],
    targets: &[VertexId],
    weights: &[f64],
    strengths: &[f64],
    carry: Option<&[u8]>,
) -> Result<(), SnapshotError> {
    let rows = strengths.len();
    assert_eq!(offsets.len(), rows + 1, "offsets hold rows+1 entries");
    assert_eq!(targets.len(), weights.len());
    assert_eq!(*offsets.last().unwrap_or(&0) as usize, targets.len());
    priceable_flows(weights.iter().chain(strengths).copied())?;
    let mut header = spec.header(rows, targets.len());
    if carry.is_some() {
        header.kind = SnapshotKind::LevelRecord;
    }
    write_into(out, &header, |w| {
        for &off in offsets {
            w.put(off.to_le_bytes())?;
        }
        for &t in targets {
            w.put(t.to_le_bytes())?;
        }
        for &wt in weights.iter().chain(strengths) {
            w.put(wt.to_bits().to_le_bytes())?;
        }
        carry
            .unwrap_or_default()
            .iter()
            .try_for_each(|&b| w.put([b]))
    })
}

/// The one shard cutter. It cuts the rows of any rank from `edges`: the
/// distinct undirected edges `(u, v, w)`, `u <= v`, sorted by `(u, v)`,
/// that a [`Graph`] on `n` vertices is laid out from — an edge list as
/// read ([`crate::io::EdgeList`]), or [`Graph::edges`].
///
/// Row `v` holds what the `Graph`'s row holds, in its order: the edges
/// `(x, v)`, `x < v`, ascending, then a self-loop, then the edges
/// `(v, y)` ascending. The strengths and `W` are folded over the list in
/// its order, as [`Graph::from_sorted_edges`] folds them. So a file cut from
/// an edge list is byte for byte the one cut from its `Graph`.
///
/// Beside the list the cutter holds 8 bytes per non-loop edge (the
/// `(x, v)` edges by `v`, as `x` and a position), the row starts and the
/// strengths (O(n)): 24 bytes per edge in all, the reader's sort peak.
/// Each rank's file is written as its rows are walked, so no shard is
/// ever held in memory.
struct ShardCutter<'a> {
    edges: &'a [(VertexId, VertexId, f64)],
    /// `edges[upper[v]..upper[v + 1]]` are the edges `(v, y)`, `y >= v`.
    upper: Vec<usize>,
    /// `lower[lower_at[v]..lower_at[v + 1]]` are the edges `(x, v)`,
    /// `x < v`, ascending, as `x` and the edge's position in `edges`.
    lower_at: Vec<usize>,
    lower: Vec<(VertexId, u32)>,
    /// The `Graph`'s strengths.
    strengths: Vec<f64>,
    global_weight: f64,
}

impl<'a> ShardCutter<'a> {
    /// The cutter of `edges`, unless [`priceable_flows`] refuses them.
    fn new(n: usize, edges: &'a [(VertexId, VertexId, f64)]) -> Result<Self, SnapshotError> {
        assert!(edges.len() < u32::MAX as usize, "edge positions are u32");
        debug_assert!(
            (edges.windows(2)).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)),
            "edges are distinct and sorted"
        );
        let (mut upper, mut lower_at) = (vec![0usize; n + 1], vec![0usize; n + 1]);
        for &(u, v, _) in edges {
            upper[u as usize + 1] += 1;
            if u != v {
                lower_at[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            upper[v + 1] += upper[v];
            lower_at[v + 1] += lower_at[v];
        }
        let mut next = lower_at[..n].to_vec();
        let mut lower = vec![(0, 0); lower_at[n]];
        for (at, &(u, v, _)) in edges.iter().enumerate() {
            if u != v {
                lower[next[v as usize]] = (u, at as u32);
                next[v as usize] += 1;
            }
        }
        let strengths = strengths_of(n, edges);
        priceable_flows(edges.iter().map(|e| e.2).chain(strengths.iter().copied()))?;
        Ok(ShardCutter {
            edges,
            upper,
            lower_at,
            lower,
            strengths,
            global_weight: total_weight_of(edges),
        })
    }

    fn n(&self) -> usize {
        self.upper.len() - 1
    }

    fn degree(&self, v: usize) -> usize {
        (self.upper[v + 1] - self.upper[v]) + (self.lower_at[v + 1] - self.lower_at[v])
    }

    /// Row `v`'s lower edges `(x, v)`: `x` is the target. The `Graph`'s
    /// row holds them first, then the upper ones.
    fn lower(&self, v: usize) -> &[(VertexId, u32)] {
        &self.lower[self.lower_at[v]..self.lower_at[v + 1]]
    }

    /// Row `v`'s upper edges `(v, y)`, a self-loop first: `y` is the
    /// target.
    fn upper(&self, v: usize) -> &[(VertexId, VertexId, f64)] {
        &self.edges[self.upper[v]..self.upper[v + 1]]
    }

    /// Write rank `rank`'s shard of `nranks` (a full snapshot when
    /// `nranks == 1`) to `path`.
    fn write(&self, rank: usize, nranks: usize, path: &Path) -> Result<(), SnapshotError> {
        let n = self.n();
        let spec = ShardSpec {
            rank,
            nranks,
            global_vertices: n,
            global_edges: self.edges.len(),
            global_weight: self.global_weight,
        };
        let rows = || (rank..n).step_by(nranks);
        let arcs = rows().map(|v| self.degree(v)).sum();
        let header = spec.header(owned_row_count(n, nranks, rank), arcs);
        write_atomic(path, |file| {
            write_into(file, &header, |w| {
                let mut offset = 0u64;
                w.put(offset.to_le_bytes())?;
                for v in rows() {
                    offset += self.degree(v) as u64;
                    w.put(offset.to_le_bytes())?;
                }
                for v in rows() {
                    for &(x, _) in self.lower(v) {
                        w.put(x.to_le_bytes())?;
                    }
                    for &(_, y, _) in self.upper(v) {
                        w.put(y.to_le_bytes())?;
                    }
                }
                for v in rows() {
                    for &(_, at) in self.lower(v) {
                        w.put(self.edges[at as usize].2.to_bits().to_le_bytes())?;
                    }
                    for &(_, _, wt) in self.upper(v) {
                        w.put(wt.to_bits().to_le_bytes())?;
                    }
                }
                for v in rows() {
                    w.put(self.strengths[v].to_bits().to_le_bytes())?;
                }
                Ok(())
            })
        })
    }
}

/// Write the whole graph as one full snapshot file.
pub fn write_snapshot(graph: &Graph, path: &Path) -> Result<(), SnapshotError> {
    ShardCutter::new(graph.num_vertices(), &graph.edge_list())?.write(0, 1, path)
}

/// Shard an in-memory graph into `nranks` per-rank snapshot files under
/// `dir` (created if missing): the cutter of [`write_edge_shards`] over
/// [`Graph::edges`]. Returns the shard paths in rank order.
pub fn write_shards(
    graph: &Graph,
    nranks: usize,
    dir: &Path,
) -> Result<Vec<PathBuf>, SnapshotError> {
    write_edge_shards(graph.num_vertices(), &graph.edge_list(), nranks, dir)
}

/// Cut a sorted, folded edge list on `n` vertices (a
/// [`crate::io::EdgeList`]'s) into `nranks` per-rank snapshot files
/// under `dir` (created if missing), one rank at a time, with no `Graph`
/// built. Byte for byte what [`write_shards`] writes for the graph laid
/// out from the same list. Returns the shard paths in rank order.
pub fn write_edge_shards(
    n: usize,
    edges: &[(VertexId, VertexId, f64)],
    nranks: usize,
    dir: &Path,
) -> Result<Vec<PathBuf>, SnapshotError> {
    assert!(nranks > 0, "need at least one shard");
    let cutter = ShardCutter::new(n, edges)?;
    std::fs::create_dir_all(dir)?;
    (0..nranks)
        .map(|rank| {
            let path = shard_path(dir, rank);
            cutter.write(rank, nranks, &path).map(|()| path)
        })
        .collect()
}

/// The four CSR section arrays of one shard: row offsets, arc targets,
/// arc weights, per-row strengths.
type ShardRows = (Vec<u64>, Vec<VertexId>, Vec<f64>, Vec<f64>);

/// A bounded-memory edge sink that turns a *stream* of undirected edges
/// into per-rank snapshot shards without ever materializing the global
/// graph.
///
/// [`ShardSink::edge`] appends each edge's two directed arc records to the
/// owning ranks' spill files through fixed-size write buffers, so the
/// resident footprint during emission is `O(nranks)` buffers regardless of
/// edge count. [`ShardSink::finalize`] then processes one shard at a time:
/// sort its spill records by `(src, dst)`, merge parallel arcs by summing
/// weights (the exact [`crate::csr::GraphBuilder`] convention, so a
/// 1-shard sink reproduces the builder's CSR bit for bit), and write the
/// shard file. Peak finalize memory is the largest single shard — the
/// whole point of sharded generation.
///
/// Global totals need the merged arc counts of *every* shard before any
/// header can be written, so finalize makes two sweeps over the spill
/// files: a counting sweep for `(global_edges, global_weight)`, then the
/// writing sweep. Spill files are deleted on success.
pub struct ShardSink {
    dir: PathBuf,
    nranks: usize,
    global_vertices: usize,
    spills: Vec<BufWriter<File>>,
    emitted_weight: f64,
}

/// Spill record layout: `src u32 | dst u32 | weight-bits u64`, LE.
const SPILL_RECORD_BYTES: usize = 16;

impl ShardSink {
    /// Create a sink writing `nranks` shards for a graph of
    /// `global_vertices` vertices under `dir` (created if missing).
    pub fn create(
        dir: &Path,
        nranks: usize,
        global_vertices: usize,
    ) -> Result<Self, SnapshotError> {
        assert!(nranks > 0, "need at least one shard");
        assert!(
            global_vertices <= u32::MAX as usize,
            "snapshot vertex ids are u32"
        );
        std::fs::create_dir_all(dir)?;
        let spills = (0..nranks)
            .map(|r| Ok(BufWriter::new(File::create(Self::spill_path(dir, r))?)))
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(ShardSink {
            dir: dir.to_path_buf(),
            nranks,
            global_vertices,
            spills,
            emitted_weight: 0.0,
        })
    }

    fn spill_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("shard-{rank}.spill"))
    }

    /// Record the undirected edge `{u, v}` with weight `w`. Parallel
    /// emissions merge at finalize by summing weights; a self-loop is
    /// stored once, like the in-memory builder.
    pub fn edge(&mut self, u: VertexId, v: VertexId, w: f64) -> Result<(), SnapshotError> {
        debug_assert!((u as usize) < self.global_vertices);
        debug_assert!((v as usize) < self.global_vertices);
        self.emitted_weight += w;
        self.write_arc(u, v, w)?;
        if u != v {
            self.write_arc(v, u, w)?;
        }
        Ok(())
    }

    fn write_arc(&mut self, src: VertexId, dst: VertexId, w: f64) -> Result<(), SnapshotError> {
        let spill = &mut self.spills[src as usize % self.nranks];
        spill.write_all(&src.to_le_bytes())?;
        spill.write_all(&dst.to_le_bytes())?;
        spill.write_all(&w.to_bits().to_le_bytes())?;
        Ok(())
    }

    /// Load one spill file and merge it into sorted per-row CSR parts.
    fn merged_shard(&self, rank: usize) -> Result<ShardRows, SnapshotError> {
        let bytes = std::fs::read(Self::spill_path(&self.dir, rank))?;
        if bytes.len() % SPILL_RECORD_BYTES != 0 {
            return Err(SnapshotError::Malformed {
                context: "torn spill record",
            });
        }
        let mut records: Vec<(VertexId, VertexId, f64)> = bytes
            .chunks_exact(SPILL_RECORD_BYTES)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..8].try_into().unwrap()),
                    f64::from_bits(u64::from_le_bytes(c[8..16].try_into().unwrap())),
                )
            })
            .collect();
        drop(bytes);
        records.sort_unstable_by_key(|&(s, d, _)| (s, d));

        let n = self.global_vertices;
        let rows = owned_row_count(n, self.nranks, rank);
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets: Vec<VertexId> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut strengths = Vec::with_capacity(rows);
        offsets.push(0u64);
        let mut it = records.into_iter().peekable();
        for row in 0..rows {
            let v = (rank + row * self.nranks) as VertexId;
            let mut strength = 0.0;
            while let Some(&(s, d, _)) = it.peek() {
                if s != v {
                    break;
                }
                let mut w = 0.0;
                while let Some(&(s2, d2, w2)) = it.peek() {
                    if s2 != s || d2 != d {
                        break;
                    }
                    w += w2;
                    it.next();
                }
                targets.push(d);
                weights.push(w);
                strength += if d == v { 2.0 * w } else { w };
            }
            offsets.push(targets.len() as u64);
            strengths.push(strength);
        }
        assert!(it.peek().is_none(), "spill record for a foreign row");
        Ok((offsets, targets, weights, strengths))
    }

    /// Merge every spill file and write the shard set. Returns the shard
    /// paths in rank order. An arc weight or strength no reader would
    /// accept is refused before any shard file exists. The spill files
    /// are deleted either way.
    pub fn finalize(mut self) -> Result<Vec<PathBuf>, SnapshotError> {
        let written = self.write_shard_set();
        for rank in 0..self.nranks {
            let _ = std::fs::remove_file(Self::spill_path(&self.dir, rank));
        }
        written
    }

    fn write_shard_set(&mut self) -> Result<Vec<PathBuf>, SnapshotError> {
        for spill in &mut self.spills {
            spill.flush()?;
        }
        self.spills.clear();

        // Counting sweep: the headers need the *merged* global arc totals,
        // which exist only after every shard's dedup — so shards merge
        // twice, trading CPU for the bounded-memory guarantee.
        let mut counted_arcs = 0usize;
        let mut counted_self = 0usize;
        for rank in 0..self.nranks {
            let (offsets, targets, weights, strengths) = self.merged_shard(rank)?;
            priceable_flows(weights.iter().chain(&strengths).copied())?;
            counted_arcs += targets.len();
            for row in 0..strengths.len() {
                let v = (rank + row * self.nranks) as VertexId;
                counted_self += targets[offsets[row] as usize..offsets[row + 1] as usize]
                    .iter()
                    .filter(|&&t| t == v)
                    .count();
            }
        }
        let global_edges = (counted_arcs - counted_self) / 2 + counted_self;

        // Writing sweep.
        let mut paths = Vec::with_capacity(self.nranks);
        for rank in 0..self.nranks {
            let (offsets, targets, weights, strengths) = self.merged_shard(rank)?;
            let path = shard_path(&self.dir, rank);
            write_shard_parts(
                &path,
                &ShardSpec {
                    rank,
                    nranks: self.nranks,
                    global_vertices: self.global_vertices,
                    global_edges,
                    global_weight: self.emitted_weight,
                },
                &offsets,
                &targets,
                &weights,
                &strengths,
            )?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Read and validate only the header of a snapshot file (magic, version,
/// structural sanity, and that the file length matches the header's
/// claim). Cheap — used by the launcher to validate a shard dir without
/// streaming every byte on the supervisor.
pub fn read_header(path: &Path) -> Result<SnapshotHeader, SnapshotError> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; HEADER_BYTES as usize];
    let mut got = 0;
    while got < buf.len() {
        let n = file.read(&mut buf[got..])?;
        if n == 0 {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        got += n;
    }
    let header = SnapshotHeader::decode(&buf)?;
    header.carry_bytes(file.metadata()?.len())?;
    Ok(header)
}

/// The structural checks `open` runs once the checksum holds, fed
/// every section in pieces of whole elements: offsets run from 0 to the
/// arc count without decreasing, every target names a vertex, and every
/// arc weight and strength is one the map equation can price.
struct CsrCheck {
    arcs: u64,
    vertices: u64,
    first: Option<u64>,
    last: u64,
    decreasing: bool,
    target_out_of_range: bool,
    unpriceable: bool,
}

impl CsrCheck {
    fn new(header: &SnapshotHeader) -> Self {
        CsrCheck {
            arcs: header.arcs as u64,
            vertices: header.global_vertices as u64,
            first: None,
            last: 0,
            decreasing: false,
            target_out_of_range: false,
            unpriceable: false,
        }
    }

    fn offsets(&mut self, bytes: &[u8]) {
        for c in bytes.chunks_exact(8) {
            let offset = u64::from_le_bytes(c.try_into().unwrap());
            match self.first {
                None => self.first = Some(offset),
                Some(_) => self.decreasing |= offset < self.last,
            }
            self.last = offset;
        }
    }

    fn targets(&mut self, bytes: &[u8]) {
        self.target_out_of_range |= bytes
            .chunks_exact(4)
            .any(|c| u64::from(u32::from_le_bytes(c.try_into().unwrap())) >= self.vertices);
    }

    /// A weights or strengths piece: [`priceable_flows`].
    fn flows(&mut self, bytes: &[u8]) {
        let values = bytes.chunks_exact(8);
        let values = values.map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())));
        self.unpriceable |= priceable_flows(values).is_err();
    }

    fn finish(self) -> Result<(), SnapshotError> {
        let context = if self.first != Some(0) || self.last != self.arcs {
            "offsets must run 0..=arcs"
        } else if self.decreasing {
            "offsets must be non-decreasing"
        } else if self.target_out_of_range {
            "arc target out of range"
        } else if self.unpriceable {
            UNPRICEABLE_FLOW
        } else {
            return Ok(());
        };
        Err(SnapshotError::Malformed { context })
    }
}

/// Bounded block-cache tuning for [`SnapshotStore::open`].
#[derive(Clone, Copy, Debug)]
pub struct PageCacheConfig {
    /// Bytes per cached block. Must be a positive multiple of 8 so typed
    /// elements never straddle a block boundary.
    pub block_bytes: usize,
    /// Maximum resident blocks (LRU eviction beyond this).
    pub capacity_blocks: usize,
}

/// Why [`PageCacheConfig::check`] refuses a config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnusablePageCache {
    /// `block_bytes` is not a positive multiple of 8.
    BlockBytes,
    /// `capacity_blocks` is below 2.
    CapacityBlocks,
}

impl PageCacheConfig {
    /// The sizes [`SnapshotStore::open`] accepts.
    pub fn check(&self) -> Result<(), UnusablePageCache> {
        if self.block_bytes == 0 || !self.block_bytes.is_multiple_of(8) {
            return Err(UnusablePageCache::BlockBytes);
        }
        if self.capacity_blocks < 2 {
            return Err(UnusablePageCache::CapacityBlocks);
        }
        Ok(())
    }
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        // 64 KiB × 64 = 4 MiB resident regardless of graph size.
        PageCacheConfig {
            block_bytes: 64 * 1024,
            capacity_blocks: 64,
        }
    }
}

/// Block lookups of a [`SnapshotStore`] since `open`: a miss reads the
/// block from the file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// File sections, in on-disk order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Section {
    Offsets = 0,
    Targets = 1,
    Weights = 2,
    Strengths = 3,
}

struct CacheSlot {
    key: (Section, u64),
    bytes: Vec<u8>,
    last_used: u64,
}

/// A bounded LRU of fixed-size blocks, read from the file on miss.
struct BlockCache {
    cfg: PageCacheConfig,
    file: File,
    section_base: [u64; 4],
    section_len: [u64; 4],
    /// Fixed-capacity slot table; eviction scans it in index order for
    /// the minimum `last_used` tick (ticks are unique, so the victim is
    /// deterministic and no hash-order ever matters).
    slots: Vec<CacheSlot>,
    index: HashMap<(Section, u64), usize>,
    tick: u64,
    stats: CacheStats,
}

impl BlockCache {
    /// Run `f` over the cached bytes of `block` of `sec`, loading (and
    /// possibly evicting) on miss.
    fn with_block<R>(
        &mut self,
        sec: Section,
        block: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SnapshotError> {
        self.tick += 1;
        let tick = self.tick;
        let key = (sec, block);
        if let Some(&slot) = self.index.get(&key) {
            self.stats.hits += 1;
            self.slots[slot].last_used = tick;
            return Ok(f(&self.slots[slot].bytes));
        }
        self.stats.misses += 1;
        let sec_len = self.section_len[sec as usize];
        let start = block * self.cfg.block_bytes as u64;
        debug_assert!(start < sec_len, "block past end of section");
        let len = (sec_len - start).min(self.cfg.block_bytes as u64) as usize;
        let mut bytes = vec![0u8; len];
        self.file
            .seek(SeekFrom::Start(self.section_base[sec as usize] + start))?;
        self.file.read_exact(&mut bytes)?;
        let slot = if self.slots.len() < self.cfg.capacity_blocks {
            self.slots.push(CacheSlot {
                key,
                bytes,
                last_used: tick,
            });
            self.slots.len() - 1
        } else {
            // Deterministic LRU: unique ticks, scan in slot order.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .unwrap();
            let old_key = self.slots[victim].key;
            self.index.remove(&old_key);
            self.slots[victim] = CacheSlot {
                key,
                bytes,
                last_used: tick,
            };
            victim
        };
        self.index.insert(key, slot);
        Ok(f(&self.slots[slot].bytes))
    }
}

/// Where a store's blocks live.
enum Blocks {
    /// Every section as `open` verified it, each one block: the file is
    /// never read again.
    Whole([Vec<u8>; 4]),
    /// A bounded LRU.
    Bounded(RefCell<BlockCache>),
}

/// A snapshot (full, shard or level record) read through a cache of file
/// blocks, no mmap. The cache either holds the whole file, kept from the
/// verifying pass of [`SnapshotStore::open`] or
/// [`SnapshotStore::from_bytes`], or a bounded LRU of blocks read with
/// `File::seek` + `read_exact` on miss. Interior mutability makes the
/// [`GraphStore`] reads `&self`; the type is `!Sync` (one store per rank).
pub struct SnapshotStore {
    header: SnapshotHeader,
    blocks: Blocks,
    carry: Vec<u8>,
}

/// Read size of the verifying pass: a multiple of every element size, so
/// a piece holds whole elements.
const PIECE_BYTES: u64 = 64 * 1024;

impl SnapshotStore {
    /// Open a snapshot file through the one verifying pass. With `cache:
    /// None` the verified sections stay resident, so the store never reads
    /// the file again and serves exactly the bytes it checked. With
    /// `Some(cfg)` the pieces are dropped and reads fault blocks in
    /// through a bounded LRU.
    pub fn open(path: &Path, cache: Option<PageCacheConfig>) -> Result<Self, SnapshotError> {
        if let Some(cfg) = cache {
            cfg.check().expect("a usable page cache");
        }
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut store = Self::verify(&mut file, len, cache.is_none())?;
        if let Some(cfg) = cache {
            let section_len = store.header.section_bytes();
            let mut section_base = [0u64; 4];
            let mut at = HEADER_BYTES;
            for (base, len) in section_base.iter_mut().zip(section_len.iter()) {
                *base = at;
                at += len;
            }
            store.blocks = Blocks::Bounded(RefCell::new(BlockCache {
                cfg,
                file,
                section_base,
                section_len,
                // Grows to at most the file's block count, whatever the
                // capacity.
                slots: Vec::new(),
                index: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }));
        }
        Ok(store)
    }

    /// The snapshot `bytes` hold, whole, through the one verifying pass.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, SnapshotError> {
        let len = bytes.len() as u64;
        Self::verify(&mut bytes, len, true)
    }

    /// The one verifying pass over the `len` bytes of `src`, streamed once
    /// in 64 KiB pieces to check the trailing checksum and the CSR
    /// structure: bit flips and malformed sections are refused here with
    /// named errors. The sections are kept if `keep`.
    fn verify(src: &mut impl Read, len: u64, keep: bool) -> Result<Self, SnapshotError> {
        if len < HEADER_BYTES + CHECKSUM_BYTES {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        let mut head = [0u8; HEADER_BYTES as usize];
        src.read_exact(&mut head)?;
        let header = SnapshotHeader::decode(&head)?;
        let carry_len = header.carry_bytes(len)?;

        // Hash every byte and run the structural checks, reading straight
        // into the kept sections. The lengths were just checked against
        // the input's, so no count sizes an allocation on its own.
        let mut hash = fnv1a(FNV_OFFSET, &head);
        let mut check = CsrCheck::new(&header);
        let mut sections: [Vec<u8>; 4] = Default::default();
        let mut buf = vec![0u8; if keep { 0 } else { PIECE_BYTES as usize }];
        let order = [
            Section::Offsets,
            Section::Targets,
            Section::Weights,
            Section::Strengths,
        ];
        let section_len = header.section_bytes();
        for ((sec, kept), &bytes) in order.into_iter().zip(&mut sections).zip(&section_len) {
            if keep {
                kept.resize(bytes as usize, 0);
            }
            let mut at = 0;
            while at < bytes {
                let n = (bytes - at).min(PIECE_BYTES);
                let piece = match keep {
                    true => &mut kept[at as usize..(at + n) as usize],
                    false => &mut buf[..n as usize],
                };
                src.read_exact(piece)?;
                hash = fnv1a(hash, piece);
                match sec {
                    Section::Offsets => check.offsets(piece),
                    Section::Targets => check.targets(piece),
                    Section::Weights | Section::Strengths => check.flows(piece),
                }
                at += n;
            }
        }
        let mut carry = vec![0u8; carry_len as usize];
        src.read_exact(&mut carry)?;
        hash = fnv1a(hash, &carry);
        let mut trailer = [0u8; CHECKSUM_BYTES as usize];
        src.read_exact(&mut trailer)?;
        if hash != u64::from_le_bytes(trailer) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        check.finish()?;
        let blocks = Blocks::Whole(sections);
        Ok(SnapshotStore {
            header,
            blocks,
            carry,
        })
    }

    /// A level record's carry, as its writer passed it; empty for a graph.
    pub fn carry(&self) -> &[u8] {
        &self.carry
    }

    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Block cache hit/miss counters so far; `None` for a whole-file
    /// store, which never reads the file after `open`.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.blocks {
            Blocks::Whole(_) => None,
            Blocks::Bounded(cache) => Some(cache.borrow().stats),
        }
    }

    /// Visit the bytes of elements `start..end` of `sec` (element size
    /// `elem` bytes), block by block, in order.
    fn walk(
        &self,
        sec: Section,
        elem: u64,
        start: u64,
        end: u64,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), SnapshotError> {
        if start >= end {
            return Ok(());
        }
        let (lo, hi) = (start * elem, end * elem);
        match &self.blocks {
            Blocks::Whole(sections) => f(&sections[sec as usize][lo as usize..hi as usize]),
            Blocks::Bounded(cache) => {
                let mut cache = cache.borrow_mut();
                let bb = cache.cfg.block_bytes as u64;
                for block in lo / bb..=(hi - 1) / bb {
                    let block_start = block * bb;
                    let from = (lo.max(block_start) - block_start) as usize;
                    let to = (hi.min(block_start + bb) - block_start) as usize;
                    cache.with_block(sec, block, |bytes| f(&bytes[from..to]))?;
                }
            }
        }
        Ok(())
    }

    fn read_u64_elem(&self, sec: Section, idx: u64) -> u64 {
        let mut out = 0u64;
        self.walk(sec, 8, idx, idx + 1, |bytes| {
            out = u64::from_le_bytes(bytes.try_into().unwrap());
        })
        .unwrap_or_else(|e| panic!("snapshot read failed: {e}"));
        out
    }

    fn row_bounds(&self, u: VertexId) -> (u64, u64) {
        let row = self.header.row_of_vertex(u) as u64;
        let mut bounds = [0u64; 2];
        let mut i = 0;
        self.walk(Section::Offsets, 8, row, row + 2, |bytes| {
            for c in bytes.chunks_exact(8) {
                bounds[i] = u64::from_le_bytes(c.try_into().unwrap());
                i += 1;
            }
        })
        .unwrap_or_else(|e| panic!("snapshot read failed: {e}"));
        debug_assert_eq!(i, 2);
        (bounds[0], bounds[1])
    }
}

impl GraphStore for SnapshotStore {
    fn num_vertices(&self) -> usize {
        self.header.global_vertices
    }

    fn num_edges(&self) -> usize {
        self.header.global_edges
    }

    fn total_weight(&self) -> f64 {
        self.header.global_weight
    }

    fn degree(&self, u: VertexId) -> usize {
        let (a, b) = self.row_bounds(u);
        (b - a) as usize
    }

    fn strength(&self, u: VertexId) -> f64 {
        let row = self.header.row_of_vertex(u) as u64;
        f64::from_bits(self.read_u64_elem(Section::Strengths, row))
    }

    fn arcs_into(&self, u: VertexId, out: &mut Vec<(VertexId, f64)>) {
        let (a, b) = self.row_bounds(u);
        out.clear();
        out.reserve((b - a) as usize);
        self.walk(Section::Targets, 4, a, b, |bytes| {
            for c in bytes.chunks_exact(4) {
                out.push((u32::from_le_bytes(c.try_into().unwrap()), 0.0));
            }
        })
        .unwrap_or_else(|e| panic!("snapshot read failed: {e}"));
        let mut i = 0;
        self.walk(Section::Weights, 8, a, b, |bytes| {
            for c in bytes.chunks_exact(8) {
                out[i].1 = f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()));
                i += 1;
            }
        })
        .unwrap_or_else(|e| panic!("snapshot read failed: {e}"));
        debug_assert_eq!(i, out.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dinfomap-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Row arrays of rank `rank`'s shard of an in-memory graph, sliced from
    /// its CSR rows: the cutter's oracle.
    fn shard_rows_of_graph(graph: &Graph, nranks: usize, rank: usize) -> ShardRows {
        let n = graph.num_vertices();
        let rows = owned_row_count(n, nranks, rank);
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut strengths = Vec::with_capacity(rows);
        offsets.push(0u64);
        let mut v = rank;
        while v < n {
            let u = v as VertexId;
            for (t, w) in graph.arcs(u) {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u64);
            strengths.push(graph.strength(u));
            v += nranks;
        }
        (offsets, targets, weights, strengths)
    }

    fn sample_graph() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (0, 2, 2.5),
                (1, 2, 0.125),
                (2, 2, 3.0), // self-loop
                (3, 4, 1.0),
                (4, 5, 7.0),
                (5, 0, 0.5),
            ],
        )
    }

    /// `store` reads back `want`'s totals and the row of every vertex in
    /// `vs`, to the bit.
    fn assert_same_rows(
        store: &dyn GraphStore,
        want: &dyn GraphStore,
        vs: impl IntoIterator<Item = VertexId>,
    ) {
        assert_eq!(store.num_vertices(), want.num_vertices());
        assert_eq!(store.num_edges(), want.num_edges());
        assert_eq!(
            store.total_weight().to_bits(),
            want.total_weight().to_bits()
        );
        let bits = |arcs: &[(VertexId, f64)]| -> Vec<(VertexId, u64)> {
            arcs.iter().map(|&(t, w)| (t, w.to_bits())).collect()
        };
        let (mut got, mut expect) = (Vec::new(), Vec::new());
        for u in vs {
            assert_eq!(store.degree(u), want.degree(u), "v={u}");
            assert_eq!(store.strength(u).to_bits(), want.strength(u).to_bits());
            store.arcs_into(u, &mut got);
            want.arcs_into(u, &mut expect);
            assert_eq!(bits(&got), bits(&expect), "v={u}");
        }
    }

    fn assert_store_matches_graph(store: &dyn GraphStore, g: &Graph) {
        assert_same_rows(store, g, 0..g.num_vertices() as VertexId);
    }

    #[test]
    fn full_snapshot_roundtrips_eager_and_paged() {
        let g = sample_graph();
        let dir = tmp_dir("roundtrip");
        let path = dir.join("g.snap");
        write_snapshot(&g, &path).unwrap();

        // The whole file resident, as `open` read it.
        let whole = SnapshotStore::open(&path, None).unwrap();
        assert_eq!(whole.header().kind, SnapshotKind::Full);
        assert_store_matches_graph(&whole, &g);

        // Tiny blocks force heavy paging and eviction.
        let cache = PageCacheConfig {
            block_bytes: 8,
            capacity_blocks: 2,
        };
        let paged = SnapshotStore::open(&path, Some(cache)).unwrap();
        assert_store_matches_graph(&paged, &g);
        assert!(
            paged.cache_stats().unwrap().misses > 0,
            "tiny cache must miss"
        );
        // The largest sizes `check` accepts reserve nothing up front.
        let huge = PageCacheConfig {
            block_bytes: usize::MAX & !7,
            capacity_blocks: usize::MAX,
        };
        assert_store_matches_graph(&SnapshotStore::open(&path, Some(huge)).unwrap(), &g);

        // A whole-shard store serves the bytes its `open` verified: once
        // open, the file may be overwritten in place (bit flips, or another
        // valid snapshot of the same shape) and no read sees it.
        let good = std::fs::read(&path).unwrap();
        let mut flipped = good.clone();
        for byte in &mut flipped[HEADER_BYTES as usize..] {
            *byte ^= 0x10;
        }
        let doubled = Graph::from_edges(
            6,
            &g.edges()
                .map(|(u, v, w)| (u, v, 2.0 * w))
                .collect::<Vec<_>>(),
        );
        let other = dir.join("other.snap");
        write_snapshot(&doubled, &other).unwrap();
        let other = std::fs::read(&other).unwrap();
        assert_eq!(other.len(), good.len(), "the same shape");
        for bytes in [&flipped, &other] {
            std::fs::write(&path, &good).unwrap();
            let whole = SnapshotStore::open(&path, None).unwrap();
            std::fs::write(&path, bytes).unwrap();
            assert_store_matches_graph(&whole, &g);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_cover_owned_rows_bit_exactly() {
        let g = generators::lfr_like(
            generators::LfrParams {
                n: 120,
                degree_exponent: 2.5,
                k_min: 2,
                k_max: 20,
                community_exponent: 1.5,
                c_min: 8,
                c_max: 40,
                mu: 0.2,
                shuffle_ids: false,
            },
            7,
        )
        .0;
        let dir = tmp_dir("shards");
        let p = 3;
        let paths = write_shards(&g, p, &dir).unwrap();
        assert_eq!(paths.len(), p);
        for (rank, path) in paths.iter().enumerate() {
            let shard = SnapshotStore::open(path, None).unwrap();
            let h = *shard.header();
            assert_eq!(h.kind, SnapshotKind::Shard);
            assert_eq!(h.rank, rank);
            assert_eq!(h.nranks, p);
            assert_eq!(h.global_vertices, g.num_vertices());
            assert_eq!(h.global_edges, g.num_edges());
            assert_eq!(h.global_weight.to_bits(), g.total_weight().to_bits());
            assert_eq!(h.rows, owned_row_count(g.num_vertices(), p, rank));
            assert_same_rows(&shard, &g, (0..h.rows).map(|row| h.vertex_of_row(row)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_cutter_writes_the_graph_row_slicing_byte_for_byte() {
        use crate::io::{read_edges, tests::oracle};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Three repeats of one edge fold to other bits in the other order.
        assert_ne!(
            (0.1 + 0.2 + 0.3f64).to_bits(),
            (0.3 + 0.2 + 0.1f64).to_bits()
        );
        let dir = tmp_dir("cutter");
        let mut rng = StdRng::seed_from_u64(41);
        // Dense ids (the table), sparse `u32` ids (the map, chosen at the
        // end of input) and ids past `u32` (the map, from the first line).
        let kinds: [fn(u64) -> u64; 3] = [|k| k, |k| k * 70_000_001, |k| (1 << 40) + k];
        for (case, id) in kinds.iter().flat_map(|id| [id, id]).enumerate() {
            let triple = if case % 2 == 0 {
                [0.1, 0.2, 0.3]
            } else {
                [0.3, 0.2, 0.1]
            };
            let mut text = String::from("# vertices ? edges ?\r\n\n");
            for line in 0..400 {
                let (u, v) = match line % 100 {
                    // The triple, both ways round, a third of the file apart.
                    17 | 50 | 83 => (7, 9),
                    _ if rng.gen_range(0..8) == 0 => [rng.gen_range(0..60); 2].into(),
                    _ => (rng.gen_range(0..60), rng.gen_range(0..60)),
                };
                let (u, v) = if rng.gen_range(0..2) == 0 {
                    (u, v)
                } else {
                    (v, u)
                };
                let w = match line % 100 {
                    17 | 50 | 83 => triple[line % 100 / 33],
                    _ => [0.1, 0.2, 0.3, 1.0, 2.5][rng.gen_range(0..5)],
                };
                text += &format!("{} {} {w}", id(u), id(v));
                text += ["\n", "\r\n", "\n% comment\n", "\n\n"][rng.gen_range(0..4)];
            }
            let list = read_edges(text.as_bytes()).unwrap();
            let graph = oracle(text.as_bytes()).unwrap().graph;
            assert_eq!(list.num_vertices, graph.num_vertices(), "case {case}");
            for p in [1, 2, 3, 5] {
                let cut =
                    write_edge_shards(list.num_vertices, &list.edges, p, &dir.join("cut")).unwrap();
                let of_graph = write_shards(&graph, p, &dir.join("graph")).unwrap();
                for rank in 0..p {
                    let (offsets, targets, weights, strengths) =
                        shard_rows_of_graph(&graph, p, rank);
                    let spec = ShardSpec {
                        rank,
                        nranks: p,
                        global_vertices: graph.num_vertices(),
                        global_edges: graph.num_edges(),
                        global_weight: graph.total_weight(),
                    };
                    let want = dir.join("want.snap");
                    write_shard_parts(&want, &spec, &offsets, &targets, &weights, &strengths)
                        .unwrap();
                    let want = std::fs::read(&want).unwrap();
                    for got in [&cut[rank], &of_graph[rank]] {
                        let got = std::fs::read(got).unwrap();
                        assert!(
                            got == want,
                            "case {case}, p {p}, rank {rank}: the files differ"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writers_refuse_a_total_weight_no_reader_accepts() {
        let refused = |r: Result<Vec<PathBuf>, SnapshotError>| {
            let e = r.expect_err("an unpriceable W was written").to_string();
            assert!(e.contains("weights the map equation cannot price"), "{e}");
        };
        let edgeless = Graph::from_edges(3, &[]);
        let dir = tmp_dir("unpriceable-w");
        refused(write_shards(&edgeless, 2, &dir));
        refused(write_snapshot(&edgeless, &dir.join("g.snap")).map(|()| vec![]));
        let spec = ShardSpec {
            rank: 0,
            nranks: 1,
            global_vertices: 1,
            global_edges: 1,
            global_weight: f64::NAN,
        };
        let parts = write_shard_parts(&dir.join("p.snap"), &spec, &[0, 1], &[0], &[1.0], &[2.0]);
        refused(parts.map(|()| vec![]));
        refused(
            ShardSink::create(&dir.join("sink"), 2, 3)
                .unwrap()
                .finalize(),
        );
        // An arc weight or strength `open` refuses is refused by every
        // writer with `open`'s phrase: NaN, ∞ and −1 as a weight or a
        // strength, and a strength past the largest float summed from two
        // finite weights.
        let arc_refused = |r: Result<Vec<PathBuf>, SnapshotError>| {
            let e = r.expect_err("an unpriceable arc was written").to_string();
            assert!(e.contains(UNPRICEABLE_FLOW), "{e}");
        };
        let sink = |edges: &[(VertexId, VertexId, f64)]| {
            let mut sink = ShardSink::create(&dir.join("sink"), 2, 3).unwrap();
            for &(u, v, w) in edges {
                sink.edge(u, v, w).unwrap();
            }
            sink.finalize()
        };
        let spec = ShardSpec {
            global_weight: 1.0,
            ..spec
        };
        let parts = |weight: f64, strength: f64| {
            let path = dir.join("p.snap");
            write_shard_parts(&path, &spec, &[0, 1], &[0], &[weight], &[strength]).map(|()| vec![])
        };
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            arc_refused(parts(bad, 2.0));
            arc_refused(parts(1.0, bad));
            let edges = [(0, 1, bad), (1, 2, 3.0)];
            arc_refused(write_edge_shards(3, &edges, 2, &dir));
            arc_refused(sink(&edges));
        }
        let edges = [(0, 1, f64::MAX), (0, 2, f64::MAX)];
        arc_refused(write_edge_shards(3, &edges, 2, &dir));
        arc_refused(sink(&edges));
        // No shard and no half-written file is left behind, and a sink
        // leaves no spill file either.
        let snap = |p: &Path| p.extension().is_some_and(|x| x == "snap" || x == "tmp");
        let left = |d: PathBuf| std::fs::read_dir(d).unwrap().map(|e| e.unwrap().path());
        let left: Vec<PathBuf> = left(dir.clone())
            .filter(|p| snap(p))
            .chain(left(dir.join("sink")))
            .collect();
        assert!(left.is_empty(), "{left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_rejected_with_named_errors() {
        let g = sample_graph();
        let dir = tmp_dir("corrupt");
        let path = dir.join("g.snap");
        write_snapshot(&g, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Both cache shapes go through the one verifying `open`.
        let open = |cache| SnapshotStore::open(&path, cache);
        let shapes = [None, Some(PageCacheConfig::default())];

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(open(None), Err(SnapshotError::BadMagic)));

        // Unknown version.
        let mut bad = good.clone();
        bad[8] = 0x7f;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            open(None),
            Err(SnapshotError::BadVersion { found: 0x7f })
        ));

        // Truncation at every interesting boundary.
        for cut in [
            4usize,
            HEADER_BYTES as usize,
            good.len() - 9,
            good.len() - 1,
        ] {
            std::fs::write(&path, &good[..cut]).unwrap();
            for cache in shapes {
                assert!(
                    matches!(open(cache), Err(SnapshotError::Truncated { .. })),
                    "cut at {cut} must read as truncated ({cache:?})"
                );
            }
        }

        // A flipped bit anywhere in the body fails the checksum.
        for at in [HEADER_BYTES as usize + 3, good.len() / 2, good.len() - 12] {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            for cache in shapes {
                assert!(matches!(open(cache), Err(SnapshotError::ChecksumMismatch)));
            }
        }

        // Trailing garbage is named, not silently ignored.
        let mut bad = good.clone();
        bad.extend_from_slice(b"junk");
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(open(None), Err(SnapshotError::Malformed { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_probe_validates_cheaply() {
        let g = sample_graph();
        let dir = tmp_dir("probe");
        let path = dir.join("g.snap");
        write_snapshot(&g, &path).unwrap();
        let h = read_header(&path).unwrap();
        assert_eq!(h.global_vertices, 6);
        assert_eq!(h.global_edges, g.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streaming a graph's edge list through a [`ShardSink`] must produce
    /// byte-identical files to sharding the in-memory graph, for any world
    /// size — the sink's sort+merge is the builder's convention.
    #[test]
    fn shard_sink_matches_in_memory_sharding() {
        let (g, _) = generators::lfr_like(
            generators::LfrParams {
                n: 150,
                ..Default::default()
            },
            21,
        );
        for p in [1usize, 3] {
            let mem_dir = tmp_dir(&format!("sink-mem-{p}"));
            let sink_dir = tmp_dir(&format!("sink-stream-{p}"));
            let mem_paths = write_shards(&g, p, &mem_dir).unwrap();
            let mut sink = ShardSink::create(&sink_dir, p, g.num_vertices()).unwrap();
            for (u, v, w) in g.edges() {
                sink.edge(u, v, w).unwrap();
            }
            let sink_paths = sink.finalize().unwrap();
            assert_eq!(mem_paths.len(), sink_paths.len());
            for (a, b) in mem_paths.iter().zip(&sink_paths) {
                let ba = std::fs::read(a).unwrap();
                let bb = std::fs::read(b).unwrap();
                assert_eq!(ba, bb, "p={p}: sink shard diverged from in-memory shard");
            }
            // Spill files are cleaned up.
            assert!(!ShardSink::spill_path(&sink_dir, 0).exists());
            std::fs::remove_dir_all(&mem_dir).ok();
            std::fs::remove_dir_all(&sink_dir).ok();
        }
    }

    /// Parallel emissions and self-loops merge exactly like the builder.
    #[test]
    fn shard_sink_merges_parallel_edges_and_self_loops() {
        let mut b = crate::csr::GraphBuilder::new(4);
        let emissions = [(0u32, 1u32, 1.0f64), (1, 0, 0.5), (2, 2, 2.0), (0, 3, 1.0)];
        for &(u, v, w) in &emissions {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let dir = tmp_dir("sink-merge");
        let mut sink = ShardSink::create(&dir, 1, 4).unwrap();
        for &(u, v, w) in &emissions {
            sink.edge(u, v, w).unwrap();
        }
        let paths = sink.finalize().unwrap();
        let loaded = SnapshotStore::open(&paths[0], None).unwrap();
        assert_store_matches_graph(&loaded, &g);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streamed sharded generation is deterministic and shard-count
    /// invariant: the same `(params, seed)` written as 1 shard or as p
    /// shards describes the same global graph.
    #[test]
    fn streamed_generation_is_shard_count_invariant() {
        let params = generators::LfrParams {
            n: 200,
            shuffle_ids: false,
            ..Default::default()
        };
        let full_dir = tmp_dir("gen-full");
        let shard_dir = tmp_dir("gen-shards");
        let mut full_sink = ShardSink::create(&full_dir, 1, params.n).unwrap();
        generators::streaming_lfr_edges(params, 5, |u, v, w| full_sink.edge(u, v, w)).unwrap();
        let full = full_sink.finalize().unwrap();
        let g = SnapshotStore::open(&full[0], None).unwrap();
        assert!(g.num_edges() > params.n / 2, "streamed stand-in too sparse");

        let mut sink = ShardSink::create(&shard_dir, 3, params.n).unwrap();
        generators::streaming_lfr_edges(params, 5, |u, v, w| sink.edge(u, v, w)).unwrap();
        for path in sink.finalize().unwrap() {
            let shard = SnapshotStore::open(&path, None).unwrap();
            let h = *shard.header();
            assert_same_rows(&shard, &g, (0..h.rows).map(|row| h.vertex_of_row(row)));
        }
        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }
}
