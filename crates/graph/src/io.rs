//! Edge-list IO.
//!
//! Format: one edge per line, `u v [w]`, whitespace separated (further
//! tokens are ignored); `#` or `%` lines are comments (both SNAP and KONECT
//! conventions). Vertex ids are arbitrary `u64`s on disk and are densely
//! relabeled on read; the mapping is returned so results can be reported
//! in original ids. A weight must be finite and non-negative, and the
//! folded weights must be ones the map equation can price (see
//! [`IoError::Unpriceable`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::csr::{total_weight_of, Graph, VertexId};

/// Errors the readers can produce.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse {
        line: usize,
        content: String,
    },
    /// The file names more distinct vertex ids than a [`VertexId`] can
    /// number.
    TooManyVertices,
    /// The folded weights leave the map equation's domain (paper §2.2):
    /// a merged edge weight or the total `W` is not finite, `W` is 0, or
    /// `1/(2W)` is not a finite, nonzero scale, so the flows `w/(2W)`
    /// are no probability distribution.
    Unpriceable(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error on line {line}: {content:?}")
            }
            IoError::TooManyVertices => write!(f, "more than {MAX_VERTICES} distinct vertex ids"),
            IoError::Unpriceable(why) => {
                write!(f, "weights the map equation cannot price: {why}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Result of reading an edge list: the graph plus the original ids, indexed
/// by the dense ids used in the graph.
pub struct LoadedGraph {
    pub graph: Graph,
    /// `original_ids[dense] = id as written in the file`.
    pub original_ids: Vec<u64>,
}

/// An edge list as read, before any CSR is laid out: the distinct
/// undirected edges `(u, v, w)`, `u <= v` in dense ids, sorted by
/// `(u, v)`, each weight its repeats summed in file order. It is the list
/// a [`Graph`] is laid out from, and the one the launcher cuts shards
/// from ([`crate::snapshot::write_edge_shards`]) without building one.
pub struct EdgeList {
    pub num_vertices: usize,
    pub edges: Vec<(VertexId, VertexId, f64)>,
    /// `original_ids[dense] = id as written in the file`.
    pub original_ids: Vec<u64>,
}

/// Marks an id not yet numbered, so a graph numbers at most this many.
const UNSEEN: VertexId = VertexId::MAX;
const MAX_VERTICES: usize = UNSEEN as usize;

/// Leading ASCII digits of `s` as a `u64`, and what follows them. `None`
/// when there are none, or more than the 19 that cannot overflow.
fn digits(s: &[u8]) -> Option<(u64, &[u8])> {
    let len = s.iter().take_while(|b| b.is_ascii_digit()).count();
    if len == 0 || len > 19 {
        return None;
    }
    let value = |x: u64, b: &u8| x * 10 + u64::from(b - b'0');
    Some((s[..len].iter().fold(0, value), &s[len..]))
}

/// The common line shape, `digits SP digits [SP digits]` up to the line
/// feed or the end of input, without a UTF-8 pass; an integer weight
/// converts with the round-to-nearest `str::parse` applies. Every other
/// line (`None`) is [`parse_general`]'s.
fn parse_plain(line: &[u8]) -> Option<(u64, u64, f64)> {
    let (u, rest) = digits(line)?;
    let (v, rest) = digits(rest.strip_prefix(b" ")?)?;
    let (w, rest) = match rest.strip_prefix(b" ") {
        Some(rest) => digits(rest).map(|(w, rest)| (w as f64, rest))?,
        None => (1.0, rest),
    };
    matches!(rest, [] | [b'\n']).then_some((u, v, w))
}

/// The whole grammar, on one line: Unicode blanks, comments, signs,
/// decimal and exponent weights. `Ok(None)` is a comment or an empty line.
fn parse_general(bytes: &[u8], line_no: usize) -> Result<Option<(u64, u64, f64)>, IoError> {
    let text = std::str::from_utf8(bytes).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let line = text.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(None);
    }
    let parse_err = || IoError::Parse {
        line: line_no,
        content: line.to_string(),
    };
    let mut parts = line.split_whitespace();
    let mut id = || parts.next().and_then(|token| token.parse().ok());
    let (u, v) = (id().ok_or_else(parse_err)?, id().ok_or_else(parse_err)?);
    let w = parts.next().map_or(Ok(1.0), str::parse::<f64>);
    match w {
        Ok(w) if w >= 0.0 && w.is_finite() => Ok(Some((u, v, w))),
        _ => Err(parse_err()),
    }
}

/// Length of the direct id → dense number table, when the largest id is
/// small enough that the table is no bigger than the parsed edges it
/// serves (SNAP and KONECT files number their vertices near-densely).
fn table_len(max_id: u64, edges: usize) -> Option<usize> {
    let max = usize::try_from(max_id).ok()?;
    (max / 6 < edges).then(|| max + 1)
}

/// Dense ids by first appearance, through a direct table (`table`
/// non-empty) or std's SipHash map (the ids are input).
struct Numbering {
    table: Vec<VertexId>,
    map: HashMap<u64, VertexId>,
    original_ids: Vec<u64>,
    max_vertices: usize,
}

impl Numbering {
    fn new(table_len: usize, max_vertices: usize) -> Self {
        Numbering {
            table: vec![UNSEEN; table_len],
            map: HashMap::new(),
            original_ids: Vec::new(),
            max_vertices,
        }
    }

    fn dense(&mut self, id: u64) -> Result<VertexId, IoError> {
        let slot = if self.table.is_empty() {
            self.map.entry(id).or_insert(UNSEEN)
        } else {
            &mut self.table[id as usize]
        };
        if *slot == UNSEEN {
            if self.original_ids.len() == self.max_vertices {
                return Err(IoError::TooManyVertices);
            }
            *slot = self.original_ids.len() as VertexId;
            self.original_ids.push(id);
        }
        Ok(*slot)
    }

    /// The edge `u v` in dense ids, `u` numbered first, oriented
    /// `(min, max)`.
    fn edge(&mut self, u: u64, v: u64, w: f64) -> Result<(VertexId, VertexId, f64), IoError> {
        let (u, v) = (self.dense(u)?, self.dense(v)?);
        Ok((u.min(v), u.max(v), w))
    }

    /// Number the raw ids of `edges` in place, in list order.
    fn number(&mut self, edges: &mut [(VertexId, VertexId, f64)]) -> Result<(), IoError> {
        for e in edges {
            *e = self.edge(u64::from(e.0), u64::from(e.1), e.2)?;
        }
        Ok(())
    }
}

/// Read a whitespace edge list from any reader into a [`Graph`]: the
/// [`read_edges`] list, laid out as the CSR. Dense ids go by first
/// appearance in file order and a repeated edge's weights add in file
/// order, so the `Graph` (and every downstream trajectory) is the one a
/// [`crate::GraphBuilder`] fed line by line builds.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, IoError> {
    let list = read_edges(reader)?;
    Ok(LoadedGraph {
        graph: Graph::from_sorted_edges(list.num_vertices, &list.edges),
        original_ids: list.original_ids,
    })
}

/// Read a whitespace edge list from any reader into its sorted, folded
/// [`EdgeList`], 16 bytes per edge line.
///
/// The file is streamed into that one list. While every id fits a `u32`
/// the list holds the raw ids, and at the end of input they are numbered
/// in place through the table or the map [`table_len`] picks; from the
/// first wider id on, every line is numbered as it is read, through the
/// map. The list is then sorted in place (24 bytes per edge at the peak,
/// [`sort_and_fold`]), its repeats folded, and the folded weights checked
/// against the map equation's domain ([`IoError::Unpriceable`]).
pub fn read_edges<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    read_edge_list_capped(reader, MAX_VERTICES)
}

fn read_edge_list_capped<R: Read>(reader: R, max_vertices: usize) -> Result<EdgeList, IoError> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let (mut max_id, mut mapped) = (0u64, None::<Numbering>);
    let mut line = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        line_no += 1;
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let parsed = match parse_plain(&line) {
            Some(edge) => Some(edge),
            None => parse_general(&line, line_no)?,
        };
        let Some((u, v, w)) = parsed else {
            continue;
        };
        // `0.0 + w`: where a `GraphBuilder` entry starts (-0.0 becomes 0.0).
        let w = 0.0 + w;
        if mapped.is_none() && u.max(v) > u64::from(VertexId::MAX) {
            let mut ids = Numbering::new(0, max_vertices);
            ids.number(&mut edges)?;
            mapped = Some(ids);
        }
        match &mut mapped {
            Some(ids) => edges.push(ids.edge(u, v, w)?),
            None => {
                max_id = max_id.max(u).max(v);
                edges.push((u as VertexId, v as VertexId, w));
            }
        }
    }
    edges.shrink_to_fit();
    let ids = match mapped {
        Some(ids) => ids,
        None => {
            let table = table_len(max_id, edges.len()).unwrap_or(0);
            let mut ids = Numbering::new(table, max_vertices);
            ids.number(&mut edges)?;
            ids
        }
    };
    let Numbering { original_ids, .. } = ids;
    if edges.len() >= u32::MAX as usize {
        let more = format!("more than {} edges", u32::MAX - 1);
        return Err(std::io::Error::new(ErrorKind::InvalidData, more).into());
    }
    sort_and_fold(&mut edges, original_ids.len());
    check_domain(&edges, &original_ids)?;
    Ok(EdgeList {
        num_vertices: original_ids.len(),
        edges,
        original_ids,
    })
}

/// One stable counting-sort pass: the positions `from` yields, ordered by
/// `key` (< `n`), ties in `from`'s order.
fn counting_pass(
    from: impl ExactSizeIterator<Item = u32> + Clone,
    key: impl Fn(u32) -> VertexId,
    n: usize,
) -> Vec<u32> {
    let mut next = vec![0u32; n + 1];
    for i in from.clone() {
        next[key(i) as usize + 1] += 1;
    }
    for k in 0..n {
        next[k + 1] += next[k];
    }
    let mut order = vec![0u32; from.len()];
    for i in from {
        let k = key(i) as usize;
        order[next[k] as usize] = i;
        next[k] += 1;
    }
    order
}

/// Sort `edges` (fewer than `u32::MAX`, ids below `n`) by `(u, v)` in
/// place, stably, then fold every run of repeats into its first entry, in
/// file order. Two counting passes over `u32` positions, on `v` and then
/// on `u`, give the order, which is applied along its cycles: 24 bytes per
/// edge at the peak, where a merge sort's buffer would double the list.
fn sort_and_fold(edges: &mut Vec<(VertexId, VertexId, f64)>, n: usize) {
    const DONE: u32 = u32::MAX;
    let by_v = counting_pass(0..edges.len() as u32, |i| edges[i as usize].1, n);
    let mut order = counting_pass(by_v.iter().copied(), |i| edges[i as usize].0, n);
    drop(by_v);
    // `edges[j] = old edges[order[j]]`, each cycle once.
    for start in 0..edges.len() {
        if order[start] == DONE {
            continue;
        }
        let held = edges[start];
        let mut at = start;
        loop {
            let from = order[at] as usize;
            order[at] = DONE;
            if from == start {
                edges[at] = held;
                break;
            }
            edges[at] = edges[from];
            at = from;
        }
    }
    drop(order);
    edges.dedup_by(|repeat, kept| {
        let same = (repeat.0, repeat.1) == (kept.0, kept.1);
        if same {
            kept.2 += repeat.2;
        }
        same
    });
    edges.shrink_to_fit();
}

/// The map equation's domain, on the folded list: every weight finite,
/// `W` finite and > 0, and `1/(2W)` finite and nonzero, so every flow
/// `w/(2W)` is finite and the flows sum to 1.
fn check_domain(edges: &[(VertexId, VertexId, f64)], ids: &[u64]) -> Result<(), IoError> {
    let refuse = |why: String| Err(IoError::Unpriceable(why));
    if let Some(&(u, v, _)) = edges.iter().find(|e| !e.2.is_finite()) {
        let (u, v) = (ids[u as usize], ids[v as usize]);
        return refuse(format!(
            "the weights of edge {u} {v} sum past the largest float"
        ));
    }
    let total = total_weight_of(edges);
    let scale = 1.0 / (2.0 * total);
    if !total.is_finite() {
        refuse("the total weight W sums past the largest float".into())
    } else if total == 0.0 {
        refuse("the total weight W is 0".into())
    } else if !(scale.is_finite() && scale > 0.0) {
        refuse(format!(
            "1/(2W) is no finite, nonzero float (W = {total:e})"
        ))
    } else {
        Ok(())
    }
}

/// Read an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Read an edge list from a file path into its [`EdgeList`].
pub fn read_edges_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, IoError> {
    read_edges(std::fs::File::open(path)?)
}

/// Write a graph as a whitespace edge list (each undirected edge once).
/// Weights are written only when not 1.0.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# vertices {} edges {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v, weight) in graph.edges() {
        if weight == 1.0 {
            writeln!(w, "{u} {v}")?;
        } else {
            writeln!(w, "{u} {v} {weight}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Write a graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    write_edge_list(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Why the oracle refuses a text.
    #[derive(Debug)]
    pub(crate) enum Refused {
        /// The malformed line's number.
        Line(usize),
        /// The folded weights leave the map equation's domain.
        Domain,
    }

    /// The reader's specification: the line loop it replaced, feeding a
    /// [`GraphBuilder`], then the domain rule on the graph it built.
    pub(crate) fn oracle(text: &[u8]) -> Result<LoadedGraph, Refused> {
        let mut remap: HashMap<u64, VertexId> = HashMap::new();
        let mut original_ids: Vec<u64> = Vec::new();
        let mut builder = GraphBuilder::new(0);
        for (i, line) in text.split(|&b| b == b'\n').enumerate() {
            let line = std::str::from_utf8(line).expect("generated text").trim();
            if line.is_empty() || line.starts_with(['#', '%']) {
                continue;
            }
            let mut parts = line.split_whitespace();
            let bad = Refused::Line(i + 1);
            let mut id = || parts.next().and_then(|t| t.parse().ok());
            let (Some(u), Some(v)): (Option<u64>, Option<u64>) = (id(), id()) else {
                return Err(bad);
            };
            let w = parts.next().map_or(Ok(1.0), str::parse::<f64>);
            let w = w.ok().filter(|w| *w >= 0.0 && w.is_finite()).ok_or(bad)?;
            let mut dense = |id: u64| {
                *remap.entry(id).or_insert_with(|| {
                    original_ids.push(id);
                    (original_ids.len() - 1) as VertexId
                })
            };
            let (u, v) = (dense(u), dense(v));
            builder.ensure_vertices(original_ids.len());
            builder.add_edge(u, v, w);
        }
        let graph = builder.build();
        let total = graph.total_weight();
        let scale = 1.0 / (2.0 * total);
        let priced = graph.edges().all(|e| e.2.is_finite())
            && total.is_finite()
            && total > 0.0
            && scale.is_finite()
            && scale > 0.0;
        if !priced {
            return Err(Refused::Domain);
        }
        Ok(LoadedGraph {
            graph,
            original_ids,
        })
    }

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// One edge list mixing every quirk the grammar allows; a quarter of
    /// them carry one malformed line. Returns the text, the number of edge
    /// lines and the largest id on them.
    fn messy_edge_list(rng: &mut StdRng) -> (String, usize, u64) {
        const BLANKS: [&str; 7] = [" ", " ", " ", "\t", "  ", " \t ", "\u{a0}"];
        const ENDS: [&str; 6] = ["\n", "\n", "\n", "\r\n", " \n", "\t \r\n"];
        const COMMENTS: [&str; 5] = ["# c 1 2", "% k", "", "   ", "#"];
        let weights: Vec<&str> = "0.1 0.2 0.3 1 2 007 0 -0 +3 1e-3 2.5E2 .5 \
            18446744073709551615 18446744073709551616"
            .split(' ')
            .collect();
        let bad: Vec<&str> = "x y|7|1 2 nan|1 2 inf|1 2 -1|1 2 -1e-9|1 2 1e999|1 2 w|\
            18446744073709551616 1|-1 2|1.5 2|1 é"
            .split('|')
            .collect();
        // Dense ids keep the table; one far id, or all of them, force the map.
        let universe: u64 = [12, 40, 40, 1 << 20, u64::MAX][rng.gen_range(0..5)];
        let lines = rng.gen_range(0..60);
        let bad_at = (rng.gen_range(0..4) == 0).then(|| rng.gen_range(0..lines + 1));
        let (mut text, mut edges, mut max_id) = (String::new(), Vec::<(u64, u64)>::new(), 0);
        for i in 0..lines + 1 {
            if bad_at == Some(i) {
                text += pick(rng, &bad);
            } else if i == lines {
                break;
            } else if rng.gen_range(0..6) == 0 {
                text += pick(rng, &COMMENTS);
            } else {
                let id = |rng: &mut StdRng| match rng.gen_range(0..20) {
                    0 => universe,
                    _ => rng.gen_range(0..universe.min(1 << 40)),
                };
                let (u, v) = match rng.gen_range(0..10) {
                    0..=2 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
                    3 => [id(rng); 2].into(),
                    _ => (id(rng), id(rng)),
                };
                let (u, v) = if rng.gen_range(0..2) == 0 {
                    (u, v)
                } else {
                    (v, u)
                };
                edges.push((u, v));
                max_id = max_id.max(u).max(v);
                let quirky = rng.gen_range(0..4) == 0;
                let sep = |rng: &mut StdRng| if quirky { pick(rng, &BLANKS) } else { " " };
                if quirky && rng.gen_range(0..3) == 0 {
                    text += pick(rng, &[" ", "\t", "+"]);
                }
                text += &format!("{u}{}{v}", sep(rng));
                if rng.gen_range(0..3) > 0 {
                    text += &format!("{}{}", sep(rng), pick(rng, &weights));
                    if quirky && rng.gen_range(0..4) == 0 {
                        text += " trailing tokens";
                    }
                }
            }
            text += pick(rng, &ENDS);
        }
        if rng.gen_range(0..3) == 0 {
            text.truncate(text.trim_end_matches(['\n', '\r']).len());
        }
        (text, edges.len(), max_id)
    }

    #[test]
    fn reader_matches_the_line_loop_over_a_graph_builder() {
        let mut rng = StdRng::seed_from_u64(24);
        let (mut tables, mut maps, mut rejected, mut unpriced) = (0, 0, 0, 0);
        for case in 0..400 {
            let (text, edge_lines, max_id) = messy_edge_list(&mut rng);
            match (read_edge_list(text.as_bytes()), oracle(text.as_bytes())) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.original_ids, want.original_ids, "case {case}: {text:?}");
                    assert_eq!(got.graph, want.graph, "case {case}: {text:?}");
                    // `==` takes -0.0 for 0.0; the bits must agree too.
                    let bits = |g: &Graph| g.edges().map(|e| e.2.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.graph), bits(&want.graph), "case {case}: {text:?}");
                    match table_len(max_id, edge_lines) {
                        Some(_) => tables += 1,
                        None => maps += 1,
                    }
                }
                (Err(IoError::Parse { line, .. }), Err(Refused::Line(want))) => {
                    assert_eq!(line, want, "case {case}: {text:?}");
                    rejected += 1;
                }
                (Err(IoError::Unpriceable(_)), Err(Refused::Domain)) => unpriced += 1,
                (got, want) => panic!(
                    "case {case}: reader {:?}, oracle {:?} on {text:?}",
                    got.map(|l| l.original_ids),
                    want.map(|l| l.original_ids)
                ),
            }
        }
        assert!(
            tables >= 50 && maps >= 50 && rejected >= 50 && unpriced >= 1,
            "{tables} {maps} {rejected} {unpriced}"
        );
    }

    #[test]
    fn bad_weights_and_bad_bytes_are_errors_not_panics() {
        for bad in ["2 3 nan", "2 3 inf", "2 3 -1", "2 3 -inf", "2 3 1e999"] {
            let text = format!("1 2\n# c\n{bad}\n");
            match read_edge_list(text.as_bytes()) {
                Err(IoError::Parse { line: 3, content }) => assert_eq!(content, bad),
                other => panic!("{bad:?}: {:?}", other.err()),
            }
        }
        // As `read_line` had it: bytes that are not UTF-8 are an io error,
        // in a comment too.
        for bad in [&b"1 2\n\xff 3\n"[..], b"1 2\n# caf\xe9\n"] {
            match read_edge_list(bad) {
                Err(IoError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData),
                other => panic!("{bad:?}: {:?}", other.err()),
            }
        }
    }

    #[test]
    fn weights_the_map_equation_cannot_price_are_a_named_error() {
        for (text, why) in [
            ("0 1 1e308\n1 0 1e308\n", "edge 0 1 sum past"),
            ("0 1 1e308\n2 3 1e308\n1 2 1\n", "W sums past"),
            ("0 1 0\n1 2 0\n2 0 0\n", "W is 0"),
            ("# nothing but a comment\n", "W is 0"),
            ("0 1 1e-320\n1 2 1e-320\n2 0 1e-320\n", "1/(2W)"),
            ("0 1 1e308\n", "1/(2W)"),
        ] {
            match read_edge_list(text.as_bytes()) {
                Err(e @ IoError::Unpriceable(_)) => {
                    let message = e.to_string();
                    assert!(message.starts_with("weights the map equation cannot price"));
                    assert!(message.contains(why), "{text:?}: {message}");
                }
                other => panic!("{text:?}: {:?}", other.map(|l| l.original_ids)),
            }
        }
        // The largest and the smallest totals it can price.
        for text in ["0 1 4e307\n1 2 4e307\n", "0 1 1e-307\n"] {
            assert!(read_edge_list(text.as_bytes()).is_ok(), "{text:?}");
        }
    }

    #[test]
    fn one_vertex_too_many_is_a_named_error() {
        let text = "5 6\n6 7 2\n7 5\n7 8\n";
        assert_eq!(
            read_edge_list_capped(text.as_bytes(), 4)
                .unwrap()
                .original_ids,
            [5, 6, 7, 8]
        );
        let err = read_edge_list_capped(text.as_bytes(), 3).err();
        assert!(matches!(err, Some(IoError::TooManyVertices)), "{err:?}");
        assert!(IoError::TooManyVertices
            .to_string()
            .contains("4294967295 distinct"));
    }

    #[test]
    fn the_table_is_for_near_dense_ids_only() {
        // The hub benchmark graph; the same ids with one stray; tiny files.
        assert_eq!(table_len(23_999, 266_373), Some(24_000));
        assert_eq!(table_len(u64::MAX, 266_373), None);
        assert_eq!(table_len(6 * 266_373, 266_373), None);
        assert_eq!(table_len(30, 3), None);
        assert_eq!(table_len(0, 1), Some(1));
        assert_eq!(table_len(0, 0), None);
    }

    #[test]
    fn read_basic_edge_list_with_comments() {
        let text = "# a comment\n% another\n10 20\n20 30 2.5\n\n10 30\n";
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.original_ids, vec![10, 20, 30]);
        assert_eq!(loaded.graph.total_weight(), 1.0 + 2.5 + 1.0);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "1 2\nnot numbers\n";
        match read_edge_list(text.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = crate::generators::erdos_renyi(40, 80, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(&buf[..]).unwrap();
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        // Edge lists cannot represent isolated vertices, so the vertex count
        // may shrink but never grow.
        assert!(loaded.graph.num_vertices() <= g.num_vertices());
        assert_eq!(loaded.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn weighted_roundtrip() {
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(&buf[..]).unwrap();
        assert_eq!(loaded.graph.total_weight(), 2.5);
    }
}
