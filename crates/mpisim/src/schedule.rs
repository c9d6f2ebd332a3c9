//! Static↔runtime schedule conformance: compile the schedule JSON that
//! `spmd-lint --emit-schedule` produces into an NFA and check that the
//! collective kinds a rank's [`Comm`](crate::Comm) stamped, in order
//! ([`Comm::enable_schedule_trace`](crate::Comm::enable_schedule_trace)),
//! are a word of it.
//!
//! The static side over-approximates control flow (every branch arm is
//! possible, loops run any number of iterations, `break` may leave a
//! loop after any prefix of its body), so the automaton accepts a
//! superset of the schedules a real run can produce. A runtime trace
//! that the automaton *rejects* is therefore always a genuine
//! disagreement: either the analyzer miscompiled the program or a rank
//! issued a collective the static schedule says cannot happen there.
//!
//! Node kinds mirror `spmd-lint`'s emitter:
//! `seq`/`coll`/`alt`/`loop{cont}`/`fn`/`ret`. `ret` jumps to the exit
//! of the innermost enclosing `fn` frame (the entry's exit at top
//! level), which is how early returns deep in a callee skip the rest of
//! that callee only.

use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Minimal JSON reader (objects/arrays/strings/numbers/bools) — just
// enough for the schedule artifact; no external dependencies.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Obj(Vec<(String, Value)>),
    Arr(Vec<Value>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("schedule JSON: {msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .map(|b| b.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .map(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(other) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match other {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    out.push_str(std::str::from_utf8(&self.bytes[self.pos..end]).map_err(
                        |_| format!("schedule JSON: invalid UTF-8 at byte {}", self.pos),
                    )?);
                    self.pos = end;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// NFA
// ---------------------------------------------------------------------

/// Thompson-style NFA over collective kinds.
#[derive(Debug, Clone)]
struct Nfa {
    /// Per-state epsilon successors.
    eps: Vec<Vec<usize>>,
    /// Per-state labeled transitions `(kind, target)`.
    steps: Vec<Vec<(String, usize)>>,
    start: usize,
    accept: usize,
}

impl Nfa {
    fn new() -> Self {
        Nfa {
            eps: Vec::new(),
            steps: Vec::new(),
            start: 0,
            accept: 0,
        }
    }

    fn state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        self.eps.len() - 1
    }
}

/// One entry point's compiled automaton.
#[derive(Debug, Clone)]
pub struct ScheduleAutomaton {
    /// The entry function's (impl-qualified) name, as emitted.
    pub fn_name: String,
    nfa: Nfa,
}

/// The parsed schedule artifact: one automaton per `[[entry]]`.
#[derive(Debug, Clone)]
pub struct ScheduleSet {
    pub entries: Vec<ScheduleAutomaton>,
}

impl ScheduleSet {
    /// Parse the `--emit-schedule` JSON and compile every entry.
    pub fn parse(json: &str) -> Result<ScheduleSet, String> {
        let mut p = Parser::new(json);
        let root = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        match root.get("version") {
            Some(Value::Num(v)) if *v == 1.0 => {}
            _ => return Err("schedule JSON: unsupported or missing `version`".into()),
        }
        let entries = root
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("schedule JSON: missing `entries` array")?;
        let mut out = Vec::new();
        for e in entries {
            let fn_name = e
                .get("fn")
                .and_then(Value::as_str)
                .ok_or("schedule JSON: entry missing `fn`")?
                .to_string();
            let node = e
                .get("schedule")
                .ok_or("schedule JSON: entry missing `schedule`")?;
            let mut nfa = Nfa::new();
            let start = nfa.state();
            let accept = nfa.state();
            let mut exits = vec![accept];
            let end = compile(&mut nfa, node, start, &mut exits)?;
            nfa.eps[end].push(accept);
            nfa.start = start;
            nfa.accept = accept;
            out.push(ScheduleAutomaton { fn_name, nfa });
        }
        Ok(ScheduleSet { entries: out })
    }

    /// The automaton for `fn_name` (exact, or suffix after `::`).
    pub fn automaton(&self, fn_name: &str) -> Option<&ScheduleAutomaton> {
        self.entries
            .iter()
            .find(|e| e.fn_name == fn_name || e.fn_name.ends_with(&format!("::{fn_name}")))
    }
}

/// Compile `node` into `nfa` starting at state `from`; returns the
/// fragment's exit state. `exits` is the stack of enclosing `fn`-frame
/// exit states (`ret` jumps to its top).
fn compile(
    nfa: &mut Nfa,
    node: &Value,
    from: usize,
    exits: &mut Vec<usize>,
) -> Result<usize, String> {
    let t = node
        .get("t")
        .and_then(Value::as_str)
        .ok_or("schedule JSON: node missing `t`")?;
    match t {
        "seq" => {
            let items = node
                .get("items")
                .and_then(Value::as_arr)
                .ok_or("schedule JSON: seq missing `items`")?;
            let mut cur = from;
            for item in items {
                cur = compile(nfa, item, cur, exits)?;
            }
            Ok(cur)
        }
        "coll" => {
            let kind = node
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("schedule JSON: coll missing `kind`")?;
            let to = nfa.state();
            nfa.steps[from].push((kind.to_string(), to));
            Ok(to)
        }
        "alt" => {
            let arms = node
                .get("arms")
                .and_then(Value::as_arr)
                .ok_or("schedule JSON: alt missing `arms`")?;
            let join = nfa.state();
            for arm in arms {
                let s = nfa.state();
                nfa.eps[from].push(s);
                let e = compile(nfa, arm, s, exits)?;
                nfa.eps[e].push(join);
            }
            if arms.is_empty() {
                nfa.eps[from].push(join);
            }
            Ok(join)
        }
        "loop" => {
            let cont = node.get("cont").and_then(Value::as_bool).unwrap_or(false);
            let body = node
                .get("body")
                .ok_or("schedule JSON: loop missing `body`")?;
            let head = nfa.state();
            let exit = nfa.state();
            nfa.eps[from].push(head);
            nfa.eps[head].push(exit); // zero iterations
            let body_lo = nfa.eps.len();
            let body_end = compile(nfa, body, head, exits)?;
            let body_hi = nfa.eps.len();
            nfa.eps[body_end].push(head); // next iteration
                                          // Prefix-close the body: `break` can leave after any prefix,
                                          // and — when the body contains `continue` — any prefix can
                                          // also restart at the head. Both edges only ever *add*
                                          // accepted words, keeping the over-approximation sound.
            for q in body_lo..body_hi {
                nfa.eps[q].push(exit);
                if cont {
                    nfa.eps[q].push(head);
                }
            }
            nfa.eps[head].push(exit);
            Ok(exit)
        }
        "fn" => {
            let body = node.get("body").ok_or("schedule JSON: fn missing `body`")?;
            let exit = nfa.state();
            exits.push(exit);
            let end = compile(nfa, body, from, exits)?;
            exits.pop();
            nfa.eps[end].push(exit);
            Ok(exit)
        }
        "ret" => {
            let target = *exits.last().expect("exit stack never empty");
            nfa.eps[from].push(target);
            // The continuation after an unconditional return is
            // unreachable; give it a fresh dead state.
            Ok(nfa.state())
        }
        other => Err(format!("schedule JSON: unknown node kind `{other}`")),
    }
}

/// Set-of-states simulation of one rank's observed collective trace.
#[derive(Debug, Clone)]
pub struct Matcher {
    nfa: Nfa,
    states: BTreeSet<usize>,
    /// Number of collectives consumed so far.
    consumed: u64,
}

impl Matcher {
    /// A matcher positioned at the automaton's start.
    pub fn new(a: &ScheduleAutomaton) -> Matcher {
        let nfa = a.nfa.clone();
        let mut states = BTreeSet::new();
        states.insert(nfa.start);
        let mut m = Matcher {
            nfa,
            states,
            consumed: 0,
        };
        m.close();
        m
    }

    fn close(&mut self) {
        let mut work: Vec<usize> = self.states.iter().copied().collect();
        while let Some(q) = work.pop() {
            for &n in &self.nfa.eps[q] {
                if self.states.insert(n) {
                    work.push(n);
                }
            }
        }
    }

    /// Consume one observed collective. Returns `false` (and leaves the
    /// matcher dead) when no schedule path explains it.
    pub fn step(&mut self, kind: &str) -> bool {
        let mut next = BTreeSet::new();
        for &q in &self.states {
            for (label, to) in &self.nfa.steps[q] {
                if label == kind {
                    next.insert(*to);
                }
            }
        }
        self.states = next;
        self.close();
        self.consumed += 1;
        !self.states.is_empty()
    }

    /// Is the word consumed so far a complete schedule (an accept state
    /// is reachable)?
    pub fn at_accept(&self) -> bool {
        self.states.contains(&self.nfa.accept)
    }

    /// Collectives consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Check a whole trace: every prefix must stay live and the full
    /// word must end in an accept state. Returns `Err` with the index
    /// and kind of the first nonconformant stamp, or a tail diagnosis.
    pub fn accepts(mut self, trace: &[&str]) -> Result<(), String> {
        for (i, kind) in trace.iter().enumerate() {
            if !self.step(kind) {
                return Err(format!(
                    "stamp #{i} `{kind}` is not explained by the static schedule"
                ));
            }
        }
        if self.at_accept() {
            Ok(())
        } else {
            Err(format!(
                "trace of {} stamps ended mid-schedule (no accept state reachable)",
                trace.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(json: &str) -> ScheduleSet {
        ScheduleSet::parse(json).unwrap()
    }

    fn entry(schedule: &str) -> String {
        format!(
            "{{\"version\":1,\"entries\":[{{\"fn\":\"P::run\",\"crate\":\"c\",\"schedule\":{schedule}}}]}}"
        )
    }

    fn coll(kind: &str) -> String {
        format!("{{\"t\":\"coll\",\"kind\":\"{kind}\"}}")
    }

    #[test]
    fn seq_matches_exact_word_only() {
        let s = set(&entry(&format!(
            "{{\"t\":\"seq\",\"items\":[{},{}]}}",
            coll("barrier"),
            coll("allgatherv")
        )));
        let a = s.automaton("run").unwrap();
        assert!(Matcher::new(a).accepts(&["barrier", "allgatherv"]).is_ok());
        assert!(Matcher::new(a).accepts(&["barrier"]).is_err()); // mid-schedule
        assert!(Matcher::new(a).accepts(&["allgatherv", "barrier"]).is_err());
    }

    #[test]
    fn alt_accepts_either_arm() {
        let s = set(&entry(&format!(
            "{{\"t\":\"alt\",\"arms\":[{},{}]}}",
            coll("barrier"),
            coll("broadcast")
        )));
        let a = s.automaton("P::run").unwrap();
        assert!(Matcher::new(a).accepts(&["barrier"]).is_ok());
        assert!(Matcher::new(a).accepts(&["broadcast"]).is_ok());
        assert!(Matcher::new(a).accepts(&["allgatherv"]).is_err());
    }

    #[test]
    fn loop_accepts_zero_or_more_and_break_prefixes() {
        let body = format!(
            "{{\"t\":\"seq\",\"items\":[{},{}]}}",
            coll("allgatherv"),
            coll("alltoallv")
        );
        let s = set(&entry(&format!(
            "{{\"t\":\"loop\",\"cont\":false,\"body\":{body}}}"
        )));
        let a = s.automaton("run").unwrap();
        assert!(Matcher::new(a).accepts(&[]).is_ok());
        assert!(Matcher::new(a)
            .accepts(&["allgatherv", "alltoallv", "allgatherv", "alltoallv"])
            .is_ok());
        // break after the first half of an iteration
        assert!(Matcher::new(a)
            .accepts(&["allgatherv", "alltoallv", "allgatherv"])
            .is_ok());
        assert!(Matcher::new(a).accepts(&["alltoallv"]).is_err());
    }

    #[test]
    fn continue_restarts_the_body() {
        let body = format!(
            "{{\"t\":\"seq\",\"items\":[{},{}]}}",
            coll("allgatherv"),
            coll("alltoallv")
        );
        let s = set(&entry(&format!(
            "{{\"t\":\"loop\",\"cont\":true,\"body\":{body}}}"
        )));
        let a = s.automaton("run").unwrap();
        // continue after the first collective, then a full iteration
        assert!(Matcher::new(a)
            .accepts(&["allgatherv", "allgatherv", "alltoallv"])
            .is_ok());
    }

    #[test]
    fn ret_skips_the_rest_of_the_enclosing_fn_only() {
        // run = fn f { alt(ret, seq[]) ; barrier } ; broadcast
        let f_body = format!(
            "{{\"t\":\"seq\",\"items\":[{{\"t\":\"alt\",\"arms\":[{{\"t\":\"ret\"}},{{\"t\":\"seq\",\"items\":[]}}]}},{}]}}",
            coll("barrier")
        );
        let s = set(&entry(&format!(
            "{{\"t\":\"seq\",\"items\":[{{\"t\":\"fn\",\"name\":\"f\",\"body\":{f_body}}},{}]}}",
            coll("broadcast")
        )));
        let a = s.automaton("run").unwrap();
        // early return inside f: skip f's barrier, still do broadcast
        assert!(Matcher::new(a).accepts(&["broadcast"]).is_ok());
        // no early return: barrier then broadcast
        assert!(Matcher::new(a).accepts(&["barrier", "broadcast"]).is_ok());
        // broadcast cannot be skipped by the ret inside f
        assert!(Matcher::new(a).accepts(&["barrier"]).is_err());
    }

    #[test]
    fn top_level_ret_ends_the_schedule() {
        let s = set(&entry(&format!(
            "{{\"t\":\"seq\",\"items\":[{{\"t\":\"alt\",\"arms\":[{{\"t\":\"ret\"}},{{\"t\":\"seq\",\"items\":[]}}]}},{}]}}",
            coll("barrier")
        )));
        let a = s.automaton("run").unwrap();
        assert!(Matcher::new(a).accepts(&[]).is_ok());
        assert!(Matcher::new(a).accepts(&["barrier"]).is_ok());
    }

    #[test]
    fn bad_json_and_unknown_nodes_error() {
        assert!(ScheduleSet::parse("{").is_err());
        assert!(ScheduleSet::parse("{\"version\":2,\"entries\":[]}").is_err());
        assert!(ScheduleSet::parse(&entry("{\"t\":\"wat\"}")).is_err());
        assert!(ScheduleSet::parse("{\"version\":1,\"entries\":[]} x").is_err());
    }
}
