// Known-good fixture: the deterministic counterparts of every bad
// fixture. None of these may produce a finding.
use std::collections::BTreeMap;

// R1 counterpart: the collective runs on every rank; only rank-local
// bookkeeping sits under the rank conditional.
pub fn settle(c: &mut Comm) {
    c.barrier();
    if c.rank() == 0 {
        log_progress();
    }
}

// R2 counterpart: BTreeMap iterates in key order on every rank.
pub fn serialize_adjacency(adj: &BTreeMap<u32, Vec<u32>>) -> Vec<u32> {
    let mut wire = Vec::new();
    for (v, nbrs) in adj.iter() {
        wire.push(*v);
        wire.extend(nbrs);
    }
    wire
}

// R2 f64-fold counterpart: the fold runs in key order on every rank.
pub fn modular_cost(flows: &BTreeMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for f in flows.values() {
        total += f;
    }
    total
}

// Slice-merge counterpart: per-worker partial sums fold in fixed slice
// order (Vec index order, the concatenation of the slices), so the merged
// MDL is the same bits for every worker count.
pub fn merge_slices_in_order(partials: &[f64]) -> f64 {
    let mut mdl = 0.0;
    for s in 0..partials.len() {
        mdl += partials[s];
    }
    mdl
}

// Order-free access to a hash container is exempt even in scope.
pub fn lookup(index: &std::collections::HashMap<u32, u64>, key: u32) -> Option<u64> {
    index.get(&key).copied()
}
