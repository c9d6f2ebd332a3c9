//! Neighborhood-sized accumulators for the best-move sweeps.
//!
//! The best-move kernels (sequential and distributed) repeatedly build a
//! tiny map `module → accumulated flow` over the neighborhood of one
//! vertex, then discard it and build the next one. Both a linear-probe
//! scratch vec (O(deg·k) per vertex — quadratic on hubs) and a `HashMap`
//! (a SipHash and a clear per vertex) are the wrong shape for that access
//! pattern, and so is a dense array over every module slot: it is cleared
//! in O(1) by an epoch stamp, but its bytes scale with the slot space a
//! rank interns, not with the arcs it scans.
//!
//! [`NeighborMap`] is open addressing over `u32` keys, sized by the
//! caller's bound on the distinct keys of one accumulation (a vertex's arc
//! count): the next power of two at least twice the bound, so the table is
//! at most half full. Every bucket carries a `u32` *epoch stamp*; starting
//! a new neighborhood bumps the epoch instead of clearing the table, and a
//! bucket is live only when its stamp equals the current epoch. The table
//! grows only when a larger bound arrives, so a rank holds
//! O(largest arc span) bytes, not O(slots).
//!
//! Determinism: the values sit beside their keys in **first-touch order**
//! ([`NeighborMap::touched`]) — exactly the push order of the scratch-vec
//! scan the kernels replaced — so candidate iteration order, and therefore
//! floating-point accumulation and tie-breaking, are bit-identical to the
//! legacy kernel, and a candidate loop reads each value where it walks.
//!
//! Slot-space growth: a slot space grows by a few percent over a
//! clustering stage, so `Vec`'s doubling would leave about half of every
//! slot-indexed array unused. [`push_slot`] grows to the slots needed plus
//! an eighth of them ([`SLOT_HEADROOM`]) instead — still geometric, so a
//! push stays amortized O(1). A slot array starts at that capacity too
//! ([`slot_capacity`]), so a stage that interns under an eighth more slots
//! never reallocates it.

/// A slot-indexed array that must grow takes `slots / SLOT_HEADROOM`
/// entries of headroom past the `slots` it needs.
pub const SLOT_HEADROOM: usize = 8;

/// The capacity a slot array of `slots` entries takes: the slots plus an
/// eighth of them.
#[inline]
pub fn slot_capacity(slots: usize) -> usize {
    slots + slots / SLOT_HEADROOM
}

/// Append one slot's entry: when `v` is full it grows to
/// `slot_capacity(len + 1)`.
#[inline]
pub fn push_slot<T>(v: &mut Vec<T>, x: T) {
    let slots = v.len() + 1;
    if v.capacity() < slots {
        v.reserve_exact(slot_capacity(slots) - v.len());
    }
    v.push(x);
}

/// One bucket of a [`NeighborMap`]: live iff `stamp` is the map's epoch,
/// and then `key` sits at `entries[pos]`.
#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    stamp: u32,
    key: u32,
    pos: u32,
}

/// A `u32` key → value map over one neighborhood, cleared in O(1) by
/// bumping an epoch stamp and sized by the bound passed to
/// [`NeighborMap::begin`].
///
/// `V` is the per-key accumulator, e.g. `f64` (flow) or `(f64, bool)`
/// (flow + seen-via-ghost). Values start from `V::default()` on a key's
/// first touch within an epoch.
#[derive(Clone, Debug, Default)]
pub struct NeighborMap<V> {
    /// Open-addressed, linear-probed; a power of two long (or empty).
    buckets: Vec<Bucket>,
    /// Current epoch; stamp 0 marks a bucket never used (epochs start at 1).
    epoch: u32,
    /// Live keys and their values, in first-touch order.
    entries: Vec<(u32, V)>,
}

impl<V: Copy + Default> NeighborMap<V> {
    pub fn new() -> Self {
        NeighborMap {
            buckets: Vec::new(),
            epoch: 0,
            entries: Vec::new(),
        }
    }

    /// Start a new accumulation of at most `bound` distinct keys. O(1)
    /// amortized: the table grows only for a larger bound than any before,
    /// and only a u32 wraparound (every 2³²−1 begins) pays a full stamp
    /// reset.
    pub fn begin(&mut self, bound: usize) {
        let want = (2 * bound).next_power_of_two().max(2);
        self.entries.clear();
        if self.buckets.len() < want {
            self.buckets = vec![Bucket::default(); want];
            self.epoch = 1;
            return;
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.buckets.fill(Bucket::default());
                1
            }
        };
    }

    /// Home bucket of `key` in a table of `len` buckets (a power of two):
    /// the top bits of a Fibonacci product, so keys that differ only in
    /// their high bits still spread.
    #[inline]
    fn home(key: u32, len: usize) -> usize {
        let bits = len.trailing_zeros();
        ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// Accumulate into `key` via `f`, starting from `V::default()` on the
    /// key's first touch this epoch. O(1) expected. Panics on more distinct
    /// keys than the table holds at half load — a bound passed to `begin`
    /// that was not one — where a full table would probe forever.
    #[inline]
    pub fn update(&mut self, key: u32, f: impl FnOnce(&mut V)) {
        let len = self.buckets.len();
        let mut i = Self::home(key, len);
        loop {
            let b = self.buckets[i];
            if b.stamp != self.epoch {
                assert!(
                    2 * (self.entries.len() + 1) <= len,
                    "more distinct keys than the bound passed to `begin`"
                );
                self.buckets[i] = Bucket {
                    stamp: self.epoch,
                    key,
                    pos: self.entries.len() as u32,
                };
                self.entries.push((key, V::default()));
                f(&mut self.entries.last_mut().expect("just pushed").1);
                return;
            }
            if b.key == key {
                f(&mut self.entries[b.pos as usize].1);
                return;
            }
            i = (i + 1) & (len - 1);
        }
    }

    /// Live keys and their values in first-touch order (the determinism
    /// contract).
    #[inline]
    pub fn touched(&self) -> &[(u32, V)] {
        &self.entries
    }

    /// Number of live keys this epoch.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No key touched this epoch?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buckets the table holds.
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn accumulates_and_resets_by_epoch() {
        let mut m: NeighborMap<f64> = NeighborMap::new();
        m.begin(4);
        m.update(2, |v| *v += 0.5);
        m.update(0, |v| *v += 1.0);
        m.update(2, |v| *v += 0.25);
        assert_eq!(m.touched(), &[(2, 0.75), (0, 1.0)]);
        m.begin(4);
        assert!(m.is_empty());
        m.update(2, |v| *v += 3.0);
        assert_eq!(
            m.touched(),
            &[(2, 3.0)],
            "stale value must not leak across epochs"
        );
    }

    #[test]
    fn touch_order_matches_scan_push_order() {
        // The map must reproduce the push order of the linear-scan scratch
        // it replaces, for identical tie-break iteration.
        let arcs = [(7u32, 0.1), (3, 0.2), (7, 0.3), (1, 0.4), (3, 0.5)];
        let mut scan: Vec<(u32, f64)> = Vec::new();
        let mut map: NeighborMap<f64> = NeighborMap::new();
        map.begin(arcs.len());
        for &(s, f) in &arcs {
            match scan.iter_mut().find(|(m, _)| *m == s) {
                Some((_, acc)) => *acc += f,
                None => scan.push((s, f)),
            }
            map.update(s, |v| *v += f);
        }
        assert_eq!(scan, map.touched());
    }

    #[test]
    fn random_key_streams_fold_like_a_scan_in_first_touch_order() {
        // Random streams over several begins with growing bounds, keys
        // drawn from a small pool so they repeat; every pool holds
        // u32::MAX - 1 and its neighbors, the largest keys a slot can be.
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut map: NeighborMap<(f64, u32)> = NeighborMap::new();
            let mut bound = 1;
            for _ in 0..6 {
                bound += rng.gen_range(0..40usize);
                let pool: Vec<u32> = (0..rng.gen_range(1..bound + 1))
                    .map(|i| match i % 4 {
                        0 => u32::MAX - 1 - (i / 4) as u32,
                        _ => rng.gen_range(0..u32::MAX),
                    })
                    .collect();
                map.begin(bound);
                let mut scan: Vec<(u32, (f64, u32))> = Vec::new();
                for _ in 0..bound {
                    let key = pool[rng.gen_range(0..pool.len())];
                    let w: f64 = rng.gen_range(0.0..1.0);
                    match scan.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, acc)) => *acc = (acc.0 + w, acc.1 + 1),
                        None => scan.push((key, (0.0 + w, 1))),
                    }
                    map.update(key, |v| *v = (v.0 + w, v.1 + 1));
                }
                let got: Vec<(u32, (u64, u32))> = map
                    .touched()
                    .iter()
                    .map(|&(k, v)| (k, (v.0.to_bits(), v.1)))
                    .collect();
                let want: Vec<(u32, (u64, u32))> = scan
                    .iter()
                    .map(|&(k, v)| (k, (v.0.to_bits(), v.1)))
                    .collect();
                assert_eq!(got, want, "case {case}, bound {bound}");
                assert_eq!(
                    map.capacity(),
                    (2 * bound).next_power_of_two(),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn grows_on_demand() {
        // The table follows the largest bound, not the key space, and a
        // key of an earlier neighborhood is not live after a regrowth.
        let mut m: NeighborMap<(f64, bool)> = NeighborMap::new();
        m.begin(3);
        assert_eq!(m.capacity(), 8);
        m.update(4_000_000_000, |v| v.1 = true);
        m.begin(1);
        assert_eq!(m.capacity(), 8, "a smaller bound keeps the table");
        m.begin(100);
        assert_eq!(m.capacity(), 256);
        m.update(9, |v| v.0 = 3.0);
        assert_eq!(m.touched(), &[(9, (3.0, false))]);
    }

    #[test]
    #[should_panic(expected = "more distinct keys than the bound")]
    fn more_keys_than_the_bound_panics_instead_of_probing_forever() {
        let mut m: NeighborMap<u32> = NeighborMap::new();
        m.begin(1);
        for k in 0..2 {
            m.update(k, |v| *v += 1);
        }
    }

    #[test]
    fn wraparound_resets_stamps() {
        let mut m: NeighborMap<u32> = NeighborMap::new();
        m.begin(2);
        m.update(0, |v| *v += 1);
        m.epoch = u32::MAX; // simulate 2³²−1 epochs elapsed
        for b in &mut m.buckets {
            b.stamp = u32::MAX; // every bucket looks live in the final epoch
        }
        m.begin(2);
        m.update(0, |v| *v += 7);
        assert_eq!(
            m.touched(),
            &[(0, 7)],
            "wraparound must not resurrect old entries"
        );
    }

    #[test]
    fn slot_growth_adds_an_eighth_not_a_doubling() {
        let mut v: Vec<u64> = vec![0; 800];
        assert_eq!(v.capacity(), 800);
        push_slot(&mut v, 1);
        assert_eq!(v.capacity(), 801 + 801 / SLOT_HEADROOM);
        while v.len() < v.capacity() {
            push_slot(&mut v, 2);
        }
        let before = v.capacity();
        push_slot(&mut v, 3);
        assert_eq!(v.capacity(), v.len() + v.len() / SLOT_HEADROOM);
        assert!(v.capacity() < 2 * before);
    }
}
