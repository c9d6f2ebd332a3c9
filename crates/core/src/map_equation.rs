//! The two-level map equation (paper Equation 3) with incremental updates.
//!
//! For a module set `M` over vertices with visit rates `p_α`:
//!
//! ```text
//! L(M) =   plogp(q)  −  2 Σ_m plogp(q_m)  −  Σ_α plogp(p_α)
//!        + Σ_m plogp(q_m + p_m)
//! ```
//!
//! with `q = Σ_m q_m` the total exit flow, `q_m` the flow on edges leaving
//! module `m`, `p_m = Σ_{α∈m} p_α`, and `plogp(x) = x·log₂(x)`.
//!
//! [`Partitioning`] maintains the four sums incrementally as vertices move
//! between modules, so evaluating the `δL` of a candidate move is O(1)
//! given the flow the vertex sends into the source and target modules.
//! `codelength_from_scratch` recomputes `L` directly from assignments; the
//! two agreeing (to 1e-9) after arbitrary move sequences is a
//! property-tested invariant.

use infomap_graph::VertexId;

use crate::accumulate::NeighborMap;
use crate::flow::FlowNetwork;

/// `x·log₂(x)`, with `plogp(0) = 0`.
///
/// The bulk of the flow range runs on a polynomial `log₂` ([`log2_dd`]) —
/// table lookup plus a short Taylor tail, no libm call. The *tail* of the
/// range falls back to the exact libm path ([`plogp_exact`]):
/// subnormal/tiny flows (`x < 2⁻⁶⁴`), the cancellation-prone
/// neighborhood of 1 (`0.75 < x < 1.5`, where `log₂ x ≈ 0`), and `x ≥ 2`
/// (beyond any flow sum). Inside the fast range the polynomial path
/// agrees with the exact path to ≤ 1 ULP — a property-tested contract
/// (`tests/plogp_props.rs` plus the dense sweep in this module), so
/// swapping the kernel moves MDL bits by at most the same margin libm
/// itself is allowed. [`plogp_slice`] is the batched form the δL kernels
/// call: the same bits, without a branch per value.
#[inline]
pub fn plogp(x: f64) -> f64 {
    if x <= 0.0 {
        debug_assert!(x > -1e-12, "plogp of negative flow {x}");
        return 0.0;
    }
    if !on_fast_path(x) {
        return plogp_exact(x);
    }
    plogp_fast(x)
}

/// [`plogp`] of every `xs[i]` into `out[i]`, bit for bit. The polynomial
/// runs over every lane with no branch; only the lanes [`plogp`] would
/// not send down it (`x ≤ 0`, NaN, the tail ranges) are then recomputed
/// through the scalar path.
pub fn plogp_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "plogp_slice: lengths differ");
    for (y, &x) in out.iter_mut().zip(xs) {
        *y = plogp_fast(x);
    }
    for (y, &x) in out.iter_mut().zip(xs) {
        if !on_fast_path(x) {
            *y = plogp(x);
        }
    }
}

/// Does `x` lie in the polynomial's range, `[2⁻⁶⁴, 0.75] ∪ [1.5, 2)`?
/// False for `x ≤ 0` and NaN.
#[inline]
fn on_fast_path(x: f64) -> bool {
    (FAST_LO..FAST_HI).contains(&x) && !(x > NEAR_ONE_LO && x < NEAR_ONE_HI)
}

/// The polynomial path of [`plogp`]: meaningful on [`on_fast_path`]
/// values, and panic-free on every other one.
#[inline]
fn plogp_fast(x: f64) -> f64 {
    let (hi, lo) = log2_dd(x);
    // x·(hi + lo) with one final rounding: Dekker's exact product of
    // x·hi, then fold the product error and the x·lo term into the tail.
    // (A software two-product keeps the result independent of whether
    // the build target has hardware FMA.)
    let p1 = x * hi;
    let e = two_product_err(x, hi, p1);
    p1 + (e + x * lo)
}

/// The exact-path reference: `x·log₂(x)` straight through libm, the
/// pre-polynomial kernel. The fallback tail of [`plogp`] *is* this
/// function; property tests compare the polynomial path against it.
#[inline]
pub fn plogp_exact(x: f64) -> f64 {
    if x > 0.0 {
        x * x.log2()
    } else {
        0.0
    }
}

/// Fast-path bounds: `[2⁻⁶⁴, 0.75] ∪ [1.5, 2)` runs the polynomial,
/// everything else the exact tail.
const FAST_LO: f64 = f64::from_bits(0x3bf0_0000_0000_0000); // 2⁻⁶⁴
const NEAR_ONE_LO: f64 = 0.75;
const NEAR_ONE_HI: f64 = 1.5;
const FAST_HI: f64 = 2.0;

/// High-precision `plogp` reference: libm-free binary digit extraction of
/// `log₂` in 128-bit fixed point (~2⁻¹¹⁹ accuracy), folded into the result
/// with the same compensated product as the fast path. Within ~0.5 ULP of
/// the infinitely-precise value everywhere, so it arbitrates when the
/// polynomial and libm paths disagree — libm's `log₂`-then-multiply
/// double rounding can drift past 1 ULP of true, the single-rounding
/// polynomial path cannot. ~120 integer squarings per call: test/audit
/// reference only, never on a hot path.
pub fn plogp_ref(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    // Normalize subnormals with an exact 2¹⁰⁰ scale.
    let (xn, e_adj) = if x < f64::MIN_POSITIVE {
        (x * f64::from_bits(0x4630_0000_0000_0000), -100i64)
    } else {
        (x, 0)
    };
    let bits = xn.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023 + e_adj;
    let mant = bits & ((1u64 << 52) - 1);
    // Mantissa in Q2.126: value = m / 2¹²⁶ ∈ [1, 2).
    let mut m: u128 = ((mant | (1 << 52)) as u128) << 74;
    // Square-and-compare digit extraction: m ← m²; a carry into [2, 4)
    // yields the next fraction bit of log₂. Truncation at step i enters
    // the result at weight 2⁻ⁱ, so the total error stays ~2⁻¹¹⁹
    // independent of iteration count.
    let mut acc: u128 = 0;
    for _ in 0..120 {
        m = sq_q2_126(m);
        let bit = m >> 127;
        acc = (acc << 1) | bit;
        m >>= bit;
    }
    // log₂(x) = e + acc·2⁻¹²⁰, as a double-double.
    const TWO_NEG53: f64 = f64::from_bits(0x3ca0_0000_0000_0000);
    const TWO_NEG120: f64 = f64::from_bits(0x3870_0000_0000_0000);
    let t_hi = ((acc >> 67) as u64) as f64 * TWO_NEG53; // top 53 bits, exact
    let t_lo = ((acc & ((1u128 << 67) - 1)) as f64) * TWO_NEG120;
    let ef = e as f64;
    let s = ef + t_hi; // TwoSum: exact with the compensation below
    let bb = s - ef;
    let err = (ef - (s - bb)) + (t_hi - bb);
    let lo = err + t_lo;
    let p1 = x * s;
    let pe = two_product_err(x, s, p1);
    p1 + (pe + x * lo)
}

/// `(a² >> 126)` for `a` in Q2.126 with value < 2 — one fixed-point
/// squaring step of the digit extraction, truncated (never rounded up).
fn sq_q2_126(a: u128) -> u128 {
    let h = a >> 64;
    let l = a & 0xFFFF_FFFF_FFFF_FFFF;
    // a² = h²·2¹²⁸ + 2hl·2⁶⁴ + l²; shift each term down by 126.
    ((h * h) << 2) + ((h * l) >> 61) + ((l * l) >> 126)
}

/// Error of the product `x·y` given its rounded value `p = fl(x·y)`,
/// via Dekker splitting — exact for the magnitudes used here (no
/// overflow: `|x| < 2`, `|y| ≤ 64`).
#[inline]
fn two_product_err(x: f64, y: f64, p: f64) -> f64 {
    const SPLIT: f64 = 134_217_729.0; // 2²⁷ + 1
    let cx = SPLIT * x;
    let xh = cx - (cx - x);
    let xl = x - xh;
    let cy = SPLIT * y;
    let yh = cy - (cy - y);
    let yl = y - yh;
    ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
}

/// `log₂(x)` as an unevaluated double-double `hi + lo`, for normal `x`
/// in the fast range (any other `x` yields some finite or non-finite
/// pair, never a panic). Decompose `x = 2ᵉ·m` with `m ∈ [1, 2)`, pick the
/// nearest table node `c = 1 + k/128`, and reduce: `log₂(x) = e +
/// log₂(c) + log₂(1 + r)` with `r = (m − c)/c`, `|r| ≤ 2⁻⁸`.
/// `m − c` is exact (Sterbenz), `log₂(c)` comes from a prefolded
/// (hi, lo) table, the `e + hi` sum is compensated exactly (TwoSum), and
/// the residual `log₂(1+r)` is a degree-7 Taylor polynomial whose
/// truncation (≤ 2⁻⁵⁹ of the total — the fast range keeps
/// `|log₂ x| ≥ 0.415`, so there is no catastrophic cancellation) hides
/// below the double-double tail. `k`, `c` and `e` are read off the bits
/// by integer arithmetic, with no float↔integer conversion: they equal
/// `⌊(m − 1)·128 + ½⌋`, `1 + k/128` and `e as f64`, whose every float
/// step is exact.
#[inline]
fn log2_dd(x: f64) -> (f64, f64) {
    const MANT_MASK: u64 = (1u64 << 52) - 1;
    const ONE_BITS: u64 = 1023u64 << 52;
    const TWO52_BITS: u64 = 0x4330_0000_0000_0000; // 2⁵²
    const TWO52_BIAS: f64 = 4_503_599_627_371_519.0; // 2⁵² + 1023
    let bits = x.to_bits();
    let mant = bits & MANT_MASK;
    let m = f64::from_bits(mant | ONE_BITS);
    // Nearest 1/128 node: k ≤ 128 for every input; the clamp lets the
    // compiler drop the table's bounds check. k = 128 carries into the
    // exponent field, giving c = 2.
    let k = ((mant + (1 << 44)) >> 45).min(128);
    let c = f64::from_bits(ONE_BITS + (k << 45));
    let r = (m - c) / c;
    // log₂(1 + r) = (r − r²/2 + r³/3 − … ± r⁷/7) / ln 2.
    const C0: f64 = std::f64::consts::LOG2_E; // 1/ln2
    const C1: f64 = -0.721_347_520_444_481_7; // −1/(2 ln2)
    const C2: f64 = 0.480_898_346_962_987_8; // 1/(3 ln2)
    const C3: f64 = -0.360_673_760_222_240_85; // −1/(4 ln2)
    const C4: f64 = 0.288_539_008_177_792_7; // 1/(5 ln2)
    const C5: f64 = -0.240_449_173_481_493_9; // −1/(6 ln2)
    const C6: f64 = 0.206_099_291_555_566_2; // 1/(7 ln2)
    let p = r * (C0 + r * (C1 + r * (C2 + r * (C3 + r * (C4 + r * (C5 + r * C6))))));
    let (th, tl) = LOG2_TAB[k as usize];
    // TwoSum(e, th): s + err == e + th exactly.
    let ef = f64::from_bits(TWO52_BITS | ((bits >> 52) & 0x7ff)) - TWO52_BIAS;
    let s = ef + th;
    let bb = s - ef;
    let err = (ef - (s - bb)) + (th - bb);
    (s, err + tl + p)
}

/// `log₂(1 + k/128)` for `k = 0..=128`, prefolded as (hi, lo) double
/// pairs (generated with 70-digit decimal arithmetic; |residual| < 2⁻¹⁰⁰).
#[allow(clippy::excessive_precision)]
const LOG2_TAB: [(f64, f64); 129] = [
    (0.0, 0.0),
    (0.01122725542325412, 3.3788058441588393e-19),
    (0.02236781302845451, -1.732867916253915e-18),
    (0.03342300153745028, -9.824052958439846e-19),
    (0.044394119358453436, 1.6531019906736094e-18),
    (0.0552824355011896, 1.2354887401386651e-18),
    (0.06608919045777244, -7.070722991232182e-18),
    (0.0768155970508309, -7.76846373866716e-18),
    (0.0874628412503394, 8.254066010810405e-18),
    (0.09803208296052672, -4.204348379302223e-18),
    (0.10852445677816905, 3.747887188110485e-18),
    (0.11894107272350743, 9.897332231201247e-19),
    (0.12928301694496647, -1.468771125327878e-17),
    (0.13955135239879354, 1.362454969817846e-17),
    (0.14974711950468206, 1.4067467916260257e-18),
    (0.1598713367783894, 1.6596175700982487e-17),
    (0.16992500144231237, -7.092522112104367e-18),
    (0.17990909001493446, 8.590092754117375e-18),
    (0.18982455888001723, -1.3598283184015853e-19),
    (0.1996723448363644, -3.662322421588522e-18),
    (0.20945336562894978, 1.8578041776131755e-18),
    (0.21916852046216156, 1.1611820442122408e-17),
    (0.22881869049588088, -2.805622197073403e-18),
    (0.2384047393250789, 6.542901284470936e-18),
    (0.2479275134435855, -6.206480577093166e-18),
    (0.25738784269265175, 2.1161543898706038e-17),
    (0.2667865406949014, -3.635866763604238e-17),
    (0.27612440527423754, 1.6676443028664944e-17),
    (0.28540221886224837, -2.814944840179549e-17),
    (0.294620748891627, 6.410040728281653e-18),
    (0.30378074817710293, -5.5727136580588464e-18),
    (0.31288295528435534, 2.0734516962487904e-17),
    (0.32192809488736235, -2.1296805705106097e-18),
    (0.33091687811461695, 2.97361175613945e-17),
    (0.33985000288462475, -2.4185044224208733e-17),
    (0.34872815423107756, -7.436219028203798e-18),
    (0.3575520046180837, -6.834028692477091e-18),
    (0.3663222142458158, -1.4476578579837002e-17),
    (0.37503943134692475, 6.359627587421512e-18),
    (0.38370429247405224, -1.5528679748416123e-17),
    (0.3923174227787603, -1.1104291738820352e-17),
    (0.4008794362821843, 2.0793625308513388e-17),
    (0.4093909361377018, -4.3875614559700205e-17),
    (0.41785251488589786, -3.2990026891975324e-18),
    (0.42626475470209796, -2.1115858359531933e-17),
    (0.43462822763672465, -1.7278610919899886e-17),
    (0.4429434958487283, 2.1735122685758014e-18),
    (0.4512111118323288, 3.1826081762106113e-18),
    (0.45943161863729726, -3.800636953274207e-18),
    (0.4676055500829974, 4.026114587588022e-17),
    (0.47573343096639775, 4.964280145740076e-18),
    (0.4838157772642564, 2.4091643651537374e-17),
    (0.4918530963296747, 1.0777797317385024e-17),
    (0.4998458870832054, -3.946643208698984e-17),
    (0.5077946401986962, 6.783878197148853e-17),
    (0.5156998382840424, 5.792594116693305e-17),
    (0.5235619560570128, 7.229414824416267e-17),
    (0.5313814605163121, 2.9728123607102565e-17),
    (0.5391588111080314, -9.74013745687663e-18),
    (0.5468944598876366, 6.44534290575362e-17),
    (0.5545888516776374, -2.7829189245769354e-17),
    (0.5622424242210726, 5.180318614907528e-17),
    (0.5698556083309478, 4.1663838852396223e-17),
    (0.5774288280357487, -1.0741222254948342e-17),
    (0.5849625007211562, -1.8546261056052182e-17),
    (0.5924570372680804, 1.9637304576833127e-17),
    (0.5999128421871277, -2.01737810711191e-17),
    (0.6073303137496107, -1.0279128972306099e-17),
    (0.6147098441152082, 1.488393863446366e-17),
    (0.6220518194563762, 6.67838014690363e-17),
    (0.6293566200796096, 1.9106840934621424e-17),
    (0.6366246205436489, -6.144228559976875e-17),
    (0.6438561897747247, -4.259361141021219e-18),
    (0.6510516911789286, 1.4383015952715634e-17),
    (0.6582114827517948, -6.282834088650969e-17),
    (0.6653359171851763, -7.183825735814018e-17),
    (0.6724253419714956, -1.0292195045241779e-17),
    (0.6794800995054461, -5.89637092629877e-17),
    (0.6865005271832184, -1.893912718656958e-17),
    (0.6934869574993252, 3.52016261320583e-17),
    (0.7004397181410922, -3.960318734574331e-17),
    (0.7073591320808827, 4.9992882469632625e-17),
    (0.7142455176661227, -6.323397230933096e-17),
    (0.7210991887071851, 3.4158912080539886e-17),
    (0.7279204545631992, -2.0719221981459912e-17),
    (0.7347096202258382, 4.2860485735573845e-17),
    (0.7414669864011469, 4.78645981346565e-17),
    (0.7481928495894603, -1.3245538930042543e-17),
    (0.7548875021634686, -5.563878316815655e-17),
    (0.7615512324444793, 1.6248092916407384e-17),
    (0.7681843247769263, 5.847878680267284e-17),
    (0.7747870596011734, 1.1317756112107658e-17),
    (0.7813597135246596, 4.069682476215183e-18),
    (0.7879025593914316, -3.13491213349329e-17),
    (0.794415866350106, -3.668845687843901e-17),
    (0.8008998999203047, 3.3032853262252715e-17),
    (0.8073549220576041, 7.44196931723183e-18),
    (0.8137811912170371, -4.135188325312559e-17),
    (0.8201789624151877, 8.318545115880985e-18),
    (0.826548487290915, -1.6217911779862923e-17),
    (0.8328900141647416, 7.524725836685465e-17),
    (0.839203788096944, -6.129631201678e-17),
    (0.8454900509443752, 2.016446767365206e-17),
    (0.8517490414160576, -5.490492869209456e-17),
    (0.8579809951275721, 2.0719773324627984e-17),
    (0.8641861446542802, 3.7018455677051e-17),
    (0.8703647195834046, -7.669570945784768e-17),
    (0.8765169465649997, 2.0041130183720033e-17),
    (0.8826430493618412, 5.88074069319324e-17),
    (0.8887432488982591, 5.88102528588897e-18),
    (0.8948177633079435, 1.5696035328042236e-17),
    (0.9008668079807486, -4.165768046974192e-17),
    (0.9068905956085185, 2.932405837343721e-17),
    (0.9128893362299616, 1.8983732950182124e-17),
    (0.9188632372745945, 1.2398726093451586e-17),
    (0.9248125036057809, 7.268694719739083e-18),
    (0.9307373375628862, 7.647220222298523e-17),
    (0.9366379390025705, 6.275425806395306e-17),
    (0.9425145053392399, -2.5380289748529274e-17),
    (0.9483672315846776, 5.419033207716353e-17),
    (0.9541963103868752, 8.806123599175554e-18),
    (0.9600019320680809, 3.7813366531369326e-17),
    (0.965784284662087, 4.361095828846817e-17),
    (0.971543553950772, -9.02302160787703e-18),
    (0.9772799234999164, 7.034944720512747e-17),
    (0.9829935746943101, 2.8493511290888465e-17),
    (0.9886846867721658, 5.32800038923017e-17),
    (0.9943534368588579, 3.757812438424761e-17),
    (1.0, 0.0),
];

/// Candidates per chunk of a batched δL kernel: [`DeltaBatch`] gathers,
/// scores and selects a vertex's candidates this many at a time, so its
/// buffers stay one size whatever a hub's candidate count.
pub const DELTA_CHUNK: usize = 64;

/// The gather → batch → select buffers of the δL kernels. A chunk holds
/// the moving vertex's own five `plogp` arguments (group 0) and up to
/// [`DELTA_CHUNK`] candidates' five, each tagged with a `u32` of the
/// caller's (the kernels pass the candidate's first-touch position in
/// their neighborhood map); one [`plogp_slice`] call scores them all.
#[derive(Clone, Debug)]
pub struct DeltaBatch {
    tags: [u32; DELTA_CHUNK],
    args: [[f64; 5]; DELTA_CHUNK + 1],
    vals: [[f64; 5]; DELTA_CHUNK + 1],
}

impl Default for DeltaBatch {
    fn default() -> Self {
        DeltaBatch {
            tags: [0; DELTA_CHUNK],
            args: [[0.0; 5]; DELTA_CHUNK + 1],
            vals: [[0.0; 5]; DELTA_CHUNK + 1],
        }
    }
}

impl DeltaBatch {
    /// Score a vertex's candidates: `own` is the vertex's five `plogp`
    /// arguments, `cands` yields each admissible candidate's tag and five
    /// arguments. `select` sees, in `cands` order, the vertex's five
    /// `plogp` values and each candidate's tag and five values — the
    /// bits five scalar [`plogp`] calls would give.
    pub fn score(
        &mut self,
        own: [f64; 5],
        mut cands: impl Iterator<Item = (u32, [f64; 5])>,
        mut select: impl FnMut(&[f64; 5], u32, &[f64; 5]),
    ) {
        self.args[0] = own;
        loop {
            let mut n = 0;
            for (tag, args) in cands.by_ref() {
                self.tags[n] = tag;
                self.args[n + 1] = args;
                n += 1;
                if n == DELTA_CHUNK {
                    break;
                }
            }
            if n == 0 {
                return;
            }
            plogp_slice(
                self.args[..=n].as_flattened(),
                self.vals[..=n].as_flattened_mut(),
            );
            for (&tag, vals) in self.tags[..n].iter().zip(&self.vals[1..=n]) {
                select(&self.vals[0], tag, vals);
            }
            if n < DELTA_CHUNK {
                return;
            }
        }
    }
}

/// The reusable scratch of a best-move kernel: the neighborhood
/// accumulator (module slot → `V`, sized by the vertex's arc count) and
/// the chunked δL batch.
#[derive(Clone, Debug, Default)]
pub struct MoveScratch<V> {
    pub neigh: NeighborMap<V>,
    pub batch: DeltaBatch,
}

/// A module assignment over a [`FlowNetwork`] with incrementally maintained
/// codelength terms.
#[derive(Clone, Debug)]
pub struct Partitioning {
    module_of: Vec<u32>,
    module_flow: Vec<f64>,
    module_exit: Vec<f64>,
    module_members: Vec<u32>,
    /// q = Σ_m q_m.
    sum_exit: f64,
    /// Σ_m plogp(q_m).
    sum_plogp_exit: f64,
    /// Σ_m plogp(q_m + p_m).
    sum_plogp_exit_plus_flow: f64,
    /// Σ_α plogp(p_α) over the **level-0** vertices; constant across moves
    /// and across aggregation levels.
    node_term: f64,
}

/// The `δL` candidate produced by [`Partitioning::best_move_stamped`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveCandidate {
    pub vertex: VertexId,
    pub to_module: u32,
    pub delta: f64,
    /// Flow from the vertex into its current module (excluding itself).
    pub flow_to_current: f64,
    /// Flow from the vertex into the target module.
    pub flow_to_target: f64,
}

impl Partitioning {
    /// Singleton partitioning (every vertex its own module) with the node
    /// term computed from this network's flows — correct at level 0.
    pub fn singletons(network: &FlowNetwork) -> Self {
        let node_term = network.node_flows().iter().copied().map(plogp).sum();
        Self::singletons_with_node_term(network, node_term)
    }

    /// Singleton partitioning for an aggregated level: `node_term` must be
    /// the Σ plogp(p_α) of the original (level-0) vertices.
    pub fn singletons_with_node_term(network: &FlowNetwork, node_term: f64) -> Self {
        let n = network.num_vertices();
        let module_of: Vec<u32> = (0..n as u32).collect();
        let module_flow: Vec<f64> = network.node_flows().to_vec();
        let module_exit: Vec<f64> = (0..n as VertexId).map(|u| network.out_flow(u)).collect();
        let module_members = vec![1u32; n];
        let sum_exit = module_exit.iter().sum();
        let sum_plogp_exit = module_exit.iter().copied().map(plogp).sum();
        let sum_plogp_exit_plus_flow = module_exit
            .iter()
            .zip(&module_flow)
            .map(|(&q, &p)| plogp(q + p))
            .sum();
        Partitioning {
            module_of,
            module_flow,
            module_exit,
            module_members,
            sum_exit,
            sum_plogp_exit,
            sum_plogp_exit_plus_flow,
            node_term,
        }
    }

    /// Current module of `u`.
    pub fn module_of(&self, u: VertexId) -> u32 {
        self.module_of[u as usize]
    }

    /// The full assignment vector.
    pub fn assignments(&self) -> &[u32] {
        &self.module_of
    }

    /// Visit flow of module `m`.
    pub fn module_flow(&self, m: u32) -> f64 {
        self.module_flow[m as usize]
    }

    /// Exit flow of module `m`.
    pub fn module_exit(&self, m: u32) -> f64 {
        self.module_exit[m as usize]
    }

    /// Member count of module `m`.
    pub fn module_members(&self, m: u32) -> u32 {
        self.module_members[m as usize]
    }

    /// Number of non-empty modules.
    pub fn num_modules(&self) -> usize {
        self.module_members.iter().filter(|&&c| c > 0).count()
    }

    /// Σ plogp(p_α) constant used by this partitioning.
    pub fn node_term(&self) -> f64 {
        self.node_term
    }

    /// The current codelength `L(M)` in bits.
    pub fn codelength(&self) -> f64 {
        plogp(self.sum_exit) - 2.0 * self.sum_plogp_exit - self.node_term
            + self.sum_plogp_exit_plus_flow
    }

    pub fn apply_move(
        &mut self,
        u: VertexId,
        to_module: u32,
        flow_to_current: f64,
        flow_to_target: f64,
        node_flow: f64,
        out_flow: f64,
    ) {
        let from_module = self.module_of[u as usize];
        if from_module == to_module {
            return;
        }
        let (i, j) = (from_module as usize, to_module as usize);
        let q_i_new = self.module_exit[i] - out_flow + 2.0 * flow_to_current;
        let q_j_new = self.module_exit[j] + out_flow - 2.0 * flow_to_target;
        let p_i_new = self.module_flow[i] - node_flow;
        let p_j_new = self.module_flow[j] + node_flow;

        self.sum_exit += (q_i_new - self.module_exit[i]) + (q_j_new - self.module_exit[j]);
        self.sum_plogp_exit += plogp(q_i_new) - plogp(self.module_exit[i]) + plogp(q_j_new)
            - plogp(self.module_exit[j]);
        self.sum_plogp_exit_plus_flow += plogp(q_i_new + p_i_new)
            - plogp(self.module_exit[i] + self.module_flow[i])
            + plogp(q_j_new + p_j_new)
            - plogp(self.module_exit[j] + self.module_flow[j]);

        self.module_exit[i] = q_i_new.max(0.0);
        self.module_exit[j] = q_j_new.max(0.0);
        self.module_flow[i] = p_i_new.max(0.0);
        self.module_flow[j] = p_j_new;
        self.module_members[i] -= 1;
        self.module_members[j] += 1;
        self.module_of[u as usize] = to_module;
    }

    /// Find the best move for `u` among its neighbor modules (and staying
    /// put). Ties within `tie_eps` break toward the **smallest module id**
    /// — the minimum-label heuristic the paper uses against vertex
    /// bouncing. Returns `None` if no move improves by more than `min_gain`.
    ///
    /// An epoch-stamped neighborhood map makes this O(deg) per vertex
    /// instead of a scratch-vec scan's O(deg·k), with bit-identical results
    /// (the map yields candidate modules in the scan's first-touch order,
    /// so the floating-point sums and tie-breaks are unchanged). The
    /// δL of moving `u` to module j, `plogp(q') − plogp(q) − 2(plogp(q_i')
    /// − plogp(q_i) + plogp(q_j') − plogp(q_j)) + (plogp(q_i' + p_i') −
    /// plogp(q_i + p_i)) + (plogp(q_j' + p_j') − plogp(q_j + p_j))`, is
    /// evaluated in that association order, with every `plogp` scored
    /// through [`DeltaBatch`].
    ///
    /// `scratch` persists across calls, sized by the largest degree seen
    /// and epoch-reset per vertex.
    pub fn best_move_stamped(
        &self,
        network: &FlowNetwork,
        u: VertexId,
        min_gain: f64,
        tie_eps: f64,
        scratch: &mut MoveScratch<f64>,
    ) -> Option<MoveCandidate> {
        let MoveScratch { neigh, batch } = scratch;
        neigh.begin(network.graph().degree(u));
        let current = self.module_of[u as usize];
        let mut flow_to_current = 0.0;
        for (v, f) in network.out_arcs(u) {
            let m = self.module_of[v as usize];
            if m == current {
                flow_to_current += f;
            } else {
                neigh.update(m, |acc| *acc += f);
            }
        }
        let node_flow = network.node_flow(u);
        let out_flow = network.out_flow(u);
        let i = current as usize;
        let (q_i, p_i) = (self.module_exit[i], self.module_flow[i]);
        let q_i_new = q_i - out_flow + 2.0 * flow_to_current;
        let p_i_new = p_i - node_flow;
        let exit_without_u = self.sum_exit + (q_i_new - q_i);
        let own = [self.sum_exit, q_i_new, q_i, q_i_new + p_i_new, q_i + p_i];
        // A candidate travels through the batch as its first-touch
        // position, so the selection reads its module and flow in place.
        let touched = neigh.touched();
        let cands = touched.iter().enumerate().map(|(i, &(m, flow_to_target))| {
            let j = m as usize;
            let (q_j, p_j) = (self.module_exit[j], self.module_flow[j]);
            let q_j_new = q_j + out_flow - 2.0 * flow_to_target;
            let p_j_new = p_j + node_flow;
            let q_new = exit_without_u + (q_j_new - q_j);
            (
                i as u32,
                [q_new, q_j_new, q_j, q_j_new + p_j_new, q_j + p_j],
            )
        });
        let mut best: Option<MoveCandidate> = None;
        batch.score(own, cands, |own, i, v| {
            let (m, flow_to_target) = touched[i as usize];
            let delta = v[0] - own[0] - 2.0 * (own[1] - own[2] + v[1] - v[2])
                + (own[3] - own[4])
                + (v[3] - v[4]);
            let better = match &best {
                None => delta < -min_gain,
                Some(b) => {
                    delta < b.delta - tie_eps
                        || ((delta - b.delta).abs() <= tie_eps && m < b.to_module)
                }
            };
            if better && delta < -min_gain {
                best = Some(MoveCandidate {
                    vertex: u,
                    to_module: m,
                    delta,
                    flow_to_current,
                    flow_to_target,
                });
            }
        });
        best
    }

    /// Apply a candidate produced by [`Partitioning::best_move_stamped`].
    pub fn apply_candidate(&mut self, network: &FlowNetwork, c: &MoveCandidate) {
        self.apply_move(
            c.vertex,
            c.to_module,
            c.flow_to_current,
            c.flow_to_target,
            network.node_flow(c.vertex),
            network.out_flow(c.vertex),
        );
    }
}

/// Recompute the codelength of `module_of` over `network` from scratch
/// (O(V+E)); ground truth for the incremental bookkeeping.
pub fn codelength_from_scratch(network: &FlowNetwork, module_of: &[u32], node_term: f64) -> f64 {
    let n = network.num_vertices();
    assert_eq!(module_of.len(), n);
    let num_modules = module_of.iter().map(|&m| m as usize + 1).max().unwrap_or(0);
    let mut flow = vec![0.0; num_modules];
    let mut exit = vec![0.0; num_modules];
    for u in 0..n as VertexId {
        let m = module_of[u as usize] as usize;
        flow[m] += network.node_flow(u);
        for (v, f) in network.out_arcs(u) {
            if module_of[v as usize] != module_of[u as usize] {
                exit[m] += f;
            }
        }
    }
    let sum_exit: f64 = exit.iter().sum();
    let sum_plogp_exit: f64 = exit.iter().copied().map(plogp).sum();
    let sum_both: f64 = exit.iter().zip(&flow).map(|(&q, &p)| plogp(q + p)).sum();
    plogp(sum_exit) - 2.0 * sum_plogp_exit - node_term + sum_both
}

#[cfg(test)]
mod tests {
    use super::*;
    use infomap_graph::Graph;

    fn two_triangles() -> FlowNetwork {
        // Two triangles joined by one edge: the textbook two-module graph.
        let g =
            Graph::from_unweighted(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        FlowNetwork::from_graph(g)
    }

    /// The scan reference the batched kernel is held to.
    impl Partitioning {
        /// δL of moving `u` (with flow `p_u`) from its module to `to_module`,
        /// given the flow `u` sends to fellow members of each (`flow_to_current`
        /// excludes `u` itself). O(1).
        fn delta(
            &self,
            u: VertexId,
            to_module: u32,
            flow_to_current: f64,
            flow_to_target: f64,
            node_flow: f64,
            out_flow: f64,
        ) -> f64 {
            let from_module = self.module_of[u as usize];
            if from_module == to_module {
                return 0.0;
            }
            let q_i = self.module_exit[from_module as usize];
            let q_j = self.module_exit[to_module as usize];
            let p_i = self.module_flow[from_module as usize];
            let p_j = self.module_flow[to_module as usize];

            // Removing u from i: arcs u→(i\{u}) become exits, u's other arcs
            // stop exiting i. Adding u to j symmetrically.
            let q_i_new = q_i - out_flow + 2.0 * flow_to_current;
            let q_j_new = q_j + out_flow - 2.0 * flow_to_target;
            let p_i_new = p_i - node_flow;
            let p_j_new = p_j + node_flow;
            let sum_exit_new = self.sum_exit + (q_i_new - q_i) + (q_j_new - q_j);

            plogp(sum_exit_new)
                - plogp(self.sum_exit)
                - 2.0 * (plogp(q_i_new) - plogp(q_i) + plogp(q_j_new) - plogp(q_j))
                + (plogp(q_i_new + p_i_new) - plogp(q_i + p_i))
                + (plogp(q_j_new + p_j_new) - plogp(q_j + p_j))
        }

        /// The legacy scratch-vec scan: [`Partitioning::best_move_stamped`]
        /// over a linear-probe module → flow buffer, scoring each candidate
        /// with [`Partitioning::delta`].
        fn best_move(
            &self,
            network: &FlowNetwork,
            u: VertexId,
            min_gain: f64,
            tie_eps: f64,
            scratch: &mut Vec<(u32, f64)>,
        ) -> Option<MoveCandidate> {
            scratch.clear();
            let current = self.module_of[u as usize];
            let mut flow_to_current = 0.0;
            for (v, f) in network.out_arcs(u) {
                let m = self.module_of[v as usize];
                if m == current {
                    flow_to_current += f;
                } else {
                    match scratch.iter_mut().find(|(mm, _)| *mm == m) {
                        Some((_, acc)) => *acc += f,
                        None => scratch.push((m, f)),
                    }
                }
            }
            let node_flow = network.node_flow(u);
            let out_flow = network.out_flow(u);
            let mut best: Option<MoveCandidate> = None;
            for &(m, flow_to_target) in scratch.iter() {
                let delta = self.delta(u, m, flow_to_current, flow_to_target, node_flow, out_flow);
                let better = match &best {
                    None => delta < -min_gain,
                    Some(b) => {
                        delta < b.delta - tie_eps
                            || ((delta - b.delta).abs() <= tie_eps && m < b.to_module)
                    }
                };
                if better && delta < -min_gain {
                    best = Some(MoveCandidate {
                        vertex: u,
                        to_module: m,
                        delta,
                        flow_to_current,
                        flow_to_target,
                    });
                }
            }
            best
        }
    }

    #[test]
    fn plogp_basics() {
        assert_eq!(plogp(0.0), 0.0);
        assert_eq!(plogp(1.0), 0.0);
        assert!((plogp(0.5) - (-0.5)).abs() < 1e-12);
    }

    /// Distance in ULPs between two finite f64 of the same sign region.
    fn ulp_diff(a: f64, b: f64) -> u64 {
        // Map to a monotone integer line (sign-magnitude → offset binary).
        fn key(x: f64) -> i64 {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN ^ b
            } else {
                b
            }
        }
        key(a).abs_diff(key(b))
    }

    #[test]
    fn plogp_edge_cases_and_exact_path_tail() {
        // Zero, one, and negatives-within-tolerance: exact zeros.
        assert_eq!(plogp(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(plogp(1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(plogp(-1e-13), 0.0);
        // Subnormals and tiny normals take the exact tail verbatim.
        for x in [
            f64::from_bits(1),                           // smallest subnormal
            f64::from_bits(0xf_ffff),                    // larger subnormal
            f64::MIN_POSITIVE,                           // smallest normal
            f64::MIN_POSITIVE * 1.5,                     // normal but far below 2⁻⁶⁴
            f64::from_bits(0x3bf0_0000_0000_0000) / 2.0, // 2⁻⁶⁵
        ] {
            assert_eq!(plogp(x).to_bits(), plogp_exact(x).to_bits(), "x={x:e}");
        }
        // The near-1 band and x ≥ 2 are exact-tail too.
        for x in [
            0.7500000001,
            0.9,
            1.0 - 1e-12,
            1.0 + 1e-12,
            1.2,
            1.4999,
            2.0,
            3.7,
            64.0,
        ] {
            assert_eq!(plogp(x).to_bits(), plogp_exact(x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn plogp_fallback_boundaries_are_seamless() {
        // Straddle each dispatcher boundary: the polynomial side must agree
        // with the exact side to ≤ 1 ULP, so the dispatch point itself
        // cannot introduce a jump bigger than libm's own rounding.
        let boundaries = [
            f64::from_bits(0x3bf0_0000_0000_0000), // FAST_LO = 2⁻⁶⁴
            0.75,                                  // NEAR_ONE_LO
            1.5,                                   // NEAR_ONE_HI
            2.0,                                   // FAST_HI
        ];
        for b in boundaries {
            for x in [
                f64::from_bits(b.to_bits() - 2),
                f64::from_bits(b.to_bits() - 1),
                b,
                f64::from_bits(b.to_bits() + 1),
                f64::from_bits(b.to_bits() + 2),
            ] {
                let got = plogp(x);
                let want = plogp_ref(x);
                assert!(
                    ulp_diff(got, want) <= 1,
                    "boundary {b}: x={x:e} got {got:e} want {want:e}"
                );
            }
        }
    }

    /// Dense deterministic sweep over `[2⁻⁶⁴, 2)`: uniform in the
    /// exponent via an inline LCG, no external RNG dep.
    fn dense_sweep() -> impl Iterator<Item = f64> {
        let mut state = 0x243f_6a88_85a3_08d3u64; // pi digits; arbitrary
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        (0..200_000).map(move |_| {
            let r = next();
            // exponent in [-64, 0], mantissa uniform
            let e = -((r >> 58) as i64 % 65);
            let mant = next() & ((1u64 << 52) - 1);
            f64::from_bits((((e + 1023) as u64) << 52) | mant)
        })
    }

    /// The fast-path values pinned by
    /// `plogp_is_exactly_reproducible_at_spot_values`.
    const SPOT_VALUES: [f64; 4] = [0.5, 0.25, 0.125, 0.5625];

    #[test]
    fn plogp_polynomial_agrees_with_exact_within_one_ulp() {
        for x in dense_sweep() {
            if !on_fast_path(x) {
                continue;
            }
            let got = plogp(x);
            let libm = plogp_exact(x);
            // Within 1 ULP of the true rounded value, always.
            let reference = plogp_ref(x);
            assert!(
                ulp_diff(got, reference) <= 1,
                "x={x:e} ({:#x}) got {got:e} ref {reference:e}",
                x.to_bits()
            );
            // Within 1 ULP of the libm path too, except where libm's own
            // log₂-then-multiply double rounding drifts past 1 ULP of true
            // — there the reference must side with the polynomial.
            let d = ulp_diff(got, libm);
            assert!(
                d <= 1 || (d <= 2 && ulp_diff(got, reference) <= ulp_diff(libm, reference)),
                "x={x:e} ({:#x}) got {got:e} libm {libm:e} ref {reference:e} ulp {d}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn plogp_is_exactly_reproducible_at_spot_values() {
        // Bit-pin a few fast-path values: the polynomial kernel is part of
        // the cross-build determinism contract, so its exact output bits
        // for fixed inputs must never drift (e.g. via an fma-gated path).
        // Exact powers of two hit the r = 0 table node: results are exact.
        for (x, want) in SPOT_VALUES[..3].iter().zip([-0.5f64, -0.5, -0.375]) {
            assert_eq!(plogp(*x).to_bits(), want.to_bits(), "x={x}");
        }
        // A general mantissa: within 1 ULP of the libm reference.
        let want = -0.466_917_186_688_699_3_f64; // 0.5625·log₂(0.5625)
        assert!(ulp_diff(plogp(SPOT_VALUES[3]), want) <= 1);
    }

    #[test]
    fn plogp_slice_matches_scalar_bitwise() {
        // The slice form is `plogp`, bit for bit: over the dense sweep and
        // the spot values (fast lanes), each fallback boundary ± 1 ulp, and
        // the values only the scalar tail handles.
        let mut xs: Vec<f64> = dense_sweep().chain(SPOT_VALUES).collect();
        for b in [FAST_LO, NEAR_ONE_LO, NEAR_ONE_HI, FAST_HI] {
            let bits = b.to_bits();
            xs.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        xs.extend([
            0.0,
            -0.0,
            f64::from_bits(1),        // smallest subnormal
            f64::from_bits(0xf_ffff), // a larger one
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            1.0,
        ]);
        let check = |xs: &[f64]| {
            let mut out = vec![f64::NAN; xs.len()];
            plogp_slice(xs, &mut out);
            for (&x, y) in xs.iter().zip(&out) {
                assert_eq!(
                    y.to_bits(),
                    plogp(x).to_bits(),
                    "x={x:e} ({:#x})",
                    x.to_bits()
                );
            }
        };
        check(&xs);
        // Every slice length from empty to two of the largest a δL chunk
        // passes, plus one; the window slides so the tail lanes fall on
        // every lane position.
        let lanes = 5 * (DELTA_CHUNK + 1);
        let tail = &xs[xs.len() - 48..];
        for len in 0..=2 * lanes + 1 {
            let window: Vec<f64> = (0..len).map(|i| tail[(i + len) % tail.len()]).collect();
            check(&window);
        }
        // −∞ and −1 are negative flows: a debug build trips `plogp`'s
        // assertion in both forms, a release build returns 0 from both.
        for x in [f64::NEG_INFINITY, -1.0] {
            let scalar = std::panic::catch_unwind(|| plogp(x).to_bits()).ok();
            let slice = std::panic::catch_unwind(|| {
                let mut y = [0.0];
                plogp_slice(&[x], &mut y);
                y[0].to_bits()
            })
            .ok();
            assert_eq!(scalar, slice, "x={x}");
        }
    }

    #[test]
    fn singleton_codelength_matches_scratch() {
        let net = two_triangles();
        let p = Partitioning::singletons(&net);
        let scratch = codelength_from_scratch(&net, p.assignments(), p.node_term());
        assert!((p.codelength() - scratch).abs() < 1e-12);
    }

    #[test]
    fn moves_keep_codelength_consistent() {
        let net = two_triangles();
        let mut p = Partitioning::singletons(&net);
        let mut buf = MoveScratch::default();
        // Merge both triangles by hand.
        for u in [1u32, 2, 4, 5] {
            if let Some(c) = p.best_move_stamped(&net, u, 1e-12, 1e-12, &mut buf) {
                p.apply_candidate(&net, &c);
            }
        }
        let scratch = codelength_from_scratch(&net, p.assignments(), p.node_term());
        assert!(
            (p.codelength() - scratch).abs() < 1e-9,
            "incremental {} vs scratch {scratch}",
            p.codelength()
        );
    }

    #[test]
    fn delta_matches_actual_change() {
        let net = two_triangles();
        let mut p = Partitioning::singletons(&net);
        let before = p.codelength();
        let mut buf = MoveScratch::default();
        let c = p
            .best_move_stamped(&net, 1, 1e-12, 1e-12, &mut buf)
            .expect("some move improves");
        p.apply_candidate(&net, &c);
        let after = p.codelength();
        assert!(((after - before) - c.delta).abs() < 1e-10);
        assert!(c.delta < 0.0);
    }

    #[test]
    fn two_module_partition_beats_singletons_on_two_triangles() {
        let net = two_triangles();
        let p = Partitioning::singletons(&net);
        let ideal = vec![0, 0, 0, 1, 1, 1];
        let l_ideal = codelength_from_scratch(&net, &ideal, p.node_term());
        assert!(l_ideal < p.codelength());
        // And the all-in-one partition is worse than the ideal.
        let one = vec![0; 6];
        let l_one = codelength_from_scratch(&net, &one, p.node_term());
        assert!(l_ideal < l_one);
    }

    #[test]
    fn min_label_tie_break_prefers_smaller_module() {
        // Vertex 1 sits between two symmetric triangles 0-2-1 ... use a
        // 4-cycle where moving to either neighbor is symmetric.
        let g = Graph::from_unweighted(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let net = FlowNetwork::from_graph(g);
        let p = Partitioning::singletons(&net);
        let mut buf = MoveScratch::default();
        if let Some(c) = p.best_move_stamped(&net, 1, 1e-12, 1e-9, &mut buf) {
            // Neighbors of 1 are modules 0 and 2; symmetric deltas must pick 0.
            assert_eq!(c.to_module, 0);
        }
    }

    #[test]
    fn stamped_best_move_matches_scan_bitwise() {
        // The stamped kernel must agree with the legacy scan to the bit —
        // same candidate, same delta, same flows — at every step of a
        // greedy trajectory (applied moves come from the scan kernel, so
        // both kernels face identical partitionings).
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(17);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..60u32 {
            for _ in 0..3 {
                let v = rng.gen_range(0..60);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let net = FlowNetwork::from_graph(Graph::from_unweighted(60, &edges));
        let mut p = Partitioning::singletons(&net);
        let mut scan_buf = Vec::new();
        let mut stamped = MoveScratch::default();
        for _ in 0..3 {
            for u in 0..60u32 {
                let a = p.best_move(&net, u, 1e-10, 1e-12, &mut scan_buf);
                let b = p.best_move_stamped(&net, u, 1e-10, 1e-12, &mut stamped);
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.to_module, y.to_module, "vertex {u}");
                        assert_eq!(x.delta.to_bits(), y.delta.to_bits(), "vertex {u}");
                        assert_eq!(
                            x.flow_to_target.to_bits(),
                            y.flow_to_target.to_bits(),
                            "vertex {u}"
                        );
                        p.apply_candidate(&net, &x);
                    }
                    (x, y) => panic!("vertex {u}: scan {x:?} vs stamped {y:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_module_after_departure_has_zero_terms() {
        let net = two_triangles();
        let mut p = Partitioning::singletons(&net);
        let mut buf = MoveScratch::default();
        let c = p
            .best_move_stamped(&net, 1, 1e-12, 1e-12, &mut buf)
            .unwrap();
        p.apply_candidate(&net, &c);
        let old = 1u32;
        assert_eq!(p.module_members(old), 0);
        assert!(p.module_flow(old).abs() < 1e-12);
        assert!(p.module_exit(old).abs() < 1e-12);
    }
}
