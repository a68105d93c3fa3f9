//! Arithmetic in the binary extension fields GF(2^m), 1 ≤ m ≤ 16.
//!
//! Every field carries compiled multiplication kernels picked by size:
//!
//! * **m ≤ 8** — a full `2^m × 2^m` product table (64 KiB at m = 8).
//!   [`Gf::mul`], [`Gf::mul_slice`], [`Gf::axpy`], and [`Gf::poly_eval`]
//!   reduce to one row-contiguous table load per symbol, with no branch on
//!   zero operands.
//! * **9 ≤ m ≤ 16** — branchless split log/exp: `log 0` is a sentinel
//!   (`2·order + 1`) and the exp table is zero-padded far enough that any
//!   index sum involving the sentinel lands in the zero region, so
//!   `a·b = exp[log a + log b]` holds for *all* operands.
//!
//! Tables are immutable and shared: [`Gf::new`] consults a process-wide
//! registry (one `OnceLock` slot per m), so constructing the same field
//! twice — e.g. once per trial — reuses the already-compiled tables instead
//! of rebuilding them.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Primitive polynomials for GF(2^m), m = 1..=16, written with the leading
/// term included (e.g. `0x11d = x^8 + x^4 + x^3 + x^2 + 1`).
const PRIMITIVE_POLYS: [u32; 16] = [
    0x3,     // m=1:  x + 1
    0x7,     // m=2:  x^2 + x + 1
    0xb,     // m=3:  x^3 + x + 1
    0x13,    // m=4:  x^4 + x + 1
    0x25,    // m=5:  x^5 + x^2 + 1
    0x43,    // m=6:  x^6 + x + 1
    0x89,    // m=7:  x^7 + x^3 + 1
    0x11d,   // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,   // m=9:  x^9 + x^4 + 1
    0x409,   // m=10: x^10 + x^3 + 1
    0x805,   // m=11: x^11 + x^2 + 1
    0x1053,  // m=12: x^12 + x^6 + x^4 + x + 1
    0x201b,  // m=13: x^13 + x^4 + x^3 + x + 1
    0x402b,  // m=14: x^14 + x^5 + x^3 + x + 1
    0x8003,  // m=15: x^15 + x + 1
    0x1100b, // m=16: x^16 + x^12 + x^3 + x + 1
];

/// Largest m whose field gets a full product table (`2^(2m)` u16 entries).
const FULL_TABLE_MAX_M: u32 = 8;

/// Horner chains [`Gf::poly_eval_many`] advances together: enough
/// independent table loads in flight to cover one load's latency (8 lanes
/// measured 25% slower on the decoder's `[128, 75]` syndromes, 4 lanes 2×).
const EVAL_LANES: usize = 16;

#[derive(Debug)]
struct GfInner {
    m: u32,
    size: u32,
    /// Extended exp table. Indices `0..=2·order` hold `alpha^(i mod order)`;
    /// indices `2·order + 1 ..= 4·order + 2` are zero, so any product index
    /// involving the `log 0` sentinel (`2·order + 1`) reads zero.
    exp: Vec<u16>,
    /// `log[x]` for x ≠ 0 (entry 0 is unused here; see `logz`).
    log: Vec<u16>,
    /// Branchless log: `logz[0]` is the sentinel `2·order + 1`, otherwise
    /// identical to `log`. u32 because the sentinel overflows u16 at m = 16.
    logz: Vec<u32>,
    /// Full product table for m ≤ 8, row-major (`table[(a << m) | b]`);
    /// empty for larger fields.
    mul_table: Vec<u16>,
}

impl GfInner {
    fn build(m: u32) -> Self {
        let size = 1u32 << m;
        let poly = PRIMITIVE_POLYS[(m - 1) as usize];
        let order = size - 1;
        let sentinel = 2 * order + 1;
        let mut exp = vec![0u16; (4 * order + 3) as usize];
        let mut log = vec![0u16; size as usize];
        let mut x = 1u32;
        for i in 0..order {
            exp[i as usize] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & size != 0 {
                x ^= poly;
            }
        }
        for i in order..=2 * order {
            exp[i as usize] = exp[(i - order) as usize];
        }
        let mut logz = vec![0u32; size as usize];
        logz[0] = sentinel;
        for v in 1..size {
            logz[v as usize] = log[v as usize] as u32;
        }
        let mul_table = if m <= FULL_TABLE_MAX_M {
            let mut table = vec![0u16; 1usize << (2 * m)];
            for a in 0..size {
                let row = (a as usize) << m;
                for b in 0..size {
                    table[row | b as usize] = exp[(logz[a as usize] + logz[b as usize]) as usize];
                }
            }
            table
        } else {
            Vec::new()
        };
        Self {
            m,
            size,
            exp,
            log,
            logz,
            mul_table,
        }
    }
}

/// Process-wide field registry: one immutable table set per m, built once.
static REGISTRY: [OnceLock<Arc<GfInner>>; 16] = [const { OnceLock::new() }; 16];

/// The finite field GF(2^m) with precompiled multiplication kernels.
///
/// Cloning is cheap (the tables are shared behind an [`Arc`]), and
/// [`Gf::new`] itself is cheap after the first call per m: fields are
/// interned in a process-wide registry.
///
/// # Examples
///
/// ```
/// use bdclique_codes::Gf;
///
/// let gf = Gf::new(8);
/// let a = 0x57;
/// let b = 0x83;
/// let p = gf.mul(a, b);
/// assert_eq!(gf.div(p, b).unwrap(), a);
/// ```
#[derive(Clone)]
pub struct Gf {
    inner: Arc<GfInner>,
}

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf(2^{})", self.inner.m)
    }
}

impl PartialEq for Gf {
    fn eq(&self, other: &Self) -> bool {
        self.inner.m == other.inner.m
    }
}

impl Eq for Gf {}

impl Gf {
    /// Returns GF(2^m), building its tables on first use per process.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= 16`.
    pub fn new(m: u32) -> Self {
        assert!((1..=16).contains(&m), "GF(2^m) supported for m in 1..=16");
        let inner = REGISTRY[(m - 1) as usize]
            .get_or_init(|| Arc::new(GfInner::build(m)))
            .clone();
        Self { inner }
    }

    /// Field extension degree `m`.
    pub fn m(&self) -> u32 {
        self.inner.m
    }

    /// Field size `2^m`.
    pub fn size(&self) -> u32 {
        self.inner.size
    }

    /// Multiplicative group order `2^m - 1`.
    pub fn order(&self) -> u32 {
        self.inner.size - 1
    }

    /// Checks that `x` is a field element.
    #[inline]
    fn check(&self, x: u16) {
        debug_assert!(
            (x as u32) < self.inner.size,
            "element {x} outside GF(2^{})",
            self.inner.m
        );
    }

    /// The full product table and shift `m` (`table[(a << m) | b] = a·b`)
    /// for m ≤ 8 fields. Crate-visible so hot inner loops (the RS LFSR
    /// encoder) can hoist the table dereference out of their per-symbol
    /// step instead of paying it per product.
    #[inline]
    pub(crate) fn full_mul_table(&self) -> Option<(&[u16], u32)> {
        let inner = &self.inner;
        if inner.mul_table.is_empty() {
            None
        } else {
            Some((&inner.mul_table, inner.m))
        }
    }

    /// Row `c` of the full product table (`row[x] = c·x`), when compiled.
    #[inline]
    fn mul_row(&self, c: u16) -> Option<&[u16]> {
        let inner = &self.inner;
        if inner.mul_table.is_empty() {
            None
        } else {
            let start = (c as usize) << inner.m;
            Some(&inner.mul_table[start..start + inner.size as usize])
        }
    }

    /// Addition (XOR in characteristic 2).
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        self.check(a);
        self.check(b);
        a ^ b
    }

    /// Subtraction (identical to addition in characteristic 2).
    #[inline]
    pub fn sub(&self, a: u16, b: u16) -> u16 {
        self.add(a, b)
    }

    /// Multiplication; branchless in the operands (full table for m ≤ 8,
    /// sentinel log/exp otherwise).
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        self.check(a);
        self.check(b);
        let inner = &self.inner;
        if !inner.mul_table.is_empty() {
            inner.mul_table[((a as usize) << inner.m) | b as usize]
        } else {
            inner.exp[(inner.logz[a as usize] + inner.logz[b as usize]) as usize]
        }
    }

    /// In-place scale: `dst[i] = c·dst[i]` for the whole slice.
    pub fn mul_slice(&self, dst: &mut [u16], c: u16) {
        self.check(c);
        if let Some(row) = self.mul_row(c) {
            for x in dst.iter_mut() {
                *x = row[*x as usize];
            }
        } else {
            let inner = &self.inner;
            let lc = inner.logz[c as usize];
            for x in dst.iter_mut() {
                *x = inner.exp[(lc + inner.logz[*x as usize]) as usize];
            }
        }
    }

    /// Fused multiply-accumulate: `dst[i] ^= c·src[i]` for the whole slice.
    ///
    /// `dst` and `src` must have equal lengths; they cannot alias (the
    /// borrow checker enforces disjointness), so a caller that wants
    /// `dst ^= c·dst` should use [`Gf::mul_slice`] with `c + 1`... or more
    /// plainly: copy first. With `c = 0` this is a no-op on the values.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn axpy(&self, dst: &mut [u16], c: u16, src: &[u16]) {
        assert_eq!(dst.len(), src.len(), "axpy slice length mismatch");
        self.check(c);
        if let Some(row) = self.mul_row(c) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= row[s as usize];
            }
        } else {
            let inner = &self.inner;
            let lc = inner.logz[c as usize];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= inner.exp[(lc + inner.logz[s as usize]) as usize];
            }
        }
    }

    /// Inner product `sum_i a[i]·b[i]` (sum = XOR).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn dot(&self, a: &[u16], b: &[u16]) -> u16 {
        assert_eq!(a.len(), b.len(), "dot slice length mismatch");
        let inner = &self.inner;
        let mut acc = 0u16;
        if !inner.mul_table.is_empty() {
            let m = inner.m;
            for (&x, &y) in a.iter().zip(b) {
                acc ^= inner.mul_table[((x as usize) << m) | y as usize];
            }
        } else {
            for (&x, &y) in a.iter().zip(b) {
                acc ^= inner.exp[(inner.logz[x as usize] + inner.logz[y as usize]) as usize];
            }
        }
        acc
    }

    /// Multiplicative inverse; `None` for zero.
    #[inline]
    pub fn inv(&self, a: u16) -> Option<u16> {
        self.check(a);
        if a == 0 {
            return None;
        }
        let inner = &self.inner;
        Some(inner.exp[(inner.size - 1) as usize - inner.log[a as usize] as usize])
    }

    /// Division; `None` when dividing by zero.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> Option<u16> {
        Some(self.mul(a, self.inv(b)?))
    }

    /// `alpha^i` for the fixed primitive element alpha.
    #[inline]
    pub fn alpha_pow(&self, i: u32) -> u16 {
        self.inner.exp[(i % self.order()) as usize]
    }

    /// Discrete log base alpha; `None` for zero.
    pub fn log(&self, a: u16) -> Option<u16> {
        self.check(a);
        if a == 0 {
            None
        } else {
            Some(self.inner.log[a as usize])
        }
    }

    /// `a^e` by square-and-multiply (`pow(0, 0) == 1` by convention).
    pub fn pow(&self, a: u16, e: u32) -> u16 {
        self.check(a);
        let mut acc = 1u16;
        let mut base = a;
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Evaluates a polynomial (coefficients low-degree first) at `x` by
    /// Horner's rule, one compiled-table load per coefficient.
    pub fn poly_eval(&self, coeffs: &[u16], x: u16) -> u16 {
        self.check(x);
        debug_assert!(coeffs.iter().all(|&c| (c as u32) < self.inner.size));
        let mut acc = 0u16;
        if let Some(row) = self.mul_row(x) {
            for &c in coeffs.iter().rev() {
                acc = row[acc as usize] ^ c;
            }
        } else {
            let inner = &self.inner;
            let lx = inner.logz[x as usize];
            for &c in coeffs.iter().rev() {
                acc = inner.exp[(lx + inner.logz[acc as usize]) as usize] ^ c;
            }
        }
        acc
    }

    /// Evaluates one polynomial (coefficients low-degree first) at every
    /// point of `xs`: `out[i] == poly_eval(coeffs, xs[i])`.
    ///
    /// [`Gf::poly_eval`] is a serial chain — each Horner step's table index
    /// is the previous step's result — so one evaluation runs at load
    /// latency. Here the chains of up to sixteen points advance together,
    /// one table row (or one hoisted log) per point, and the loads of one
    /// step are independent of each other: the Reed–Solomon decoder's
    /// syndromes and Forney sums are evaluations of this shape.
    pub fn poly_eval_many(&self, coeffs: &[u16], xs: &[u16]) -> Vec<u16> {
        debug_assert!(coeffs.iter().all(|&c| (c as u32) < self.inner.size));
        let mut out = Vec::with_capacity(xs.len());
        let mut blocks = xs.chunks_exact(EVAL_LANES);
        for block in &mut blocks {
            self.eval_lanes::<EVAL_LANES>(coeffs, block, &mut out);
        }
        // The tail runs at the narrowest width that holds it, so a decoder
        // with two syndromes does not pay for sixteen chains.
        let tail = blocks.remainder();
        match tail.len() {
            0 => {}
            1 => self.eval_lanes::<1>(coeffs, tail, &mut out),
            2 => self.eval_lanes::<2>(coeffs, tail, &mut out),
            3..=4 => self.eval_lanes::<4>(coeffs, tail, &mut out),
            5..=8 => self.eval_lanes::<8>(coeffs, tail, &mut out),
            _ => self.eval_lanes::<EVAL_LANES>(coeffs, tail, &mut out),
        }
        out
    }

    /// `L` interleaved Horner chains: appends `coeffs` evaluated at each of
    /// the (at most `L`) points of `block` to `out`.
    #[inline]
    fn eval_lanes<const L: usize>(&self, coeffs: &[u16], block: &[u16], out: &mut Vec<u16>) {
        block.iter().for_each(|&x| self.check(x));
        let inner = &self.inner;
        // A short block pads with x = 0, whose lanes are dropped.
        let mut points = [0u16; L];
        points[..block.len()].copy_from_slice(block);
        let mut acc = [0u16; L];
        if inner.mul_table.is_empty() {
            let lx = points.map(|x| inner.logz[x as usize]);
            for &c in coeffs.iter().rev() {
                for (a, &lx) in acc.iter_mut().zip(&lx) {
                    *a = inner.exp[(lx + inner.logz[*a as usize]) as usize] ^ c;
                }
            }
        } else {
            // One row offset per lane into the one table; its length is a
            // power of two, so the mask is a no-op on every index a field
            // element can form and stands in for a per-load bounds check.
            let table = &inner.mul_table[..];
            let mask = table.len() - 1;
            let rows = points.map(|x| (x as usize) << inner.m);
            for &c in coeffs.iter().rev() {
                for (a, &row) in acc.iter_mut().zip(&rows) {
                    *a = table[(row | *a as usize) & mask] ^ c;
                }
            }
        }
        out.extend_from_slice(&acc[..block.len()]);
    }

    /// Power sums of a sparse word: `out[j-1] = Σ_c es[c]·xs[c]^j` for
    /// `j ∈ 1..=count`, every `es[c]` and `xs[c]` nonzero — the syndromes of
    /// the word whose only nonzero symbols are `es[c]` at locator `xs[c]`.
    /// The exponent of term `c` is `log es[c] + j·log xs[c]`, which steps by
    /// a fixed integer as `j` does, so every term comes straight off the exp
    /// table and no product waits for the one before it.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub(crate) fn power_sums(&self, es: &[u16], xs: &[u16], count: usize) -> Vec<u16> {
        assert_eq!(es.len(), xs.len(), "power_sums slice length mismatch");
        debug_assert!(es
            .iter()
            .chain(xs)
            .all(|&v| v != 0 && (v as u32) < self.size()));
        let inner = &self.inner;
        let order = self.order();
        let steps: Vec<u32> = xs.iter().map(|&x| inner.log[x as usize].into()).collect();
        let mut idx: Vec<u32> = es.iter().map(|&e| inner.log[e as usize].into()).collect();
        (0..count)
            .map(|_| {
                let mut sum = 0u16;
                for (i, &step) in idx.iter_mut().zip(&steps) {
                    // `*i < order` between steps, so `*i + step` stays in
                    // the table's first `2·order` entries, which repeat the
                    // powers; the wrapped difference is the smaller of the
                    // two exactly when `*i >= order`.
                    *i += step;
                    sum ^= inner.exp[*i as usize];
                    *i = (*i).min(i.wrapping_sub(order));
                }
                sum
            })
            .collect()
    }

    /// Multiplies two polynomials (coefficients low-degree first).
    pub fn poly_mul(&self, a: &[u16], b: &[u16]) -> Vec<u16> {
        if a.is_empty() || b.is_empty() {
            return vec![];
        }
        let mut out = vec![0u16; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            self.axpy(&mut out[i..i + b.len()], ai, b);
        }
        out
    }

    /// Formal derivative of a polynomial (characteristic 2: odd-degree terms
    /// survive).
    pub fn poly_derivative(&self, a: &[u16]) -> Vec<u16> {
        if a.len() <= 1 {
            return vec![0];
        }
        let mut out = vec![0u16; a.len() - 1];
        for (i, item) in out.iter_mut().enumerate() {
            // coefficient of x^i in derivative = (i+1) * a[i+1]; in char 2
            // this is a[i+1] when i is even, 0 when odd.
            *item = if i % 2 == 0 { a[i + 1] } else { 0 };
        }
        out
    }

    /// Divides polynomial `num` by `den`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is the zero polynomial.
    pub fn poly_divmod(&self, num: &[u16], den: &[u16]) -> (Vec<u16>, Vec<u16>) {
        let dd = den
            .iter()
            .rposition(|&c| c != 0)
            .expect("division by zero polynomial");
        let mut rem: Vec<u16> = num.to_vec();
        let nd = rem.iter().rposition(|&c| c != 0).unwrap_or(0);
        if nd < dd {
            return (vec![0], rem);
        }
        let mut quot = vec![0u16; nd - dd + 1];
        let lead_inv = self.inv(den[dd]).expect("nonzero leading coefficient");
        for i in (dd..=nd).rev() {
            if rem[i] == 0 {
                continue;
            }
            let q = self.mul(rem[i], lead_inv);
            quot[i - dd] = q;
            self.axpy(&mut rem[i - dd..=i], q, &den[..dd + 1]);
        }
        rem.truncate(dd.max(1));
        (quot, rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_consistent_for_all_supported_m() {
        for m in 1..=16u32 {
            let gf = Gf::new(m);
            // alpha generates the multiplicative group: alpha^(order) == 1
            // and all powers below are distinct (checked via log roundtrip).
            assert_eq!(gf.alpha_pow(gf.order()), 1, "m={m}");
            for i in 0..gf.order().min(1000) {
                let x = gf.alpha_pow(i);
                assert_eq!(gf.log(x), Some(i as u16), "m={m}, i={i}");
            }
        }
    }

    #[test]
    fn registry_interns_tables() {
        let a = Gf::new(7);
        let b = Gf::new(7);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn gf256_known_products() {
        let gf = Gf::new(8);
        // Known AES-adjacent products under poly 0x11d.
        assert_eq!(gf.mul(0, 123), 0);
        assert_eq!(gf.mul(1, 123), 123);
        assert_eq!(gf.mul(2, 0x80), 0x1d); // x * x^7 = x^8 = 0x1d mod 0x11d
    }

    /// The sentinel log/exp layout must produce zero for any zero operand in
    /// the large-field tier, including 0·0.
    #[test]
    fn zero_operands_branchless_large_fields() {
        for m in [9u32, 12, 16] {
            let gf = Gf::new(m);
            assert_eq!(gf.mul(0, 0), 0, "m={m}");
            for i in 0..200 {
                let x = gf.alpha_pow(i);
                assert_eq!(gf.mul(0, x), 0, "m={m}, x={x}");
                assert_eq!(gf.mul(x, 0), 0, "m={m}, x={x}");
            }
        }
    }

    #[test]
    fn inverses() {
        let gf = Gf::new(8);
        assert_eq!(gf.inv(0), None);
        for a in 1..=255u16 {
            let inv = gf.inv(a).unwrap();
            assert_eq!(gf.mul(a, inv), 1, "a={a}");
        }
    }

    #[test]
    fn inverses_all_m() {
        for m in 1..=16u32 {
            let gf = Gf::new(m);
            for i in 0..gf.order().min(300) {
                let a = gf.alpha_pow(i);
                assert_eq!(gf.mul(a, gf.inv(a).unwrap()), 1, "m={m}, a={a}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let gf = Gf::new(5);
        for a in 0..32u16 {
            let mut acc = 1u16;
            for e in 0..10u32 {
                assert_eq!(gf.pow(a, e), acc, "a={a}, e={e}");
                acc = gf.mul(acc, a);
            }
        }
        assert_eq!(gf.pow(0, 0), 1);
        assert_eq!(gf.pow(0, 3), 0);
    }

    #[test]
    fn pow_large_exponents() {
        for m in [4u32, 8, 11, 16] {
            let gf = Gf::new(m);
            let a = gf.alpha_pow(3);
            // a^e == a^(e mod order) for a != 0.
            for e in [gf.order(), gf.order() + 1, 7 * gf.order() + 5, u32::MAX] {
                let expected = gf.alpha_pow(((3u64 * e as u64) % gf.order() as u64) as u32);
                assert_eq!(gf.pow(a, e), expected, "m={m}, e={e}");
            }
        }
    }

    #[test]
    fn batch_kernels_match_scalar() {
        for m in [1u32, 3, 8, 9, 13, 16] {
            let gf = Gf::new(m);
            let src: Vec<u16> = (0..512u32).map(|i| gf.alpha_pow(i * 7)).collect();
            let mut with_zeros = src.clone();
            for slot in with_zeros.iter_mut().step_by(5) {
                *slot = 0;
            }
            for c in [0u16, 1, gf.alpha_pow(1), gf.alpha_pow(97)] {
                let mut scaled = with_zeros.clone();
                gf.mul_slice(&mut scaled, c);
                for (i, &s) in with_zeros.iter().enumerate() {
                    assert_eq!(scaled[i], gf.mul(c, s), "m={m}, c={c}, i={i}");
                }
                let mut acc = src.clone();
                gf.axpy(&mut acc, c, &with_zeros);
                for i in 0..src.len() {
                    assert_eq!(
                        acc[i],
                        src[i] ^ gf.mul(c, with_zeros[i]),
                        "m={m}, c={c}, i={i}"
                    );
                }
                let mut dot_ref = 0u16;
                for (&x, &y) in src.iter().zip(&with_zeros) {
                    dot_ref ^= gf.mul(x, y);
                }
                assert_eq!(gf.dot(&src, &with_zeros), dot_ref, "m={m}");
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let gf = Gf::new(4);
        // p(x) = 3 + 5x + 7x^2
        let p = [3u16, 5, 7];
        for x in 0..16u16 {
            let direct = gf.add(gf.add(3, gf.mul(5, x)), gf.mul(7, gf.mul(x, x)));
            assert_eq!(gf.poly_eval(&p, x), direct);
        }
    }

    /// `power_sums` against its definition, in a full-table and a log/exp
    /// field, with exponents that wrap the group order many times over.
    #[test]
    fn power_sums_match_the_definition() {
        for m in [1u32, 4, 8, 11, 16] {
            let gf = Gf::new(m);
            let es: Vec<u16> = (0..9u32).map(|i| gf.alpha_pow(i * 37 + 5)).collect();
            let xs: Vec<u16> = (0..9u32).map(|i| gf.alpha_pow(i * 101 + 1)).collect();
            let expect: Vec<u16> = (1..=40u32)
                .map(|j| {
                    es.iter()
                        .zip(&xs)
                        .fold(0, |acc, (&e, &x)| acc ^ gf.mul(e, gf.pow(x, j)))
                })
                .collect();
            assert_eq!(gf.power_sums(&es, &xs, 40), expect, "m = {m}");
            assert_eq!(gf.power_sums(&[], &[], 3), vec![0; 3], "m = {m}");
        }
    }

    #[test]
    fn poly_mul_then_divmod_roundtrip() {
        let gf = Gf::new(8);
        let a = [1u16, 2, 3, 4];
        let b = [5u16, 6, 7];
        let prod = gf.poly_mul(&a, &b);
        let (q, r) = gf.poly_divmod(&prod, &b);
        assert_eq!(q, a.to_vec());
        assert!(r.iter().all(|&c| c == 0), "remainder {r:?}");
    }

    #[test]
    fn poly_derivative_char2() {
        let gf = Gf::new(4);
        // d/dx (a + bx + cx^2 + dx^3) = b + dx^2 in characteristic 2.
        let d = gf.poly_derivative(&[9, 8, 7, 6]);
        assert_eq!(d, vec![8, 0, 6]);
        assert_eq!(gf.poly_derivative(&[5]), vec![0]);
    }
}
