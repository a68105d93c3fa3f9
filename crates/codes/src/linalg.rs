//! Linear algebra over GF(2^m): Gaussian elimination, matrix inversion, and
//! Berlekamp–Welch decoding of evaluation-form Reed–Solomon codes.
//!
//! These routines power the Reed–Muller LDC (interpolation and line
//! decoding). All matrices are dense `Vec<Vec<u16>>`, which is appropriate
//! for the small systems that appear here (≤ a few hundred unknowns).

use crate::gf::Gf;

/// Solves `A x = b` over GF(2^m) by Gaussian elimination.
///
/// `a` is row-major with `a.len()` rows; the system may be overdetermined.
/// Returns `None` when the system is inconsistent. When the system is
/// underdetermined, free variables are set to zero (a valid solution is
/// still returned).
///
/// # Panics
///
/// Panics if the rows of `a` have inconsistent lengths or `b.len()` differs
/// from the number of rows.
pub fn solve_linear(gf: &Gf, a: &[Vec<u16>], b: &[u16]) -> Option<Vec<u16>> {
    let rows = a.len();
    assert_eq!(b.len(), rows, "rhs length must match row count");
    let cols = a.first().map_or(0, Vec::len);
    assert!(a.iter().all(|r| r.len() == cols), "ragged matrix");

    // Augmented matrix.
    let mut m: Vec<Vec<u16>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();

    let mut pivot_of_col = vec![usize::MAX; cols];
    let mut rank = 0usize;
    for col in 0..cols {
        let Some(pivot_row) = (rank..rows).find(|&r| m[r][col] != 0) else {
            continue;
        };
        m.swap(rank, pivot_row);
        let inv = gf.inv(m[rank][col]).expect("pivot nonzero");
        gf.mul_slice(&mut m[rank][col..], inv);
        for r in 0..rows {
            if r != rank && m[r][col] != 0 {
                let factor = m[r][col];
                let (pivot, target) = split_rows(&mut m, rank, r);
                gf.axpy(&mut target[col..], factor, &pivot[col..]);
            }
        }
        pivot_of_col[col] = rank;
        rank += 1;
        if rank == rows {
            break;
        }
    }

    // Consistency: rows of zeros with nonzero rhs => no solution.
    for row in m.iter().take(rows).skip(rank) {
        if row[cols] != 0 {
            return None;
        }
    }

    let mut x = vec![0u16; cols];
    for col in 0..cols {
        let p = pivot_of_col[col];
        if p != usize::MAX {
            x[col] = m[p][cols];
        }
    }
    // Verify (cheap, and guards against elimination bugs on overdetermined
    // systems where pivoting skipped columns).
    for (row, &rhs) in a.iter().zip(b) {
        if gf.dot(row, &x) != rhs {
            return None;
        }
    }
    Some(x)
}

/// Disjoint `(&rows[a], &mut rows[b])` borrows for row elimination.
fn split_rows(rows: &mut [Vec<u16>], a: usize, b: usize) -> (&[u16], &mut Vec<u16>) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = rows.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = rows.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// Inverts a square matrix over GF(2^m); returns `None` if singular.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn invert_matrix(gf: &Gf, a: &[Vec<u16>]) -> Option<Vec<Vec<u16>>> {
    let n = a.len();
    assert!(a.iter().all(|r| r.len() == n), "matrix must be square");
    // Augment with identity.
    let mut m: Vec<Vec<u16>> = a
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.extend((0..n).map(|j| u16::from(i == j)));
            r
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        let inv = gf.inv(m[col][col]).expect("pivot nonzero");
        gf.mul_slice(&mut m[col], inv);
        for r in 0..n {
            if r != col && m[r][col] != 0 {
                let factor = m[r][col];
                let (pivot_row, target) = split_rows(&mut m, col, r);
                gf.axpy(target, factor, pivot_row);
            }
        }
    }
    Some(m.into_iter().map(|row| row[n..].to_vec()).collect())
}

/// Berlekamp–Welch decoding of an evaluation-form Reed–Solomon word.
///
/// Given distinct evaluation points `xs` and received values `ys`, recovers
/// the unique polynomial `g` of degree ≤ `d` that agrees with the received
/// word on all but at most `e_max` positions — provided such `g` exists.
/// Returns the coefficient vector of `g` (low degree first, length `d+1`),
/// or `None` when decoding fails (more than `e_max` errors, or no codeword
/// within radius).
///
/// # Panics
///
/// Panics if `xs.len() != ys.len()`, if the number of points is too small
/// (`xs.len() < d + 1 + 2*e_max` is required for unique decoding), or if
/// points repeat.
pub fn berlekamp_welch(
    gf: &Gf,
    xs: &[u16],
    ys: &[u16],
    d: usize,
    e_max: usize,
) -> Option<Vec<u16>> {
    let n = xs.len();
    assert_eq!(n, ys.len(), "points and values must align");
    assert!(
        n >= d + 1 + 2 * e_max,
        "need at least d+1+2e points for unique decoding (n={n}, d={d}, e={e_max})"
    );
    debug_assert!(
        {
            let mut sorted: Vec<u16> = xs.to_vec();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        },
        "evaluation points must be distinct"
    );

    if e_max == 0 {
        // Plain interpolation through the first d+1 points, then verify.
        let coeffs = interpolate(gf, &xs[..d + 1], &ys[..d + 1])?;
        let ok = xs
            .iter()
            .zip(ys)
            .all(|(&x, &y)| gf.poly_eval(&coeffs, x) == y);
        return ok.then_some(coeffs);
    }

    // Unknowns: Q of degree <= e_max + d (e_max + d + 1 coefficients) and
    // E of degree exactly e_max, monic (e_max unknown coefficients).
    // Constraint per point: Q(x_i) = y_i * E(x_i)
    //   => Q(x_i) - y_i * (E_low(x_i)) = y_i * x_i^e_max
    let q_terms = e_max + d + 1;
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for (&x, &y) in xs.iter().zip(ys) {
        let mut row = Vec::with_capacity(q_terms + e_max);
        let mut xp = 1u16;
        for _ in 0..q_terms {
            row.push(xp);
            xp = gf.mul(xp, x);
        }
        let mut xp = 1u16;
        for _ in 0..e_max {
            row.push(gf.mul(y, xp));
            xp = gf.mul(xp, x);
        }
        a.push(row);
        b.push(gf.mul(y, gf.pow(x, e_max as u32)));
    }
    let sol = solve_linear(gf, &a, &b)?;
    let q_poly: Vec<u16> = sol[..q_terms].to_vec();
    let mut e_poly: Vec<u16> = sol[q_terms..].to_vec();
    e_poly.push(1); // monic leading coefficient

    let (g, rem) = gf.poly_divmod(&q_poly, &e_poly);
    if rem.iter().any(|&c| c != 0) {
        return None;
    }
    let mut g = g;
    if g.len() > d + 1 && g[d + 1..].iter().any(|&c| c != 0) {
        return None;
    }
    g.resize(d + 1, 0);
    // Final sanity: the decoded polynomial must be within e_max of received.
    let errors = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| gf.poly_eval(&g, x) != y)
        .count();
    (errors <= e_max).then_some(g)
}

/// Lagrange interpolation through the given points. Returns `None` if points
/// repeat (which makes interpolation impossible).
pub(crate) fn interpolate(gf: &Gf, xs: &[u16], ys: &[u16]) -> Option<Vec<u16>> {
    let n = xs.len();
    let mut coeffs = vec![0u16; n.max(1)];
    for i in 0..n {
        // Basis polynomial l_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
        let mut basis = vec![1u16];
        let mut denom = 1u16;
        for j in 0..n {
            if i == j {
                continue;
            }
            basis = gf.poly_mul(&basis, &[xs[j], 1]); // (x + x_j) in char 2
            let diff = gf.sub(xs[i], xs[j]);
            if diff == 0 {
                return None;
            }
            denom = gf.mul(denom, diff);
        }
        let scale = gf.div(ys[i], denom)?;
        gf.axpy(&mut coeffs[..basis.len()], scale, &basis);
    }
    Some(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_simple_system() {
        let gf = Gf::new(8);
        // x + y = 5, x = 3 => y = 6 (XOR arithmetic)
        let a = vec![vec![1, 1], vec![1, 0]];
        let b = vec![5, 3];
        let x = solve_linear(&gf, &a, &b).unwrap();
        assert_eq!(x, vec![3, 6]);
    }

    #[test]
    fn solve_detects_inconsistency() {
        let gf = Gf::new(8);
        let a = vec![vec![1, 1], vec![1, 1]];
        let b = vec![5, 6];
        assert_eq!(solve_linear(&gf, &a, &b), None);
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "the matrix product reads as the textbook triple sum"
    )]
    fn invert_roundtrip() {
        let gf = Gf::new(8);
        let a = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 9, 11]];
        if let Some(inv) = invert_matrix(&gf, &a) {
            // a * inv == identity
            for i in 0..3 {
                for j in 0..3 {
                    let mut acc = 0u16;
                    for k in 0..3 {
                        acc = gf.add(acc, gf.mul(a[i][k], inv[k][j]));
                    }
                    assert_eq!(acc, u16::from(i == j), "({i},{j})");
                }
            }
        } else {
            panic!("matrix unexpectedly singular");
        }
    }

    #[test]
    fn invert_singular_returns_none() {
        let gf = Gf::new(4);
        let a = vec![vec![1, 2], vec![1, 2]];
        assert_eq!(invert_matrix(&gf, &a), None);
    }

    #[test]
    fn interpolate_recovers_polynomial() {
        let gf = Gf::new(8);
        let coeffs = vec![7u16, 13, 99]; // degree 2
        let xs: Vec<u16> = (0..5).collect();
        let ys: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
        let mut got = interpolate(&gf, &xs[..3], &ys[..3]).unwrap();
        got.resize(3, 0);
        assert_eq!(got, coeffs);
    }

    #[test]
    fn berlekamp_welch_corrects_errors() {
        let gf = Gf::new(8);
        let d = 3;
        let coeffs = vec![11u16, 22, 33, 44];
        let xs: Vec<u16> = (0..16).collect();
        let mut ys: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
        // Inject e = 6 errors; capacity is (16 - 4) / 2 = 6.
        for i in [0usize, 3, 5, 8, 11, 15] {
            ys[i] ^= 0xAB;
        }
        let got = berlekamp_welch(&gf, &xs, &ys, d, 6).expect("decodes at capacity");
        assert_eq!(got, coeffs);
    }

    #[test]
    fn berlekamp_welch_with_fewer_errors_than_emax() {
        let gf = Gf::new(8);
        let d = 2;
        let coeffs = vec![5u16, 0, 9];
        let xs: Vec<u16> = (0..11).collect();
        let mut ys: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
        ys[2] ^= 1; // single error, e_max = 4
        let got = berlekamp_welch(&gf, &xs, &ys, d, 4).expect("decodes below capacity");
        assert_eq!(got, coeffs);
    }

    #[test]
    fn berlekamp_welch_zero_errors() {
        let gf = Gf::new(4);
        let d = 1;
        let coeffs = vec![3u16, 7];
        let xs: Vec<u16> = (0..8).collect();
        let ys: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
        assert_eq!(berlekamp_welch(&gf, &xs, &ys, d, 3), Some(coeffs.clone()));
        assert_eq!(berlekamp_welch(&gf, &xs, &ys, d, 0), Some(coeffs));
    }

    #[test]
    fn berlekamp_welch_rejects_beyond_capacity() {
        let gf = Gf::new(8);
        let d = 1;
        let coeffs = vec![1u16, 1];
        let xs: Vec<u16> = (0..8).collect();
        let mut ys: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
        // 4 errors with capacity (8-2)/2 = 3: decoding must not return a
        // wrong answer silently — either None or the true polynomial is
        // impossible to guarantee, but the distance check means any answer
        // returned must be within e_max of the received word.
        for y in &mut ys[..4] {
            *y ^= 0x55;
        }
        if let Some(g) = berlekamp_welch(&gf, &xs, &ys, d, 3) {
            let errors = xs
                .iter()
                .zip(&ys)
                .filter(|&(&x, &y)| gf.poly_eval(&g, x) != y)
                .count();
            assert!(errors <= 3);
        }
    }
}
