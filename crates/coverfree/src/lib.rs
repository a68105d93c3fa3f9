//! `(r, δ)`-cover-free set families w.r.t. a constraint collection `H`
//! (Definition 7, Lemma 4.3 and Appendix A of the paper).
//!
//! The resilient routing scheme assigns each super-message `(u, j)` a
//! receiver set `A_{(u,j)} ⊆ [N]`. Cover-freeness w.r.t. the collection
//! `H = {INind(u)} ∪ {OUTind(v)}` guarantees that for every constraint
//! tuple, each member set keeps at least a `(1-δ)` fraction of its elements
//! outside the union of the other members — which bounds the positions lost
//! to the `InLoad`/`OutLoad` > 1 filters.
//!
//! **Construction** (the paper's randomized construction): partition `[N]`
//! into `L` consecutive groups and let every set pick one uniform element
//! per group. **Derandomization substitute**: instead of Harris'
//! deterministic LLL we verify the constructed family against `H` and retry
//! over a fixed public seed sequence; all nodes run the identical procedure
//! and therefore compute the identical family with no communication. The
//! expected number of tries is `O(1)` by the paper's union bound; the
//! verifier makes the procedure Las-Vegas-deterministic.

#![expect(
    clippy::needless_range_loop,
    reason = "dense linear-algebra and protocol code walks several same-length arrays \
              by explicit index; iterator rewrites would obscure the paper's formulas"
)]
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;

/// Parameters of a cover-free family construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverFreeParams {
    /// Ground set size `N` (elements are `0..n`).
    pub n: usize,
    /// Number of sets `m` in the family.
    pub m: usize,
    /// Cover parameter `r`: tuples in `H` have at most `r + 1` members.
    pub r: usize,
    /// Number of groups = the size `L` of every set.
    pub set_size: usize,
}

impl CoverFreeParams {
    /// The paper's sizing (Lemma 4.3): `L = ⌊δN / (4(r+1))⌋` with group size
    /// `⌊4(r+1)/δ⌋`, expressed here with `delta` as a rational `num/den`.
    ///
    /// Returns `None` when the resulting set size would be zero.
    pub fn paper_sizing(
        n: usize,
        m: usize,
        r: usize,
        delta_num: usize,
        delta_den: usize,
    ) -> Option<Self> {
        let l = n * delta_num / (4 * (r + 1) * delta_den);
        (l > 0).then_some(Self {
            n,
            m,
            r,
            set_size: l,
        })
    }

    /// Group size implied by `n` and `set_size` (elements per group).
    pub fn group_size(&self) -> usize {
        self.n / self.set_size
    }

    fn validate(&self) -> Result<(), CoverFreeError> {
        if self.set_size == 0 || self.m == 0 || self.n == 0 {
            return Err(CoverFreeError::Degenerate);
        }
        if self.group_size() == 0 {
            return Err(CoverFreeError::GroupTooSmall {
                n: self.n,
                set_size: self.set_size,
            });
        }
        Ok(())
    }
}

/// Errors from family construction.
#[derive(Debug, Clone, PartialEq)]
pub enum CoverFreeError {
    /// Zero-sized parameter.
    Degenerate,
    /// More groups requested than ground elements.
    GroupTooSmall {
        /// Ground set size.
        n: usize,
        /// Requested set size.
        set_size: usize,
    },
    /// No seed within the budget produced a family meeting the δ bound.
    SeedBudgetExhausted {
        /// Number of seeds tried.
        tries: u64,
        /// Best (smallest) worst-case cover fraction observed. Verification
        /// stops scanning a candidate once it exceeds δ, so this is a lower
        /// bound on each rejected candidate's true fraction — a diagnostic,
        /// not an exact measurement.
        best_fraction: f64,
    },
}

impl fmt::Display for CoverFreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverFreeError::Degenerate => write!(f, "degenerate cover-free parameters"),
            CoverFreeError::GroupTooSmall { n, set_size } => {
                write!(f, "set size {set_size} too large for ground set {n}")
            }
            CoverFreeError::SeedBudgetExhausted {
                tries,
                best_fraction,
            } => write!(
                f,
                "no verified family within {tries} seeds (best fraction {best_fraction:.3})"
            ),
        }
    }
}

impl Error for CoverFreeError {}

/// A constructed and verified cover-free family.
///
/// # Examples
///
/// ```
/// use bdclique_coverfree::{CoverFreeFamily, CoverFreeParams};
///
/// let params = CoverFreeParams { n: 256, m: 16, r: 1, set_size: 32 };
/// // Constraints: pairs of sets that must not cover each other.
/// let h: Vec<Vec<u32>> = (0..8).map(|i| vec![2 * i, 2 * i + 1]).collect();
/// let fam = CoverFreeFamily::build(params, &h, 0.5, 0, 64).unwrap();
/// assert_eq!(fam.set(0).len(), 32);
/// assert!(fam.worst_cover_fraction() <= 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct CoverFreeFamily {
    params: CoverFreeParams,
    /// `choices[i][g]` = offset of set `i`'s element within group `g`.
    choices: Vec<Vec<u32>>,
    worst_fraction: f64,
    seed_used: u64,
}

impl CoverFreeFamily {
    /// Builds a family with the randomized construction, verifying the
    /// `(r, δ)` property w.r.t. `h` and retrying over seeds
    /// `seed, seed+1, …` (at most `max_tries`).
    ///
    /// Every tuple of `h` contains indices `< m`; tuples longer than `r + 1`
    /// are rejected by a panic in debug builds and verified as-is otherwise.
    ///
    /// # Errors
    ///
    /// Parameter validation errors, or
    /// [`CoverFreeError::SeedBudgetExhausted`] when no seed verifies.
    pub fn build(
        params: CoverFreeParams,
        h: &[Vec<u32>],
        delta: f64,
        seed: u64,
        max_tries: u64,
    ) -> Result<Self, CoverFreeError> {
        params.validate()?;
        debug_assert!(
            h.iter().all(|t| t.len() <= params.r + 1),
            "constraint tuple exceeds r+1 members"
        );
        debug_assert!(
            h.iter().flatten().all(|&i| (i as usize) < params.m),
            "constraint references set index out of range"
        );
        let mut best_fraction = f64::INFINITY;
        for attempt in 0..max_tries.max(1) {
            let candidate = Self::construct(params, seed.wrapping_add(attempt));
            let worst = candidate_worst_fraction(&candidate, params, h, delta);
            if worst <= delta {
                return Ok(Self {
                    params,
                    choices: candidate,
                    worst_fraction: worst,
                    seed_used: seed.wrapping_add(attempt),
                });
            }
            best_fraction = best_fraction.min(worst);
        }
        Err(CoverFreeError::SeedBudgetExhausted {
            tries: max_tries.max(1),
            best_fraction,
        })
    }

    fn construct(params: CoverFreeParams, seed: u64) -> Vec<Vec<u32>> {
        let g = params.group_size() as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00c0_ffee_5eed);
        (0..params.m)
            .map(|_| (0..params.set_size).map(|_| rng.gen_range(0..g)).collect())
            .collect()
    }

    /// The parameters this family was built with.
    pub fn params(&self) -> CoverFreeParams {
        self.params
    }

    /// The seed that produced the verified family.
    pub fn seed_used(&self) -> u64 {
        self.seed_used
    }

    /// The measured worst cover fraction over all constraints (≤ the δ the
    /// family was built with). Protocols use this measured value in their
    /// decode-margin accounting.
    pub fn worst_cover_fraction(&self) -> f64 {
        self.worst_fraction
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.params.m
    }

    /// Whether the family has no sets.
    pub fn is_empty(&self) -> bool {
        self.params.m == 0
    }

    /// The elements of set `i`, in increasing order (one per group).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&self, i: usize) -> Vec<u32> {
        let g = self.params.group_size() as u32;
        self.choices[i]
            .iter()
            .enumerate()
            .map(|(grp, &off)| grp as u32 * g + off)
            .collect()
    }

    /// The element set `i` picks inside group `grp`.
    pub fn element(&self, i: usize, grp: usize) -> u32 {
        let g = self.params.group_size() as u32;
        grp as u32 * g + self.choices[i][grp]
    }
}

/// Worst-case fraction of a member set covered by the union of the other
/// members, over all `(tuple, member)` pairs of `h`.
///
/// Bails out as soon as the running worst exceeds `bail_above`: a candidate
/// already over the δ bound is rejected whatever the remaining tuples say,
/// and on dense constraint collections (e.g. the `k ≈ √n` waves the router
/// probes before falling back to the unit engine) the full scan is the
/// dominant cost of discovering infeasibility. Pass `f64::INFINITY` for an
/// exact measurement.
fn candidate_worst_fraction(
    choices: &[Vec<u32>],
    params: CoverFreeParams,
    h: &[Vec<u32>],
    bail_above: f64,
) -> f64 {
    let l = params.set_size;
    let mut worst = 0f64;
    for tuple in h {
        for (a_pos, &a) in tuple.iter().enumerate() {
            let mut covered = 0usize;
            for grp in 0..l {
                let mine = choices[a as usize][grp];
                let hit = tuple
                    .iter()
                    .enumerate()
                    .any(|(b_pos, &b)| b_pos != a_pos && choices[b as usize][grp] == mine);
                if hit {
                    covered += 1;
                }
            }
            worst = worst.max(covered as f64 / l as f64);
            if worst > bail_above {
                return worst;
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disjoint_pairs_h(m: usize) -> Vec<Vec<u32>> {
        (0..m / 2)
            .map(|i| vec![2 * i as u32, 2 * i as u32 + 1])
            .collect()
    }

    #[test]
    fn builds_and_verifies_simple_family() {
        let params = CoverFreeParams {
            n: 128,
            m: 8,
            r: 1,
            set_size: 16,
        };
        let fam = CoverFreeFamily::build(params, &disjoint_pairs_h(8), 0.5, 0, 32).unwrap();
        assert_eq!(fam.len(), 8);
        for i in 0..8 {
            let s = fam.set(i);
            assert_eq!(s.len(), 16);
            // One element per group, in order.
            for (grp, &e) in s.iter().enumerate() {
                assert!(e as usize >= grp * 8 && (e as usize) < (grp + 1) * 8);
            }
        }
    }

    #[test]
    fn verified_fraction_is_honest() {
        let params = CoverFreeParams {
            n: 512,
            m: 32,
            r: 3,
            set_size: 32,
        };
        let h: Vec<Vec<u32>> = (0..8).map(|i| (4 * i..4 * i + 4).collect()).collect();
        let fam = CoverFreeFamily::build(params, &h, 0.5, 7, 64).unwrap();
        // Recheck the reported fraction independently (exact, no bail).
        let measured = candidate_worst_fraction(&fam.choices, params, &h, f64::INFINITY);
        assert!((measured - fam.worst_cover_fraction()).abs() < 1e-12);
        assert!(measured <= 0.5);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let params = CoverFreeParams {
            n: 128,
            m: 8,
            r: 1,
            set_size: 16,
        };
        let h = disjoint_pairs_h(8);
        let a = CoverFreeFamily::build(params, &h, 0.5, 3, 16).unwrap();
        let b = CoverFreeFamily::build(params, &h, 0.5, 3, 16).unwrap();
        assert_eq!(a.seed_used(), b.seed_used());
        for i in 0..8 {
            assert_eq!(a.set(i), b.set(i));
        }
    }

    #[test]
    fn impossible_delta_exhausts_budget() {
        // Two identical constraint members force nonzero overlap with group
        // size 1 (every set = all of [n]): delta 0 is unachievable.
        let params = CoverFreeParams {
            n: 16,
            m: 2,
            r: 1,
            set_size: 16, // group size 1 => all sets identical
        };
        let h = vec![vec![0u32, 1]];
        let err = CoverFreeFamily::build(params, &h, 0.01, 0, 4).unwrap_err();
        assert!(matches!(err, CoverFreeError::SeedBudgetExhausted { .. }));
    }

    #[test]
    fn paper_sizing_matches_formula() {
        // N = 1024, r+1 = 4, delta = 1/2: L = 1024 * 1 / (4*4*2) = 32.
        let p = CoverFreeParams::paper_sizing(1024, 64, 3, 1, 2).unwrap();
        assert_eq!(p.set_size, 32);
        assert_eq!(p.group_size(), 32);
        assert!(CoverFreeParams::paper_sizing(16, 4, 63, 1, 2).is_none());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let bad = CoverFreeParams {
            n: 8,
            m: 4,
            r: 1,
            set_size: 16,
        };
        assert!(matches!(
            CoverFreeFamily::build(bad, &[], 0.5, 0, 4),
            Err(CoverFreeError::GroupTooSmall { .. })
        ));
    }

    #[test]
    fn empty_h_always_verifies() {
        let params = CoverFreeParams {
            n: 64,
            m: 4,
            r: 0,
            set_size: 8,
        };
        let fam = CoverFreeFamily::build(params, &[], 0.0, 0, 1).unwrap();
        assert_eq!(fam.worst_cover_fraction(), 0.0);
    }

    #[test]
    fn expected_overlap_matches_theory() {
        // For r = 1 (pairs) and group size g, the expected per-group
        // collision probability is 1/g; verify the measured fraction is in
        // the right ballpark (< 3/g with sets of 64 groups).
        let params = CoverFreeParams {
            n: 1024,
            m: 16,
            r: 1,
            set_size: 64, // g = 16
        };
        let h = disjoint_pairs_h(16);
        let fam = CoverFreeFamily::build(params, &h, 3.0 / 16.0, 0, 64).unwrap();
        assert!(fam.worst_cover_fraction() <= 3.0 / 16.0);
    }
}
