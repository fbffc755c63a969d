//! Solver outcomes: status codes, solutions, statistics, and errors.

use std::fmt;

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point (within tolerance).
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::IterationLimit => "iteration limit",
        };
        f.write_str(s)
    }
}

/// Where a column or row (its activity variable) sits in a simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound (also used for fixed variables).
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// A snapshot of an optimal (or final) simplex basis, expressed in terms of
/// the original problem's columns and rows.
///
/// Obtained from [`Solution::basis`] and consumed by
/// [`solve_with_start`](crate::solve_with_start) or a
/// [`SolverSession`](crate::SolverSession) to warm-start a related solve.
/// A basis only makes sense for a problem with the same number of columns
/// and rows it was extracted from; the solver falls back to a cold start
/// when the shapes disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Status per problem column, in column order.
    pub cols: Vec<BasisStatus>,
    /// Status per problem row (the row's activity variable), in row order.
    pub rows: Vec<BasisStatus>,
}

/// Counters describing the work a solve performed.
///
/// Also used in aggregated form (e.g. by
/// [`SolverSession::stats`](crate::SolverSession::stats) or the scheduling
/// layers above), where the counters sum over `solves` individual solves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Total simplex iterations (phase 1 + phase 2).
    pub iterations: u64,
    /// Iterations spent in phase 1 (attaining feasibility).
    pub phase1_iterations: u64,
    /// Number of basis refactorizations performed (sum of the per-reason
    /// counters below).
    pub refactorizations: u64,
    /// Refactorizations forced by the eta file reaching the fixed
    /// `refactor_interval` cap.
    pub refactor_interval: u64,
    /// Refactorizations triggered by the cost model (eta-apply work
    /// outgrew the amortized factor cost) before the interval cap hit.
    pub refactor_cost_model: u64,
    /// Refactorizations that are part of the algorithm itself: solve-entry
    /// factors on the cold/warm/dual install paths, claimed-optimal
    /// verification, and zero-pivot retries. A reused factorization avoids
    /// the entry share of these.
    pub refactor_forced_fallback: u64,
    /// Basis repairs performed because a factorization attempt hit a
    /// numerically singular basis (counts repairs, not whole
    /// refactorizations; the repaired factor lands in one of the reason
    /// counters above).
    pub refactor_forced_singular: u64,
    /// Solve entries that reused the previous solve's factorization (and
    /// live basis state) instead of refactorizing.
    pub lu_reuse_hits: u64,
    /// Reuse attempts rejected — by the residual spot-check or by a failed
    /// warm continuation — and restarted through the install ladder.
    pub refactor_reuse_rejected: u64,
    /// Product-form factorization updates applied on structural edits
    /// (one per bordering eta appended by `add_rows`).
    pub lu_updates: u64,
    /// Number of degenerate pivots (zero step length).
    pub degenerate_pivots: u64,
    /// Number of Devex reference-framework resets forced by weight blowup.
    pub devex_resets: u64,
    /// Number of bound flips (nonbasic variable moved between its bounds
    /// without a basis change).
    pub bound_flips: u64,
    /// Number of LP solves aggregated into these counters (1 for the stats
    /// of a single [`Solution`]).
    pub solves: u64,
    /// Solves that started from a supplied basis and kept it.
    pub warm_starts_accepted: u64,
    /// Solves that were offered a basis but fell back to a cold start
    /// (shape mismatch or numerical failure during installation).
    pub warm_start_fallbacks: u64,
    /// FTRAN kernel runs (one per simplex iteration that reached the ratio
    /// test).
    pub ftran_ops: u64,
    /// Summed nonzero count of FTRAN results; the full dimension is charged
    /// when a run fell back to dense. `ftran_nnz / ftran_ops` is the mean
    /// pivot-column density.
    pub ftran_nnz: u64,
    /// FTRAN runs that abandoned sparse pattern tracking because the
    /// symbolic reach crossed the density threshold.
    pub ftran_dense_fallbacks: u64,
    /// Pivotal-row BTRAN kernel runs (one per basis-changing pivot).
    pub btran_ops: u64,
    /// Summed nonzero count of pivotal-row BTRAN results (the density of
    /// ρ = B⁻ᵀ e_r).
    pub btran_nnz: u64,
    /// Pivotal-row BTRAN runs that abandoned sparse pattern tracking.
    pub btran_dense_fallbacks: u64,
    /// Summed count of nonbasic columns touched by pivotal-row pricing
    /// updates (the support of α_r = ρᵀA net of basic/fixed columns).
    pub pivot_row_nnz: u64,
    /// Dual simplex pivots (bound/RHS re-solves from a still-dual-feasible
    /// basis). Also included in `iterations`.
    pub dual_iterations: u64,
    /// Nonbasic boxed variables flipped between their bounds by the dual
    /// ratio test (no basis change). Primal flips are in `bound_flips`.
    pub dual_bound_flips: u64,
    /// Nonbasic columns whose reduced cost a primal pricing scan examined.
    /// Full Devex scans and candidate-list refreshes charge every eligible
    /// column (one that could enter); a Bland pick charges one column;
    /// candidate-list minor iterations charge every sublist entry,
    /// eligible or not.
    pub pricing_candidates_scanned: u64,
    /// Full refreshes of the partial-pricing candidate list (each one is a
    /// complete eligibility scan).
    pub partial_refreshes: u64,
    /// Runtime-sanitizer sweeps performed (`WS_SANITIZE`; each sweep
    /// re-verifies the basic solution against the standardized system,
    /// Devex weight positivity, and eta-file/basis agreement).
    pub sanitizer_checks: u64,
    /// Individual sanitizer check failures observed across those sweeps
    /// (0 on a numerically healthy solve).
    pub sanitizer_violations: u64,
}

impl SolveStats {
    /// Iterations spent in phase 2 (optimizing after feasibility).
    pub fn phase2_iterations(&self) -> u64 {
        self.iterations - self.phase1_iterations
    }

    /// Accumulates `other` into `self`, field by field.
    pub fn merge(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.refactorizations += other.refactorizations;
        self.refactor_interval += other.refactor_interval;
        self.refactor_cost_model += other.refactor_cost_model;
        self.refactor_forced_fallback += other.refactor_forced_fallback;
        self.refactor_forced_singular += other.refactor_forced_singular;
        self.lu_reuse_hits += other.lu_reuse_hits;
        self.refactor_reuse_rejected += other.refactor_reuse_rejected;
        self.lu_updates += other.lu_updates;
        self.degenerate_pivots += other.degenerate_pivots;
        self.devex_resets += other.devex_resets;
        self.bound_flips += other.bound_flips;
        self.solves += other.solves;
        self.warm_starts_accepted += other.warm_starts_accepted;
        self.warm_start_fallbacks += other.warm_start_fallbacks;
        self.ftran_ops += other.ftran_ops;
        self.ftran_nnz += other.ftran_nnz;
        self.ftran_dense_fallbacks += other.ftran_dense_fallbacks;
        self.btran_ops += other.btran_ops;
        self.btran_nnz += other.btran_nnz;
        self.btran_dense_fallbacks += other.btran_dense_fallbacks;
        self.pivot_row_nnz += other.pivot_row_nnz;
        self.dual_iterations += other.dual_iterations;
        self.dual_bound_flips += other.dual_bound_flips;
        self.pricing_candidates_scanned += other.pricing_candidates_scanned;
        self.partial_refreshes += other.partial_refreshes;
        self.sanitizer_checks += other.sanitizer_checks;
        self.sanitizer_violations += other.sanitizer_violations;
    }
}

/// The result of an LP solve.
///
/// `x` and `duals` are meaningful only when `status` is
/// [`Status::Optimal`]; for [`Status::Infeasible`] they hold the final
/// phase-1 iterate (useful for diagnosing which constraints conflict).
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value in the problem's own direction (includes any offset).
    pub objective: f64,
    /// Primal values, one per problem column.
    pub x: Vec<f64>,
    /// Dual values (simplex multipliers), one per problem row, in the
    /// *minimization* convention used internally: for a maximization problem
    /// the sign is flipped back so that duals price the original objective.
    pub duals: Vec<f64>,
    /// The final simplex basis, suitable for warm-starting a related solve.
    /// `None` for solvers that do not maintain an explicit basis (e.g. the
    /// dense oracle).
    pub basis: Option<Basis>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// True if the solve proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

/// Errors that prevent a solve from producing a meaningful [`Solution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The model is structurally invalid (e.g. crossed bounds discovered at
    /// standardization time).
    InvalidModel(String),
    /// Numerical failure that repeated refactorization could not repair.
    Numerical(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            SolveError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
        assert_eq!(Status::IterationLimit.to_string(), "iteration limit");
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = SolveStats {
            iterations: 10,
            phase1_iterations: 4,
            refactorizations: 2,
            refactor_interval: 1,
            refactor_cost_model: 0,
            refactor_forced_fallback: 1,
            refactor_forced_singular: 0,
            lu_reuse_hits: 1,
            refactor_reuse_rejected: 0,
            lu_updates: 2,
            degenerate_pivots: 1,
            devex_resets: 1,
            bound_flips: 3,
            solves: 1,
            warm_starts_accepted: 1,
            warm_start_fallbacks: 0,
            ftran_ops: 10,
            ftran_nnz: 55,
            ftran_dense_fallbacks: 1,
            btran_ops: 7,
            btran_nnz: 21,
            btran_dense_fallbacks: 2,
            pivot_row_nnz: 70,
            dual_iterations: 4,
            dual_bound_flips: 2,
            pricing_candidates_scanned: 120,
            partial_refreshes: 3,
            sanitizer_checks: 2,
            sanitizer_violations: 0,
        };
        let b = SolveStats {
            iterations: 5,
            phase1_iterations: 0,
            refactorizations: 1,
            refactor_interval: 0,
            refactor_cost_model: 1,
            refactor_forced_fallback: 0,
            refactor_forced_singular: 1,
            lu_reuse_hits: 0,
            refactor_reuse_rejected: 1,
            lu_updates: 1,
            degenerate_pivots: 0,
            devex_resets: 2,
            bound_flips: 0,
            solves: 1,
            warm_starts_accepted: 0,
            warm_start_fallbacks: 1,
            ftran_ops: 5,
            ftran_nnz: 12,
            ftran_dense_fallbacks: 0,
            btran_ops: 5,
            btran_nnz: 9,
            btran_dense_fallbacks: 0,
            pivot_row_nnz: 30,
            dual_iterations: 1,
            dual_bound_flips: 0,
            pricing_candidates_scanned: 40,
            partial_refreshes: 1,
            sanitizer_checks: 1,
            sanitizer_violations: 1,
        };
        a.merge(&b);
        assert_eq!(a.iterations, 15);
        assert_eq!(a.refactorizations, 3);
        assert_eq!(a.refactor_interval, 1);
        assert_eq!(a.refactor_cost_model, 1);
        assert_eq!(a.refactor_forced_fallback, 1);
        assert_eq!(a.refactor_forced_singular, 1);
        assert_eq!(a.lu_reuse_hits, 1);
        assert_eq!(a.refactor_reuse_rejected, 1);
        assert_eq!(a.lu_updates, 3);
        assert_eq!(a.devex_resets, 3);
        assert_eq!(a.phase1_iterations, 4);
        assert_eq!(a.phase2_iterations(), 11);
        assert_eq!(a.solves, 2);
        assert_eq!(a.warm_starts_accepted, 1);
        assert_eq!(a.warm_start_fallbacks, 1);
        assert_eq!(a.ftran_ops, 15);
        assert_eq!(a.ftran_nnz, 67);
        assert_eq!(a.ftran_dense_fallbacks, 1);
        assert_eq!(a.btran_ops, 12);
        assert_eq!(a.btran_nnz, 30);
        assert_eq!(a.btran_dense_fallbacks, 2);
        assert_eq!(a.pivot_row_nnz, 100);
        assert_eq!(a.dual_iterations, 5);
        assert_eq!(a.dual_bound_flips, 2);
        assert_eq!(a.pricing_candidates_scanned, 160);
        assert_eq!(a.partial_refreshes, 4);
        assert_eq!(a.sanitizer_checks, 3);
        assert_eq!(a.sanitizer_violations, 1);
    }

    #[test]
    fn error_display() {
        let e = SolveError::InvalidModel("x".into());
        assert!(e.to_string().contains("invalid model"));
        let e = SolveError::Numerical("y".into());
        assert!(e.to_string().contains("numerical"));
    }
}
