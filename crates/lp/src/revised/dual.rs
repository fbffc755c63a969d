//! Dual simplex re-solve path for bound/RHS-only edits.
//!
//! Every RET probe, δ-growth step, and column-generation master re-aim
//! mutates *only* bounds (row ranges live on activity-column bounds in the
//! standardized form), which leaves the previous optimal basis **dual
//! feasible**: the reduced costs still price correctly, only some basic
//! values fall outside their (new) bounds. The primal warm path repairs
//! that with a bound-shift phase 1 followed by a full phase 2; the dual
//! simplex instead drives the primal infeasibilities out directly while
//! dual feasibility is *maintained*, which typically needs a handful of
//! pivots where the primal repair needs dozens.
//!
//! The path reuses the engine's existing machinery end to end: the sparse
//! pivotal row (`pivot_row`: one BTRAN plus the CSR row mirror) for the
//! dual ratio test, the bound-flip ratio test (boxed nonbasic variables
//! that cannot block are flipped in bulk through one accumulated FTRAN),
//! the entering column's sparse FTRAN, and the shared `apply_pivot` /
//! `update_reduced_and_weights` pair — the dual reduced-cost update is
//! algebraically the same pivotal-row formula the primal uses, and it
//! consumes the row the ratio test already computed. The leaving row comes
//! from a maintained set of the infeasible basis positions, so a pivot
//! costs what it changed rather than a scan of every row.
//!
//! **The PR 1 warm-path guarantee is preserved**: this path can only change
//! the work counters, never the answer. Every exit that is not a verified
//! optimum — dual infeasibility at installation, a dual ray (no eligible
//! entering column), numerical disagreement, a stalled loop — returns
//! `Err(())`, and the caller falls back to the primal warm ladder and
//! ultimately the cold solve, whose phase 1 remains the only infeasibility
//! proof. A converged dual loop still finishes through the ordinary primal
//! `iterate`, so the claimed optimum is re-verified against exactly
//! recomputed reduced costs before it is extracted.

use super::{for_each_entry, ColKind, Engine, PhaseOutcome, VarState};
use crate::solution::{Basis, BasisStatus, Solution, Status};

impl Engine {
    /// Attempts a dual simplex re-solve from `warm`, which the caller
    /// certifies is this engine's own last optimal basis with only
    /// bounds/RHS edited since. `Err(())` means the attempt was abandoned
    /// (never that the problem is infeasible) and the ordinary warm/cold
    /// ladder should run.
    pub(super) fn attempt_dual(&mut self, warm: &Basis) -> Result<Solution, ()> {
        if warm.cols.len() != self.std.nstruct || warm.rows.len() != self.std.nrows {
            return Err(());
        }
        let m = self.std.nrows;

        // Install the basis exactly as the primal warm path would: park
        // nonbasics at whatever the *current* bounds allow, collect basics.
        let mut basic: Vec<usize> = Vec::with_capacity(m);
        for j in 0..self.std.nstruct + m {
            let status = if j < self.std.nstruct {
                warm.cols[j]
            } else {
                warm.rows[j - self.std.nstruct]
            };
            if status == BasisStatus::Basic {
                basic.push(j);
                continue;
            }
            self.park_nonbasic(j, status);
        }
        // An own-optimal basis has exactly m basic columns; anything else
        // contradicts the caller's provenance claim.
        if basic.len() != m {
            return Err(());
        }
        self.basis = basic;
        for pos in 0..m {
            let j = self.basis[pos];
            self.state[j] = VarState::Basic(pos as u32);
        }
        if self.refactorize(super::RefactorReason::Forced).is_err() {
            return Err(());
        }
        // Factorization repair swaps dependent columns for reopened
        // artificials; an artificial in the basis breaks the dual argument.
        for &j in &self.basis {
            if self.std.kind[j] == ColKind::Artificial {
                return Err(());
            }
        }

        // Phase-2 costs, then verify the basis still prices dual feasible
        // (re-parking a nonbasic on the other side of its edited bounds
        // breaks the required reduced-cost sign).
        for j in 0..self.std.ncols() {
            if self.std.kind[j] != ColKind::Artificial {
                self.cost[j] = self.std.cost[j];
            }
        }
        self.recompute_reduced();
        let dtol = self.cfg.opt_tol;
        for j in 0..self.std.ncols() {
            let ok = match self.state[j] {
                VarState::Basic(_) | VarState::Fixed => true,
                VarState::AtLower => self.d[j] >= -dtol,
                VarState::AtUpper => self.d[j] <= dtol,
                VarState::Free => self.d[j].abs() <= dtol,
            };
            if !ok {
                return Err(());
            }
        }

        self.bland = false;
        self.degen_run = 0;
        self.dual_loop()?;

        // Exact finish: the dual loop restored primal feasibility under
        // *maintained* reduced costs; run the primal loop once so the
        // optimum is verified against exactly recomputed ones (it prices,
        // refactorizes, re-prices — and cleans up any residual eligible
        // columns the drift hid). Anything but a verified optimum falls
        // back to the primal ladder for the canonical answer.
        match self.iterate(false).map_err(|_| ())? {
            PhaseOutcome::Optimal => {
                self.stats.warm_starts_accepted = 1;
                Ok(self.extract(Status::Optimal))
            }
            PhaseOutcome::Unbounded | PhaseOutcome::IterationLimit => Err(()),
        }
    }

    /// The dual pivot loop: repeatedly picks the most-violated basic value,
    /// runs the dual (bound-flip) ratio test over the pivotal row, and
    /// exchanges it against the blocking nonbasic column. Returns `Ok(())`
    /// when no basic value violates its bounds (primal feasibility), and
    /// `Err(())` on a dual ray, numerical disagreement, or a stalled loop —
    /// all of which the caller converts into a primal fallback.
    /// (`pub(super)` so the factorization-reuse entry in `revised.rs` can
    /// drive the same loop.)
    pub(super) fn dual_loop(&mut self) -> Result<(), ()> {
        let m = self.std.nrows;
        let ftol = self.cfg.feas_tol;
        let ptol = self.cfg.pivot_tol;
        // A bound/RHS re-solve that needs more than a few sweeps of the
        // basis is not winning anything over the primal repair — stop
        // burning work and let the fallback run.
        let cap = self.stats.iterations + 4 * m as u64 + 100;
        self.rebuild_infeasible();
        loop {
            if self.stats.iterations >= self.cfg.max_iterations || self.stats.iterations >= cap {
                return Err(());
            }
            if let Some(reason) = self.cadence_refactor_due() {
                self.refactorize(reason).map_err(|_| ())?;
                self.recompute_reduced();
                self.rebuild_infeasible();
            }

            // Leaving row: the largest bound violation among basic values,
            // ties to the lowest position — the choice of an ascending scan
            // over every position.
            let mut best: Option<(usize, f64)> = None;
            for &pc in self.dual_infeas.members() {
                let pos = pc as usize;
                let w = self.violation(pos);
                if best.is_none_or(|(bp, bw)| w.total_cmp(&bw).then(bp.cmp(&pos)).is_gt()) {
                    best = Some((pos, w));
                }
            }
            let Some((r, viol)) = best else {
                return Ok(()); // primal feasible
            };
            let leaving = self.basis[r];
            let above = self.xb[r] - self.std.upper[leaving] > 0.0;
            // `s` orients the dual ratio test: +1 when the leaving value
            // sits above its upper bound (it will park AtUpper), -1 below
            // the lower bound (parks AtLower).
            let s = if above { 1.0 } else { -1.0 };
            let target = if above {
                self.std.upper[leaving]
            } else {
                self.std.lower[leaving]
            };

            // Pivotal row of r, computed once: the ratio test reads it here
            // and the reduced-cost update consumes it after the pivot.
            self.pivot_row(r, usize::MAX);

            // Dual ratio candidates: nonbasic columns whose reduced cost
            // shrinks toward zero as the r-th dual price moves in the
            // healing direction.
            let mut cands = std::mem::take(&mut self.dual_cols);
            cands.clear();
            for &(jc, alpha) in &self.row {
                if alpha.abs() <= ptol {
                    continue;
                }
                let sa = s * alpha;
                let ok = match self.state[jc as usize] {
                    VarState::AtLower => sa > ptol,
                    VarState::AtUpper => sa < -ptol,
                    VarState::Free => true,
                    VarState::Basic(_) | VarState::Fixed => false,
                };
                if ok {
                    cands.push((jc, alpha));
                }
            }
            if cands.is_empty() {
                // Dual ray. For a genuinely infeasible edit this is the
                // expected exit — but it is NOT a proof (only the cold
                // phase 1 is), so hand the instance to the fallback ladder.
                self.dual_cols = cands;
                return Err(());
            }

            // Bound-flip ratio test. Candidates ordered by dual ratio
            // (ties: larger pivot first, then lower column index, all via
            // total orders so the choice is deterministic); boxed
            // candidates that cannot absorb the violation are flipped to
            // their other bound and the walk continues, the first blocking
            // candidate enters.
            let d = &self.d;
            cands.sort_unstable_by(|a, b| {
                let ra = super::pos_or_zero(d[a.0 as usize] / (s * a.1));
                let rb = super::pos_or_zero(d[b.0 as usize] / (s * b.1));
                ra.total_cmp(&rb)
                    .then(b.1.abs().total_cmp(&a.1.abs()))
                    .then(a.0.cmp(&b.0))
            });
            let mut remaining = viol;
            let mut entering: Option<(usize, f64)> = None;
            let mut flips = std::mem::take(&mut self.dual_order);
            flips.clear();
            for &(jc, alpha) in &cands {
                let j = jc as usize;
                let lo = self.std.lower[j];
                let up = self.std.upper[j];
                let boxed = matches!(self.state[j], VarState::AtLower | VarState::AtUpper)
                    && lo.is_finite()
                    && up.is_finite()
                    && lo < up;
                // Flipping an eligible boxed candidate always moves xb[r]
                // toward its target by |alpha| * range; flip while the
                // violation stays strictly positive, otherwise enter.
                if boxed && remaining - alpha.abs() * (up - lo) > ftol {
                    remaining -= alpha.abs() * (up - lo);
                    flips.push(jc);
                    continue;
                }
                entering = Some((j, alpha));
                break;
            }
            self.dual_cols = cands;
            let Some((q, _alpha_q)) = entering else {
                // Every candidate flipped without any of them blocking:
                // the ratio test degenerated, abandon the attempt.
                self.dual_order = flips;
                return Err(());
            };

            // Apply the flips through one accumulated FTRAN:
            // xb -= B^-1 (sum_j a_j * delta_j).
            if !flips.is_empty() {
                let mut rhs = std::mem::take(&mut self.ftran_rhs);
                rhs.clear();
                for &jc in &flips {
                    let j = jc as usize;
                    let (lo, up) = (self.std.lower[j], self.std.upper[j]);
                    let (newv, st) = match self.state[j] {
                        VarState::AtLower => (up, VarState::AtUpper),
                        _ => (lo, VarState::AtLower),
                    };
                    let delta = newv - self.xval[j];
                    self.xval[j] = newv;
                    self.state[j] = st;
                    self.refresh_eligible(j);
                    let (rows, vals) = self.std.a.col(j);
                    for (&row, &v) in rows.iter().zip(vals) {
                        rhs.add(row, v * delta);
                    }
                }
                if !rhs.is_dense() {
                    rhs.sort_pattern();
                }
                self.ftran_loaded(rhs);
                let w = std::mem::take(&mut self.ftran_w);
                for_each_entry(&w, |pos, wv| {
                    // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                    if wv != 0.0 {
                        self.xb[pos] -= wv;
                        self.refresh_infeasible(pos);
                    }
                });
                self.ftran_w = w;
                self.stats.dual_bound_flips += flips.len() as u64;
            }
            self.dual_order = flips;

            // Entering column through the ordinary sparse FTRAN; from here
            // the pivot is exactly a primal pivot with a known leaving row.
            self.ftran_entering(q);
            let w = std::mem::take(&mut self.ftran_w);
            let wr = w.values[r];
            if wr.abs() <= ptol {
                // The row view (rho . a_q) said this pivot is usable but
                // the column view disagrees: numerics too shaky for a
                // warm path that must never change answers.
                self.ftran_w = w;
                return Err(());
            }
            let dir = match self.state[q] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::Free => {
                    if (self.xb[r] - target) / wr > 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VarState::Basic(_) | VarState::Fixed => {
                    self.ftran_w = w;
                    return Err(());
                }
            };
            // xb[r] moves by -wr * dir * step; land it on the violated
            // bound. Rounding can push the quotient fractionally negative
            // on a degenerate pivot — clamp, the pivot still re-bases.
            let step = super::pos_or_zero((self.xb[r] - target) / (wr * dir));
            self.update_reduced_and_weights(q, r, wr);
            self.apply_pivot(q, dir, r, step, &w);
            // The pivot moved the basic values on w's support, which
            // includes the re-based position r (|w[r]| > ptol).
            for_each_entry(&w, |pos, wp| {
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                if wp != 0.0 {
                    self.refresh_infeasible(pos);
                }
            });
            self.ftran_w = w;
            #[cfg(debug_assertions)]
            {
                self.debug_invariants();
                debug_assert!(
                    self.dual_infeas
                        .is_exactly(|pos| self.violation(pos) > self.cfg.feas_tol),
                    "infeasible-row set differs from a fresh violation scan"
                );
            }
            self.maybe_sanitize();
            if step <= ftol * 1e-2 {
                self.stats.degenerate_pivots += 1;
            }
            self.stats.iterations += 1;
            self.stats.dual_iterations += 1;
        }
    }

    /// Bound violation of the basic value at position `pos` (positive when
    /// outside its bounds).
    #[inline]
    fn violation(&self, pos: usize) -> f64 {
        let j = self.basis[pos];
        let v = self.xb[pos];
        (v - self.std.upper[j]).max(self.std.lower[j] - v)
    }

    /// Rebuilds the infeasible-row set from every basis position.
    fn rebuild_infeasible(&mut self) {
        self.dual_infeas.reset(self.std.nrows);
        for pos in 0..self.std.nrows {
            self.refresh_infeasible(pos);
        }
    }

    /// Brings position `pos`'s membership in the infeasible-row set up to
    /// date after its basic value or basic column changed.
    #[inline]
    fn refresh_infeasible(&mut self, pos: usize) {
        let infeasible = self.violation(pos) > self.cfg.feas_tol;
        self.dual_infeas.set(pos, infeasible);
    }
}
