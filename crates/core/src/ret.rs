//! The Relaxing-End-Times (RET) problem — paper Section II-C.
//!
//! When the network is overloaded and users would rather finish their whole
//! transfer a bit late than truncate it, the controller finds the smallest
//! common factor `(1+b)` by which all end times must be extended so every
//! job completes in full:
//!
//! 1. **SUB-RET** (eqs. 14–16): a feasibility program with the Quick-Finish
//!    objective `min sum_j gamma(j) sum_{i,p} x_i(p,j)`, `gamma(j) = j+1`,
//!    demand-completion rows and windows extended to `I((1+b) E_i)`.
//! 2. **Algorithm 2**: binary search for the smallest `b` making the LP
//!    relaxation feasible, apply LPDAR to the fractional solution, and grow
//!    `b` by `delta` until the integral schedule also completes every job.

use crate::builders::{add_assignment_cols, add_capacity_rows, job_volume_coeffs};
use crate::colgen::{price_resolve, price_resolve_until, CgMaster, CgStats, ColGenConfig, Pricer};
use crate::instance::{Instance, InstanceConfig};
use crate::lpdar::{lpdar_capped, AdjustOrder};
use crate::schedule::Schedule;
use std::collections::BTreeMap;
use std::ops::Range;
use wavesched_lp::{
    solve_with, Col, Objective, Problem, SimplexConfig, SolveError, SolveStats, SolverSession,
    Status,
};
use wavesched_net::{Graph, PathSet};
use wavesched_obs as obs;
use wavesched_workload::Job;

/// Completion tolerance used when checking whether a job received its full
/// demand.
pub const COMPLETION_TOL: f64 = 1e-6;

/// How the relaxation factor `(1+b)` is applied to each job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetMode {
    /// Scale absolute end times: `E_i -> (1+b) E_i` (the paper's primary
    /// formulation, eq. 16).
    #[default]
    ExtendEnd,
    /// Scale window lengths: `E_i -> S_i + (1+b)(E_i - S_i)` (the
    /// alternative mentioned in the paper's Section II-C remark; fairer to
    /// jobs that start late, whose absolute ends would otherwise stretch
    /// disproportionately).
    StretchWindow,
}

impl RetMode {
    fn apply(self, job: &Job, b: f64) -> Job {
        match self {
            RetMode::ExtendEnd => job.with_extended_end(b),
            RetMode::StretchWindow => job.with_stretched_window(b),
        }
    }
}

/// Knobs for [`solve_ret`] (Algorithm 2).
#[derive(Debug, Clone)]
pub struct RetConfig {
    /// How `(1+b)` is applied.
    pub mode: RetMode,
    /// Upper end of the binary-search interval for `b`.
    pub b_max: f64,
    /// The δ growth step of Algorithm 2 (0.1 in the paper).
    pub delta: f64,
    /// Binary-search resolution on `b`.
    pub bsearch_tol: f64,
    /// Visit order for the LPDAR adjustment.
    pub order: AdjustOrder,
    /// Simplex settings for every LP solve.
    pub lp: SimplexConfig,
    /// Safety cap on δ-growth iterations.
    pub max_delta_steps: usize,
    /// Worker threads for speculative bisection probing: each round
    /// evaluates the next `d` midpoint levels of the search tree
    /// (`2^d − 1 <= threads`) concurrently, each probe on its own clone of
    /// the warm template, then walks only the realized path. Probe answers
    /// are pure functions of `b`, so `b̂`, the schedules, and the merged
    /// work counters are bit-identical for every thread count. `0` (the
    /// default) resolves from the `WS_THREADS` environment knob; `1` probes
    /// serially on the calling thread.
    pub threads: usize,
}

impl Default for RetConfig {
    fn default() -> Self {
        RetConfig {
            mode: RetMode::default(),
            b_max: 4.0,
            delta: 0.1,
            bsearch_tol: 0.01,
            order: AdjustOrder::Paper,
            lp: SimplexConfig::default(),
            max_delta_steps: 60,
            threads: 0,
        }
    }
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct RetResult {
    /// `b̂`: the smallest extension at which the *fractional* SUB-RET is
    /// feasible (binary-search result).
    pub b_lp: f64,
    /// The final extension after δ-growth, at which LPDAR completes all
    /// jobs.
    pub b_final: f64,
    /// The instance at `b_final` (ends extended, grid enlarged).
    pub instance: Instance,
    /// Fractional SUB-RET solution at `b_final`.
    pub lp: Schedule,
    /// Truncated (LPD) solution at `b_final`.
    pub lpd: Schedule,
    /// LPDAR solution at `b_final` — completes every job by construction.
    pub lpdar: Schedule,
    /// Aggregated solver work over every LP solve Algorithm 2 performed
    /// (bisection probes + δ-growth), including warm-start accounting.
    pub stats: SolveStats,
}

impl RetResult {
    /// Number of LP solves performed (bisection + growth), derived from
    /// [`RetResult::stats`].
    pub fn lp_solves(&self) -> usize {
        self.stats.solves as usize
    }
    /// Fraction of jobs finished by the fractional solution (1.0 whenever
    /// SUB-RET is feasible — completion is a hard constraint).
    pub fn lp_fraction_finished(&self) -> f64 {
        self.lp.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Fraction of jobs the truncated solution finishes (the paper observes
    /// "typically zero").
    pub fn lpd_fraction_finished(&self) -> f64 {
        self.lpd.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Fraction of jobs LPDAR finishes (1.0 by Algorithm 2's termination).
    pub fn lpdar_fraction_finished(&self) -> f64 {
        self.lpdar.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Average end time (slices) of the fractional solution.
    pub fn lp_avg_end_time(&self) -> Option<f64> {
        self.lp.average_end_time(&self.instance, COMPLETION_TOL)
    }

    /// Average end time (slices) of the LPDAR solution.
    pub fn lpdar_avg_end_time(&self) -> Option<f64> {
        self.lpdar.average_end_time(&self.instance, COMPLETION_TOL)
    }
}

/// Tolerance on the probe LP's completion ratio: SUB-RET counts as feasible
/// when every job can reach at least `1 - RET_PROBE_TOL` of its demand.
const RET_PROBE_TOL: f64 = 1e-6;

/// Builds the SUB-RET problem (Quick-Finish objective, eqs. 14–16) on an
/// (already end-extended) instance.
fn build_subret(inst: &Instance) -> Problem {
    let mut p = Problem::new(Objective::Minimize);
    let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
    add_assignment_cols(&mut p, inst, &mut cols);
    for (var, _, _, slice) in inst.vars.iter() {
        p.set_cost(cols[var], (slice + 1) as f64);
    }
    // Eq. 15: every job moves at least its demand.
    for i in 0..inst.num_jobs() {
        job_volume_coeffs(inst, &cols, i, &mut coeffs);
        p.add_row(inst.demands[i], f64::INFINITY, &coeffs);
    }
    add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
    p
}

/// Builds the bisection's feasibility probe as an always-feasible LP:
/// maximize the common completion ratio `z` (capped at 1) subject to
/// `volume_i >= z D_i` — Stage 1's question with completion inequalities.
/// SUB-RET at the same windows is feasible exactly when `z* = 1`; testing
/// `z* >= 1 - RET_PROBE_TOL` makes the check robust. Because `x = 0, z = 0`
/// is always feasible, a warm start never has to prove infeasibility — the
/// situation where a warm simplex must discard its basis — so re-solves in
/// a session stay warm across the whole search.
fn build_probe(inst: &Instance) -> Problem {
    let mut p = Problem::new(Objective::Maximize);
    let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
    add_assignment_cols(&mut p, inst, &mut cols);
    let z = p.add_col(0.0, 1.0, 1.0);
    for i in 0..inst.num_jobs() {
        job_volume_coeffs(inst, &cols, i, &mut coeffs);
        coeffs.push((z, -inst.demands[i]));
        p.add_row(0.0, f64::INFINITY, &coeffs);
    }
    add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
    p
}

/// The probes' LP settings: the configured simplex options plus
/// candidate-list partial pricing. A probe's answer is a threshold test on
/// the optimal *objective* — unique for an LP — never on the particular
/// optimal vertex, so the vertex drift partial pricing allows on degenerate
/// faces cannot change probe answers. The δ-growth and other
/// schedule-bearing solves keep the exhaustive scan: their LPDAR rounding
/// is a function of the vertex itself.
fn probe_lp(cfg: &RetConfig) -> SimplexConfig {
    SimplexConfig {
        partial_pricing: true,
        ..cfg.lp.clone()
    }
}

/// Answers the bisection's feasibility questions `feasible(b)?`.
///
/// Every probe asks the [`build_probe`] LP, built **once** at `b_max` —
/// whose variable space contains every probe's, since windows only grow
/// with `b` — and answered on a **clone** of that template session with
/// column bounds retightened: variables of slices outside a job's window at
/// the trial `b` are fixed to `[0, 0]`, the rest restored to
/// `[0, bottleneck]`. That restricted LP asks the same question as the
/// instance built directly at `b` (the extra capacity rows are satisfied
/// trivially by the zeros, and the completion rows reduce to the in-window
/// sums).
///
/// The template is solved lazily and re-anchored at fixed points of the
/// realized sequence: the opening probes at `b = 0` (cold) and `b_max`
/// (warm from it) solve it **in place** (see
/// [`WarmProbe::probe_in_place`]); every bisection probe runs on a clone,
/// warm-starting from the anchored optimal basis, and each bisection round
/// ends by adopting its last realized clone as the template. Between anchor
/// points the template is constant, so a probe's answer *and its work
/// counters* are pure functions of `b` — the property that lets
/// [`Prober::bisect`] evaluate speculative midpoints in parallel and still
/// merge bit-identical realized stats at every pool width. Structural
/// trouble degrades to a cold solve inside the clone, never to a wrong
/// answer.
struct Prober<'a> {
    jobs: &'a [Job],
    cfg: &'a RetConfig,
    warm: WarmProbe<'a>,
    /// Resolved probe-pool width (`cfg.threads`, `0` → `WS_THREADS`).
    width: usize,
    stats: SolveStats,
}

/// A probe's outcome: `(feasible, work, solved session if any)`.
type ProbeResult = Result<(bool, SolveStats, Option<SolverSession>), SolveError>;

/// The reusable probe template (see [`Prober`]).
struct WarmProbe<'a> {
    /// The instance at `b_max`; every probe's windows nest inside its own.
    inst: &'a Instance,
    /// The template session; unsolved until [`Prober`] needs the `b_max`
    /// answer, then solved in place so clones inherit the optimal basis.
    template: SolverSession,
    /// Per-variable upper bound (the path's bottleneck wavelength count).
    upper: Vec<f64>,
}

impl WarmProbe<'_> {
    /// Windows at trial `b`, on the `b_max` grid; `None` when some job's
    /// window is empty (the probe then answers `false` without an LP
    /// solve). The grid is uniform, so a window that fits under the `b_max`
    /// horizon is the same range the shorter grid of the `b`-instance would
    /// produce.
    fn windows_at(&self, jobs: &[Job], mode: RetMode, b: f64) -> Option<Vec<Range<usize>>> {
        let mut windows: Vec<Range<usize>> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let ext = mode.apply(job, b);
            let w = self.inst.grid.window_slices(ext.start, ext.end);
            if w.is_empty() {
                return None;
            }
            windows.push(w);
        }
        Some(windows)
    }

    /// Retightens `session`'s column bounds to the given windows: variables
    /// of out-of-window slices fixed to `[0, 0]`, the rest restored to
    /// `[0, bottleneck]`. (An associated function over split fields so it
    /// can also target the template itself.)
    fn apply_windows(
        inst: &Instance,
        upper: &[f64],
        session: &mut SolverSession,
        windows: &[Range<usize>],
    ) {
        for (var, job, _, slice) in inst.vars.iter() {
            let ub = if windows[job].contains(&slice) {
                upper[var]
            } else {
                0.0
            };
            session.set_col_bounds(Col::from_index(var), 0.0, ub);
        }
    }

    /// One feasibility probe at extension `b`, on a fresh clone of the
    /// template: a **pure function** of `b` (and the fixed template state) —
    /// no shared mutation, so probes may run concurrently and a probe's
    /// `(answer, stats)` never depends on which other probes ran. The
    /// solved clone is returned so the caller may adopt a *realized*
    /// probe's basis as the next template (`None` when the probe answered
    /// without solving).
    ///
    /// A solved template also carries a *valid basis factorization*, and
    /// the clone inherits it: the window retightening is a bound-only
    /// edit, so the probe's solve enters through the factorization-reuse
    /// path (`SolveStats::lu_reuse_hits`) and skips `Lu::factor` entirely
    /// — the dominant cost of a few-pivot probe. Purity is unaffected:
    /// every clone starts from the identical carried factors.
    fn probe(&self, jobs: &[Job], mode: RetMode, b: f64) -> ProbeResult {
        let _span = obs::span("ret_probe");
        let Some(windows) = self.windows_at(jobs, mode, b) else {
            return Ok((false, SolveStats::default(), None));
        };
        let mut session = self.template.clone();
        Self::apply_windows(self.inst, &self.upper, &mut session, &windows);
        let sol = session.solve()?;
        Ok((
            sol.status == Status::Optimal && sol.objective >= 1.0 - RET_PROBE_TOL,
            sol.stats,
            Some(session),
        ))
    }

    /// Like [`WarmProbe::probe`], but re-solves the template **in place**,
    /// re-anchoring the basis every later clone warm-starts from. Used at
    /// fixed points of the realized sequence — the opening probes — so the
    /// policy is independent of the pool width and probe purity still holds
    /// for everything after.
    fn probe_in_place(
        &mut self,
        jobs: &[Job],
        mode: RetMode,
        b: f64,
    ) -> Result<(bool, SolveStats), SolveError> {
        let _span = obs::span("ret_probe");
        let Some(windows) = self.windows_at(jobs, mode, b) else {
            return Ok((false, SolveStats::default()));
        };
        Self::apply_windows(self.inst, &self.upper, &mut self.template, &windows);
        let sol = self.template.solve()?;
        Ok((
            sol.status == Status::Optimal && sol.objective >= 1.0 - RET_PROBE_TOL,
            sol.stats,
        ))
    }
}

impl<'a> Prober<'a> {
    /// Levels of the midpoint tree covered per bisection round. Fixed (not
    /// width-derived) because the round boundaries decide where the
    /// template re-anchors: a width-dependent depth would give different
    /// widths different warm-start anchors and break bit-identical work
    /// counters. Depth 2 (three candidate probes) fits pools of 3–4
    /// workers exactly and still halves the rounds for wider ones.
    const ROUND_DEPTH: usize = 2;

    /// A prober over `env`, the instance at `b_max` (with no unschedulable
    /// job).
    fn new(jobs: &'a [Job], env: &'a Instance, cfg: &'a RetConfig) -> Result<Self, SolveError> {
        let template = SolverSession::with_config(&build_probe(env), &probe_lp(cfg))?;
        Ok(Prober {
            jobs,
            cfg,
            warm: WarmProbe {
                inst: env,
                template,
                upper: bottleneck_uppers(env),
            },
            width: wavesched_par::resolve_threads(cfg.threads),
            stats: SolveStats::default(),
        })
    }

    /// Algorithm 2's binary search: the smallest `b` (to `bsearch_tol`) at
    /// which the fractional SUB-RET is feasible, or `None` when even
    /// `b_max` fails. Runs the opening probes, then [`Prober::bisect`].
    fn search(&mut self) -> Result<Option<f64>, SolveError> {
        // The opening probes are fixed points of the realized sequence at
        // every width, so they may both anchor the template in place,
        // chaining their warm starts: b = 0 solves cold (the template is
        // fresh), b_max warms from the b = 0 basis.
        if self.feasible_anchoring(0.0)? {
            return Ok(Some(0.0));
        }
        if !self.feasible_anchoring(self.cfg.b_max)? {
            return Ok(None);
        }
        self.bisect(0.0, self.cfg.b_max).map(Some)
    }

    /// A realized probe that re-solves the template in place at `b`,
    /// re-anchoring the basis every later clone starts from. Called at
    /// fixed points of the realized sequence only (the opening probes), so
    /// the template state seen by all other probes stays independent of
    /// the pool width.
    fn feasible_anchoring(&mut self, b: f64) -> Result<bool, SolveError> {
        obs::counter_add("ret.probes", 1);
        let (ans, stats) = self.warm.probe_in_place(self.jobs, self.cfg.mode, b)?;
        self.stats.merge(&stats);
        Ok(ans)
    }

    /// The bisection proper, between an infeasible `lo` and a feasible
    /// `hi`.
    ///
    /// Proceeds in rounds of a **fixed** depth [`Self::ROUND_DEPTH`]: each
    /// round covers the next `D` levels of the midpoint tree (the `2^D − 1`
    /// candidate midpoints), every probe a pure clone-solve of the
    /// round-entry template. With a pool width over one, the whole round is
    /// evaluated concurrently up front (speculation); serially, only
    /// realized midpoints are probed — in both cases the walk merges the
    /// realized probes' stats, counts them in `ret.probes`, and finally
    /// installs the last realized probe's solved session as the next
    /// round's template, so warm-start anchors converge toward `b̂` like a
    /// chained search would. The round structure, the realized trajectory,
    /// and the installed anchors are all independent of the pool width, so
    /// `b̂` and the merged stats are bit-identical to the serial walk;
    /// mis-speculated probes cost only wasted wall clock on otherwise-idle
    /// workers (reported under `ret.speculative_probes`).
    fn bisect(&mut self, lo: f64, hi: f64) -> Result<f64, SolveError> {
        let tol = self.cfg.bsearch_tol;
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > tol {
            let mut cands: Vec<f64> = Vec::with_capacity((1 << Self::ROUND_DEPTH) - 1);
            collect_midpoints(lo, hi, Self::ROUND_DEPTH, tol, &mut cands);
            let wp = &self.warm;
            let (jobs, mode) = (self.jobs, self.cfg.mode);
            // Speculate the full round when workers are available; probe
            // lazily (realized midpoints only) on a width-1 pool.
            let mut by_bits: BTreeMap<u64, ProbeResult> = if self.width > 1 {
                let answers = wavesched_par::par_map_with(self.cfg.threads, &cands, |&b| {
                    wp.probe(jobs, mode, b)
                });
                obs::counter_add("ret.speculative_probes", cands.len() as u64);
                cands
                    .iter()
                    .zip(answers)
                    .map(|(b, r)| (b.to_bits(), r))
                    .collect()
            } else {
                BTreeMap::new()
            };
            // Walk the realized path. Midpoints are pure functions of
            // (lo, hi), so a speculated round was built over exactly these
            // bit patterns; errors on mis-speculated probes are discarded
            // with them — only a realized probe's error surfaces, as in
            // the serial walk.
            let mut last_realized: Option<SolverSession> = None;
            for _ in 0..Self::ROUND_DEPTH {
                if hi - lo <= tol {
                    break;
                }
                let mid = 0.5 * (lo + hi);
                let (ans, stats, session) = match by_bits.remove(&mid.to_bits()) {
                    Some(r) => r?,
                    None => wp.probe(jobs, mode, mid)?,
                };
                obs::counter_add("ret.probes", 1);
                self.stats.merge(&stats);
                if let Some(s) = session {
                    last_realized = Some(s);
                }
                if ans {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            // Re-anchor for the next round on the last realized basis (a
            // pure function of the realized trajectory — width-independent).
            if let Some(s) = last_realized {
                self.warm.template = s;
            }
        }
        Ok(hi)
    }
}

/// Pre-order collection of the bisection tree's candidate midpoints to
/// `depth` levels below `[lo, hi]`, skipping subtrees the walk could never
/// enter (intervals already within `tol`).
fn collect_midpoints(lo: f64, hi: f64, depth: usize, tol: f64, out: &mut Vec<f64>) {
    if depth == 0 || hi - lo <= tol {
        return;
    }
    let mid = 0.5 * (lo + hi);
    out.push(mid);
    collect_midpoints(lo, mid, depth - 1, tol, out);
    collect_midpoints(mid, hi, depth - 1, tol, out);
}

/// Step 1 of Algorithm 2 over the `b_max` instance `env`: `b̂` (or `None`
/// when even `b_max` is infeasible) and the probes' work.
fn search_b_lp(
    jobs: &[Job],
    env: &Instance,
    cfg: &RetConfig,
) -> Result<(Option<f64>, SolveStats), SolveError> {
    let mut prober = Prober::new(jobs, env, cfg)?;
    let b_lp = prober.search()?;
    Ok((b_lp, prober.stats))
}

/// Per-variable upper bounds for an instance's assignment columns: the
/// bottleneck wavelength count of the variable's path.
fn bottleneck_uppers(inst: &Instance) -> Vec<f64> {
    inst.vars
        .iter()
        .map(|(_, job, path, _)| inst.paths[job][path].bottleneck_wavelengths(&inst.graph) as f64)
        .collect()
}

/// The δ-growth loop's Quick-Finish solver: one SUB-RET LP on the `b_max`
/// envelope, re-solved per step with column bounds retightened to the
/// step's windows and warm-started from the previous step's optimal basis.
struct GrowthSession {
    inst: Instance,
    session: SolverSession,
    upper: Vec<f64>,
}

impl GrowthSession {
    fn new(inst: Instance, lp: &SimplexConfig) -> Result<Self, SolveError> {
        let p = build_subret(&inst);
        let session = SolverSession::with_config(&p, lp)?;
        let upper = bottleneck_uppers(&inst);
        Ok(GrowthSession {
            inst,
            session,
            upper,
        })
    }

    /// Solves the Quick-Finish SUB-RET at extension `b` and maps the
    /// solution onto `inst_b` (the instance built directly at `b`, whose
    /// windows nest inside the envelope's). Returns the status and, when
    /// optimal, the values over `inst_b`'s variables.
    fn solve_step(
        &mut self,
        inst_b: &Instance,
        jobs: &[Job],
        mode: RetMode,
        b: f64,
        stats: &mut SolveStats,
    ) -> Result<(Status, Option<Vec<f64>>), SolveError> {
        let windows: Vec<Range<usize>> = jobs
            .iter()
            .map(|job| {
                let ext = mode.apply(job, b);
                self.inst.grid.window_slices(ext.start, ext.end)
            })
            .collect();
        for (var, job, _, slice) in self.inst.vars.iter() {
            let ub = if windows[job].contains(&slice) {
                self.upper[var]
            } else {
                0.0
            };
            self.session.set_col_bounds(Col::from_index(var), 0.0, ub);
        }
        let sol = self.session.solve()?;
        stats.merge(&sol.stats);
        let x = (sol.status == Status::Optimal).then(|| {
            inst_b
                .vars
                .iter()
                .map(|(_, job, path, slice)| sol.x[self.inst.vars.var(job, path, slice)])
                .collect()
        });
        Ok((sol.status, x))
    }
}

/// Builds the instance with every window relaxed by `(1+b)` per `mode`.
fn extended_instance(
    graph: &Graph,
    jobs: &[Job],
    demands: &[f64],
    b: f64,
    mode: RetMode,
    cfg: &InstanceConfig,
    pathset: &mut PathSet,
) -> Instance {
    let ext: Vec<Job> = jobs.iter().map(|j| mode.apply(j, b)).collect();
    Instance::build_with_demands(graph, &ext, demands.to_vec(), cfg, pathset)
}

/// Solves the RET problem with Algorithm 2.
///
/// Returns `Ok(None)` when even `b_max` cannot complete all jobs (e.g. a
/// job with no usable path), `Err` on solver breakdown.
pub fn solve_ret(
    graph: &Graph,
    jobs: &[Job],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
) -> Result<Option<RetResult>, SolveError> {
    let demands: Vec<f64> = jobs
        .iter()
        .map(|j| inst_cfg.demand_units(j.size_gb))
        .collect();
    solve_ret_with_demands(graph, jobs, &demands, inst_cfg, cfg)
}

/// [`solve_ret`] with explicit normalized demands — used by the periodic
/// controller to complete the *remaining* demand of in-flight jobs.
pub fn solve_ret_with_demands(
    graph: &Graph,
    jobs: &[Job],
    demands: &[f64],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
) -> Result<Option<RetResult>, SolveError> {
    assert!(!jobs.is_empty(), "RET needs at least one job");
    assert_eq!(jobs.len(), demands.len());
    let _span = obs::span("ret");
    let mut pathset = PathSet::new(inst_cfg.paths_per_job);
    let env = extended_instance(
        graph,
        jobs,
        demands,
        cfg.b_max,
        cfg.mode,
        inst_cfg,
        &mut pathset,
    );
    // An unschedulable job at b_max stays unschedulable at every smaller b
    // (windows shrink, paths don't change): no extension can help.
    if env.has_unschedulable_job() {
        return Ok(None);
    }

    // Step 1: binary search for the smallest feasible b (fractional),
    // with speculative parallel probing (see [`Prober`]).
    let (b_lp, mut stats) = search_b_lp(jobs, &env, cfg)?;
    let Some(b_lp) = b_lp else {
        return Ok(None);
    };

    // Steps 2–5: solve with Quick-Finish, discretize with LPDAR, grow b by
    // delta until the integral schedule completes everything. The solves
    // chain through one envelope session (see [`GrowthSession`]); only an
    // extension past b_max — possible on the final step — exceeds the
    // envelope and drops to a one-off cold build.
    let mut growth = GrowthSession::new(env, &cfg.lp)?;
    let mut b = b_lp;
    for _ in 0..cfg.max_delta_steps {
        let _step_span = obs::span("ret_growth_step");
        obs::counter_add("ret.growth_rounds", 1);
        let inst = extended_instance(graph, jobs, demands, b, cfg.mode, inst_cfg, &mut pathset);
        let (status, x) = if b <= cfg.b_max {
            growth.solve_step(&inst, jobs, cfg.mode, b, &mut stats)?
        } else {
            let p = build_subret(&inst);
            let sol = solve_with(&p, &cfg.lp)?;
            stats.merge(&sol.stats);
            let x = (sol.status == Status::Optimal).then(|| sol.x[..inst.vars.len()].to_vec());
            (sol.status, x)
        };
        if status == Status::Optimal {
            // lint: allow(lib-unwrap, reason = "invariant: an Optimal status always carries primal values")
            let x = x.expect("invariant: optimal carries values");
            let lp_sched = Schedule::from_values(&inst, x);
            let lpd = crate::lpdar::truncate(&inst, &lp_sched);
            let adj = lpdar_capped(&inst, &lp_sched, cfg.order);
            let all_done = (0..inst.num_jobs()).all(|i| adj.completes(&inst, i, COMPLETION_TOL));
            if all_done {
                return Ok(Some(RetResult {
                    b_lp,
                    b_final: b,
                    lp: lp_sched,
                    lpd,
                    lpdar: adj,
                    instance: inst,
                    stats,
                }));
            }
        }
        b += cfg.delta;
        if b > cfg.b_max + cfg.delta {
            break;
        }
    }
    Ok(None)
}

/// Active windows at trial extension `b` on the column-generation master's
/// (envelope) grid; `None` when some job's window is empty — the probe then
/// answers `false` without a solve, mirroring the monolithic path's
/// `has_unschedulable_job` check. The grid is uniform, so these are the
/// same slice indices an instance built directly at `b` would produce.
fn cg_windows_at(
    master: &CgMaster,
    jobs: &[Job],
    mode: RetMode,
    b: f64,
) -> Option<Vec<Range<usize>>> {
    let mut windows = Vec::with_capacity(jobs.len());
    for job in jobs {
        let ext = mode.apply(job, b);
        let w = master.grid().window_slices(ext.start, ext.end);
        if w.is_empty() {
            return None;
        }
        windows.push(w);
    }
    Some(windows)
}

/// One column-generation feasibility probe at extension `b`: tighten the
/// master's active windows, switch to the probe form, and run the
/// price–resolve loop. **Re-pricing after the bound change matters** — a
/// path that was worthless under wide windows can become the completing
/// path under tight ones, and a restricted master that skipped pricing
/// here could wrongly answer "infeasible".
fn cg_probe(
    master: &mut CgMaster,
    pricer: &mut dyn Pricer,
    jobs: &[Job],
    mode: RetMode,
    b: f64,
) -> Result<bool, SolveError> {
    obs::counter_add("ret.probes", 1);
    let _span = obs::span("ret_probe");
    let Some(windows) = cg_windows_at(master, jobs, mode, b) else {
        return Ok(false);
    };
    master.set_active_windows(&windows);
    master.set_probe();
    // Early-stop at the feasibility threshold: the restricted optimum
    // only underestimates the universe optimum, so reaching `Z >= 1`
    // already answers the probe — pricing to optimality is needed only
    // to certify infeasibility.
    let sol = price_resolve_until(master, pricer, |s| s.objective >= 1.0 - RET_PROBE_TOL)?;
    Ok(sol.status == Status::Optimal && sol.objective >= 1.0 - RET_PROBE_TOL)
}

/// Solves the RET problem (Algorithm 2) by delayed column generation.
///
/// One restricted master, built at the `b_max` envelope and seeded with
/// shortest paths, answers **every** bisection probe and δ-growth step:
/// per trial `b` the active windows tighten or reopen, the form switches
/// (probe / Quick-Finish), and the price–resolve loop re-prices — columns
/// accumulate monotonically across the whole search and the simplex basis
/// chains warm throughout. Matches [`solve_ret`]'s trajectory semantics
/// with one documented difference: growth is capped at the `b_max`
/// envelope (the pool's windows cannot extend past it), where the
/// monolithic path may take one final cold step beyond `b_max`. Returns
/// the result together with the column-generation work counters, or
/// `Ok(None)` when no extension within `b_max` completes all jobs.
pub fn solve_ret_colgen(
    graph: &Graph,
    jobs: &[Job],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
    cg: &ColGenConfig,
) -> Result<Option<(RetResult, CgStats)>, SolveError> {
    assert!(!jobs.is_empty(), "RET needs at least one job");
    let _span = obs::span("ret");
    let demands: Vec<f64> = jobs
        .iter()
        .map(|j| inst_cfg.demand_units(j.size_gb))
        .collect();

    let env_jobs: Vec<Job> = jobs.iter().map(|j| cfg.mode.apply(j, cfg.b_max)).collect();
    let mut master = CgMaster::build(graph, &env_jobs, demands, inst_cfg, cg)?;
    let mut pricer = cg.pricer.build(inst_cfg.paths_per_job);

    // Step 1: serial binary search for the smallest feasible b. (The
    // monolithic path speculates probes in parallel on session clones; the
    // incremental master is a single evolving session, so probing stays
    // serial — and therefore trivially byte-reproducible at any
    // WS_THREADS.)
    let b_lp = if cg_probe(&mut master, pricer.as_mut(), jobs, cfg.mode, 0.0)? {
        0.0
    } else if !cg_probe(&mut master, pricer.as_mut(), jobs, cfg.mode, cfg.b_max)? {
        return Ok(None);
    } else {
        let (mut lo, mut hi) = (0.0, cfg.b_max);
        while hi - lo > cfg.bsearch_tol {
            let mid = 0.5 * (lo + hi);
            if cg_probe(&mut master, pricer.as_mut(), jobs, cfg.mode, mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };

    // Steps 2–5: Quick-Finish + LPDAR, growing b by delta until the
    // integral schedule completes every job.
    let mut b = b_lp;
    for _ in 0..cfg.max_delta_steps {
        let _step_span = obs::span("ret_growth_step");
        obs::counter_add("ret.growth_rounds", 1);
        if let Some(windows) = cg_windows_at(&master, jobs, cfg.mode, b) {
            master.set_active_windows(&windows);
            master.set_quick_finish();
            let sol = price_resolve(&mut master, pricer.as_mut())?;
            if sol.status == Status::Optimal {
                let ext: Vec<Job> = jobs.iter().map(|j| cfg.mode.apply(j, b)).collect();
                let inst = master.materialize_for(&ext);
                let lp_sched = Schedule::from_values(&inst, master.values_on(&inst, &sol.x));
                let lpd = crate::lpdar::truncate(&inst, &lp_sched);
                let adj = lpdar_capped(&inst, &lp_sched, cfg.order);
                let all_done =
                    (0..inst.num_jobs()).all(|i| adj.completes(&inst, i, COMPLETION_TOL));
                if all_done {
                    return Ok(Some((
                        RetResult {
                            b_lp,
                            b_final: b,
                            lp: lp_sched,
                            lpd,
                            lpdar: adj,
                            instance: inst,
                            stats: master.session_stats(),
                        },
                        master.stats(),
                    )));
                }
            }
        }
        b += cfg.delta;
        if b > cfg.b_max {
            break;
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::abilene14;
    use wavesched_workload::{JobId, WorkloadConfig, WorkloadGenerator};

    fn overloaded_jobs(n: usize, seed: u64) -> (Graph, Vec<Job>) {
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            size_gb: (50.0, 100.0),
            window: (4.0, 8.0), // short windows force overload
            ..Default::default()
        })
        .generate(&g);
        (g, jobs)
    }

    #[test]
    fn ret_completes_all_jobs() {
        let (g, jobs) = overloaded_jobs(10, 2);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("RET should find an extension");
        assert_eq!(r.lpdar_fraction_finished(), 1.0);
        assert_eq!(r.lp_fraction_finished(), 1.0);
        assert!(r.b_final >= r.b_lp);
        assert!(r.lpdar.is_integral(1e-9));
        assert!(r.lpdar.max_capacity_violation(&r.instance) < 1e-9);
    }

    #[test]
    fn lpd_finishes_fewer_than_lpdar() {
        let (g, jobs) = overloaded_jobs(12, 7);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert!(
            r.lpd_fraction_finished() <= r.lpdar_fraction_finished(),
            "LPD {} > LPDAR {}",
            r.lpd_fraction_finished(),
            r.lpdar_fraction_finished()
        );
    }

    #[test]
    fn underloaded_needs_no_extension() {
        let (g, _) = abilene14(8);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 3,
            seed: 1,
            size_gb: (1.0, 5.0),
            window: (16.0, 24.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(8);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(r.b_lp, 0.0);
        assert_eq!(r.lpdar_fraction_finished(), 1.0);
    }

    #[test]
    fn quick_finish_packs_early() {
        // With plenty of slack, the QF objective should finish jobs well
        // before the extended deadline.
        let (g, nodes) = abilene14(4);
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[4], 75.0, 0.0, 20.0);
        let cfg = InstanceConfig::paper(4);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        let t = r.lpdar_avg_end_time().unwrap();
        assert!(t <= 3.0, "QF should finish early, got {t}");
    }

    #[test]
    fn stretch_window_mode_completes() {
        let (g, jobs) = overloaded_jobs(8, 4);
        let cfg = InstanceConfig::paper(2);
        let ret_cfg = RetConfig {
            mode: RetMode::StretchWindow,
            ..RetConfig::default()
        };
        let r = solve_ret(&g, &jobs, &cfg, &ret_cfg)
            .unwrap()
            .expect("stretch mode feasible");
        assert_eq!(r.lpdar_fraction_finished(), 1.0);
        // Start times are preserved by the stretch.
        for (orig, ext) in jobs.iter().zip(&r.instance.jobs) {
            assert_eq!(orig.start, ext.start);
            assert!(ext.end >= orig.end - 1e-12);
        }
    }

    #[test]
    fn impossible_job_returns_none() {
        // Disconnected destination: no extension helps.
        let mut g = Graph::new();
        let ns = g.add_nodes(3);
        g.add_link_pair(ns[0], ns[1], 2);
        // ns[2] is isolated.
        let job = Job::new(JobId(0), 0.0, ns[0], ns[2], 10.0, 0.0, 4.0);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default()).unwrap();
        assert!(r.is_none());
    }

    /// The cold oracle for the prober: the plain serial bisection, building
    /// the probe LP directly at each trial `b` and solving it from scratch.
    /// Returns `b̂` (`None` when `b_max` is infeasible) and the probes' work.
    fn cold_bisection(
        g: &Graph,
        jobs: &[Job],
        inst_cfg: &InstanceConfig,
        cfg: &RetConfig,
    ) -> (Option<f64>, SolveStats) {
        let demands: Vec<f64> = jobs
            .iter()
            .map(|j| inst_cfg.demand_units(j.size_gb))
            .collect();
        let mut pathset = PathSet::new(inst_cfg.paths_per_job);
        let mut stats = SolveStats::default();
        let mut feasible = |b: f64| {
            let inst = extended_instance(g, jobs, &demands, b, cfg.mode, inst_cfg, &mut pathset);
            if inst.has_unschedulable_job() {
                return false;
            }
            let sol = solve_with(&build_probe(&inst), &probe_lp(cfg)).unwrap();
            stats.merge(&sol.stats);
            sol.status == Status::Optimal && sol.objective >= 1.0 - RET_PROBE_TOL
        };
        let b_lp = if feasible(0.0) {
            Some(0.0)
        } else if !feasible(cfg.b_max) {
            None
        } else {
            let (mut lo, mut hi) = (0.0, cfg.b_max);
            while hi - lo > cfg.bsearch_tol {
                let mid = 0.5 * (lo + hi);
                if feasible(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(hi)
        };
        (b_lp, stats)
    }

    /// The shipped prober on the same question as [`cold_bisection`].
    fn warm_bisection(
        g: &Graph,
        jobs: &[Job],
        inst_cfg: &InstanceConfig,
        cfg: &RetConfig,
    ) -> (Option<f64>, SolveStats) {
        let demands: Vec<f64> = jobs
            .iter()
            .map(|j| inst_cfg.demand_units(j.size_gb))
            .collect();
        let mut pathset = PathSet::new(inst_cfg.paths_per_job);
        let env = extended_instance(
            g,
            jobs,
            &demands,
            cfg.b_max,
            cfg.mode,
            inst_cfg,
            &mut pathset,
        );
        search_b_lp(jobs, &env, cfg).unwrap()
    }

    #[test]
    fn warm_probes_match_cold_bitwise() {
        // Same b̂ as the cold oracle, and solve_ret reports that b̂ — the
        // template session only changes how fast probes are answered,
        // never the answers.
        for seed in [2, 4, 7] {
            let (g, jobs) = overloaded_jobs(10, seed);
            let cfg = InstanceConfig::paper(2);
            let ret_cfg = RetConfig::default();
            let (cold_b, cold) = cold_bisection(&g, &jobs, &cfg, &ret_cfg);
            let (warm_b, warm) = warm_bisection(&g, &jobs, &cfg, &ret_cfg);
            let cold_b = cold_b.expect("cold feasible");
            assert_eq!(
                Some(cold_b.to_bits()),
                warm_b.map(f64::to_bits),
                "seed {seed}"
            );
            let full = solve_ret(&g, &jobs, &cfg, &ret_cfg)
                .unwrap()
                .expect("warm feasible");
            assert_eq!(cold_b.to_bits(), full.b_lp.to_bits(), "seed {seed}");
            assert_eq!(cold.solves, warm.solves, "seed {seed}");
            assert!(
                warm.iterations <= cold.iterations,
                "seed {seed}: warm {} > cold {}",
                warm.iterations,
                cold.iterations
            );
        }
    }

    #[test]
    fn warm_probes_cut_iterations_on_fig4_workload() {
        // The Fig. 4 RET workload (scaled to test size): warm-started probes
        // must save at least 30% of the cold oracle's simplex iterations.
        let (g, jobs) = bisecting_jobs(15, 3000);
        let cfg = InstanceConfig::paper(2);
        let ret_cfg = bisecting_cfg();
        let (cold_b, cold) = cold_bisection(&g, &jobs, &cfg, &ret_cfg);
        let (warm_b, warm) = warm_bisection(&g, &jobs, &cfg, &ret_cfg);
        let cold_b = cold_b.expect("cold feasible");
        assert!(cold_b > 0.0, "workload must bisect");
        assert_eq!(Some(cold_b.to_bits()), warm_b.map(f64::to_bits));
        assert!(
            (warm.iterations as f64) <= 0.7 * cold.iterations as f64,
            "warm {} vs cold {} iterations: less than 30% saved",
            warm.iterations,
            cold.iterations
        );
    }

    /// Fig. 4-shaped overload: heavy transfers in short windows, so the
    /// fractional SUB-RET is infeasible at `b = 0` and the bisection
    /// actually runs (the lighter `overloaded_jobs` workloads are already
    /// LP-feasible unextended).
    fn bisecting_jobs(n: usize, seed: u64) -> (Graph, Vec<Job>) {
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&g);
        (g, jobs)
    }

    /// The RET knobs the Fig. 4 bench uses for that workload shape.
    fn bisecting_cfg() -> RetConfig {
        RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        }
    }

    #[test]
    fn speculative_probes_match_serial_bitwise() {
        // Probe answers and work counters are pure functions of b (clones
        // of one anchored template), and only realized probes are merged —
        // so EVERY field of the result, including the solver-work stats,
        // must be bit-identical at any pool width.
        for seed in [3000, 3001] {
            let (g, jobs) = bisecting_jobs(10, seed);
            let cfg = InstanceConfig::paper(2);
            let run = |threads: usize| {
                let ret_cfg = RetConfig {
                    threads,
                    ..bisecting_cfg()
                };
                solve_ret(&g, &jobs, &cfg, &ret_cfg)
                    .unwrap()
                    .expect("feasible")
            };
            let serial = run(1);
            assert!(serial.b_lp > 0.0, "seed {seed}: workload must bisect");
            for threads in [2, 4, 8] {
                let spec = run(threads);
                assert_eq!(
                    serial.b_lp.to_bits(),
                    spec.b_lp.to_bits(),
                    "seed {seed} threads {threads}: b_lp"
                );
                assert_eq!(
                    serial.b_final.to_bits(),
                    spec.b_final.to_bits(),
                    "seed {seed} threads {threads}: b_final"
                );
                assert_eq!(serial.lp, spec.lp, "seed {seed} threads {threads}");
                assert_eq!(serial.lpd, spec.lpd, "seed {seed} threads {threads}");
                assert_eq!(serial.lpdar, spec.lpdar, "seed {seed} threads {threads}");
                assert_eq!(
                    serial.stats, spec.stats,
                    "seed {seed} threads {threads}: realized work counters"
                );
            }
        }
    }

    #[test]
    fn speculation_counts_only_realized_probes() {
        // The ret.probes counter must report the serial trajectory's probe
        // count at every width; mis-speculated work lands in
        // ret.speculative_probes only.
        let (g, jobs) = bisecting_jobs(10, 3000);
        let cfg = InstanceConfig::paper(2);
        let probes_at = |threads: usize| {
            obs::set_enabled(true);
            obs::reset();
            let ret_cfg = RetConfig {
                threads,
                ..bisecting_cfg()
            };
            solve_ret(&g, &jobs, &cfg, &ret_cfg).unwrap().unwrap();
            let snap = obs::snapshot();
            obs::set_enabled(false);
            obs::reset();
            let get = |name: &str| {
                snap.iter().find_map(|m| match m {
                    obs::Metric::Counter { name: n, value } if n == name => Some(*value),
                    _ => None,
                })
            };
            (get("ret.probes"), get("ret.speculative_probes"))
        };
        let (serial_probes, serial_spec) = probes_at(1);
        assert!(serial_probes.is_some());
        assert_eq!(serial_spec, None, "serial path never speculates");
        let (par_probes, par_spec) = probes_at(4);
        assert_eq!(par_probes, serial_probes, "realized probe count");
        let spec = par_spec.expect("width 4 speculates");
        assert!(
            spec >= par_probes.unwrap() - 2,
            "speculation covers at least the realized midpoints: {spec}"
        );
    }

    #[test]
    fn b_lp_close_to_analytic() {
        // Single job, single 1-wavelength link, demand 8 units, window 4
        // slices => needs end extended to 8 slices: b ~ 1.0.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let job = Job::new(JobId(0), 0.0, ns[0], ns[1], 1200.0, 0.0, 4.0);
        let cfg = InstanceConfig::paper(1);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert!(
            (r.b_lp - 1.0).abs() <= 0.02,
            "expected b ~ 1.0, got {}",
            r.b_lp
        );
    }
}
