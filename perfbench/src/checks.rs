//! Output checks and answer fingerprints.
//!
//! Every answer the benchmark times is checked here before it counts: a
//! schedule that breaks capacity or integrality, a RET result that leaves a
//! job unfinished, or a replay that loses jobs is a failed operation.

use wavesched_core::instance::Instance;
use wavesched_core::ret::{RetResult, COMPLETION_TOL};
use wavesched_core::schedule::Schedule;
use wavesched_sim::StreamReport;
use wavesched_workload::Job;

/// Largest capacity overshoot an integral schedule may show.
pub const CAPACITY_TOL: f64 = 1e-6;
/// Integrality tolerance for LPD/LPDAR schedules.
pub const INTEGRAL_TOL: f64 = 1e-9;
/// Relative slack on the LP optimum's bound (the simplex stops within its
/// optimality tolerance).
pub const LP_OPT_TOL: f64 = 1e-6;

/// 64-bit FNV-1a, fed with the exact bits of every answer value.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    /// Hashes an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    /// Hashes the exact bits of a float.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    /// Hashes a slice of floats.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a job list: every field of every job.
pub fn jobs_fingerprint(jobs: &[Job]) -> u64 {
    let mut h = Fnv::default();
    h.u64(jobs.len() as u64);
    for j in jobs {
        h.u64(u64::from(j.id.0));
        h.u64(j.src.0 as u64);
        h.u64(j.dst.0 as u64);
        for x in [j.arrival, j.size_gb, j.start, j.end] {
            h.f64(x);
        }
    }
    h.finish()
}

/// One two-stage pipeline answer: `Z*`, the LP, LPD and LPDAR schedules and
/// their weighted throughputs.
#[derive(Clone, Debug)]
pub struct PipelineAnswer {
    /// Stage-1 maximum concurrent throughput.
    pub z_star: f64,
    /// Fractional Stage-2 schedule.
    pub lp: Schedule,
    /// Truncated schedule.
    pub lpd: Schedule,
    /// Adjusted schedule.
    pub lpdar: Schedule,
    /// Weighted throughput of `lp`.
    pub lp_throughput: f64,
    /// Weighted throughput of `lpdar`.
    pub lpdar_throughput: f64,
}

impl PipelineAnswer {
    /// LPDAR throughput over LP throughput (1 when LP moves nothing).
    pub fn lpdar_norm(&self) -> f64 {
        if self.lp_throughput > 0.0 {
            self.lpdar_throughput / self.lp_throughput
        } else {
            1.0
        }
    }

    /// Hash of every value, bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.f64(self.z_star);
        h.f64s(&self.lp.x);
        h.f64s(&self.lpd.x);
        h.f64s(&self.lpdar.x);
        h.f64(self.lp_throughput);
        h.f64(self.lpdar_throughput);
        h.finish()
    }

    /// True when both answers are byte-equal.
    pub fn bits_eq(&self, other: &PipelineAnswer) -> bool {
        fn eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        eq(
            &[self.z_star, self.lp_throughput, self.lpdar_throughput],
            &[other.z_star, other.lp_throughput, other.lpdar_throughput],
        ) && eq(&self.lp.x, &other.lp.x)
            && eq(&self.lpd.x, &other.lpd.x)
            && eq(&self.lpdar.x, &other.lpdar.x)
    }
}

fn check_integral(inst: &Instance, s: &Schedule, what: &str) -> Result<(), String> {
    if !s.is_integral(INTEGRAL_TOL) {
        return Err(format!("{what} schedule is not integral"));
    }
    let over = s.max_capacity_violation(inst);
    if over > CAPACITY_TOL {
        return Err(format!("{what} schedule exceeds capacity by {over}"));
    }
    Ok(())
}

/// Checks a pipeline answer solved with fairness slack `alpha`: LPD and
/// LPDAR are integral and within capacity, and an LPDAR schedule that keeps
/// every job at its fairness floor `(1 - alpha) Z*` moves no more than the
/// LP optimum. (LPDAR may drop a job below its floor and then exceed the
/// LP's throughput: the LP bounds only schedules that keep the floors.)
pub fn check_pipeline(inst: &Instance, alpha: f64, a: &PipelineAnswer) -> Result<(), String> {
    if !a.z_star.is_finite() || a.z_star < 0.0 {
        return Err(format!(
            "Z* = {} is not a finite nonnegative value",
            a.z_star
        ));
    }
    check_integral(inst, &a.lpd, "LPD")?;
    check_integral(inst, &a.lpdar, "LPDAR")?;
    let floor = (1.0 - alpha) * a.z_star;
    let keeps_floors = (0..inst.num_jobs()).all(|i| a.lpdar.throughput(inst, i) >= floor);
    if keeps_floors && a.lpdar_throughput > a.lp_throughput * (1.0 + LP_OPT_TOL) {
        return Err(format!(
            "LPDAR keeps every fairness floor yet moves {} against the LP optimum {}",
            a.lpdar_throughput, a.lp_throughput
        ));
    }
    Ok(())
}

/// Checks a RET answer against the instance built from the same jobs at
/// `b = 0`: same jobs and demands, `b_lp <= b_final`, and both the LP and
/// the LPDAR schedule finish every job at `b_final`.
pub fn check_ret(base: &Instance, r: &RetResult) -> Result<(), String> {
    if r.b_lp > r.b_final {
        return Err(format!("b_lp {} exceeds b_final {}", r.b_lp, r.b_final));
    }
    if r.instance.demands != base.demands {
        return Err("RET instance demands differ from the submitted jobs".into());
    }
    for (name, s) in [("LP", &r.lp), ("LPDAR", &r.lpdar)] {
        if let Some(i) =
            (0..r.instance.num_jobs()).find(|&i| !s.completes(&r.instance, i, COMPLETION_TOL))
        {
            return Err(format!(
                "{name} leaves job {i} unfinished at b_final {}",
                r.b_final
            ));
        }
    }
    check_integral(&r.instance, &r.lpdar, "RET LPDAR")
}

/// Hash of a RET answer, bit for bit.
pub fn ret_fingerprint(r: &RetResult) -> u64 {
    let mut h = Fnv::default();
    h.f64(r.b_lp);
    h.f64(r.b_final);
    h.f64s(&r.lp.x);
    h.f64s(&r.lpdar.x);
    h.finish()
}

/// Checks a streamed replay: every job is accounted for exactly once and
/// no more volume moved than was requested.
pub fn check_replay(jobs: usize, r: &StreamReport) -> Result<(), String> {
    if r.jobs_seen != jobs {
        return Err(format!("replay saw {} of {jobs} jobs", r.jobs_seen));
    }
    let accounted = r.completed + r.expired + r.rejected + r.unfinished;
    if accounted != r.jobs_seen {
        return Err(format!(
            "completed {} + expired {} + rejected {} + unfinished {} != {} jobs seen",
            r.completed, r.expired, r.rejected, r.unfinished, r.jobs_seen
        ));
    }
    if r.on_time > r.completed {
        return Err(format!(
            "{} on time but only {} completed",
            r.on_time, r.completed
        ));
    }
    if r.volume_moved > r.volume_requested * (1.0 + 1e-9) {
        return Err(format!(
            "moved volume {} exceeds requested volume {}",
            r.volume_moved, r.volume_requested
        ));
    }
    Ok(())
}

/// Hash of a replay's outcome: its decision log and aggregate counts.
pub fn replay_fingerprint(log_hash: u64, r: &StreamReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(log_hash);
    for n in [
        r.jobs_seen,
        r.completed,
        r.on_time,
        r.rejected,
        r.expired,
        r.unfinished,
        r.invocations,
        r.slices,
    ] {
        h.u64(n as u64);
    }
    h.f64(r.volume_moved);
    h.f64(r.volume_requested);
    h.finish()
}
