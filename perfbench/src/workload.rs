//! The three workloads: their inputs (made from the seed), one timed
//! scheduling call per input item, and the checks on each answer.

use crate::checks::{self, Fnv, PipelineAnswer};
use std::io::Write;
use std::time::{Duration, Instant};
use wavesched_core::controller::ControllerConfig;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::lpdar::{adjust_rates, truncate, AdjustOrder};
use wavesched_core::pipeline::max_throughput_pipeline;
use wavesched_core::ret::{solve_ret, RetConfig};
use wavesched_core::stage1::build_stage1_problem;
use wavesched_core::stage2::{
    solve_stage2_weighted_with_start, stage2_basis_from_stage1, WeightPolicy,
};
use wavesched_lp::{solve_with_start, SimplexConfig, Status};
use wavesched_net::{abilene14, waxman_network, Graph, PathSet, WaxmanConfig};
use wavesched_sim::{run_simulation_streamed, SimConfig};
use wavesched_workload::{ArrivalModel, Job, WorkloadConfig, WorkloadGenerator};

/// Stage-2 fairness slack α (the paper's evaluation value).
pub const ALPHA: f64 = 0.1;
/// Seed of the paper's 100-node Waxman network (the one the fig. 3 and
/// fig. 4 regenerators use). The topology is part of the experiment, not
/// of the input draw; the benchmark seed draws the jobs.
const NETWORK_SEED: u64 = 42;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3: the two-stage pipeline on batches of jobs, 100-node network.
    PipelineBatch,
    /// Fig. 4: the RET search on overloaded batches, 100-node network.
    RetOverload,
    /// A Poisson arrival stream through the periodic controller, Abilene.
    OnlineReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PipelineBatch,
        Workload::RetOverload,
        Workload::OnlineReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineBatch => "pipeline_batch",
            Workload::RetOverload => "ret_overload",
            Workload::OnlineReplay => "online_replay",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size of the workload.
    pub fn spec(self) -> Spec {
        match self {
            // 30 batches of 60 jobs, 0.3-1.3 s of cold LP each.
            Workload::PipelineBatch => Spec {
                items: 30,
                jobs: 60,
                large: None,
                pass_seconds: 20,
            },
            // 60 batches: every tenth has 55 jobs, the rest 45. From 50
            // jobs up, RET's cost is heavy-tailed: at 55 jobs about one
            // batch in six takes 2-45 s against a 0.45 s median, so a set of
            // 55-job batches alone overruns the run-time limit and its
            // median moves by more than a quarter between seeds. The 55-job
            // batches keep that tail in every run, never filtered by solve
            // time; the 45-job batches (0.17-0.5 s, no tail seen in 50
            // draws) keep the median steady.
            Workload::RetOverload => Spec {
                items: 60,
                jobs: 45,
                large: Some(Large {
                    every: 10,
                    jobs: 55,
                }),
                pass_seconds: 20,
            },
            // One stream of 20k arrivals: ~250 controller periods.
            Workload::OnlineReplay => Spec {
                items: 1,
                jobs: 20_000,
                large: None,
                pass_seconds: 16,
            },
        }
    }
}

/// How many input items a pass covers, and the jobs in each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Independent inputs (batches, or streams for `online_replay`).
    pub items: usize,
    /// Jobs per item.
    pub jobs: usize,
    /// Larger items at a fixed stride, if any.
    pub large: Option<Large>,
    /// Run time that buys one pass: a run of `--seconds s` makes
    /// `max(1, s / pass_seconds)` passes, so the work per run does not
    /// depend on the speed of the host.
    pub pass_seconds: u64,
}

/// Every `every`-th item (the last of each stride) has `jobs` jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Large {
    /// Stride.
    pub every: usize,
    /// Jobs in each large item.
    pub jobs: usize,
}

impl Spec {
    /// Jobs in item `i`.
    pub fn jobs_of(&self, i: usize) -> usize {
        match self.large {
            Some(l) if i % l.every == l.every - 1 => l.jobs,
            _ => self.jobs,
        }
    }
}

/// Wall time of each set-up layer for one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Network construction.
    pub topology: Duration,
    /// Job generation.
    pub generate: Duration,
    /// `Instance::build` (Yen paths, variable map, capacity groups).
    pub build: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.topology + self.generate + self.build
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Which workload these are for.
    pub workload: Workload,
    /// The network.
    pub graph: Graph,
    /// The jobs of each item.
    pub jobs: Vec<Vec<Job>>,
    /// The instance of each item at the requested deadlines (empty for
    /// `online_replay`, whose controller builds its own every period).
    pub instances: Vec<Instance>,
}

/// splitmix64: decorrelates the per-item job seeds drawn from one
/// benchmark seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn item_seed(workload: Workload, seed: u64, item: usize) -> u64 {
    mix(mix(seed ^ ((workload as u64) << 56)) ^ item as u64)
}

fn wavelengths(workload: Workload) -> u32 {
    match workload {
        Workload::PipelineBatch | Workload::OnlineReplay => 4,
        Workload::RetOverload => 2,
    }
}

fn instance_config(workload: Workload) -> InstanceConfig {
    let w = wavelengths(workload);
    match workload {
        Workload::PipelineBatch => InstanceConfig {
            paths_per_job: 4,
            ..InstanceConfig::paper(w)
        },
        Workload::RetOverload => InstanceConfig::paper(w),
        Workload::OnlineReplay => InstanceConfig {
            paths_per_job: 2,
            ..InstanceConfig::paper(w)
        },
    }
}

fn job_config(workload: Workload, jobs: usize, seed: u64) -> WorkloadConfig {
    match workload {
        // The figure experiments' batch shape: sizes 1-100 GB, windows of
        // 4-10 slices, which puts the 100-node network at or near overload.
        Workload::PipelineBatch => WorkloadConfig {
            num_jobs: jobs,
            seed,
            size_gb: (1.0, 100.0),
            window: (4.0, 10.0),
            ..Default::default()
        },
        // Fig. 4's overload: 100-400 GB in 2-4 slices, so every deadline
        // must stretch.
        Workload::RetOverload => WorkloadConfig {
            num_jobs: jobs,
            seed,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        },
        // 20 arrivals per slice with short windows: a conveyor belt of
        // ~110 active jobs, not a pile-up.
        Workload::OnlineReplay => WorkloadConfig {
            num_jobs: jobs,
            seed,
            arrival: ArrivalModel::Poisson { rate: ONLINE_RATE },
            window: (4.0, 8.0),
            ..Default::default()
        },
    }
}

/// Poisson arrivals per slice on `online_replay`.
const ONLINE_RATE: f64 = 20.0;
/// Controller period τ, in slices, on `online_replay`.
const ONLINE_TAU: usize = 4;

/// Generates the inputs for `seed`, timing each set-up layer.
pub fn setup(workload: Workload, spec: Spec, seed: u64) -> (Inputs, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let graph = match workload {
        Workload::OnlineReplay => abilene14(wavelengths(workload)).0,
        _ => waxman_network(&WaxmanConfig {
            wavelengths: wavelengths(workload),
            ..WaxmanConfig::paper_default(NETWORK_SEED)
        }),
    };
    t.topology = start.elapsed();

    let start = Instant::now();
    let jobs: Vec<Vec<Job>> = (0..spec.items)
        .map(|i| {
            let cfg = job_config(workload, spec.jobs_of(i), item_seed(workload, seed, i));
            WorkloadGenerator::new(cfg).generate(&graph)
        })
        .collect();
    t.generate = start.elapsed();

    let start = Instant::now();
    let icfg = instance_config(workload);
    let instances = match workload {
        Workload::OnlineReplay => Vec::new(),
        _ => jobs
            .iter()
            .map(|j| Instance::build(&graph, j, &icfg, &mut PathSet::new(icfg.paths_per_job)))
            .collect(),
    };
    t.build = start.elapsed();
    (
        Inputs {
            workload,
            graph,
            jobs,
            instances,
        },
        t,
    )
}

impl Inputs {
    /// Fingerprint of every generated job.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.graph.num_edges() as u64);
        for j in &self.jobs {
            h.u64(checks::jobs_fingerprint(j));
        }
        h.finish()
    }
}

/// Accumulated wall time of the pipeline's public stages, from the
/// benchmark's staged replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// `build_stage1_problem`.
    pub stage1_build: Duration,
    /// `solve_with_start` on the Stage-1 LP.
    pub stage1_solve: Duration,
    /// `stage2_basis_from_stage1` plus `solve_stage2_weighted_with_start`.
    pub stage2: Duration,
    /// `truncate`.
    pub truncate: Duration,
    /// `adjust_rates`.
    pub adjust: Duration,
}

impl StageTimes {
    /// The staged replay's total.
    pub fn total(&self) -> Duration {
        self.stage1_build + self.stage1_solve + self.stage2 + self.truncate + self.adjust
    }
}

/// The answer to one item, as far as the aggregate metrics need it.
#[derive(Clone, Debug)]
pub(crate) enum Answer {
    /// A pipeline call.
    Pipeline(Box<PipelineAnswer>),
    /// A RET call: `(b_lp, b_final)`.
    Ret {
        /// Fractional extension.
        b_lp: f64,
        /// Extension at which LPDAR finishes every job.
        b_final: f64,
    },
    /// A replay.
    Replay {
        /// Jobs seen.
        seen: usize,
        /// Jobs completed by their requested end.
        on_time: usize,
        /// Delivered over requested volume.
        goodput: f64,
    },
}

/// One item's outcome.
pub(crate) struct ItemOut {
    /// Wall time of the scheduling call (the whole replay for
    /// `online_replay`).
    pub wall: Duration,
    /// The operations timed inside it: the call itself, or each controller
    /// period of a replay.
    pub ops: Vec<f64>,
    /// Bit-exact answer hash (hash of the error for a failed item).
    pub fingerprint: u64,
    /// The answer, or why the item failed.
    pub answer: Result<Answer, String>,
}

/// Runs item `i` once. `staged` replays the pipeline through its public
/// stages instead of the one-call entry point (`pipeline_batch` only).
pub(crate) fn run_item(inputs: &Inputs, i: usize, staged: Option<&mut StageTimes>) -> ItemOut {
    let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match inputs.workload {
        Workload::PipelineBatch => pipeline_item(&inputs.instances[i], staged),
        Workload::RetOverload => ret_item(inputs, i),
        Workload::OnlineReplay => replay_item(&inputs.graph, &inputs.jobs[i]),
    }));
    match call {
        Ok(out) => out,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            failed(Duration::ZERO, Vec::new(), format!("panicked: {msg}"))
        }
    }
}

fn failed(wall: Duration, ops: Vec<f64>, why: String) -> ItemOut {
    let mut h = Fnv::default();
    h.bytes(why.as_bytes());
    ItemOut {
        wall,
        ops,
        fingerprint: h.finish(),
        answer: Err(why),
    }
}

fn pipeline_item(inst: &Instance, staged: Option<&mut StageTimes>) -> ItemOut {
    let start = Instant::now();
    let answer = match staged {
        None => max_throughput_pipeline(inst, ALPHA)
            .map_err(|e| format!("pipeline: {e:?}"))
            .map(|r| PipelineAnswer {
                z_star: r.z_star,
                lp: r.lp,
                lpd: r.lpd,
                lpdar: r.lpdar,
                lp_throughput: r.lp_throughput,
                lpdar_throughput: r.lpdar_throughput,
            }),
        Some(times) => pipeline_staged(inst, times),
    };
    let wall = start.elapsed();
    let ops = vec![wall.as_secs_f64()];
    match answer.and_then(|a| checks::check_pipeline(inst, ALPHA, &a).map(|_| a)) {
        Ok(a) => ItemOut {
            wall,
            ops,
            fingerprint: a.fingerprint(),
            answer: Ok(Answer::Pipeline(Box::new(a))),
        },
        Err(e) => failed(wall, ops, e),
    }
}

/// The two-stage pipeline through its public stages, each timed: the same
/// calls, in the same order and with the same settings, as
/// `max_throughput_pipeline`.
pub fn pipeline_staged(inst: &Instance, t: &mut StageTimes) -> Result<PipelineAnswer, String> {
    let cfg = SimplexConfig::default();
    let s = Instant::now();
    let p = build_stage1_problem(inst);
    t.stage1_build += s.elapsed();

    let s = Instant::now();
    let sol = solve_with_start(&p, &cfg, None).map_err(|e| format!("stage 1: {e:?}"))?;
    t.stage1_solve += s.elapsed();
    if sol.status != Status::Optimal {
        return Err(format!("stage 1 ended {}", sol.status));
    }
    let z_star = sol.objective;

    let s = Instant::now();
    let start = sol
        .basis
        .as_ref()
        .and_then(|b| stage2_basis_from_stage1(b, inst.vars.len()));
    let s2 = solve_stage2_weighted_with_start(
        inst,
        z_star,
        ALPHA,
        &WeightPolicy::DemandProportional,
        &cfg,
        start.as_ref(),
    )
    .map_err(|e| format!("stage 2: {e:?}"))?;
    t.stage2 += s.elapsed();

    let s = Instant::now();
    let lpd = truncate(inst, &s2.schedule);
    t.truncate += s.elapsed();

    let s = Instant::now();
    let lpdar = adjust_rates(inst, &lpd, AdjustOrder::Paper);
    t.adjust += s.elapsed();

    Ok(PipelineAnswer {
        z_star,
        lp_throughput: s2.schedule.weighted_throughput(inst),
        lpdar_throughput: lpdar.weighted_throughput(inst),
        lp: s2.schedule,
        lpd,
        lpdar,
    })
}

/// Fig. 4's RET settings: Quick-Finish, δ = 0.1, bisection tolerance 0.05,
/// `b_max` = 10, on the pinned pool width.
pub fn ret_config() -> RetConfig {
    RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        threads: crate::POOL_WIDTH,
        ..RetConfig::default()
    }
}

fn ret_item(inputs: &Inputs, i: usize) -> ItemOut {
    let icfg = instance_config(Workload::RetOverload);
    let start = Instant::now();
    let out = solve_ret(&inputs.graph, &inputs.jobs[i], &icfg, &ret_config());
    let wall = start.elapsed();
    let ops = vec![wall.as_secs_f64()];
    match out {
        Err(e) => failed(wall, ops, format!("ret: {e:?}")),
        Ok(None) => failed(
            wall,
            ops,
            "ret: no extension up to b_max finishes every job".into(),
        ),
        Ok(Some(r)) => match checks::check_ret(&inputs.instances[i], &r) {
            Err(e) => failed(wall, ops, e),
            Ok(()) => ItemOut {
                wall,
                ops,
                fingerprint: checks::ret_fingerprint(&r),
                answer: Ok(Answer::Ret {
                    b_lp: r.b_lp,
                    b_final: r.b_final,
                }),
            },
        },
    }
}

/// Decision-log sink that times controller periods from outside: it
/// timestamps every `invoke` line the replay writes, and hashes the whole
/// log for the answer fingerprint.
struct PeriodClock {
    last: Instant,
    periods: Vec<f64>,
    line: Vec<u8>,
    hash: Fnv,
}

impl Write for PeriodClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                if self.line.starts_with(b"invoke ") {
                    let now = Instant::now();
                    self.periods.push((now - self.last).as_secs_f64());
                    self.last = now;
                }
                self.hash.bytes(&self.line);
                self.hash.bytes(b"\n");
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn replay_item(graph: &Graph, jobs: &[Job]) -> ItemOut {
    let mut controller = ControllerConfig::paper(wavelengths(Workload::OnlineReplay));
    controller.tau = ONLINE_TAU;
    controller.instance = instance_config(Workload::OnlineReplay);
    let cfg = SimConfig {
        controller,
        // Arrivals span ~jobs/rate slices; the slack lets the tail drain.
        max_slices: (jobs.len() as f64 / ONLINE_RATE).ceil() as usize + 500,
    };
    let start = Instant::now();
    let mut clock = PeriodClock {
        last: start,
        periods: Vec::with_capacity(cfg.max_slices / ONLINE_TAU + 1),
        line: Vec::new(),
        hash: Fnv::default(),
    };
    let out = run_simulation_streamed(graph, jobs.iter().cloned(), &cfg, Some(&mut clock));
    let wall = start.elapsed();
    let ops = std::mem::take(&mut clock.periods);
    match out {
        Err(e) => failed(wall, ops, format!("replay: {e:?}")),
        Ok(r) => match checks::check_replay(jobs.len(), &r) {
            Err(e) => failed(wall, ops, e),
            Ok(()) => ItemOut {
                wall,
                ops,
                fingerprint: checks::replay_fingerprint(clock.hash.finish(), &r),
                answer: Ok(Answer::Replay {
                    seen: r.jobs_seen,
                    on_time: r.on_time,
                    goodput: r.goodput(),
                }),
            },
        },
    }
}
