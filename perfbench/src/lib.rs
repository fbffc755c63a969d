//! # wavesched-perfbench
//!
//! The repository's benchmark: three workloads taken from the paper's
//! offline two-stage and RET problems and from online, arrival-driven
//! admission, measured end to end with tracing off and, in a separate
//! traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_batch --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run makes its inputs from `--seed`, sets them up several times (the
//! median is `setup_s`), then times `max(1, seconds / pass_seconds)` passes
//! over them; each operation's best time over the passes enters the
//! medians, since interference from other processes only ever adds time.
//! Every answer is checked; a failed check or an error is a failed
//! operation. The last stdout line is the result object; the line before it
//! stamps the host and the answer fingerprint.
//!
//! With `--trace 1` the run makes one pass with the `wavesched-obs` layer
//! on and reports the per-layer metrics of that pass; the first quarter of
//! the items also runs untraced, each right before its traced run, for the
//! tracing overhead. `pipeline_batch` replays its pipeline through the
//! public stages in the traced pass and checks the answers are byte-equal
//! to the one-call entry point.

pub mod checks;
pub mod json;
pub mod metrics;
pub mod workload;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};
use wavesched_obs as obs;
use workload::{Answer, ItemOut, Spec, StageTimes, Workload};

/// Pinned `wavesched-par` pool width: the plain single-thread baseline.
/// Only the RET search's speculative probing uses the pool.
pub const POOL_WIDTH: usize = 1;
/// Set-ups per run: at least `SETUP_REPS`, and more until `SETUP_MIN`
/// has been spent (at most `SETUP_MAX_REPS`); `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_millis(250);
const SETUP_MAX_REPS: usize = 200;
/// Items slower than this multiple of the median item are timed once.
const REPEAT_OVER_MEDIAN: f64 = 4.0;

/// Solver knobs read from the environment that would change what is
/// measured; the benchmark clears them so every run measures the defaults.
const SOLVER_ENV_KNOBS: &[&str] = &["WS_PRICING", "WS_REFACTOR", "WS_SANITIZE"];

/// Pins the process environment the library reads: the pool width, and
/// no solver overrides. Call before anything else runs.
pub fn pin_environment() {
    std::env::set_var("WS_THREADS", POOL_WIDTH.to_string());
    for k in SOLVER_ENV_KNOBS {
        std::env::remove_var(k);
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The command-line synopsis.
pub const USAGE: &str = "usage: perfbench --workload <pipeline_batch|ret_overload|online_replay> \
                         --seed <n> --seconds <n> --trace <0|1>";

impl Options {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`; all four
    /// are required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// No operation failed and every answer repeated exactly.
    pub correct: bool,
    /// Scheduling calls attempted (each item of each pass).
    pub attempted: u64,
    /// Calls that errored, failed a check, or changed answer between passes.
    pub failed: u64,
    /// Every declared metric of the run's kind, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Hash of every answer of one full pass.
    pub fingerprint: u64,
    /// Hash of every generated input.
    pub input_fingerprint: u64,
    /// Full passes timed.
    pub passes: usize,
    /// Wall time of each item's scheduling call in the first timed pass.
    pub item_s: Vec<f64>,
    /// Why operations failed (first few).
    pub errors: Vec<String>,
}

/// Runs `opts` at the workload's measured size.
pub fn run(opts: &Options) -> Report {
    run_spec(opts, opts.workload.spec())
}

/// Counts attempts and failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Records `out` as an attempt of item `i`; `repeats` says whether its
    /// answer equals the item's reference answer.
    fn record(&mut self, i: usize, out: &ItemOut, repeats: bool) {
        self.attempted += 1;
        if let Err(e) = &out.answer {
            self.fail(format!("item {i}: {e}"));
        } else if !repeats {
            self.fail(format!(
                "item {i}: answer differs from the item's first run"
            ));
        }
    }
}

/// Runs `opts` on an explicit size (the tests use small ones).
pub fn run_spec(opts: &Options, spec: Spec) -> Report {
    let w = opts.workload;
    // One untimed set-up first: the first allocations and the cold caches
    // of a fresh process are not what a repeated set-up costs.
    drop(workload::setup(w, spec, opts.seed));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let setup_start = Instant::now();
    let inputs = loop {
        let (inp, t) = workload::setup(w, spec, opts.seed);
        setups.push(t);
        let n = setups.len();
        if n >= SETUP_MAX_REPS || (n >= SETUP_REPS && setup_start.elapsed() >= SETUP_MIN) {
            break inp;
        }
    };
    let setup_med = |f: fn(&workload::SetupTimes) -> Duration| {
        median(
            &setups
                .iter()
                .map(|t| f(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let mut tally = Tally::default();

    let (values, fingerprint, passes, item_s) = if !opts.trace {
        let count = (opts.seconds / spec.pass_seconds.max(1)).max(1);
        let first: Vec<ItemOut> = (0..spec.items)
            .map(|i| workload::run_item(&inputs, i, None))
            .collect();
        for (i, out) in first.iter().enumerate() {
            tally.record(i, out, true);
        }
        // Later passes repeat every item but the slow tail: an item over
        // REPEAT_OVER_MEDIAN times the first pass's median keeps its one
        // time (it lies far above the median either way, and repeating
        // RET's 2-45 s batches would overrun the run).
        let walls = item_walls(&first);
        let cap = REPEAT_OVER_MEDIAN * median(&walls);
        let mut best: Vec<Vec<f64>> = first.iter().map(|o| o.ops.clone()).collect();
        for _ in 1..count {
            for (i, f) in first.iter().enumerate() {
                if walls[i] > cap {
                    continue;
                }
                let out = workload::run_item(&inputs, i, None);
                tally.record(i, &out, out.fingerprint == f.fingerprint);
                for (b, t) in best[i].iter_mut().zip(&out.ops) {
                    *b = b.min(*t);
                }
            }
        }
        let ops: Vec<f64> = best.into_iter().flatten().collect();
        let op_p50 = median(&ops);
        let peak = peak_rss_mib().unwrap_or_else(|e| {
            tally.fail(e);
            f64::NAN
        });
        let values = vec![
            ("setup_s", setup_med(|t| t.total())),
            ("op_ms_p50", op_p50 * 1e3),
            ("peak_rss_mib", peak),
            ("answer_quality", answer_quality(w, &first)),
        ];
        (values, pass_fingerprint(&first), count as usize, walls)
    } else {
        // The first quarter of the items runs twice, untraced and then
        // traced, back to back, so that drift in the host's speed does not
        // enter the overhead and stage-sum ratios.
        let prefix = spec.items.div_ceil(4);
        let staged = w == Workload::PipelineBatch;
        let mut stages = StageTimes::default();
        let mut stage_prefix = Duration::ZERO;
        let mut plain = Vec::with_capacity(prefix);
        let mut traced = Vec::with_capacity(spec.items);
        obs::reset();
        for i in 0..spec.items {
            if i < prefix {
                plain.push(workload::run_item(&inputs, i, None));
            }
            obs::set_enabled(true);
            traced.push(workload::run_item(
                &inputs,
                i,
                staged.then_some(&mut stages),
            ));
            obs::set_enabled(false);
            if i + 1 == prefix {
                stage_prefix = stages.total();
            }
        }
        for (i, out) in plain.iter().enumerate() {
            tally.record(i, out, true);
        }
        let snap = obs::snapshot();

        // The traced answers must repeat the untraced ones; on
        // `pipeline_batch` the staged replay must be byte-equal to the
        // one-call pipeline.
        for (i, out) in traced.iter().enumerate() {
            let repeats = match (plain.get(i).map(|p| &p.answer), &out.answer) {
                (Some(Ok(Answer::Pipeline(a))), Ok(Answer::Pipeline(b))) => a.bits_eq(b),
                _ => plain
                    .get(i)
                    .is_none_or(|p| p.fingerprint == out.fingerprint),
            };
            tally.record(i, out, repeats);
        }

        let plain_s: f64 = plain.iter().map(|o| o.wall.as_secs_f64()).sum();
        let traced_prefix_s: f64 = traced[..prefix].iter().map(|o| o.wall.as_secs_f64()).sum();
        let ops: Vec<f64> = traced.iter().flat_map(|o| o.ops.iter().copied()).collect();
        let op_p50 = median(&ops);
        let snapshot_stages = |suffix| span_s(&snap, suffix);
        let stage_values = if staged {
            [
                stages.stage1_build.as_secs_f64(),
                stages.stage1_solve.as_secs_f64(),
                stages.stage2.as_secs_f64(),
                stages.truncate.as_secs_f64(),
                stages.adjust.as_secs_f64(),
            ]
        } else {
            [
                snapshot_stages("pipeline/stage1/build"),
                snapshot_stages("pipeline/stage1/lp_solve"),
                snapshot_stages("pipeline/stage2"),
                snapshot_stages("pipeline/lpd"),
                snapshot_stages("pipeline/lpdar"),
            ]
        };
        let c = |name| counter(&snap, name);
        let iters = c("lp.iterations");
        let per_iter = |x: f64| if iters > 0.0 { x / iters } else { 0.0 };
        let probe_s = span_s(&snap, "ret_probe");
        let growth_s = span_s(&snap, "ret_growth_step");
        let invoke_s = span_s(&snap, "invoke");
        let (lpdar_norm, b_lp, b_final, on_time, goodput) = answer_details(&traced);
        let values = vec![
            ("net.topology_s", setup_med(|t| t.topology)),
            ("workload.generate_s", setup_med(|t| t.generate)),
            ("core.instance.build_s", setup_med(|t| t.build)),
            ("core.stage1.build_s", stage_values[0]),
            ("lp.stage1.solve_s", stage_values[1]),
            ("core.stage2_s", stage_values[2]),
            ("core.lpdar.truncate_s", stage_values[3]),
            ("core.lpdar.adjust_s", stage_values[4]),
            ("lp.solves", c("lp.solves")),
            ("lp.iterations", iters),
            ("lp.phase1_iterations", c("lp.phase1_iterations")),
            ("lp.degenerate_frac", per_iter(c("lp.degenerate_pivots"))),
            (
                "lp.ftran_dense_frac",
                per_iter(c("lp.ftran_dense_fallbacks")),
            ),
            (
                "lp.btran_dense_frac",
                per_iter(c("lp.btran_dense_fallbacks")),
            ),
            (
                "lp.scanned_per_iter",
                per_iter(c("lp.pricing_candidates_scanned")),
            ),
            ("lp.us_per_iter", per_iter(span_s(&snap, "lp_solve") * 1e6)),
            (
                "lp.warm_accept_frac",
                ratio(c("lp.warm_starts_accepted"), c("lp.solves")),
            ),
            ("lp.dual_iterations", c("lp.dual_iterations")),
            ("lp.lu_reuse_hits", c("lp.lu_reuse_hits")),
            ("lp.reuse_rejected", c("lp.refactor_reuse_rejected")),
            ("lp.refactorizations", c("lp.refactorizations")),
            (
                "lp.refactor_events",
                hist_count(&snap, "lp.eta_len_at_refactor"),
            ),
            ("core.ret.probe_s", probe_s),
            ("core.ret.probes", c("ret.probes")),
            ("core.ret.growth_s", growth_s),
            ("core.ret.growth_rounds", c("ret.growth_rounds")),
            (
                "core.ret.self_s",
                (span_s(&snap, "ret") - probe_s - growth_s).max(0.0),
            ),
            ("core.controller.invoke_s", invoke_s),
            ("core.controller.admitted", c("controller.admitted")),
            ("core.controller.rejected", c("controller.rejected")),
            ("sim.slice_s", (span_s(&snap, "slice") - invoke_s).max(0.0)),
            ("sim.slices", c("sim.slices")),
            (
                "run.pass_s",
                traced.iter().map(|o| o.wall.as_secs_f64()).sum(),
            ),
            ("run.op_ms_p95", quantile(&ops, 0.95) * 1e3),
            (
                "run.op_max_over_p50",
                ratio(ops.iter().copied().fold(0.0, f64::max), op_p50),
            ),
            ("trace.overhead_frac", ratio(traced_prefix_s, plain_s) - 1.0),
            (
                "trace.stage_sum_ratio",
                if staged {
                    ratio(stage_prefix.as_secs_f64(), plain_s)
                } else {
                    0.0
                },
            ),
            ("answer.lpdar_norm", lpdar_norm),
            ("answer.ret_b_lp", b_lp),
            ("answer.ret_b_final", b_final),
            ("answer.on_time_frac", on_time),
            ("answer.goodput", goodput),
            (
                "checks.failed_frac",
                ratio(tally.failed as f64, tally.attempted as f64),
            ),
        ];
        (values, pass_fingerprint(&traced), 1, item_walls(&traced))
    };

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|def| {
            let v = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(f64::NAN, |&(_, v)| v);
            (def, v)
        })
        .collect::<Vec<_>>();
    for (def, v) in &metrics {
        if !v.is_finite() {
            tally.fail(format!("metric {} is not a finite number", def.name));
        }
    }
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fingerprint,
        input_fingerprint: inputs.fingerprint(),
        passes,
        item_s,
        errors: tally.errors,
    }
}

fn item_walls(pass: &[ItemOut]) -> Vec<f64> {
    pass.iter().map(|o| o.wall.as_secs_f64()).collect()
}

fn pass_fingerprint(pass: &[ItemOut]) -> u64 {
    let mut h = checks::Fnv::default();
    for o in pass {
        h.u64(o.fingerprint);
    }
    h.finish()
}

/// `(lpdar_norm, b_lp, b_final, on_time_frac, goodput)` means over the
/// answered items; 0 where the workload has no such answer.
fn answer_details(pass: &[ItemOut]) -> (f64, f64, f64, f64, f64) {
    let (mut norm, mut b_lp, mut b_final, mut goodput) = (vec![], vec![], vec![], vec![]);
    let (mut seen, mut on_time) = (0usize, 0usize);
    for o in pass {
        match &o.answer {
            Ok(Answer::Pipeline(a)) => norm.push(a.lpdar_norm()),
            Ok(Answer::Ret {
                b_lp: l,
                b_final: f,
            }) => {
                b_lp.push(*l);
                b_final.push(*f);
            }
            Ok(Answer::Replay {
                seen: s,
                on_time: t,
                goodput: g,
            }) => {
                seen += s;
                on_time += t;
                goodput.push(*g);
            }
            Err(_) => {}
        }
    }
    (
        mean(&norm),
        mean(&b_lp),
        mean(&b_final),
        ratio(on_time as f64, seen as f64),
        mean(&goodput),
    )
}

/// The workload's answer-quality ratio (higher is better): how close the
/// integral LPDAR answer comes to the fractional LP bound on the batch
/// workloads — LPDAR over LP throughput on `pipeline_batch` (Fig. 3), the
/// LP's over LPDAR's extended end, `(1 + b_lp) / (1 + b_final)`, on
/// `ret_overload` (Fig. 4) — and the on-time share of arrivals on
/// `online_replay`.
fn answer_quality(w: Workload, pass: &[ItemOut]) -> f64 {
    let (norm, _, _, on_time, _) = answer_details(pass);
    match w {
        Workload::PipelineBatch => norm,
        Workload::RetOverload => {
            let stretch: Vec<f64> = pass
                .iter()
                .filter_map(|o| match &o.answer {
                    Ok(Answer::Ret { b_lp, b_final }) => Some((1.0 + b_lp) / (1.0 + b_final)),
                    _ => None,
                })
                .collect();
            mean(&stretch)
        }
        Workload::OnlineReplay => on_time,
    }
}

fn span_s(snap: &[obs::Metric], suffix: &str) -> f64 {
    let tail = format!("/{suffix}");
    snap.iter()
        .map(|m| match m {
            obs::Metric::Span { path, total_ns, .. } if path == suffix || path.ends_with(&tail) => {
                *total_ns as f64 * 1e-9
            }
            _ => 0.0,
        })
        .sum()
}

fn counter(snap: &[obs::Metric], name: &str) -> f64 {
    snap.iter()
        .find_map(|m| match m {
            obs::Metric::Counter { name: n, value } if n == name => Some(*value as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn hist_count(snap: &[obs::Metric], name: &str) -> f64 {
    snap.iter()
        .find_map(|m| match m {
            obs::Metric::Histogram { name: n, count, .. } if n == name => Some(*count as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Median (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(def.name),
                    json::quote(def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The stamp line: host fingerprint, run parameters and the answer and
    /// input fingerprints.
    pub fn stamp_json(&self, opts: &Options) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json::quote(e)).collect();
        let items: Vec<String> = self.item_s.iter().map(|t| format!("{t:.4}")).collect();
        format!(
            "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"passes\": {}, \"answer_fingerprint\": \"{:016x}\", \
             \"input_fingerprint\": \"{:016x}\", \"item_s\": [{}], \"errors\": [{}]}}",
            host_json(),
            json::quote(opts.workload.name()),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            self.passes,
            self.fingerprint,
            self.input_fingerprint,
            items.join(", "),
            errors.join(", ")
        )
    }
}

/// `nproc`, CPU model, rustc version, git revision, build profile and the
/// pinned pool width.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"profile\": {}, \"pool_width\": {}}}",
        json::quote(&cpu),
        json::quote(env!("PERFBENCH_RUSTC")),
        json::quote(&rev),
        json::quote(env!("PERFBENCH_PROFILE")),
        wavesched_par::threads()
    )
}
