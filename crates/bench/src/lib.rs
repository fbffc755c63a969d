//! # wavesched-bench — experiment harness
//!
//! One binary per figure/table of the paper's evaluation (Section III),
//! plus ablations. Every binary prints a CSV table to stdout whose rows
//! correspond to the series in the paper; EXPERIMENTS.md records
//! paper-vs-measured values.
//!
//! Binaries accept their scale knobs from environment variables so a quick
//! smoke run and the full reproduction use the same code:
//!
//! * `WS_JOBS` — override the job count(s)
//! * `WS_SEEDS` — number of workload seeds to average over (default 3)
//! * `WS_QUICK=1` — shrink everything for a fast smoke run
//! * `WS_THREADS` — work-pool width for seed replications and sweep
//!   points ([`par_seeds`] / [`par_points`]; default: available cores,
//!   `1` = exact serial). Results are bit-identical at any width — only
//!   wall-clock columns vary (see `tests/determinism.rs`).
//!
//! Every binary also accepts two CLI flags (parsed by [`bench_opts`]):
//!
//! * `--smoke` — same as `WS_QUICK=1`
//! * `--report <path>` — enable the `wavesched-obs` layer and dump a
//!   JSON-lines metrics snapshot (span durations, solver counters,
//!   histograms) to `path` on exit

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::ret::RetConfig;
use wavesched_net::{waxman_network, Graph, PathSet, WaxmanConfig};
use wavesched_workload::{Job, WorkloadConfig, WorkloadGenerator};

/// Reads a `usize` environment knob with a default: unset resolves to
/// `default`, anything set must parse. (`Err` carries the usage message.)
/// A knob that silently fell back to its default would run the wrong
/// experiment and label the output with the right one — every misparse is
/// an error.
pub fn try_env_usize(name: &str, default: usize) -> Result<usize, String> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a valid unsigned integer")),
    }
}

/// Reads a `usize` environment knob with a default, exiting loudly
/// (status 2, like unknown CLI flags) when the variable is set but
/// unparseable.
pub fn env_usize(name: &str, default: usize) -> usize {
    match try_env_usize(name, default) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Runs `f` once per seed across the `WS_THREADS` work pool, returning
/// results in seed order — replications are independent by construction,
/// and the order-preserving pool keeps every downstream mean/CSV row
/// bit-identical to the serial loop ([`wavesched_par::par_map`]).
pub fn par_seeds<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    wavesched_par::par_map(seeds, |&s| f(s))
}

/// Maps independent sweep points (job counts, alphas, orders, …) across
/// the `WS_THREADS` work pool, preserving input order. See [`par_seeds`].
pub fn par_points<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    wavesched_par::par_map(points, f)
}

static SMOKE: AtomicBool = AtomicBool::new(false);

/// True when `WS_QUICK=1` (env) or `--smoke` (CLI, via [`bench_opts`]) asks
/// for a smoke-scale run.
pub fn quick() -> bool {
    SMOKE.load(Relaxed) || std::env::var("WS_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Switches this process to smoke scale, as `--smoke` does; for tests that
/// rebuild a binary's smoke instances in process.
pub fn set_smoke() {
    SMOKE.store(true, Relaxed);
}

/// CLI options shared by every bench binary.
#[derive(Debug, Default)]
pub struct BenchOpts {
    /// Where to write the JSON-lines metrics report, if requested.
    pub report: Option<String>,
    /// Solve through the delayed column-generation pipeline instead of the
    /// monolithic builds (binaries that support it document what changes;
    /// the default-config outputs stay byte-identical because the flag is
    /// strictly opt-in).
    pub colgen: bool,
}

/// Parses the common bench CLI (`--smoke`, `--report <path>`, `--colgen`),
/// turning on the observability layer when a report is requested. Exits
/// with a usage message on unknown arguments, so typos fail loudly instead
/// of silently running the full-scale experiment.
pub fn bench_opts() -> BenchOpts {
    let mut opts = BenchOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => set_smoke(),
            "--colgen" => opts.colgen = true,
            "--report" => match args.next() {
                Some(path) => opts.report = Some(path),
                None => {
                    eprintln!("--report needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}; supported: --smoke, --colgen, --report <path>"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.report.is_some() {
        wavesched_obs::set_enabled(true);
    }
    opts
}

/// Writes the JSON-lines metrics snapshot to the `--report` path, if one
/// was given. Call at the end of `main`.
pub fn write_report(opts: &BenchOpts) {
    let Some(path) = &opts.report else {
        return;
    };
    let text = wavesched_obs::to_json_lines(&wavesched_obs::snapshot());
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("failed to write report {path:?}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} metric lines to {path}", text.lines().count());
}

/// The paper's random evaluation network: 100 nodes, 200 link pairs,
/// average node degree 4, 20 Gbps links split into `w` wavelengths.
pub fn paper_random_network(w: u32, seed: u64) -> Graph {
    let mut cfg = WaxmanConfig::paper_default(seed);
    cfg.wavelengths = w;
    if quick() {
        cfg.nodes = 30;
        cfg.link_pairs = 60;
    }
    waxman_network(&cfg)
}

/// The batch workload used by the figure experiments: `n` jobs, sizes
/// uniform [1, 100] GB, windows uniform [4, 10] slices (chosen so the
/// 100-node instances sit at/near overload — see EXPERIMENTS.md).
pub fn fig_workload(g: &Graph, n: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n,
        seed,
        size_gb: (1.0, 100.0),
        window: (4.0, 10.0),
        ..Default::default()
    })
    .generate(g)
}

/// Fig. 4's job counts: 10 and 20 at smoke scale, else the four quarters of
/// `WS_JOBS` (default 100).
pub fn fig4_job_counts() -> Vec<usize> {
    if quick() {
        vec![10, 20]
    } else {
        let max = env_usize("WS_JOBS", 100);
        (1..=4).map(|k| k * max / 4).collect()
    }
}

/// Fig. 4's RET instance at `n` jobs: heavy transfers (100–400 GB) in short
/// windows (2–4 slices) on the random network at W = 2, searched with
/// bisection tolerance 0.05 and `b_max` = 10.
pub fn fig4_ret_case(n: usize) -> (Graph, Vec<Job>, InstanceConfig, RetConfig) {
    let w = 2;
    let g = paper_random_network(w, 42);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let ret_cfg = RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        ..RetConfig::default()
    };
    (g, jobs, InstanceConfig::paper(w), ret_cfg)
}

/// Builds the instance for `w` wavelengths per link (capacity constant at
/// 20 Gbps, paper Figs. 1–2).
pub fn build_instance(g: &Graph, jobs: &[Job], w: u32, paths_per_job: usize) -> Instance {
    let cfg = InstanceConfig {
        paths_per_job,
        ..InstanceConfig::paper(w)
    };
    let mut ps = PathSet::new(cfg.paths_per_job);
    Instance::build(g, jobs, &cfg, &mut ps)
}

/// Seconds as a fixed-point string for CSV output.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_helper_respects_quick() {
        // Without WS_QUICK the paper shape is produced (env not set in tests
        // unless exported); just exercise the builder.
        let g = paper_random_network(4, 1);
        assert!(g.num_nodes() == 100 || g.num_nodes() == 30);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn workload_helper() {
        let g = paper_random_network(4, 1);
        let jobs = fig_workload(&g, 20, 5);
        assert_eq!(jobs.len(), 20);
        assert!(jobs.iter().all(|j| j.size_gb <= 100.0));
    }

    #[test]
    fn mean_and_env() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(env_usize("WS_SURELY_UNSET_VAR", 7), 7);
    }

    #[test]
    fn env_knobs_fail_loudly_on_garbage() {
        // Unset -> default; set-but-unparseable -> Err (env_usize exits).
        assert_eq!(try_env_usize("WS_TEST_UNSET_KNOB", 3), Ok(3));
        std::env::set_var("WS_TEST_GARBAGE_KNOB", "12abc");
        assert!(try_env_usize("WS_TEST_GARBAGE_KNOB", 3).is_err());
        std::env::set_var("WS_TEST_GARBAGE_KNOB", "-4");
        assert!(try_env_usize("WS_TEST_GARBAGE_KNOB", 3).is_err());
        std::env::set_var("WS_TEST_GARBAGE_KNOB", "");
        assert!(try_env_usize("WS_TEST_GARBAGE_KNOB", 3).is_err());
        std::env::set_var("WS_TEST_GARBAGE_KNOB", "42");
        assert_eq!(try_env_usize("WS_TEST_GARBAGE_KNOB", 3), Ok(42));
        std::env::remove_var("WS_TEST_GARBAGE_KNOB");
        // WS_THREADS itself goes through the same loud-failure policy,
        // with 0 additionally rejected (crates/par owns that parse).
        assert!(wavesched_par::parse_threads(Some("0"), 4).is_err());
        assert!(wavesched_par::parse_threads(Some("two"), 4).is_err());
        assert_eq!(wavesched_par::parse_threads(Some("2"), 4), Ok(2));
    }

    #[test]
    fn par_helpers_preserve_order() {
        let seeds: Vec<u64> = (100..140).collect();
        let out = par_seeds(&seeds, |s| s * 7);
        assert_eq!(out, seeds.iter().map(|s| s * 7).collect::<Vec<_>>());
        let points = [5usize, 1, 9, 2];
        let out = par_points(&points, |&p| p + 1);
        assert_eq!(out, vec![6, 2, 10, 3]);
    }
}
