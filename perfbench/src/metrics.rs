//! The benchmark's metric declarations: one table, read by the runner when
//! it emits a result and by the tests that hold `BENCHMARK.json` to it.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, as printed in the result line.
    pub name: &'static str,
    /// Unit, as printed in the result line.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the scheduler sees, printed with `--trace 0`. Every
/// workload emits every one of them; `op_ms_p50` and `answer_quality` are
/// defined per workload (see the README).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("answer_quality", "ratio", Higher, 0.15),
];

/// Per-layer metrics, printed with `--trace 1`. Every workload emits every
/// one of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up layers (all workloads).
    layer("net.topology_s", "s", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("core.instance.build_s", "s", Lower),
    // Pipeline stages (pipeline_batch: the staged replay; online_replay:
    // the controller's own stage spans).
    layer("core.stage1.build_s", "s", Lower),
    layer("lp.stage1.solve_s", "s", Lower),
    layer("core.stage2_s", "s", Lower),
    layer("core.lpdar.truncate_s", "s", Lower),
    layer("core.lpdar.adjust_s", "s", Lower),
    // Simplex kernel, over every LP solve of the traced pass.
    layer("lp.solves", "count", Lower),
    layer("lp.iterations", "count", Lower),
    layer("lp.phase1_iterations", "count", Lower),
    layer("lp.degenerate_frac", "ratio", Lower),
    layer("lp.ftran_dense_frac", "ratio", Lower),
    layer("lp.btran_dense_frac", "ratio", Lower),
    layer("lp.scanned_per_iter", "count", Lower),
    layer("lp.us_per_iter", "us", Lower),
    layer("lp.warm_accept_frac", "ratio", Higher),
    layer("lp.dual_iterations", "count", Lower),
    layer("lp.lu_reuse_hits", "count", Higher),
    layer("lp.reuse_rejected", "count", Lower),
    layer("lp.refactorizations", "count", Lower),
    layer("lp.refactor_events", "count", Lower),
    // RET search (ret_overload).
    layer("core.ret.probe_s", "s", Lower),
    layer("core.ret.probes", "count", Lower),
    layer("core.ret.growth_s", "s", Lower),
    layer("core.ret.growth_rounds", "count", Lower),
    layer("core.ret.self_s", "s", Lower),
    // Controller and simulator (online_replay).
    layer("core.controller.invoke_s", "s", Lower),
    layer("core.controller.admitted", "count", Higher),
    layer("core.controller.rejected", "count", Lower),
    layer("sim.slice_s", "s", Lower),
    layer("sim.slices", "count", Lower),
    // Whole-pass timings of the traced pass.
    layer("run.pass_s", "s", Lower),
    layer("run.op_ms_p95", "ms", Lower),
    layer("run.op_max_over_p50", "ratio", Lower),
    // Tracing itself.
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.stage_sum_ratio", "ratio", Lower),
    // Answers (deterministic for a seed).
    layer("answer.lpdar_norm", "ratio", Higher),
    layer("answer.ret_b_lp", "ratio", Lower),
    layer("answer.ret_b_final", "ratio", Lower),
    layer("answer.on_time_frac", "ratio", Higher),
    layer("answer.goodput", "ratio", Higher),
    layer("checks.failed_frac", "ratio", Lower),
];

/// True when `name` is a legal metric name: it starts with a letter or a
/// digit and is at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
