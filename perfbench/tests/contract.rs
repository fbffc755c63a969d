//! The benchmark's own checks: its declarations match `BENCHMARK.json`,
//! every declared metric is emitted with its unit, the output checks catch
//! a broken schedule, and inputs and answers follow the seed.

use std::collections::BTreeSet;
use wavesched_core::instance::Instance;
use wavesched_perfbench::checks::{check_pipeline, check_replay, check_ret};
use wavesched_perfbench::json::{self, Value};
use wavesched_perfbench::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use wavesched_perfbench::workload::{
    self, pipeline_staged, ret_config, Large, Spec, StageTimes, Workload, ALPHA,
};
use wavesched_perfbench::{run_spec, Options, Report};

/// Small sizes of each workload, so a test run takes well under a second.
fn tiny(w: Workload) -> Spec {
    match w {
        Workload::PipelineBatch => Spec {
            items: 2,
            jobs: 8,
            large: None,
            pass_seconds: 1,
        },
        Workload::RetOverload => Spec {
            items: 2,
            jobs: 6,
            large: Some(Large { every: 2, jobs: 8 }),
            pass_seconds: 1,
        },
        Workload::OnlineReplay => Spec {
            items: 1,
            jobs: 300,
            large: None,
            pass_seconds: 1,
        },
    }
}

fn opts(w: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload: w,
        seed,
        seconds: 0,
        trace,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {:?}", def.name);
        assert!(
            valid_unit(def.unit),
            "bad unit {:?} of {}",
            def.unit,
            def.name
        );
        assert!(seen.insert(def.name), "metric {} declared twice", def.name);
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
    assert!(!valid_name("has space") && !valid_name("_lead") && !valid_name(""));
}

fn assert_declared(list: &Value, table: &[MetricDef], with_bound: bool) {
    let list = list.as_array().expect("metric list");
    assert_eq!(list.len(), table.len(), "declared metric count");
    for (v, def) in list.iter().zip(table) {
        let keys: BTreeSet<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        let mut want = BTreeSet::from(["name", "unit", "better"]);
        if with_bound {
            want.insert("bound");
        }
        assert_eq!(keys, want, "keys of {}", def.name);
        assert_eq!(v.get("name").and_then(Value::as_str), Some(def.name));
        assert_eq!(
            v.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            v.get("better").and_then(Value::as_str),
            Some(def.better.as_str()),
            "{}",
            def.name
        );
        if with_bound {
            let bound = v.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(Some(bound), def.bound, "bound of {}", def.name);
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let b = benchmark_json();
    let keys: BTreeSet<&str> = b.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    assert_declared(b.get("end_to_end").unwrap(), END_TO_END, true);
    assert_declared(b.get("per_layer").unwrap(), PER_LAYER, false);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}

fn check_result_line(report: &Report, table: &[MetricDef]) {
    let v = json::parse(&report.result_json()).expect("result line is JSON");
    let keys: BTreeSet<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(
        v.get("correct"),
        Some(&Value::Bool(true)),
        "{:?}",
        report.errors
    );
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(metrics.len(), table.len());
    for def in table {
        let m = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{} missing", def.name));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        let value = m.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{} = {value}", def.name);
        if def.bound.is_some() {
            assert!(value > 0.0, "end-to-end metric {} reads 0", def.name);
        }
    }
    json::parse(&report.stamp_json(&opts(Workload::PipelineBatch, 0, false)))
        .expect("stamp is JSON");
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for w in Workload::ALL {
        check_result_line(&run_spec(&opts(w, 7, false), tiny(w)), END_TO_END);
        check_result_line(&run_spec(&opts(w, 7, true), tiny(w)), PER_LAYER);
    }
}

#[test]
fn same_seed_same_answers_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = run_spec(&opts(w, 11, false), tiny(w));
        let b = run_spec(&opts(w, 11, false), tiny(w));
        let traced = run_spec(&opts(w, 11, true), tiny(w));
        let other = run_spec(&opts(w, 12, false), tiny(w));
        assert_eq!(a.input_fingerprint, b.input_fingerprint, "{}", w.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(
            a.fingerprint,
            traced.fingerprint,
            "{}: traced answers differ",
            w.name()
        );
        assert_ne!(a.input_fingerprint, other.input_fingerprint, "{}", w.name());
    }
}

fn tiny_inputs(w: Workload) -> workload::Inputs {
    workload::setup(w, tiny(w), 3).0
}

#[test]
fn corrupted_pipeline_schedule_trips_the_check() {
    let inputs = tiny_inputs(Workload::PipelineBatch);
    let inst = &inputs.instances[0];
    let good = pipeline_staged(inst, &mut StageTimes::default()).unwrap();
    check_pipeline(inst, ALPHA, &good).unwrap();

    let mut fractional = good.clone();
    fractional.lpdar.x[0] += 0.5;
    assert!(check_pipeline(inst, ALPHA, &fractional).is_err());

    let mut overfull = good.clone();
    overfull.lpdar.x.iter_mut().for_each(|x| *x += 1000.0);
    assert!(check_pipeline(inst, ALPHA, &overfull).is_err());

    // With Z* = 0 every schedule keeps the fairness floors, so the LP
    // optimum must bound LPDAR.
    let mut beats_lp = good;
    beats_lp.z_star = 0.0;
    beats_lp.lp_throughput = beats_lp.lpdar_throughput * 0.9;
    assert!(check_pipeline(inst, ALPHA, &beats_lp).is_err());
}

#[test]
fn corrupted_ret_answer_trips_the_check() {
    let inputs = tiny_inputs(Workload::RetOverload);
    let base: &Instance = &inputs.instances[0];
    let r = wavesched_core::ret::solve_ret(
        &inputs.graph,
        &inputs.jobs[0],
        &wavesched_core::instance::InstanceConfig::paper(2),
        &ret_config(),
    )
    .unwrap()
    .expect("tiny RET instance is solvable");
    check_ret(base, &r).unwrap();

    let mut unfinished = r.clone();
    unfinished.lpdar.x.iter_mut().for_each(|x| *x = 0.0);
    assert!(check_ret(base, &unfinished).is_err());

    let mut inverted = r;
    inverted.b_lp = inverted.b_final + 0.5;
    assert!(check_ret(base, &inverted).is_err());
}

#[test]
fn broken_replay_accounting_trips_the_check() {
    let report = wavesched_sim::StreamReport {
        jobs_seen: 10,
        completed: 6,
        on_time: 5,
        rejected: 1,
        expired: 2,
        unfinished: 1,
        volume_moved: 4.0,
        volume_requested: 5.0,
        ..Default::default()
    };
    check_replay(10, &report).unwrap();
    let lost = wavesched_sim::StreamReport {
        completed: 5,
        ..report.clone()
    };
    assert!(check_replay(10, &lost).is_err());
    let inflated = wavesched_sim::StreamReport {
        volume_moved: 6.0,
        ..report
    };
    assert!(check_replay(10, &inflated).is_err());
}

#[test]
fn command_line_is_strict() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = Options::parse(args(
        "--workload ret_overload --seed 4 --seconds 9 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        ok,
        Options {
            workload: Workload::RetOverload,
            seed: 4,
            seconds: 9,
            trace: true,
        }
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload ret_overload --seed 1 --seconds 1 --trace 2",
        "--workload ret_overload --seed 1 --seconds 1",
        "--workload ret_overload --seed -1 --seconds 1 --trace 0",
        "--workload ret_overload --seed 1 --seconds 1 --trace 0 --extra 1",
    ] {
        assert!(Options::parse(args(bad)).is_err(), "{bad}");
    }
}
