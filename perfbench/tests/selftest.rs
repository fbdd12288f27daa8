//! The benchmark's own tests: tiny runs of every workload print every
//! catalogued metric with its unit, a corrupted output counts as a
//! failure (and makes the command exit nonzero), and `BENCHMARK.json`
//! lists exactly the metrics and workloads the binary measures.

use std::path::PathBuf;
use std::process::Command;

use warpstl_perfbench::metrics::{END_TO_END, PER_LAYER};
use warpstl_perfbench::{run, RunConfig, Size, Workload};
use warpstl_serve::json::{parse, Json};

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        corrupt,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "selftest-{}-{}-{}",
            workload.name(),
            trace,
            corrupt
        )),
    }
}

/// Asserts the result line carries exactly `catalogue`, each with a
/// finite value and its unit.
fn assert_metrics(result_line: &str, catalogue: &[(&str, &str)]) {
    let json = parse(result_line).expect("result line is JSON");
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("no metrics object in {result_line}");
    };
    assert_eq!(metrics.len(), catalogue.len(), "{result_line}");
    for (name, unit) in catalogue {
        let metric = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(
            matches!(metric.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name}: {metric:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = run(&tiny(workload, trace, false)).expect("tiny run");
            assert!(
                outcome.correct(),
                "{workload:?} trace={trace}: {:?}",
                outcome.errors
            );
            assert!(outcome.attempted >= 1);
            assert_metrics(&outcome.result_json(), catalogue);
            for key in ["host_cores", "git_rev", "engine_threads", "seed"] {
                assert!(outcome.info.contains_key(key), "{key} not recorded");
            }
        }
    }
}

#[test]
fn traced_runs_attribute_time_and_count_work() {
    let outcome = run(&tiny(Workload::ServeMix, true, false)).expect("tiny run");
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap()
    };
    // Repeats are served from the store, first-seen requests write it.
    assert!(value("store.hits") > 0.0);
    assert!(value("store.writes") > 0.0);
    assert!(value("fault.calls") > 0.0);
    assert!(value("gpu.sim_cycles") > 0.0);
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    let a = run(&tiny(Workload::DuTrace, false, false)).expect("tiny run");
    let b = run(&tiny(Workload::DuTrace, false, false)).expect("tiny run");
    for name in ["size_reduction_pct", "duration_reduction_pct", "fc_loss_pp"] {
        let get =
            |o: &warpstl_perfbench::Outcome| o.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get(&a).to_bits(), get(&b).to_bits(), "{name}");
    }
}

#[test]
fn a_corrupted_output_counts_as_a_failure() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, false, true)).expect("tiny run");
        assert!(!outcome.correct(), "{workload:?}");
        assert!(outcome.failed >= 1);
    }
    // The traced replay's own output check.
    let outcome = run(&tiny(Workload::DuTrace, true, true)).expect("tiny run");
    assert!(!outcome.correct());
}

fn binary(args: &[&str]) -> std::process::Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    Command::new(env!("CARGO_BIN_EXE_warpstl-perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn the_command_exits_nonzero_when_an_output_check_fails() {
    let args = [
        "--workload",
        "du_trace",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--size",
        "tiny",
    ];
    let ok = binary(&args);
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).unwrap();
    assert_metrics(stdout.lines().last().unwrap(), END_TO_END);

    let mut corrupt = args.to_vec();
    corrupt.push("--corrupt-output");
    let bad = binary(&corrupt);
    assert!(!bad.status.success());
    let stdout = String::from_utf8(bad.stdout).unwrap();
    let last = parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = binary(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(!String::from_utf8(out.stdout)
        .unwrap()
        .contains("\"correct\""));
}

#[test]
fn benchmark_json_lists_what_the_binary_measures() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = json.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let expect = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(END_TO_END));
    assert_eq!(listed("per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
