//! Smoke test: every workload of `BENCHMARK.json`, untraced and traced, on
//! tiny inputs. Each run must be correct and print exactly the metrics the
//! file names, each with its unit; changing the seed must change the inputs
//! but not the set of metrics.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use malec_serve::json::{parse, Value};

/// `(name, unit)` per metric of one `BENCHMARK.json` list.
fn declared(spec: &Value, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny benchmark and returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool, scratch: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_malec-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .current_dir(scratch)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"));
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload} seed {seed} trace {trace}:\n{stdout}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    result
}

/// `(name, unit, value)` per printed metric.
fn printed(result: &Value) -> BTreeMap<String, (String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("a unit")
                .to_owned();
            let value = m.get("value").and_then(Value::as_f64).expect("a number");
            (name.clone(), (unit, value))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_at_any_seed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json is JSON");
    // Inside the build's target directory, so the runs write nowhere else.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let mut workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect();
    assert!(workloads.len() >= 2);
    // Kept runnable, though too sensitive to host drift to be bounded.
    if !workloads.iter().any(|w| w == "paper_matrix") {
        workloads.push("paper_matrix".to_owned());
    }
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&spec, list);
        for workload in &workloads {
            let a = printed(&run(workload, 2013, trace, &scratch));
            let b = printed(&run(workload, 7, trace, &scratch));
            for got in [&a, &b] {
                let units: BTreeMap<String, String> = got
                    .iter()
                    .map(|(n, (u, _))| (n.clone(), u.clone()))
                    .collect();
                assert_eq!(units, want, "{workload} trace {trace}: metrics and units");
            }
            if trace {
                // Simulated outcomes depend only on the inputs, so a new
                // seed (new inputs) moves them.
                let model = |m: &BTreeMap<String, (String, f64)>| m["cpu.cycles_per_kinst.MALEC"].1;
                assert_ne!(
                    model(&a),
                    model(&b),
                    "{workload}: the seed must change the inputs"
                );
            }
        }
    }
    std::fs::remove_dir_all(&scratch).expect("scratch removed");
}
