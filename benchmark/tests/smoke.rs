//! Every workload at smoke scale (the tiny test kernel, one set-up, one
//! rep per mode): the result line must carry exactly the metrics
//! `BENCHMARK.json` lists, each with a finite value, and no operation
//! may fail on `sweep`, `recheck-warm` and `janitor-latency`.

use std::process::Command;

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The number after `"key": ` in `line`.
fn number(line: &str, key: &str) -> f64 {
    let key = format!("\"{key}\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{key} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).expect("value ends");
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {line}"))
}

/// Run `workload` at smoke scale in both modes and check its output;
/// returns the failed-operation counts (untraced, traced).
fn smoke(workload: &str) -> (f64, f64) {
    let mut failed = Vec::new();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_jmake-benchmark"))
            .args([
                "run",
                "--workload",
                workload,
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--trace",
                trace,
            ])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout.lines().last().expect("a result line");
        let names = listed(section);
        assert_eq!(
            line.matches("{\"value\": ").count(),
            names.len(),
            "{workload}: metric count in {line}"
        );
        for name in &names {
            let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
            assert!(
                number(
                    &metrics[metrics.find(&format!("\"{name}\"")).expect(name)..],
                    "value"
                )
                .is_finite(),
                "{name}"
            );
        }
        assert!(number(line, "attempted") >= 1.0);
        failed.push(number(line, "failed"));
    }
    (failed[0], failed[1])
}

#[test]
fn sweep() {
    assert_eq!(smoke("sweep"), (0.0, 0.0));
}

#[test]
fn recheck_warm() {
    assert_eq!(smoke("recheck-warm"), (0.0, 0.0));
}

#[test]
fn janitor_latency() {
    assert_eq!(smoke("janitor-latency"), (0.0, 0.0));
}

#[test]
fn remediate() {
    smoke("remediate");
}
