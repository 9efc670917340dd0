//! `jmake-eval` command-line handling, driven through the built binary.
//!
//! Numeric flags must reject values they cannot parse: `--commits 12k`
//! silently running the default 1,200 commits would report on a workload
//! nobody asked for.

use std::process::{Command, Output};

fn jmake_eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jmake-eval"))
        .args(args)
        .output()
        .expect("jmake-eval runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unparsable_numeric_flags_are_usage_errors() {
    for (flag, value) in [
        ("--commits", "12k"),
        ("--seed", "seven"),
        ("--seed", "-1"),
        ("--workers", "two"),
        ("--rand-seed", "0x1"),
        ("--fault-seed", "1.5"),
    ] {
        let out = jmake_eval(&[flag, value, "summary"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: {}",
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            err.contains(flag) && err.contains(value),
            "{flag} {value}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag} {value} must not run anything"
        );
    }
}

#[test]
fn numeric_flags_without_a_value_are_usage_errors() {
    for flag in [
        "--commits",
        "--seed",
        "--workers",
        "--rand-seed",
        "--fault-seed",
    ] {
        let out = jmake_eval(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag), "{flag}: {}", stderr(&out));
    }
}

#[test]
fn parsable_numeric_flags_run() {
    let out = jmake_eval(&[
        "--commits",
        "12",
        "--seed",
        "5",
        "--workers",
        "1",
        "summary",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!out.stdout.is_empty());
}
