//! `jmake-eval` command-line handling and its run summary, driven
//! through the built binary.
//!
//! Numeric flags must reject values they cannot parse: `--commits 12k`
//! silently running the default 1,200 commits would report on a workload
//! nobody asked for.

use std::process::{Command, Output, Stdio};

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

#[test]
fn bench_json_is_gone() {
    let out = jmake_eval(&["--bench-json", "f", "summary"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--bench-json"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "a usage error must not run anything");
}

#[test]
fn both_oracles_print_what_each_prints_alone() {
    let run = |flags: &[&str]| {
        let mut args = vec!["--commits", "120", "--workers", "2"];
        args.extend_from_slice(flags);
        let out = jmake_eval(&args);
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {}", stderr(&out));
        out.stdout
    };
    let mut apart = run(&["--cross-check"]);
    apart.extend(run(&["--fix"]));
    assert!(!apart.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&run(&["--cross-check", "--fix"])),
        String::from_utf8_lossy(&apart)
    );
}

/// The `--stats` summary's exact lines: the block under its
/// `run work` header.
fn work_lines(args: &[&str]) -> Vec<String> {
    let out = jmake_eval(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    let err = stderr(&out);
    let lines: Vec<String> = err
        .lines()
        .skip_while(|l| !l.starts_with("run work"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(str::to_string)
        .collect();
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("make_o")),
        "{args:?}: no work lines in\n{err}"
    );
    lines
}

#[test]
fn summary_work_lines_repeat_exactly_at_one_worker() {
    let args = ["--commits", "120", "--workers", "1", "--stats", "summary"];
    let first = work_lines(&args);
    assert!(
        first.iter().any(|l| l.contains("config cache")),
        "{first:?}"
    );
    assert_eq!(first, work_lines(&args));
}

#[test]
fn invocations_and_virtual_time_ignore_workers_and_caches() {
    let invocations = |args: &[&str]| -> Vec<String> {
        work_lines(args)
            .into_iter()
            .filter(|l| l.trim_start().starts_with("make_"))
            .collect()
    };
    let one = invocations(&["--commits", "120", "--workers", "1", "--stats", "summary"]);
    assert_eq!(one.len(), 3, "{one:?}");
    let eight = invocations(&["--commits", "120", "--workers", "8", "--stats", "summary"]);
    assert_eq!(one, eight, "worker count moved the virtual clock");
    let uncached = invocations(&[
        "--commits",
        "120",
        "--workers",
        "1",
        "--no-shared-cache",
        "--no-object-cache",
        "--no-preproc-cache",
        "--stats",
        "summary",
    ]);
    assert_eq!(
        one, uncached,
        "turning the caches off moved the virtual clock"
    );
}

/// Two processes started together on one empty `--cache-dir` both load,
/// run and store into it; each must print the bytes a run without the
/// tier prints. A third run then loads every entry they wrote, with none
/// quarantined, and has nothing new to store.
#[test]
fn two_processes_share_one_cache_dir() {
    let dir = std::env::temp_dir().join(format!("jmake-cli-shared-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = dir.to_str().expect("temp paths are UTF-8");
    let window = ["--commits", "120", "--workers", "2"];
    let expected = jmake_eval(&[&window[..], &["all"]].concat());
    assert_eq!(expected.status.code(), Some(0), "{}", stderr(&expected));

    let shared = [&window[..], &["--cache-dir", tier, "all"]].concat();
    let start = || {
        Command::new(env!("CARGO_BIN_EXE_jmake-eval"))
            .args(&shared)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("jmake-eval starts")
    };
    let both = [start(), start()];
    for child in both {
        let out = child.wait_with_output().expect("jmake-eval runs");
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert!(
            out.stdout == expected.stdout,
            "a sharing process printed other reports"
        );
    }

    let third = jmake_eval(&[&window[..], &["--cache-dir", tier, "--stats", "all"]].concat());
    assert_eq!(third.status.code(), Some(0), "{}", stderr(&third));
    assert!(
        third.stdout == expected.stdout,
        "the warm run printed other reports"
    );
    let err = stderr(&third);
    assert!(err.contains("(0 quarantined)"), "{err}");
    assert!(
        err.contains("stored 0 new object / 0 new config / 0 new preproc entries"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
