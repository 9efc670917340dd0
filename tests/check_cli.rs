//! `jmake-check`, the on-disk front end, driven through the built binary
//! over a tiny tree written to a temporary directory.
//!
//! Exit status contract: 0 when every changed line was subjected to the
//! compiler (or, with `--precheck-only`, nothing was warned about), 1 when
//! lines escaped or a warning fired, 2 on usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `t.c` guards three arms on `FULL`, which allyesconfig sets, so its
/// `#elif` and `#else` arms are never compiled.
const T_C: &str = "int base;\n\
#ifdef CONFIG_FULL\n\
int full_path;\n\
#elif defined(CONFIG_TINY)\n\
int tiny_path;\n\
#else\n\
int neither_path;\n\
#endif\n";

/// Edits the `#elif` arm and the `#else` arm: two arms of one group.
const TWO_ARMS: &str = "--- a/lib/t.c\n\
+++ b/lib/t.c\n\
@@ -1,8 +1,8 @@\n \
int base;\n \
#ifdef CONFIG_FULL\n \
int full_path;\n \
#elif defined(CONFIG_TINY)\n\
-int tiny_path;\n\
+int tiny_path2;\n \
#else\n\
-int neither_path;\n\
+int neither_path2;\n \
#endif\n";

/// Edits the unconditional first line.
const PLAIN: &str = "--- a/lib/t.c\n\
+++ b/lib/t.c\n\
@@ -1,3 +1,3 @@\n\
-int base;\n\
+int base2;\n \
#ifdef CONFIG_FULL\n \
int full_path;\n";

/// `s.c` guards one arm on a `\`-spliced `#if` that allyesconfig enables.
const S_C: &str = "int spliced_base;\n\
#if defined(CONFIG_FULL) || \\\n    defined(CONFIG_TINY)\n\
int either_path;\n\
#endif\n";

/// Edits the continuation line of `s.c`'s spliced `#if`.
const SPLICED: &str = "--- a/lib/s.c\n\
+++ b/lib/s.c\n\
@@ -1,5 +1,5 @@\n \
int spliced_base;\n \
#if defined(CONFIG_FULL) || \\\n\
-    defined(CONFIG_TINY)\n\
+    defined(CONFIG_TINY) || defined(CONFIG_NONE)\n \
int either_path;\n \
#endif\n";

/// Edits only the `#endif` that closes `t.c`'s `#else` arm.
const ENDIF: &str = "--- a/lib/t.c\n\
+++ b/lib/t.c\n\
@@ -6,3 +6,3 @@\n \
#else\n \
int neither_path;\n\
-#endif\n\
+#endif /* CONFIG_FULL */\n";

/// A fresh tree (and the patches) under a per-test directory.
fn tree(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jmake-check-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = [
        (
            "tree/Kconfig",
            "config FULL\n\tbool \"full\"\n\tdefault y\n\
             config TINY\n\tbool \"tiny\"\n\tdepends on !FULL\n",
        ),
        ("tree/arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n"),
        ("tree/Makefile", "obj-y += lib/\n"),
        ("tree/lib/Makefile", "obj-y += t.o s.o\n"),
        ("tree/lib/t.c", T_C),
        ("tree/lib/s.c", S_C),
        ("two-arms.diff", TWO_ARMS),
        ("plain.diff", PLAIN),
        ("spliced.diff", SPLICED),
        ("endif.diff", ENDIF),
    ];
    for (path, text) in files {
        let path = dir.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    dir
}

fn jmake_check(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jmake-check"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("jmake-check runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn missing_tree_is_a_usage_error() {
    let dir = tree("usage");
    let out = jmake_check(&dir, &["--patch", "plain.diff"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--tree"), "{}", stderr(&out));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn precheck_only_warns_on_two_arms_and_passes_a_plain_line() {
    let dir = tree("precheck");
    let out = jmake_check(
        &dir,
        &[
            "--tree",
            "tree",
            "--patch",
            "two-arms.diff",
            "--precheck-only",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("both sides"), "{}", stderr(&out));

    let out = jmake_check(
        &dir,
        &["--tree", "tree", "--patch", "plain.diff", "--precheck-only"],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("precheck:"), "{}", stderr(&out));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn two_arm_edit_is_reported_under_both_ifdef_and_else() {
    let dir = tree("json");
    let out = jmake_check(
        &dir,
        &["--tree", "tree", "--patch", "two-arms.diff", "--json"],
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{json}\n{}", stderr(&out));
    assert!(
        json.contains("change under both #ifdef and #else"),
        "the #elif and #else changes must be upgraded together: {json}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn spliced_if_continuation_edit_is_certified() {
    let dir = tree("spliced");
    let out = jmake_check(
        &dir,
        &["--tree", "tree", "--patch", "spliced.diff", "--json"],
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{json}\n{}", stderr(&out));
    assert!(
        json.contains("\"covered\":[{\"line\":3,\"via\":\"x86_64/allyesconfig\"}]"),
        "{json}"
    );
    assert!(json.contains("\"errors\":[]"), "{json}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn endif_only_edit_over_an_off_arm_is_certified() {
    let dir = tree("endif");
    let out = jmake_check(&dir, &["--tree", "tree", "--patch", "endif.diff"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        stderr(&out)
    );
    std::fs::remove_dir_all(dir).unwrap();
}
