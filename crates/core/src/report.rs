//! Per-file and per-patch reports.

use crate::classify::UncoveredReason;
use crate::token::MutationToken;
use jmake_trace::jsonl::escape;
use std::fmt;

/// Terminal status of one file instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileStatus {
    /// Every changed line sat in comments; nothing to certify.
    CommentOnly,
    /// Every mutation surfaced in the `.i` of a configuration whose `.o`
    /// compiled — the certificate JMake exists to produce.
    FullyCovered,
    /// Some mutations were certified, others never surfaced.
    PartiallyCovered,
    /// No mutation was ever certified.
    Uncovered,
    /// The file participates in the build system's own setup compilation;
    /// JMake cannot mutate it (paper §V.D).
    Bootstrap,
    /// No (architecture, configuration) candidate could even be created
    /// (unsupported architecture, missing Kconfig, no Makefile).
    NoViableTarget,
}

impl fmt::Display for FileStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileStatus::CommentOnly => "comment-only change",
            FileStatus::FullyCovered => "all changed lines subjected to the compiler",
            FileStatus::PartiallyCovered => "SOME CHANGED LINES NOT SUBJECTED TO THE COMPILER",
            FileStatus::Uncovered => "NO CHANGED LINE SUBJECTED TO THE COMPILER",
            FileStatus::Bootstrap => "build-system bootstrap file; cannot be checked",
            FileStatus::NoViableTarget => "no usable architecture/configuration",
        };
        f.write_str(s)
    }
}

/// An uncovered mutation with its diagnosed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoveredMutation {
    /// The token that never surfaced.
    pub token: MutationToken,
    /// Why (Table IV category).
    pub reason: UncoveredReason,
}

/// The report for one file instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// Path within the tree.
    pub path: String,
    /// True for `.h` files (processed by the §III.E pipeline).
    pub is_header: bool,
    /// Terminal status.
    pub status: FileStatus,
    /// Number of mutations inserted (paper §V.B reports this
    /// distribution).
    pub mutation_count: usize,
    /// Tokens certified, with the target that certified each.
    pub covered: Vec<(MutationToken, String)>,
    /// Tokens never certified, with reasons.
    pub uncovered: Vec<UncoveredMutation>,
    /// Targets attempted, in order.
    pub targets_tried: Vec<String>,
    /// `.o` compilations attempted for this file (or, for headers, for its
    /// candidate `.c` files).
    pub o_attempts: usize,
    /// Whether some `.o` compiled without error for this file.
    pub compiled_somewhere: bool,
    /// All tokens certified at the first error-free compilation (the
    /// paper's 88% headline for `.c` instances).
    pub full_on_first_success: bool,
    /// Fully covered using only host (x86_64) allyesconfig.
    pub full_with_host_allyes: bool,
    /// Fully covered using only allyesconfig targets (any architecture).
    pub full_with_allyes_only: bool,
    /// For headers: how many candidate `.c` compilations were used.
    pub header_candidates_used: usize,
    /// For headers: every token was already certified while processing the
    /// patch's own `.c` files (paper: 66% / 76%).
    pub header_covered_by_patch_c: bool,
    /// Operational errors seen while trying (missing cross-compilers …).
    pub errors: Vec<String>,
    /// Trials that gave up after exhausting the fault-injection retry
    /// budget. Always empty without `--faults`, and rendered/serialized
    /// only when non-empty, so fault-free reports are byte-identical.
    pub degraded_trials: Vec<String>,
    /// Remediation lines from the `jmake-fix` pass: one rendered
    /// suggestion (or `unfixable` verdict) per uncovered mutation.
    /// Always empty without `--fix`, and rendered/serialized only when
    /// non-empty, so fix-off reports are byte-identical.
    pub remediations: Vec<String>,
}

impl FileReport {
    /// A file counts as *successful* when nothing remains unchecked.
    pub fn is_success(&self) -> bool {
        matches!(
            self.status,
            FileStatus::CommentOnly | FileStatus::FullyCovered
        )
    }
}

impl fmt::Display for FileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.path, self.status)?;
        if !self.covered.is_empty() {
            writeln!(f, "  certified ({}):", self.covered.len())?;
            for (tok, target) in &self.covered {
                writeln!(f, "    line {:>5} via {}", tok.line, target)?;
            }
        }
        for u in &self.uncovered {
            writeln!(f, "  NOT COMPILED: line {:>5} — {}", u.token.line, u.reason)?;
        }
        for r in &self.remediations {
            writeln!(f, "  FIX: {r}")?;
        }
        if !self.errors.is_empty() {
            for e in &self.errors {
                writeln!(f, "  note: {e}")?;
            }
        }
        for d in &self.degraded_trials {
            writeln!(f, "  DEGRADED: {d}")?;
        }
        Ok(())
    }
}

/// Patch-kind split for Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchKind {
    /// Only `.c` files touched.
    COnly,
    /// Only `.h` files touched.
    HOnly,
    /// Both.
    Both,
    /// Neither (nothing relevant to JMake).
    Neither,
}

/// The report for one whole patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchReport {
    /// Author of the patch (for the janitor slicing).
    pub author: String,
    /// Per-file reports.
    pub files: Vec<FileReport>,
    /// Virtual time consumed checking this patch, in microseconds.
    pub elapsed_us: u64,
    /// Configurations created.
    pub config_creations: usize,
    /// `make …i` invocations issued.
    pub i_invocations: usize,
    /// `make ….o` invocations issued.
    pub o_invocations: usize,
}

impl PatchReport {
    /// Which Table III bucket the patch falls into.
    pub fn kind(&self) -> PatchKind {
        let has_c = self.files.iter().any(|f| !f.is_header);
        let has_h = self.files.iter().any(|f| f.is_header);
        match (has_c, has_h) {
            (true, true) => PatchKind::Both,
            (true, false) => PatchKind::COnly,
            (false, true) => PatchKind::HOnly,
            (false, false) => PatchKind::Neither,
        }
    }

    /// The paper's headline predicate: every changed line of every file
    /// was subjected to at least one successful compiler invocation.
    pub fn is_success(&self) -> bool {
        !self.files.is_empty() && self.files.iter().all(FileReport::is_success)
    }

    /// Whether the patch touches a bootstrap file (§V.D).
    pub fn touches_bootstrap(&self) -> bool {
        self.files.iter().any(|f| f.status == FileStatus::Bootstrap)
    }
}

impl fmt::Display for PatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "patch by {}: {} file(s), {:.1}s simulated, {} config(s), {} .i invocation(s), {} .o invocation(s)",
            self.author,
            self.files.len(),
            self.elapsed_us as f64 / 1e6,
            self.config_creations,
            self.i_invocations,
            self.o_invocations,
        )?;
        for file in &self.files {
            write!(f, "{file}")?;
        }
        writeln!(
            f,
            "verdict: {}",
            if self.is_success() {
                "OK — every changed line was subjected to the compiler"
            } else {
                "ATTENTION — changed lines escaped the compiler (see above)"
            }
        )
    }
}

impl PatchReport {
    /// Serialize as JSON for machine consumption (CI hooks around
    /// `jmake-check --json`). Hand-rolled — the report structure is flat
    /// enough that a serialization framework would outweigh it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_kv(&mut out, "author", &self.author);
        out.push_str(&format!(
            "\"success\":{},\"elapsed_us\":{},\"config_creations\":{},\"i_invocations\":{},\"o_invocations\":{},\"files\":[",
            self.is_success(),
            self.elapsed_us,
            self.config_creations,
            self.i_invocations,
            self.o_invocations
        ));
        for (i, f) in self.files.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_kv(&mut out, "path", &f.path);
            out.push_str(&format!(
                "\"is_header\":{},\"status\":\"{}\",\"mutations\":{},\"covered\":[",
                f.is_header,
                escape(&f.status.to_string()),
                f.mutation_count
            ));
            for (j, (tok, target)) in f.covered.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"line\":{},\"via\":\"{}\"}}",
                    tok.line,
                    escape(target)
                ));
            }
            out.push_str("],\"uncovered\":[");
            for (j, u) in f.uncovered.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"line\":{},\"reason\":\"{}\"}}",
                    u.token.line,
                    escape(&u.reason.to_string())
                ));
            }
            out.push_str("],\"errors\":[");
            for (j, e) in f.errors.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", escape(e)));
            }
            out.push(']');
            // Key present only when the fix pass emitted something, so
            // fix-off JSON is byte-identical to pre-remediation output.
            if !f.remediations.is_empty() {
                out.push_str(",\"remediations\":[");
                for (j, r) in f.remediations.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", escape(r)));
                }
                out.push(']');
            }
            // Key present only when a trial actually degraded, so
            // fault-free JSON is byte-identical to builds without the
            // fault layer.
            if !f.degraded_trials.is_empty() {
                out.push_str(",\"degraded\":[");
                for (j, d) in f.degraded_trials.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", escape(d)));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn json_kv(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":\"{}\",", escape(value)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::MutationKind;

    fn file(path: &str, header: bool, status: FileStatus) -> FileReport {
        FileReport {
            path: path.into(),
            is_header: header,
            status,
            mutation_count: 1,
            covered: vec![(
                MutationToken::new(MutationKind::Context, path, 3),
                "x86_64/allyesconfig".into(),
            )],
            uncovered: vec![],
            targets_tried: vec!["x86_64/allyesconfig".into()],
            o_attempts: 1,
            compiled_somewhere: true,
            full_on_first_success: true,
            full_with_host_allyes: true,
            full_with_allyes_only: true,
            header_candidates_used: 0,
            header_covered_by_patch_c: false,
            errors: vec![],
            degraded_trials: vec![],
            remediations: vec![],
        }
    }

    #[test]
    fn patch_kind_buckets() {
        let mk = |files: Vec<FileReport>| PatchReport {
            author: "a".into(),
            files,
            elapsed_us: 0,
            config_creations: 0,
            i_invocations: 0,
            o_invocations: 0,
        };
        assert_eq!(
            mk(vec![file("a.c", false, FileStatus::FullyCovered)]).kind(),
            PatchKind::COnly
        );
        assert_eq!(
            mk(vec![file("a.h", true, FileStatus::FullyCovered)]).kind(),
            PatchKind::HOnly
        );
        assert_eq!(
            mk(vec![
                file("a.c", false, FileStatus::FullyCovered),
                file("a.h", true, FileStatus::FullyCovered)
            ])
            .kind(),
            PatchKind::Both
        );
        assert_eq!(mk(vec![]).kind(), PatchKind::Neither);
    }

    #[test]
    fn success_requires_every_file() {
        let good = file("a.c", false, FileStatus::FullyCovered);
        let bad = file("b.c", false, FileStatus::PartiallyCovered);
        let report = PatchReport {
            author: "a".into(),
            files: vec![good.clone(), bad],
            elapsed_us: 0,
            config_creations: 0,
            i_invocations: 0,
            o_invocations: 0,
        };
        assert!(!report.is_success());
        let report_ok = PatchReport {
            files: vec![good, file("c.c", false, FileStatus::CommentOnly)],
            ..report
        };
        assert!(report_ok.is_success());
    }

    #[test]
    fn json_serialization_is_well_formed() {
        let mut f = file("a.c", false, FileStatus::PartiallyCovered);
        f.uncovered.push(UncoveredMutation {
            token: MutationToken::new(MutationKind::Context, "a.c", 9),
            reason: crate::classify::UncoveredReason::IfZero,
        });
        f.errors
            .push("quote \" and backslash \\ and\nnewline".into());
        let report = PatchReport {
            author: "a \"quoted\" author".into(),
            files: vec![f],
            elapsed_us: 1234,
            config_creations: 1,
            i_invocations: 2,
            o_invocations: 3,
        };
        let json = report.to_json();
        // Structural sanity without a JSON parser dependency: balanced
        // braces/brackets outside strings and the key fields present.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "{json}");
        assert!(!in_str);
        assert!(json.contains("\"success\":false"));
        assert!(json.contains("\"line\":9"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
    }

    #[test]
    fn remediations_render_only_when_present() {
        let plain = file("a.c", false, FileStatus::PartiallyCovered);
        let mk = |files: Vec<FileReport>| PatchReport {
            author: "a".into(),
            files,
            elapsed_us: 0,
            config_creations: 0,
            i_invocations: 0,
            o_invocations: 0,
        };
        let off = mk(vec![plain.clone()]);
        assert!(!off.to_json().contains("remediations"));
        assert!(!off.to_string().contains("FIX:"));
        let mut fixed = plain;
        fixed
            .remediations
            .push("line 9 — set CONFIG_FULL=n (verified)".into());
        let on = mk(vec![fixed]);
        assert!(on.to_json().contains("\"remediations\":[\"line 9"));
        assert!(on
            .to_string()
            .contains("  FIX: line 9 — set CONFIG_FULL=n (verified)"));
    }

    #[test]
    fn display_flags_uncovered_lines() {
        let mut f = file("a.c", false, FileStatus::PartiallyCovered);
        f.uncovered.push(UncoveredMutation {
            token: MutationToken::new(MutationKind::Context, "a.c", 9),
            reason: crate::classify::UncoveredReason::IfdefModule,
        });
        let text = f.to_string();
        assert!(text.contains("NOT COMPILED"));
        assert!(text.contains("#ifdef MODULE"));
    }
}
