//! Aggregation of evaluation results into the paper's tables and figures.

use crate::classify::UncoveredReason;
use crate::driver::PatchResult;
use crate::report::{FileStatus, PatchKind};
use std::collections::{BTreeMap, BTreeSet};

/// Counters over one slice of patches (all patches, or the janitor
/// subset).
#[derive(Debug, Clone, Default)]
pub struct SliceStats {
    /// Patches considered.
    pub patches: usize,
    /// Patches where every changed line was certified (paper: 85% / 88%).
    pub patch_success: usize,
    /// Patches fully certified using allyesconfig targets only (84%→85%
    /// comparison in §V.B).
    pub patch_success_allyes_only: usize,
    /// Table III buckets.
    pub kind_counts: BTreeMap<&'static str, usize>,
    /// `.c` file instances.
    pub c_instances: usize,
    /// `.c` instances fully certified at the first error-free compilation
    /// (paper: 88%).
    pub c_full_on_first_success: usize,
    /// `.c` instances that compiled somewhere yet left lines uncertified
    /// at that point — the insidious case (paper: 3%).
    pub c_compiled_but_initially_uncovered: usize,
    /// …of which later architectures certified everything (paper: 54).
    pub c_rescued_by_more_configs: usize,
    /// Non-`arch/` `.c` instances certified without any host (x86_64)
    /// contribution (paper: 365 / 38).
    pub c_nonarch_needing_other_arch: usize,
    /// Instances (any kind) with ≥1 certified token, and how many of those
    /// were (partly) certified via host allyesconfig (paper: 96% / 95%).
    pub instances_with_coverage: usize,
    pub instances_touching_host: usize,
    /// Mutation-count distribution for `.c` / `.h` instances.
    pub c_mutations: Histogram,
    pub h_mutations: Histogram,
    /// `.h` file instances.
    pub h_instances: usize,
    /// Headers fully certified while compiling the patch's own `.c` files
    /// (paper: 66% / 76%).
    pub h_covered_by_patch_c: usize,
    /// Headers needing candidate compilations and ultimately certified
    /// (paper: 16% rescued).
    pub h_rescued_by_candidates: usize,
    /// Headers with lines never certified (paper: 2%).
    pub h_never_covered: usize,
    /// Max candidate compilations used for any header.
    pub h_max_candidate_compiles: usize,
    /// Patches touching bootstrap files (paper §V.D: 2%).
    pub bootstrap_patches: usize,
    /// Table IV: reason → affected file instances.
    pub uncovered_reasons: BTreeMap<String, usize>,
    /// Per-patch virtual times (µs) — Figure 5 (all) / Figure 6 (janitor).
    pub patch_times_us: Vec<u64>,
}

/// A tiny histogram of per-instance mutation counts.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// count → instances.
    pub buckets: BTreeMap<usize, usize>,
}

impl Histogram {
    /// Record one instance with `count` mutations.
    pub fn add(&mut self, count: usize) {
        *self.buckets.entry(count).or_insert(0) += 1;
    }

    /// Total instances recorded.
    pub fn total(&self) -> usize {
        self.buckets.values().sum()
    }

    /// Fraction of instances with count ≤ `n`.
    pub fn fraction_le(&self, n: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let le: usize = self
            .buckets
            .iter()
            .filter(|(c, _)| **c <= n)
            .map(|(_, v)| v)
            .sum();
        le as f64 / total as f64
    }

    /// Largest count seen.
    pub fn max(&self) -> usize {
        self.buckets.keys().next_back().copied().unwrap_or(0)
    }
}

impl SliceStats {
    /// Aggregate the results whose author passes `include`.
    pub fn collect(results: &[PatchResult], include: &dyn Fn(&str) -> bool) -> SliceStats {
        let mut s = SliceStats::default();
        for r in results {
            // Driver-level failures (checkout/show/panic) carry no report
            // and aggregate nowhere; DriverStats accounts for them.
            let Some(report) = r.report() else {
                continue;
            };
            if !include(&report.author) {
                continue;
            }
            if report.files.is_empty() {
                continue;
            }
            s.patches += 1;
            s.patch_times_us.push(report.elapsed_us);
            let kind = match report.kind() {
                PatchKind::COnly => ".c files only",
                PatchKind::HOnly => ".h files only",
                PatchKind::Both => "both .c and .h files",
                PatchKind::Neither => "neither",
            };
            *s.kind_counts.entry(kind).or_insert(0) += 1;
            if report.is_success() {
                s.patch_success += 1;
            }
            if report
                .files
                .iter()
                .all(|f| f.status == FileStatus::CommentOnly || f.full_with_allyes_only)
            {
                s.patch_success_allyes_only += 1;
            }
            if report.touches_bootstrap() {
                s.bootstrap_patches += 1;
            }
            let mut reasons_this_patch: BTreeSet<UncoveredReason> = BTreeSet::new();
            for f in &report.files {
                if f.status == FileStatus::CommentOnly || f.status == FileStatus::Bootstrap {
                    continue;
                }
                if !f.covered.is_empty() {
                    s.instances_with_coverage += 1;
                    if f.covered.iter().any(|(_, d)| d.starts_with("x86_64/")) {
                        s.instances_touching_host += 1;
                    }
                }
                if f.is_header {
                    s.h_instances += 1;
                    s.h_mutations.add(f.mutation_count);
                    if f.header_covered_by_patch_c {
                        s.h_covered_by_patch_c += 1;
                    } else if f.status == FileStatus::FullyCovered {
                        s.h_rescued_by_candidates += 1;
                    }
                    if !f.uncovered.is_empty() {
                        s.h_never_covered += 1;
                    }
                    s.h_max_candidate_compiles =
                        s.h_max_candidate_compiles.max(f.header_candidates_used);
                } else {
                    s.c_instances += 1;
                    s.c_mutations.add(f.mutation_count);
                    if f.full_on_first_success {
                        s.c_full_on_first_success += 1;
                    } else if f.compiled_somewhere {
                        s.c_compiled_but_initially_uncovered += 1;
                        if f.status == FileStatus::FullyCovered {
                            s.c_rescued_by_more_configs += 1;
                        }
                    }
                    let nonarch = !f.path.starts_with("arch/");
                    if nonarch
                        && f.status == FileStatus::FullyCovered
                        && !f.covered.iter().any(|(_, d)| d.starts_with("x86_64/"))
                    {
                        s.c_nonarch_needing_other_arch += 1;
                    }
                }
                for u in &f.uncovered {
                    reasons_this_patch.insert(u.reason);
                }
                // Table IV counts *affected file instances* per reason.
                let file_reasons: BTreeSet<UncoveredReason> =
                    f.uncovered.iter().map(|u| u.reason).collect();
                for reason in file_reasons {
                    *s.uncovered_reasons.entry(reason.to_string()).or_insert(0) += 1;
                }
            }
        }
        s
    }

    /// Patch success rate.
    pub fn success_rate(&self) -> f64 {
        if self.patches == 0 {
            0.0
        } else {
            self.patch_success as f64 / self.patches as f64
        }
    }

    /// Render the Table III analogue for this slice.
    pub fn render_kinds(&self) -> String {
        let mut out = String::new();
        for key in [".c files only", ".h files only", "both .c and .h files"] {
            let n = self.kind_counts.get(key).copied().unwrap_or(0);
            let pct = if self.patches == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.patches as f64
            };
            out.push_str(&format!("{key:<24} {n:>7} ({pct:>4.0}%)\n"));
        }
        out
    }

    /// Render the Table IV analogue.
    pub fn render_reasons(&self) -> String {
        let mut out = String::new();
        for (reason, n) in &self.uncovered_reasons {
            out.push_str(&format!("{reason:<58} {n:>6}\n"));
        }
        if self.uncovered_reasons.is_empty() {
            out.push_str("(no uncovered file instances)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PatchResult;
    use crate::report::{FileReport, FileStatus, PatchReport};
    use crate::token::{MutationKind, MutationToken};

    fn file(path: &str, status: &FileStatus, via: &str) -> FileReport {
        let is_header = path.ends_with(".h");
        FileReport {
            path: path.into(),
            is_header,
            status: status.clone(),
            mutation_count: 1,
            covered: if *status == FileStatus::FullyCovered {
                vec![(
                    MutationToken::new(MutationKind::Context, path, 1),
                    via.into(),
                )]
            } else {
                vec![]
            },
            uncovered: if matches!(status, FileStatus::Uncovered | FileStatus::PartiallyCovered) {
                vec![crate::report::UncoveredMutation {
                    token: MutationToken::new(MutationKind::Context, path, 2),
                    reason: crate::classify::UncoveredReason::IfZero,
                }]
            } else {
                vec![]
            },
            targets_tried: vec![via.into()],
            o_attempts: 1,
            compiled_somewhere: true,
            full_on_first_success: *status == FileStatus::FullyCovered,
            full_with_host_allyes: via == "x86_64/allyesconfig"
                && *status == FileStatus::FullyCovered,
            full_with_allyes_only: via.ends_with("/allyesconfig")
                && *status == FileStatus::FullyCovered,
            header_candidates_used: 0,
            header_covered_by_patch_c: is_header && *status == FileStatus::FullyCovered,
            errors: vec![],
            degraded_trials: vec![],
            remediations: vec![],
        }
    }

    fn result(author: &str, files: Vec<FileReport>, elapsed: u64) -> PatchResult {
        PatchResult {
            commit: jmake_vcs::Repo::new().commit(
                &[],
                author,
                "m",
                &jmake_kbuild::SourceTree::new(),
            ),
            outcome: crate::driver::PatchOutcome::Checked(PatchReport {
                author: author.into(),
                files,
                elapsed_us: elapsed,
                config_creations: 1,
                i_invocations: 1,
                o_invocations: 1,
            }),
        }
    }

    #[test]
    fn collect_aggregates_slices_and_kinds() {
        let results = vec![
            result(
                "alice",
                vec![file(
                    "a.c",
                    &FileStatus::FullyCovered,
                    "x86_64/allyesconfig",
                )],
                10,
            ),
            result(
                "bob",
                vec![
                    file("b.c", &FileStatus::FullyCovered, "arm/allyesconfig"),
                    file("b.h", &FileStatus::FullyCovered, "arm/allyesconfig"),
                ],
                20,
            ),
            result(
                "alice",
                vec![file("c.c", &FileStatus::Uncovered, "x86_64/allyesconfig")],
                30,
            ),
        ];
        let all = SliceStats::collect(&results, &|_| true);
        assert_eq!(all.patches, 3);
        assert_eq!(all.patch_success, 2);
        assert_eq!(all.c_instances, 3);
        assert_eq!(all.h_instances, 1);
        assert_eq!(all.kind_counts.get(".c files only"), Some(&2));
        assert_eq!(all.kind_counts.get("both .c and .h files"), Some(&1));
        assert_eq!(all.uncovered_reasons.len(), 1);
        assert_eq!(all.patch_times_us, vec![10, 20, 30]);

        let alice_only = SliceStats::collect(&results, &|a| a == "alice");
        assert_eq!(alice_only.patches, 2);
        assert!((alice_only.success_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn host_benefit_counting() {
        let results = vec![result(
            "a",
            vec![
                file("x.c", &FileStatus::FullyCovered, "x86_64/allyesconfig"),
                file("y.c", &FileStatus::FullyCovered, "arm/allyesconfig"),
            ],
            1,
        )];
        let s = SliceStats::collect(&results, &|_| true);
        assert_eq!(s.instances_with_coverage, 2);
        assert_eq!(s.instances_touching_host, 1);
        // y.c is non-arch and certified without the host.
        assert_eq!(s.c_nonarch_needing_other_arch, 1);
    }

    #[test]
    fn comment_only_files_do_not_count_as_instances() {
        let mut f = file("z.c", &FileStatus::FullyCovered, "x86_64/allyesconfig");
        f.status = FileStatus::CommentOnly;
        f.covered.clear();
        let results = vec![result("a", vec![f], 1)];
        let s = SliceStats::collect(&results, &|_| true);
        assert_eq!(s.c_instances, 0);
        assert_eq!(s.patch_success, 1);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::default();
        for c in [1, 1, 1, 2, 3, 7] {
            h.add(c);
        }
        assert_eq!(h.total(), 6);
        assert!((h.fraction_le(1) - 0.5).abs() < 1e-12);
        assert!((h.fraction_le(3) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_le(3), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn empty_slice_renders() {
        let s = SliceStats::default();
        assert_eq!(s.success_rate(), 0.0);
        assert!(s.render_reasons().contains("no uncovered"));
        assert!(s.render_kinds().contains(".c files only"));
    }
}
