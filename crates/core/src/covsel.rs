//! Randconfig portfolio selection (DESIGN.md §15): given a budget of K
//! configurations up front, greedily pick the seeded randconfigs that
//! reach the most conditional code allyesconfig misses, per
//! virtual-clock dollar.
//!
//! The per-file coverage configurations of the paper's proposed
//! complement (§VII) live in [`crate::check`]: they come from the reach
//! analyzer's witnesses, not from this module.

use jmake_kbuild::{BuildEngine, ConfigKind, SourceTree};
use jmake_reach::{Reach, ReachClass};
use std::collections::BTreeSet;

/// One member of a selected configuration portfolio (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioMember {
    /// The configuration every trial fans out to.
    pub kind: ConfigKind,
    /// Virtual-clock cost (µs) of creating the configuration, measured by
    /// solving it on a scratch engine — the denominator of the greedy
    /// lines-per-virtual-dollar objective.
    pub cost_virtual_us: u64,
    /// Lines newly covered when this member joins the portfolio: the
    /// allyes-reachable count for member 0, newly-present conditional
    /// lines for every randconfig member.
    pub new_lines: usize,
}

/// Result of greedy coverage-vs-budget selection over seeded randconfig
/// candidates ([`select_portfolio`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Portfolio {
    /// Architecture the portfolio was selected for (the primary model).
    pub arch: String,
    /// Requested portfolio size K (selection may stop earlier when no
    /// candidate adds coverage).
    pub requested: usize,
    /// Base sampling seed; candidate i uses `rand_seed + i`.
    pub rand_seed: u64,
    /// Number of distinct randconfig candidates sampled and scored.
    pub pool: usize,
    /// Selected members in greedy order; member 0 is always allyesconfig
    /// (the K=1 baseline).
    pub members: Vec<PortfolioMember>,
    /// Lines classified allyes-reachable — covered by member 0.
    pub allyes_lines: usize,
    /// Lines only present under some non-allyes configuration.
    pub conditional_lines: usize,
    /// Conditional lines covered by the selected randconfig members.
    pub covered_conditional_lines: usize,
    /// Lines statically proven dead — no configuration ever reaches them.
    pub dead_lines: usize,
    /// Conditional lines no sampled candidate reaches. Honest attribution:
    /// not provably dead, just beyond this seed pool (headers nobody
    /// includes, undecidable conditions, unsampled corners).
    pub unfixable_lines: usize,
}

impl Portfolio {
    /// The selected randconfig seeds, in greedy order.
    pub fn seeds(&self) -> Vec<u64> {
        self.members
            .iter()
            .filter_map(|m| match m.kind {
                ConfigKind::Rand { seed } => Some(seed),
                _ => None,
            })
            .collect()
    }

    /// Sum of member configuration-creation costs (µs, virtual clock).
    pub fn total_cost_virtual_us(&self) -> u64 {
        self.members.iter().map(|m| m.cost_virtual_us).sum()
    }

    /// Lines covered by the whole portfolio (allyes + selected members).
    pub fn covered_lines(&self) -> usize {
        self.allyes_lines + self.covered_conditional_lines
    }

    /// All classified lines: allyes + conditional + dead.
    pub fn total_lines(&self) -> usize {
        self.allyes_lines + self.conditional_lines + self.dead_lines
    }
}

/// Greedily select a portfolio of `k` configurations maximizing
/// newly-reachable lines per virtual-clock dollar (ROADMAP item 3).
///
/// Member 0 is always allyesconfig — the K=1 baseline the paper
/// evaluates. The remaining `k − 1` slots are filled from a pool of
/// seeded randconfig candidates (`rand_seed + i`, deterministic per
/// [`jmake_kconfig::KconfigModel::randconfig`]): each round picks the
/// candidate whose count of *newly*-present conditional lines per
/// configuration-creation cost is maximal, comparing gains by
/// cross-multiplication (no floats) and breaking exact ties toward the
/// smaller seed. Selection stops early once no candidate adds coverage.
///
/// "Present" is the reach analyzer's end-to-end notion
/// ([`Reach::line_present`]): the `#if` stack must evaluate to
/// definitely-true and, for `.c` files, the Kbuild guard chain must open
/// the translation unit. Lines no configuration can reach are attributed
/// honestly: statically-proven-dead lines count as `dead_lines`,
/// conditional lines beyond the sampled pool as `unfixable_lines`.
///
/// Everything here is a pure function of `(tree, arch, k, rand_seed)` —
/// the scratch engine's virtual clock never touches the evaluation run's
/// clock, so selection does not perturb report identity.
///
/// # Errors
///
/// Any configuration-solve failure (missing `arch/<arch>/Kconfig`,
/// unknown arch) is returned as a rendered message.
pub fn select_portfolio(
    tree: &SourceTree,
    arch: &str,
    k: usize,
    rand_seed: u64,
) -> Result<Portfolio, String> {
    if k == 0 {
        return Err("portfolio size must be at least 1".to_string());
    }
    let mut engine = BuildEngine::new(tree.clone());
    let t0 = engine.clock.now_us();
    engine
        .make_config(arch, &ConfigKind::AllYes)
        .map_err(|e| format!("{arch}: {e}"))?;
    let allyes_cost = engine.clock.now_us() - t0;
    // The allyes solve above is memoized in the engine; only the allmod
    // environment costs more clock, and no member's cost includes it.
    let mut reach = Reach::new(tree);
    let allyes = reach
        .add_arch(&mut engine, arch)
        .map_err(|e| format!("{arch}: {e}"))?;
    let classified = reach.analyze();

    // Partition the line universe. Conditional lines are the optimization
    // target; allyes lines belong to member 0 by construction and dead
    // lines to nobody.
    let mut allyes_lines = 0usize;
    let mut dead_lines = 0usize;
    let mut cond_lines: Vec<(&str, u32)> = Vec::new();
    for (path, file) in &classified.files {
        for (i, class) in file.classes.iter().enumerate() {
            match class {
                ReachClass::AllyesReachable => allyes_lines += 1,
                ReachClass::Dead { .. } => dead_lines += 1,
                ReachClass::ConditionallyReachable { .. } => {
                    cond_lines.push((path.as_str(), i as u32 + 1));
                }
            }
        }
    }

    // Sample the candidate pool: distinct seeds, distinct solved configs
    // (two seeds reaching the same fixed point are one candidate — the
    // smaller seed wins the name). Pool size scales with K so deeper
    // portfolios see more corners, independent of which K get selected.
    let pool_n = (4 * k).clamp(16, 64);
    struct Candidate {
        seed: u64,
        cost: u64,
        present: Vec<bool>,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen_configs: BTreeSet<String> = BTreeSet::new();
    seen_configs.insert(allyes.config.render());
    for i in 0..pool_n as u64 {
        let seed = rand_seed.wrapping_add(i);
        let kind = ConfigKind::Rand { seed };
        let t0 = engine.clock.now_us();
        let built = engine
            .make_config(arch, &kind)
            .map_err(|e| format!("{arch}: {e}"))?;
        let cost = engine.clock.now_us() - t0;
        if !seen_configs.insert(built.config.render()) {
            continue;
        }
        let present = cond_lines
            .iter()
            .map(|(path, line)| reach.line_present(path, *line, &built.config))
            .collect();
        candidates.push(Candidate {
            seed,
            cost,
            present,
        });
    }

    let mut members = vec![PortfolioMember {
        kind: ConfigKind::AllYes,
        cost_virtual_us: allyes_cost,
        new_lines: allyes_lines,
    }];
    let mut covered = vec![false; cond_lines.len()];
    let mut used: BTreeSet<u64> = BTreeSet::new();
    for _ in 1..k {
        // Pick argmax of gain/cost by cross-multiplication; exact ties go
        // to the smaller seed (candidates iterate in ascending seed order,
        // so strict improvement is required to displace the incumbent).
        let mut best: Option<(usize, usize)> = None; // (candidate idx, gain)
        for (ci, cand) in candidates.iter().enumerate() {
            if used.contains(&cand.seed) {
                continue;
            }
            let gain = cand
                .present
                .iter()
                .zip(&covered)
                .filter(|(p, c)| **p && !**c)
                .count();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bi, bg)) => {
                    (gain as u128) * u128::from(candidates[bi].cost.max(1))
                        > (bg as u128) * u128::from(cand.cost.max(1))
                }
            };
            if better {
                best = Some((ci, gain));
            }
        }
        let Some((ci, gain)) = best else {
            break; // no candidate adds coverage — stop early
        };
        let cand = &candidates[ci];
        used.insert(cand.seed);
        for (slot, p) in covered.iter_mut().zip(&cand.present) {
            *slot |= *p;
        }
        members.push(PortfolioMember {
            kind: ConfigKind::Rand { seed: cand.seed },
            cost_virtual_us: cand.cost,
            new_lines: gain,
        });
    }

    let covered_conditional_lines = covered.iter().filter(|c| **c).count();
    let unfixable_lines = (0..cond_lines.len())
        .filter(|&i| !candidates.iter().any(|c| c.present[i]))
        .count();
    Ok(Portfolio {
        arch: arch.to_string(),
        requested: k,
        rand_seed,
        pool: candidates.len(),
        members,
        allyes_lines,
        conditional_lines: cond_lines.len(),
        covered_conditional_lines,
        dead_lines,
        unfixable_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree where one line sits behind `#ifndef CONFIG_FULL` — invisible
    /// to allyesconfig, reachable by any randconfig that samples FULL off —
    /// plus one provably dead line and one unconditional line.
    fn portfolio_tree() -> SourceTree {
        let mut tree = SourceTree::new();
        tree.insert(
            "Kconfig",
            "config FULL\n\tbool \"full\"\n\nconfig DRV\n\tbool \"drv\"\n",
        );
        tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        tree.insert("Makefile", "obj-y += drivers/\n");
        tree.insert("drivers/Makefile", "obj-$(CONFIG_DRV) += drv.o\n");
        tree.insert(
            "drivers/drv.c",
            "#ifndef CONFIG_FULL\nint lean_only;\n#endif\n#ifdef CONFIG_NEVER\nint dead;\n#endif\nint live;\n",
        );
        tree
    }

    #[test]
    fn portfolio_member_zero_is_allyes_and_k1_is_the_baseline() {
        let p = select_portfolio(&portfolio_tree(), "x86_64", 1, 7).unwrap();
        assert_eq!(p.members.len(), 1);
        assert_eq!(p.members[0].kind, ConfigKind::AllYes);
        assert_eq!(p.members[0].new_lines, p.allyes_lines);
        assert_eq!(p.covered_conditional_lines, 0);
        assert!(p.dead_lines >= 1, "CONFIG_NEVER line should be dead");
    }

    #[test]
    fn portfolio_covers_the_ifndef_line_allyes_misses() {
        let p = select_portfolio(&portfolio_tree(), "x86_64", 8, 7).unwrap();
        assert!(
            p.covered_conditional_lines >= 1,
            "some sampled config must set FULL=n: {p:?}"
        );
        assert!(p.members.len() >= 2);
        assert!(matches!(p.members[1].kind, ConfigKind::Rand { .. }));
        assert!(p.members[1].new_lines >= 1);
        assert!(p.members[1].cost_virtual_us > 0);
        // Greedy stops once nothing new is coverable; a single #ifndef
        // branch needs exactly one extra config.
        assert_eq!(p.members.len(), 2);
    }

    #[test]
    fn portfolio_selection_is_deterministic() {
        let tree = portfolio_tree();
        let a = select_portfolio(&tree, "x86_64", 4, 319).unwrap();
        let b = select_portfolio(&tree, "x86_64", 4, 319).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn portfolio_rejects_k_zero_and_unknown_arch() {
        let tree = portfolio_tree();
        assert!(select_portfolio(&tree, "x86_64", 0, 1).is_err());
        assert!(select_portfolio(&tree, "no_such_arch", 2, 1).is_err());
    }
}
