//! The assembled configuration model for one architecture.

use crate::ast::Symbol;
use crate::lint::DeadSymbols;
use crate::parse::{parse_kconfig, ParseKconfigError};
use crate::solve::{solve_allconfig, solve_defconfig, Config, Goal};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// All symbols reachable from an architecture's root Kconfig, with the
/// solvers operating over them.
#[derive(Debug, Clone, Default)]
pub struct KconfigModel {
    symbols: BTreeMap<String, Symbol>,
    /// Base for remapping per-file `choice` group ids to model-global ones.
    next_choice: u32,
    /// The dead-symbol lint over `symbols`, computed on first use. Every
    /// write to `symbols` resets it; clones share the computed result.
    dead: OnceLock<Arc<DeadSymbols>>,
}

impl KconfigModel {
    /// An empty model.
    pub fn new() -> Self {
        KconfigModel::default()
    }

    /// Parse `content` as a Kconfig file and add its symbols.
    ///
    /// `source` directives are returned for the caller to chase (the build
    /// engine resolves them against its source tree); symbols already
    /// present are replaced.
    ///
    /// # Errors
    ///
    /// Propagates [`ParseKconfigError`].
    pub fn parse_str(
        &mut self,
        file: &str,
        content: &str,
    ) -> Result<Vec<String>, ParseKconfigError> {
        let parsed = parse_kconfig(file, content)?;
        self.dead = OnceLock::new();
        let mut max_local: Option<u32> = None;
        for mut sym in parsed.symbols {
            if let Some(local) = sym.choice_group {
                max_local = Some(max_local.unwrap_or(0).max(local));
                sym.choice_group = Some(self.next_choice + local);
            }
            self.symbols.insert(sym.name.clone(), sym);
        }
        if let Some(m) = max_local {
            self.next_choice += m + 1;
        }
        Ok(parsed.sources)
    }

    /// Insert a symbol directly (used by generators and tests).
    pub fn insert(&mut self, sym: Symbol) {
        self.dead = OnceLock::new();
        self.symbols.insert(sym.name.clone(), sym);
    }

    /// The symbols no configuration can enable ([`DeadSymbols::compute`]),
    /// computed once per model: the classifier asks once per patch and
    /// [`Self::solve_conjunction`] once per query, and both read this
    /// memo. `parse_str` and `insert` reset it.
    pub fn dead_symbols(&self) -> &DeadSymbols {
        self.dead
            .get_or_init(|| Arc::new(DeadSymbols::compute(self)))
    }

    /// Look up a symbol.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// Whether `name` is declared anywhere in the model — JMake's
    /// classifier uses this for Table IV's "variable never set in the
    /// kernel" row.
    pub fn is_declared(&self, name: &str) -> bool {
        self.symbols.contains_key(name)
    }

    /// Iterate over all symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.values()
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when no symbols are declared.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// `make allyesconfig`: drive every symbol as high as its dependencies
    /// allow, preferring `y` (paper §II.B).
    pub fn allyesconfig(&self) -> Config {
        solve_allconfig(self, Goal::AllYes)
    }

    /// `make allmodconfig`: tristates become `m`, bools `y`.
    pub fn allmodconfig(&self) -> Config {
        solve_allconfig(self, Goal::AllMod)
    }

    /// `make randconfig KCONFIG_SEED=seed`: a model-satisfying assignment
    /// sampled deterministically from the seed. Each symbol's target is a
    /// pure hash of `(seed, name)` (tristates weight `n`/`m`/`y` at 1/3
    /// each, bools `n`/`y` at 1/2), then the usual fixed point clamps it by
    /// dependencies, applies `select` floors, and keeps choice groups
    /// exclusive — so the result always passes [`Self::is_consistent`].
    ///
    /// The same `(model, seed)` pair renders byte-identically everywhere —
    /// no RNG state exists to drift:
    ///
    /// ```
    /// use jmake_kconfig::KconfigModel;
    ///
    /// let mut model = KconfigModel::new();
    /// model
    ///     .parse_str(
    ///         "Kconfig",
    ///         "config A\n\tbool \"a\"\n\nconfig B\n\ttristate \"b\"\n\tdepends on A\n",
    ///     )
    ///     .unwrap();
    /// let a = model.randconfig(17);
    /// let b = model.randconfig(17);
    /// assert_eq!(a.render(), b.render()); // same seed → same bytes
    /// assert!(model.is_consistent(&a)); // and always satisfying
    /// assert_ne!(
    ///     (0..64).map(|s| model.randconfig(s).render()).collect::<Vec<_>>(),
    ///     vec![a.render(); 64], // seeds actually vary
    /// );
    /// ```
    pub fn randconfig(&self, seed: u64) -> Config {
        crate::solve::solve_randconfig(self, seed)
    }

    /// Load a prepared configuration (`arch/*/configs/*_defconfig`
    /// content: `CONFIG_X=y` lines plus `# CONFIG_X is not set` comments)
    /// and complete it against dependencies.
    pub fn defconfig(&self, content: &str) -> Config {
        let mut wanted = BTreeMap::new();
        for line in content.lines() {
            let line = line.trim();
            // Explicit negative assignments: `# CONFIG_X is not set` pins
            // the symbol off even past its defaults (kconfig semantics).
            if let Some(rest) = line.strip_prefix("# CONFIG_") {
                if let Some(name) = rest.strip_suffix(" is not set") {
                    wanted.insert(name.to_string(), crate::tristate::Tristate::N);
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("CONFIG_") {
                if let Some((name, value)) = rest.split_once('=') {
                    if let Some(t) = value
                        .chars()
                        .next()
                        .and_then(crate::tristate::Tristate::from_config_char)
                    {
                        wanted.insert(name.to_string(), t);
                    } else {
                        // int/hex/string assignment: presence counts as y.
                        wanted.insert(name.to_string(), crate::tristate::Tristate::Y);
                    }
                }
            }
        }
        solve_defconfig(self, &wanted)
    }

    /// Decide satisfiability of a conjunction of exact-value pins and
    /// return a witness configuration or a deadness tag — the solver
    /// behind `jmake-reach` presence conditions. See
    /// `crate::solve::solve_conjunction` for soundness notes.
    pub fn solve_conjunction(
        &self,
        pins: &BTreeMap<String, crate::tristate::Tristate>,
    ) -> crate::solve::ConjunctionVerdict {
        crate::solve::solve_conjunction(self, pins)
    }

    /// Whether `cfg` is internally consistent with this model: no enabled
    /// undeclared names, no `m` on bools, every value within
    /// `max(dependency limit, select floor)`, at most one enabled member
    /// per choice group. Every configuration the solvers return passes;
    /// the check exists to reject hand-edited ones.
    pub fn is_consistent(&self, cfg: &Config) -> bool {
        crate::solve::is_consistent(self, cfg)
    }

    /// Find a witness for `pins` whose delta against [`Self::allyesconfig`]
    /// is locally minimal, subject to `accept` (the remediator's
    /// full-presence-condition check). See `crate::solve::minimize_delta`
    /// for the descent and its determinism/minimality contract.
    ///
    /// # Errors
    ///
    /// A [`crate::solve::DeadnessProof`] when the pins are unsatisfiable
    /// or no strategy witness passes `accept`.
    pub fn minimize_delta(
        &self,
        pins: &BTreeMap<String, crate::tristate::Tristate>,
        accept: &dyn Fn(&Config) -> bool,
    ) -> Result<crate::solve::ConfigDelta, crate::solve::DeadnessProof> {
        crate::solve::minimize_delta(self, pins, accept)
    }

    /// Shrink an unsatisfiable conjunction to a locally-minimal core plus
    /// its deadness proof; `None` when `pins` is satisfiable.
    pub fn unsat_core(
        &self,
        pins: &BTreeMap<String, crate::tristate::Tristate>,
    ) -> Option<(
        BTreeMap<String, crate::tristate::Tristate>,
        crate::solve::DeadnessProof,
    )> {
        crate::solve::unsat_core(self, pins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tristate::Tristate;

    fn model(src: &str) -> KconfigModel {
        let mut m = KconfigModel::new();
        m.parse_str("Kconfig", src).unwrap();
        m
    }

    #[test]
    fn declaration_lookup() {
        let m = model("config NET\n\tbool \"net\"\n");
        assert!(m.is_declared("NET"));
        assert!(!m.is_declared("NOPE"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sources_returned_for_chasing() {
        let mut m = KconfigModel::new();
        let sources = m
            .parse_str(
                "Kconfig",
                "source \"drivers/Kconfig\"\nconfig A\n\tbool \"a\"\n",
            )
            .unwrap();
        assert_eq!(sources, vec!["drivers/Kconfig".to_string()]);
        assert!(m.is_declared("A"));
    }

    #[test]
    fn defconfig_parses_assignments() {
        let m =
            model("config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\nconfig C\n\tbool \"c\"\n");
        let cfg = m.defconfig("CONFIG_A=y\nCONFIG_B=m\n# CONFIG_C is not set\n");
        assert_eq!(cfg.get("A"), Tristate::Y);
        assert_eq!(cfg.get("B"), Tristate::M);
        assert_eq!(cfg.get("C"), Tristate::N);
    }

    #[test]
    fn defconfig_respects_dependencies() {
        let m =
            model("config NET\n\tbool \"net\"\nconfig VLAN\n\tbool \"vlan\"\n\tdepends on NET\n");
        // VLAN requested without NET: clamped off.
        let cfg = m.defconfig("CONFIG_VLAN=y\n");
        assert_eq!(cfg.get("VLAN"), Tristate::N);
        let cfg2 = m.defconfig("CONFIG_NET=y\nCONFIG_VLAN=y\n");
        assert_eq!(cfg2.get("VLAN"), Tristate::Y);
    }
}
