//! Configuration solvers: `allyesconfig`, `allmodconfig`, defconfig
//! completion.
//!
//! All three are monotone fixed-point computations over the tristate
//! lattice: start from a goal assignment, clamp every symbol to what its
//! dependencies allow, apply `select` floors, and iterate until stable.
//! The kernel's own conf tool does the same thing one symbol at a time.

use crate::ast::SymbolType;
use crate::model::KconfigModel;
use crate::tristate::Tristate;
use std::collections::{BTreeMap, BTreeSet};

/// What the all-config solver aims each symbol at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Everything to `y` where possible.
    AllYes,
    /// Tristates to `m`, bools to `y`.
    AllMod,
}

/// A resolved configuration: symbol name → value. Undeclared names read as
/// [`Tristate::N`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Config {
    values: BTreeMap<String, Tristate>,
}

impl Config {
    /// Value of `name` (`n` when unset or undeclared).
    pub fn get(&self, name: &str) -> Tristate {
        self.values.get(name).copied().unwrap_or(Tristate::N)
    }

    /// True when `name` is `y`.
    pub fn is_builtin(&self, name: &str) -> bool {
        self.get(name) == Tristate::Y
    }

    /// True when `name` is `m` or `y`.
    pub fn is_enabled(&self, name: &str) -> bool {
        self.get(name).enabled()
    }

    /// Set a value directly (generators/tests).
    pub fn set(&mut self, name: impl Into<String>, value: Tristate) {
        self.values.insert(name.into(), value);
    }

    /// Iterate over `(name, value)` pairs with value ≠ `n`, in name order.
    pub fn enabled_symbols(&self) -> impl Iterator<Item = (&str, Tristate)> {
        self.values
            .iter()
            .filter(|(_, v)| v.enabled())
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of enabled symbols.
    pub fn enabled_count(&self) -> usize {
        self.values.values().filter(|v| v.enabled()).count()
    }

    /// The preprocessor macro definitions this configuration induces:
    /// `CONFIG_X` (=1) for `y`, plus `CONFIG_X_MODULE` for `m` — exactly
    /// what Kbuild passes to the compiler, and therefore what governs
    /// `#ifdef CONFIG_X` visibility in `.i` files.
    pub fn cpp_defines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, v) in &self.values {
            match v {
                Tristate::Y => out.push((format!("CONFIG_{name}"), "1".to_string())),
                Tristate::M => out.push((format!("CONFIG_{name}_MODULE"), "1".to_string())),
                Tristate::N => {}
            }
        }
        out
    }

    /// Render as `.config` text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            match v {
                Tristate::N => out.push_str(&format!("# CONFIG_{name} is not set\n")),
                other => out.push_str(&format!("CONFIG_{name}={other}\n")),
            }
        }
        out
    }
}

/// Shared fixed-point: start from `target(sym)`, clamp by dependencies,
/// raise by selects, repeat until stable.
fn fixed_point(model: &KconfigModel, target: impl Fn(&crate::ast::Symbol) -> Tristate) -> Config {
    let mut values: BTreeMap<String, Tristate> = BTreeMap::new();
    for sym in model.symbols() {
        values.insert(sym.name.clone(), Tristate::N);
    }
    // Reverse select index: target name → (selector name, condition).
    let mut selectors_of: BTreeMap<&str, Vec<(&str, Option<&crate::expr::Expr>)>> = BTreeMap::new();
    for sym in model.symbols() {
        for (sel_target, cond) in &sym.selects {
            selectors_of
                .entry(sel_target.as_str())
                .or_default()
                .push((sym.name.as_str(), cond.as_ref()));
        }
    }
    // Choice groups: members are mutually exclusive; at most the first
    // eligible member may hold y (the paper: allyesconfig "is forced to
    // make some choices and thus does not include all lines of code").
    let mut choice_groups: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for sym in model.symbols() {
        if let Some(g) = sym.choice_group {
            choice_groups.entry(g).or_default().push(sym.name.as_str());
        }
    }
    let enforce_choices = |values: &mut BTreeMap<String, Tristate>| {
        for members in choice_groups.values() {
            let mut winner_seen = false;
            for name in members {
                let slot = values.get_mut(*name).expect("preseeded");
                if slot.enabled() {
                    if winner_seen {
                        *slot = Tristate::N;
                    } else {
                        winner_seen = true;
                    }
                }
            }
        }
    };

    // Iterate to a fixed point. The lattice is finite and each sweep only
    // propagates information one dependency level, so the symbol count
    // bounds the sweeps; a small slack guards oscillating negations.
    let bound = model.len() + 8;
    for _ in 0..bound {
        let mut changed = false;
        let snapshot = values.clone();
        let lookup = |name: &str| snapshot.get(name).copied().unwrap_or(Tristate::N);
        for sym in model.symbols() {
            let dep_limit = match &sym.depends {
                Some(e) => e.eval(&lookup),
                None => Tristate::Y,
            };
            let dep_limit = if sym.is_tristate() {
                dep_limit
            } else {
                dep_limit.to_bool_value()
            };
            let mut v = target(sym).min(dep_limit);
            // A choice member yields to an earlier member already holding
            // the group's slot (so the sweep converges instead of
            // re-raising losers every round).
            if let Some(g) = sym.choice_group {
                let taken = choice_groups
                    .get(&g)
                    .into_iter()
                    .flatten()
                    .take_while(|n| **n != sym.name)
                    .any(|n| lookup(n).enabled());
                if taken {
                    v = Tristate::N;
                }
            }
            // Selects put a floor under the value, even past depends (the
            // infamous kconfig footgun — reproduced deliberately).
            if let Some(sels) = selectors_of.get(sym.name.as_str()) {
                for (selector, cond) in sels {
                    let cond_v = cond.map(|c| c.eval(&lookup)).unwrap_or(Tristate::Y);
                    let floor = lookup(selector).min(cond_v);
                    let floor = if sym.is_tristate() {
                        floor
                    } else {
                        floor.to_bool_value()
                    };
                    v = v.max(floor);
                }
            }
            let slot = values.get_mut(&sym.name).expect("preseeded");
            if *slot != v {
                *slot = v;
                changed = true;
            }
        }
        enforce_choices(&mut values);
        if !changed {
            break;
        }
    }
    // Final consistency phase: with negated dependencies feeding select
    // cycles, the Jacobi iteration above can oscillate and exit at the
    // bound in an inconsistent state (real kconfig resolves such knots by
    // making an arbitrary choice and warning). Lower values — never raise —
    // until every symbol sits within max(dependency limit, select floor).
    // Lowering is monotone decreasing on a finite lattice, so this
    // terminates, and it leaves every non-selected symbol within its
    // dependency limit.
    loop {
        let mut changed = false;
        let snapshot = values.clone();
        let lookup = |name: &str| snapshot.get(name).copied().unwrap_or(Tristate::N);
        for sym in model.symbols() {
            let dep_limit = match &sym.depends {
                Some(e) => e.eval(&lookup),
                None => Tristate::Y,
            };
            let dep_limit = if sym.is_tristate() {
                dep_limit
            } else {
                dep_limit.to_bool_value()
            };
            let mut floor = Tristate::N;
            if let Some(sels) = selectors_of.get(sym.name.as_str()) {
                for (selector, cond) in sels {
                    let cond_v = cond.map(|c| c.eval(&lookup)).unwrap_or(Tristate::Y);
                    floor = floor.max(lookup(selector).min(cond_v));
                }
            }
            let ceiling = dep_limit.max(floor);
            let slot = values.get_mut(&sym.name).expect("preseeded");
            if *slot > ceiling {
                *slot = ceiling;
                changed = true;
            }
        }
        enforce_choices(&mut values);
        if !changed {
            break;
        }
    }
    Config { values }
}

/// `allyesconfig` / `allmodconfig`.
pub(crate) fn solve_allconfig(model: &KconfigModel, goal: Goal) -> Config {
    fixed_point(model, |sym| match (goal, sym.ty) {
        (Goal::AllYes, _) => Tristate::Y,
        (Goal::AllMod, SymbolType::Tristate) => Tristate::M,
        (Goal::AllMod, _) => Tristate::Y,
    })
}

/// Defconfig completion: requested values, clamped by dependencies, plus
/// promptless defaults (a `def_bool y` helper symbol activates on its own).
pub(crate) fn solve_defconfig(model: &KconfigModel, wanted: &BTreeMap<String, Tristate>) -> Config {
    fixed_point(model, |sym| {
        if let Some(v) = wanted.get(&sym.name) {
            return *v;
        }
        // Unrequested symbols fall back to their first default clause;
        // conditional defaults are approximated by their value (the
        // condition re-clamps through depends in most kernel usage).
        match sym.defaults.first() {
            Some((v, None)) => *v,
            Some((v, Some(_))) if sym.prompt.is_none() => *v,
            _ => Tristate::N,
        }
    })
}

/// Seeded randconfig: a model-satisfying assignment sampled
/// deterministically from `seed`.
///
/// Each symbol's *target* value is a pure function of `(seed, name)`: an
/// FNV-1a hash of the symbol name is mixed with the seed through a
/// splitmix64-style finalizer, and the result picks `n`/`m`/`y` for
/// tristates (each weight 1/3) or `n`/`y` for bools (each 1/2). The target
/// then runs through the same [`fixed_point`] machinery as every other
/// solver: dependencies clamp it, `select` puts a floor under it, choice
/// groups keep at most one eligible member enabled, and the final
/// monotone-lowering phase guarantees the result is consistent for *any*
/// target function. Two consequences fall out:
///
/// - **Determinism.** No RNG state is threaded anywhere; the whole
///   assignment is a function of the seed and the model text, so the same
///   `(model, seed)` pair yields a byte-identical `.config` on every call,
///   every worker, and every process (the property the disk tier's
///   content-addressed `randconfig:{seed}` keys rely on).
/// - **Satisfiability.** The sampled assignment passes
///   [`is_consistent`] by construction — the proptest suite checks this
///   for arbitrary seeds over generated models with dependency knots,
///   selects, and choice groups.
pub(crate) fn solve_randconfig(model: &KconfigModel, seed: u64) -> Config {
    // splitmix64-style finalizer over (seed, fnv1a(name)). Constants are
    // the standard splitmix64 increments; the seed enters pre-multiplied
    // by the golden-ratio increment so seed 0 and seed 1 diverge fully.
    let mixed_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let sample = move |name: &str| -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut z = h ^ mixed_seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    fixed_point(model, move |sym| {
        let h = sample(&sym.name);
        if sym.is_tristate() {
            match h % 3 {
                0 => Tristate::N,
                1 => Tristate::M,
                _ => Tristate::Y,
            }
        } else if h % 2 == 0 {
            Tristate::N
        } else {
            Tristate::Y
        }
    })
}

/// Why a conjunction of pinned symbol values has no satisfying
/// configuration. The first three variants are *proofs* — the conjunction
/// really is unsatisfiable; [`DeadnessProof::Exhausted`] only records that
/// every solver strategy failed to produce a witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadnessProof {
    /// An enabled pin names a symbol no Kconfig declares.
    Undeclared(String),
    /// An enabled pin names a symbol that can never be enabled
    /// ([`crate::lint::DeadSymbols`]).
    DeadSymbol(String),
    /// Two pins enable members of the same mutually-exclusive choice group.
    ChoiceConflict(String, String),
    /// No strategy found a witness (not a proof of deadness on its own).
    Exhausted,
}

impl std::fmt::Display for DeadnessProof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadnessProof::Undeclared(n) => write!(f, "undeclared symbol {n}"),
            DeadnessProof::DeadSymbol(n) => write!(f, "dead symbol {n}"),
            DeadnessProof::ChoiceConflict(a, b) => write!(f, "choice conflict {a}/{b}"),
            DeadnessProof::Exhausted => write!(f, "no witness found"),
        }
    }
}

/// Result of a conjunction query: a configuration satisfying every pin, or
/// a deadness tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConjunctionVerdict {
    /// A full configuration in which every pinned symbol holds its pinned
    /// value exactly.
    Witness(Config),
    /// No satisfying configuration was found; see [`DeadnessProof`].
    Dead(DeadnessProof),
}

impl ConjunctionVerdict {
    /// The witness configuration, if any.
    pub fn witness(&self) -> Option<&Config> {
        match self {
            ConjunctionVerdict::Witness(c) => Some(c),
            ConjunctionVerdict::Dead(_) => None,
        }
    }
}

/// Decide satisfiability of a conjunction of exact-value pins
/// (`name = value` for every entry) against `model`, producing a witness
/// configuration or a deadness tag.
///
/// Used by the `jmake-reach` presence-condition analysis: a line guarded by
/// `#ifdef CONFIG_A` inside an `obj-$(CONFIG_B)` file reduces to the pins
/// `{A: y, B: y}` (or `{A: y, B: m}` for the modular build). Completeness is
/// heuristic — a handful of fixed-point strategies rather than a SAT
/// search — but soundness is one-directional by construction: a returned
/// witness always satisfies the pins (it is checked before being returned),
/// while [`DeadnessProof::Exhausted`] leaves deadness open. The other three
/// proof tags are sound: those conjunctions truly have no model.
pub(crate) fn solve_conjunction(
    model: &KconfigModel,
    pins: &BTreeMap<String, Tristate>,
) -> ConjunctionVerdict {
    // Hard proofs first: enabled pins on undeclared or never-enabled
    // symbols, and sibling pins inside one choice group.
    for (name, v) in pins {
        if v.enabled() && !model.is_declared(name) {
            return ConjunctionVerdict::Dead(DeadnessProof::Undeclared(name.clone()));
        }
    }
    let dead = model.dead_symbols();
    for (name, v) in pins {
        if v.enabled() && dead.is_dead(model, name) {
            return ConjunctionVerdict::Dead(DeadnessProof::DeadSymbol(name.clone()));
        }
    }
    let mut group_owner: BTreeMap<u32, &str> = BTreeMap::new();
    for (name, v) in pins {
        if !v.enabled() {
            continue;
        }
        if let Some(g) = model.symbol(name).and_then(|s| s.choice_group) {
            if let Some(prev) = group_owner.insert(g, name.as_str()) {
                return ConjunctionVerdict::Dead(DeadnessProof::ChoiceConflict(
                    prev.to_string(),
                    name.clone(),
                ));
            }
        }
    }

    // Witness strategies, cheapest-to-likeliest first. Each one runs the
    // shared fixed point with the pins as the target and a different policy
    // for unpinned symbols; the result only counts when every pin survived
    // dependency clamping and select floors.
    match strategy_witnesses(model, pins).next() {
        Some(cfg) => ConjunctionVerdict::Witness(cfg),
        None => ConjunctionVerdict::Dead(DeadnessProof::Exhausted),
    }
}

/// First default clause of a symbol, as `solve_defconfig` applies it.
fn default_value(sym: &crate::ast::Symbol) -> Tristate {
    match sym.defaults.first() {
        Some((v, None)) => *v,
        Some((v, Some(_))) if sym.prompt.is_none() => *v,
        _ => Tristate::N,
    }
}

/// Number of witness strategies `solve_conjunction` tries.
const STRATEGY_COUNT: usize = 5;

/// Target value of `sym` under strategy `s`: the pin when pinned, else a
/// per-strategy policy for unpinned symbols —
/// 0 defconfig-style (defaults, the closest match to a hand-prepared
/// configuration), 1 minimal (off, good for `!X` pins), 2 allyes-style
/// (up, good for deep positive dependency chains with no defaults),
/// 3 allmod-style (tristates to `m`, good when a pin needs a module-value
/// dependency), 4 negated-dependency (off for every symbol in `blockers`,
/// up for the rest: a pin whose `depends on !X` allyes cannot satisfy
/// while another pin needs a dependency chain that only allyes raises).
fn strategy_target(
    s: usize,
    pins: &BTreeMap<String, Tristate>,
    blockers: &BTreeSet<&str>,
    sym: &crate::ast::Symbol,
) -> Tristate {
    if let Some(v) = pins.get(&sym.name) {
        return *v;
    }
    match s {
        0 => default_value(sym),
        1 => Tristate::N,
        2 => Tristate::Y,
        3 => {
            if sym.is_tristate() {
                Tristate::M
            } else {
                Tristate::Y
            }
        }
        _ => {
            if blockers.contains(sym.name.as_str()) {
                Tristate::N
            } else {
                Tristate::Y
            }
        }
    }
}

/// Symbols an enabled pin's `depends on` negates (`depends on !X` names
/// `X`): the negated-dependency strategy turns them off.
fn negated_dependencies<'m>(
    model: &'m KconfigModel,
    pins: &BTreeMap<String, Tristate>,
) -> BTreeSet<&'m str> {
    fn walk<'e>(e: &'e crate::expr::Expr, negated: bool, out: &mut BTreeSet<&'e str>) {
        use crate::expr::Expr;
        match e {
            Expr::Const(_) => {}
            Expr::Sym(n) => {
                if negated {
                    out.insert(n);
                }
            }
            Expr::Not(inner) => walk(inner, !negated, out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, negated, out);
                walk(b, negated, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    for (name, _) in pins.iter().filter(|(_, v)| v.enabled()) {
        if let Some(deps) = model.symbol(name).and_then(|s| s.depends.as_ref()) {
            walk(deps, false, &mut out);
        }
    }
    out
}

/// The pin-satisfying configurations the witness strategies produce, in
/// strategy order, each solved only when the iterator reaches it (so the
/// first item is exactly the witness [`solve_conjunction`] returns, at the
/// cost of the strategies before it).
fn strategy_witnesses<'a>(
    model: &'a KconfigModel,
    pins: &'a BTreeMap<String, Tristate>,
) -> impl Iterator<Item = Config> + 'a {
    let blockers = negated_dependencies(model, pins);
    (0..STRATEGY_COUNT).filter_map(move |s| {
        let cfg = fixed_point(model, |sym| strategy_target(s, pins, &blockers, sym));
        pins.iter()
            .all(|(name, v)| cfg.get(name) == *v)
            .then_some(cfg)
    })
}

/// Every distinct pin-satisfying configuration the witness strategies can
/// produce, in strategy order (so the first entry is exactly the witness
/// [`solve_conjunction`] would return).
fn conjunction_candidates(model: &KconfigModel, pins: &BTreeMap<String, Tristate>) -> Vec<Config> {
    let mut out: Vec<Config> = Vec::new();
    for cfg in strategy_witnesses(model, pins) {
        if !out.contains(&cfg) {
            out.push(cfg);
        }
    }
    out
}

/// Check that `cfg` is internally consistent against `model`: the
/// invariant the solver's final lowering phase enforces. Specifically —
/// no enabled value on an undeclared name, no `m` on a bool symbol, every
/// value within `max(dependency limit, select floor)`, and at most one
/// enabled member per mutually-exclusive choice group.
///
/// Every configuration the solvers in this module return is consistent;
/// the check exists so hand-edited deltas (a janitor reverting one flip
/// of a suggestion) can be rejected before anything re-runs a build.
pub(crate) fn is_consistent(model: &KconfigModel, cfg: &Config) -> bool {
    for (name, _) in cfg.enabled_symbols() {
        if !model.is_declared(name) {
            return false;
        }
    }
    // Reverse select index, as in the fixed point.
    let mut selectors_of: BTreeMap<&str, Vec<(&str, Option<&crate::expr::Expr>)>> = BTreeMap::new();
    for sym in model.symbols() {
        for (sel_target, cond) in &sym.selects {
            selectors_of
                .entry(sel_target.as_str())
                .or_default()
                .push((sym.name.as_str(), cond.as_ref()));
        }
    }
    let lookup = |name: &str| cfg.get(name);
    let mut group_enabled: BTreeMap<u32, usize> = BTreeMap::new();
    for sym in model.symbols() {
        let v = cfg.get(&sym.name);
        if !sym.is_tristate() && v == Tristate::M {
            return false;
        }
        let dep_limit = match &sym.depends {
            Some(e) => e.eval(&lookup),
            None => Tristate::Y,
        };
        let dep_limit = if sym.is_tristate() {
            dep_limit
        } else {
            dep_limit.to_bool_value()
        };
        let mut floor = Tristate::N;
        if let Some(sels) = selectors_of.get(sym.name.as_str()) {
            for (selector, cond) in sels {
                let cond_v = cond.map(|c| c.eval(&lookup)).unwrap_or(Tristate::Y);
                floor = floor.max(lookup(selector).min(cond_v));
            }
        }
        let floor = if sym.is_tristate() {
            floor
        } else {
            floor.to_bool_value()
        };
        if v > dep_limit.max(floor) {
            return false;
        }
        if v.enabled() {
            if let Some(g) = sym.choice_group {
                let n = group_enabled.entry(g).or_insert(0);
                *n += 1;
                if *n > 1 {
                    return false;
                }
            }
        }
    }
    true
}

/// One symbol whose value a remediation witness changes relative to
/// `allyesconfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFlip {
    /// Symbol name (without the `CONFIG_` prefix).
    pub name: String,
    /// The symbol's value under `allyesconfig`.
    pub from: Tristate,
    /// The symbol's value in the witness.
    pub to: Tristate,
}

/// A minimized configuration delta: a full witness configuration
/// satisfying a conjunction of pins, plus the locally-minimal set of
/// symbols whose values differ from `allyesconfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigDelta {
    /// Flipped symbols, in name order.
    pub flips: Vec<DeltaFlip>,
    /// The witness configuration the flips describe.
    pub config: Config,
}

impl ConfigDelta {
    /// Render the flips as a janitor-facing suggestion:
    /// `CONFIG_FOO=m CONFIG_BAR=n`.
    pub fn suggestion(&self) -> String {
        let parts: Vec<String> = self
            .flips
            .iter()
            .map(|f| format!("CONFIG_{}={}", f.name, f.to))
            .collect();
        parts.join(" ")
    }
}

/// The symbols where `cfg` differs from `allyes`, in name order.
fn flipped(model: &KconfigModel, allyes: &Config, cfg: &Config) -> Vec<String> {
    model
        .symbols()
        .filter(|s| cfg.get(&s.name) != allyes.get(&s.name))
        .map(|s| s.name.clone())
        .collect()
}

/// Find a witness for `pins` whose delta against `allyesconfig` is
/// locally minimal, subject to the caller's `accept` check (the
/// remediator passes the line's full presence condition there, since a
/// pin-satisfying configuration can still miss it through an unpinned
/// `#ifndef CONFIG_X_MODULE`-style atom).
///
/// The search seeds with the fewest-flips strategy witness (strategy
/// order breaks ties, so the result is deterministic), then descends
/// greedily: each round tries, per flipped symbol in name order, (a)
/// reverting just that symbol to its allyes value and (b) re-solving with
/// that symbol aimed back at allyes while the other flips keep their
/// witness values — adopting the first candidate that still satisfies the
/// pins, passes `accept`, stays [consistent](KconfigModel::is_consistent),
/// and strictly shrinks the flip set. On return, reverting any single
/// flip breaks one of those conditions — the local-minimality contract
/// the proptests pin down.
///
/// # Errors
///
/// The hard [`DeadnessProof`]s surface unchanged; [`DeadnessProof::Exhausted`]
/// also covers "witnesses exist but none passes `accept`".
pub(crate) fn minimize_delta(
    model: &KconfigModel,
    pins: &BTreeMap<String, Tristate>,
    accept: &dyn Fn(&Config) -> bool,
) -> Result<ConfigDelta, DeadnessProof> {
    if let ConjunctionVerdict::Dead(proof) = solve_conjunction(model, pins) {
        return Err(proof);
    }
    let allyes = solve_allconfig(model, Goal::AllYes);
    let mut best: Option<(usize, Config)> = None;
    for cfg in conjunction_candidates(model, pins) {
        if !accept(&cfg) {
            continue;
        }
        let n = flipped(model, &allyes, &cfg).len();
        if best.as_ref().is_none_or(|(bn, _)| n < *bn) {
            best = Some((n, cfg));
        }
    }
    let Some((_, mut cfg)) = best else {
        return Err(DeadnessProof::Exhausted);
    };
    let good = |cand: &Config| {
        pins.iter().all(|(name, v)| cand.get(name) == *v)
            && is_consistent(model, cand)
            && accept(cand)
    };
    'descend: loop {
        let flips = flipped(model, &allyes, &cfg);
        for f in &flips {
            if pins.contains_key(f) {
                continue; // reverting a pinned flip breaks the pin
            }
            // (a) Revert just this symbol. One flip fewer by construction.
            let mut direct = cfg.clone();
            direct.set(f.clone(), allyes.get(f));
            if good(&direct) {
                cfg = direct;
                continue 'descend;
            }
            // (b) Re-solve with this symbol aimed back at allyes; the
            // fixed point may cascade and drop several flips at once.
            let cand = fixed_point(model, |sym| {
                if let Some(v) = pins.get(&sym.name) {
                    *v
                } else if sym.name != *f && flips.contains(&sym.name) {
                    cfg.get(&sym.name)
                } else {
                    allyes.get(&sym.name)
                }
            });
            if flipped(model, &allyes, &cand).len() < flips.len() && good(&cand) {
                cfg = cand;
                continue 'descend;
            }
        }
        break;
    }
    let flips = flipped(model, &allyes, &cfg)
        .into_iter()
        .map(|name| DeltaFlip {
            from: allyes.get(&name),
            to: cfg.get(&name),
            name,
        })
        .collect();
    Ok(ConfigDelta { flips, config: cfg })
}

/// Shrink an unsatisfiable conjunction to a locally-minimal core: drop
/// pins one at a time (name order), keeping a pin only when its removal
/// makes the rest satisfiable. Returns the core and the final verdict's
/// proof tag, or `None` when `pins` is satisfiable to begin with.
///
/// With a hard proof the core really is unsatisfiable; under
/// [`DeadnessProof::Exhausted`] it is "minimal among conjunctions every
/// strategy fails on" — same caveat as the verdict itself.
pub(crate) fn unsat_core(
    model: &KconfigModel,
    pins: &BTreeMap<String, Tristate>,
) -> Option<(BTreeMap<String, Tristate>, DeadnessProof)> {
    let ConjunctionVerdict::Dead(mut proof) = solve_conjunction(model, pins) else {
        return None;
    };
    let mut core = pins.clone();
    let names: Vec<String> = core.keys().cloned().collect();
    for name in names {
        let Some(v) = core.remove(&name) else { continue };
        match solve_conjunction(model, &core) {
            // Still unsatisfiable without it: the pin was not load-bearing.
            ConjunctionVerdict::Dead(p) => proof = p,
            ConjunctionVerdict::Witness(_) => {
                core.insert(name, v);
            }
        }
    }
    Some((core, proof))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KconfigModel;

    fn model(src: &str) -> KconfigModel {
        let mut m = KconfigModel::new();
        m.parse_str("Kconfig", src).unwrap();
        m
    }

    #[test]
    fn allyesconfig_sets_everything_possible() {
        let m = model(
            "config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n\tdepends on A\nconfig C\n\tbool \"c\"\n\tdepends on MISSING\n",
        );
        let cfg = m.allyesconfig();
        assert_eq!(cfg.get("A"), Tristate::Y);
        assert_eq!(cfg.get("B"), Tristate::Y);
        // MISSING is undeclared, so C can never be set.
        assert_eq!(cfg.get("C"), Tristate::N);
        assert_eq!(cfg.enabled_count(), 2);
    }

    #[test]
    fn allyesconfig_cannot_satisfy_negative_dependency_pairs() {
        // The paper's #ifndef/#else pathology: allyesconfig prefers y, so a
        // symbol guarded by !OTHER stays off when OTHER is settable.
        let m = model(
            "config FULL\n\tbool \"full\"\nconfig TINY\n\tbool \"tiny\"\n\tdepends on !FULL\n",
        );
        let cfg = m.allyesconfig();
        assert_eq!(cfg.get("FULL"), Tristate::Y);
        assert_eq!(cfg.get("TINY"), Tristate::N);
    }

    #[test]
    fn allmodconfig_prefers_m_for_tristates() {
        let m = model("config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n");
        let cfg = m.allmodconfig();
        assert_eq!(cfg.get("A"), Tristate::Y);
        assert_eq!(cfg.get("B"), Tristate::M);
    }

    #[test]
    fn tristate_dependency_chain_limits_value() {
        let m = model(
            "config BUS\n\ttristate \"bus\"\nconfig DEV\n\ttristate \"dev\"\n\tdepends on BUS\n",
        );
        let cfg = m.allmodconfig();
        // DEV limited by BUS=m.
        assert_eq!(cfg.get("DEV"), Tristate::M);
    }

    #[test]
    fn bool_promotes_m_dependency() {
        let m = model(
            "config DRV\n\ttristate \"drv\"\nconfig DRV_DEBUG\n\tbool \"debug\"\n\tdepends on DRV\n",
        );
        let cfg = m.allmodconfig();
        assert_eq!(cfg.get("DRV"), Tristate::M);
        assert_eq!(cfg.get("DRV_DEBUG"), Tristate::Y);
    }

    #[test]
    fn select_forces_target_on() {
        let m = model(
            "config CRC32\n\tbool \"crc\"\n\tdepends on NEVER_SET\nconfig DRV\n\tbool \"drv\"\n\tselect CRC32\n",
        );
        // select overrides depends (the infamous kconfig footgun).
        let cfg = m.allyesconfig();
        assert_eq!(cfg.get("DRV"), Tristate::Y);
        assert_eq!(cfg.get("CRC32"), Tristate::Y);
    }

    #[test]
    fn conditional_select() {
        let m = model(
            "config HELPER\n\tbool \"h\"\n\tdepends on n\nconfig DRV\n\tbool \"drv\"\n\tselect HELPER if GATE\nconfig GATE\n\tbool \"g\"\n\tdepends on n\n",
        );
        let cfg = m.allyesconfig();
        // GATE can't be set, so the select never fires.
        assert_eq!(cfg.get("HELPER"), Tristate::N);
    }

    #[test]
    fn dependency_cycle_settles() {
        let m = model(
            "config A\n\tbool \"a\"\n\tdepends on B\nconfig B\n\tbool \"b\"\n\tdepends on A\n",
        );
        let cfg = m.allyesconfig();
        // A cycle of positive deps: the n-start fixed point leaves both n
        // (neither can bootstrap), and the solver must terminate.
        assert_eq!(cfg.get("A"), cfg.get("B"));
    }

    #[test]
    fn cpp_defines_reflect_values() {
        let m = model("config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n");
        let cfg = m.allmodconfig();
        let defines = cfg.cpp_defines();
        assert!(defines.contains(&("CONFIG_A".to_string(), "1".to_string())));
        assert!(defines.contains(&("CONFIG_B_MODULE".to_string(), "1".to_string())));
        assert!(!defines.iter().any(|(n, _)| n == "CONFIG_B"));
    }

    #[test]
    fn render_and_reload_round_trip() {
        let m = model("config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\nconfig C\n\tbool \"c\"\n\tdepends on n\n");
        let cfg = m.allyesconfig();
        let text = cfg.render();
        assert!(text.contains("CONFIG_A=y"));
        assert!(text.contains("# CONFIG_C is not set"));
        let reloaded = m.defconfig(&text);
        assert_eq!(reloaded, cfg);
    }

    #[test]
    fn choice_members_are_mutually_exclusive() {
        let m = model(
            "choice\n\tprompt \"HZ\"\nconfig HZ_100\n\tbool \"100\"\nconfig HZ_250\n\tbool \"250\"\nconfig HZ_1000\n\tbool \"1000\"\nendchoice\nconfig OTHER\n\tbool \"o\"\n",
        );
        let cfg = m.allyesconfig();
        let on = ["HZ_100", "HZ_250", "HZ_1000"]
            .iter()
            .filter(|n| cfg.is_builtin(n))
            .count();
        // allyesconfig is *forced to make a choice* (paper §VI): exactly
        // one member wins, the others stay off.
        assert_eq!(on, 1, "{}", cfg.render());
        assert!(cfg.is_builtin("OTHER"));
    }

    #[test]
    fn choice_winner_is_deterministic() {
        let src = "choice\nconfig A_OPT\n\tbool \"a\"\nconfig B_OPT\n\tbool \"b\"\nendchoice\n";
        let a = model(src).allyesconfig();
        let b = model(src).allyesconfig();
        assert_eq!(a, b);
    }

    #[test]
    fn defconfig_can_pick_a_different_choice_member() {
        let m = model(
            "choice\nconfig HZ_100\n\tbool \"100\"\nconfig HZ_1000\n\tbool \"1000\"\nendchoice\n",
        );
        let allyes_winner = if m.allyesconfig().is_builtin("HZ_100") {
            "HZ_100"
        } else {
            "HZ_1000"
        };
        // The prepared configuration picks the other one — which is how a
        // defconfig can cover lines allyesconfig cannot.
        let other = if allyes_winner == "HZ_100" {
            "HZ_1000"
        } else {
            "HZ_100"
        };
        let cfg = m.defconfig(&format!("CONFIG_{other}=y\n"));
        assert!(cfg.is_builtin(other), "{}", cfg.render());
        assert!(!cfg.is_builtin(allyes_winner));
    }

    #[test]
    fn choice_groups_in_different_files_stay_distinct() {
        let mut m = KconfigModel::new();
        m.parse_str(
            "K1",
            "choice\nconfig X1\n\tbool \"x\"\nconfig X2\n\tbool \"x2\"\nendchoice\n",
        )
        .unwrap();
        m.parse_str(
            "K2",
            "choice\nconfig Y1\n\tbool \"y\"\nconfig Y2\n\tbool \"y2\"\nendchoice\n",
        )
        .unwrap();
        let g1 = m.symbol("X1").unwrap().choice_group;
        let g2 = m.symbol("Y1").unwrap().choice_group;
        assert_ne!(g1, g2);
        let cfg = m.allyesconfig();
        // One winner per group — two winners total.
        let winners = ["X1", "X2", "Y1", "Y2"]
            .iter()
            .filter(|n| cfg.is_builtin(n))
            .count();
        assert_eq!(winners, 2);
    }

    fn pins(entries: &[(&str, Tristate)]) -> BTreeMap<String, Tristate> {
        entries.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn conjunction_simple_positive_pins() {
        let m = model(
            "config NET\n\tbool \"net\"\nconfig VLAN\n\tbool \"vlan\"\n\tdepends on NET\n",
        );
        let v = solve_conjunction(&m, &pins(&[("VLAN", Tristate::Y)]));
        let w = v.witness().expect("VLAN is reachable");
        assert_eq!(w.get("VLAN"), Tristate::Y);
        assert_eq!(w.get("NET"), Tristate::Y, "witness must pull the dependency up");
    }

    #[test]
    fn conjunction_negative_pin_on_default_y_symbol() {
        // `#ifndef CONFIG_CORE` reachability: CORE defaults to y, but a
        // configuration pinning it off exists.
        let m = model(
            "config CORE\n\tdef_bool y\nconfig DRV\n\tbool \"d\"\n",
        );
        let v = solve_conjunction(&m, &pins(&[("CORE", Tristate::N), ("DRV", Tristate::Y)]));
        let w = v.witness().expect("CORE can be pinned off");
        assert_eq!(w.get("CORE"), Tristate::N);
        assert_eq!(w.get("DRV"), Tristate::Y);
    }

    #[test]
    fn conjunction_through_negative_dependency() {
        // Reaching TINY requires FULL off — the allyes-style strategy
        // drives FULL up and fails; the minimal strategy finds it.
        let m = model(
            "config FULL\n\tbool \"full\"\nconfig TINY\n\tbool \"tiny\"\n\tdepends on !FULL\n",
        );
        let v = solve_conjunction(&m, &pins(&[("TINY", Tristate::Y)]));
        let w = v.witness().expect("TINY reachable with FULL off");
        assert_eq!(w.get("FULL"), Tristate::N);
        assert_eq!(w.get("TINY"), Tristate::Y);
    }

    /// `SLIMLINE` needs `KERNEL_CORE` (a promptless `def_bool y`) off,
    /// while `PLOVER` needs `NET_DRIVERS` (also `def_bool y`) on: the
    /// defconfig, allyes and allmod strategies keep `KERNEL_CORE` up and
    /// the minimal strategy drops `NET_DRIVERS`, so only the
    /// negated-dependency strategy satisfies both pins.
    fn slimline_model() -> KconfigModel {
        model(
            "config KERNEL_CORE\n\tdef_bool y\n\
             config SLIMLINE\n\tbool \"slim\"\n\tdepends on !KERNEL_CORE\n\
             config NET_DRIVERS\n\tdef_bool y\n\
             config PLOVER\n\ttristate \"plover\"\n\tdepends on NET_DRIVERS\n",
        )
    }

    #[test]
    fn conjunction_negated_dependency_beside_a_positive_chain() {
        let m = slimline_model();
        for plover in [Tristate::Y, Tristate::M] {
            let p = pins(&[("SLIMLINE", Tristate::Y), ("PLOVER", plover)]);
            let v = solve_conjunction(&m, &p);
            let w = v
                .witness()
                .unwrap_or_else(|| panic!("PLOVER={plover}: {v:?}"));
            assert_eq!(w.get("KERNEL_CORE"), Tristate::N);
            assert_eq!(w.get("NET_DRIVERS"), Tristate::Y);
            assert_eq!(w.get("SLIMLINE"), Tristate::Y);
            assert_eq!(w.get("PLOVER"), plover);
            assert!(is_consistent(&m, w));
        }
    }

    #[test]
    fn minimize_delta_through_a_negated_dependency_beside_a_positive_chain() {
        let m = slimline_model();
        let p = pins(&[("SLIMLINE", Tristate::Y), ("PLOVER", Tristate::M)]);
        let d = minimize_delta(&m, &p, &accept_all).unwrap();
        assert_eq!(
            d.suggestion(),
            "CONFIG_KERNEL_CORE=n CONFIG_PLOVER=m CONFIG_SLIMLINE=y"
        );
    }

    #[test]
    fn conjunction_module_pin() {
        let m = model("config BUS\n\ttristate \"bus\"\nconfig DEV\n\ttristate \"dev\"\n\tdepends on BUS\n");
        let v = solve_conjunction(&m, &pins(&[("DEV", Tristate::M)]));
        let w = v.witness().expect("DEV=m reachable");
        assert_eq!(w.get("DEV"), Tristate::M);
        assert!(w.get("BUS").enabled());
    }

    #[test]
    fn conjunction_undeclared_pin_is_dead() {
        let m = model("config A\n\tbool \"a\"\n");
        let v = solve_conjunction(&m, &pins(&[("NOWHERE", Tristate::Y)]));
        assert_eq!(
            v,
            ConjunctionVerdict::Dead(DeadnessProof::Undeclared("NOWHERE".to_string()))
        );
    }

    #[test]
    fn conjunction_dead_symbol_pin_is_dead() {
        let m = model("config DOOMED\n\tbool \"d\"\n\tdepends on MISSING\n");
        let v = solve_conjunction(&m, &pins(&[("DOOMED", Tristate::Y)]));
        assert_eq!(
            v,
            ConjunctionVerdict::Dead(DeadnessProof::DeadSymbol("DOOMED".to_string()))
        );
    }

    #[test]
    fn conjunction_choice_conflict_is_dead() {
        let m = model(
            "choice\nconfig HZ_100\n\tbool \"100\"\nconfig HZ_1000\n\tbool \"1000\"\nendchoice\n",
        );
        let v = solve_conjunction(
            &m,
            &pins(&[("HZ_100", Tristate::Y), ("HZ_1000", Tristate::Y)]),
        );
        assert!(matches!(
            v,
            ConjunctionVerdict::Dead(DeadnessProof::ChoiceConflict(_, _))
        ));
    }

    #[test]
    fn conjunction_single_choice_member_pin_has_witness() {
        let m = model(
            "choice\nconfig HZ_100\n\tbool \"100\"\nconfig HZ_1000\n\tbool \"1000\"\nendchoice\n",
        );
        // The non-default member: allyes picks HZ_100, but a pin can take
        // the other slot.
        let v = solve_conjunction(&m, &pins(&[("HZ_1000", Tristate::Y)]));
        let w = v.witness().expect("losing choice member still reachable");
        assert!(w.is_builtin("HZ_1000"));
        assert!(!w.is_builtin("HZ_100"));
    }

    #[test]
    fn conjunction_negative_pin_on_selected_symbol_exhausts() {
        // CORE (always on, promptless default y) unconditionally selects
        // HELPER, so HELPER=n has no witness; the solver cannot *prove*
        // that, so the tag is Exhausted rather than a hard proof.
        let m = model(
            "config CORE\n\tdef_bool y\n\tselect HELPER\nconfig HELPER\n\tbool \"h\"\n",
        );
        let v = solve_conjunction(&m, &pins(&[("HELPER", Tristate::N), ("CORE", Tristate::Y)]));
        assert_eq!(v, ConjunctionVerdict::Dead(DeadnessProof::Exhausted));
    }

    #[test]
    fn conjunction_witness_is_a_valid_model_config() {
        // The witness must respect dependencies for every symbol, not just
        // the pinned ones (it gets rendered and fed to make_config).
        let m = model(
            "config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\n\tdepends on A\nconfig C\n\ttristate \"c\"\n\tdepends on B\n",
        );
        let v = solve_conjunction(&m, &pins(&[("C", Tristate::M)]));
        let w = v.witness().unwrap();
        for sym in m.symbols() {
            if let Some(dep) = &sym.depends {
                let limit = dep.eval(&|n: &str| w.get(n));
                assert!(
                    w.get(&sym.name) <= limit.max(Tristate::N),
                    "{} exceeds its dependency limit",
                    sym.name
                );
            }
        }
    }

    #[test]
    fn promptless_def_bool_activates_in_defconfig() {
        let m =
            model("config HAVE_X\n\tdef_bool y\nconfig USER\n\tbool \"u\"\n\tdepends on HAVE_X\n");
        let cfg = m.defconfig("CONFIG_USER=y\n");
        assert_eq!(cfg.get("HAVE_X"), Tristate::Y);
        assert_eq!(cfg.get("USER"), Tristate::Y);
    }

    fn accept_all(_: &Config) -> bool {
        true
    }

    #[test]
    fn solver_outputs_are_consistent() {
        let m = model(
            "config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n\tdepends on A\nconfig C\n\tbool \"c\"\n\tdepends on !A\n",
        );
        for cfg in [m.allyesconfig(), m.allmodconfig(), m.defconfig("CONFIG_B=m\n")] {
            assert!(is_consistent(&m, &cfg), "{}", cfg.render());
        }
    }

    #[test]
    fn tampered_configs_are_inconsistent() {
        let m = model(
            "config A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n\tdepends on A\nchoice\nconfig X\n\tbool \"x\"\nconfig Y\n\tbool \"y\"\nendchoice\n",
        );
        // Dependency violated: B on while A off.
        let mut c1 = m.allyesconfig();
        c1.set("A", Tristate::N);
        assert!(!is_consistent(&m, &c1));
        // m on a bool.
        let mut c2 = m.allyesconfig();
        c2.set("A", Tristate::M);
        assert!(!is_consistent(&m, &c2));
        // Enabled undeclared name.
        let mut c3 = m.allyesconfig();
        c3.set("GHOST", Tristate::Y);
        assert!(!is_consistent(&m, &c3));
        // Two enabled members of one choice group.
        let mut c4 = m.allyesconfig();
        c4.set("X", Tristate::Y);
        c4.set("Y", Tristate::Y);
        assert!(!is_consistent(&m, &c4));
    }

    #[test]
    fn minimize_delta_flips_only_what_the_pin_needs() {
        // Reaching TINY needs FULL off; OTHER is independent and must not
        // appear in the delta even though the minimal strategy witness
        // leaves it off.
        let m = model(
            "config FULL\n\tbool \"full\"\nconfig TINY\n\tbool \"tiny\"\n\tdepends on !FULL\nconfig OTHER\n\tbool \"o\"\n",
        );
        let d = minimize_delta(&m, &pins(&[("TINY", Tristate::Y)]), &accept_all).unwrap();
        let names: Vec<&str> = d.flips.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["FULL", "TINY"]);
        assert_eq!(d.flips[0].from, Tristate::Y);
        assert_eq!(d.flips[0].to, Tristate::N);
        assert_eq!(d.suggestion(), "CONFIG_FULL=n CONFIG_TINY=y");
        assert!(d.config.is_builtin("OTHER"), "independent symbol reverted to allyes");
        assert!(is_consistent(&m, &d.config));
    }

    #[test]
    fn minimize_delta_is_empty_when_allyes_already_satisfies() {
        let m = model("config NET\n\tbool \"net\"\nconfig VLAN\n\tbool \"v\"\n\tdepends on NET\n");
        let d = minimize_delta(&m, &pins(&[("VLAN", Tristate::Y)]), &accept_all).unwrap();
        assert!(d.flips.is_empty(), "{}", d.suggestion());
        assert_eq!(d.config, m.allyesconfig());
    }

    #[test]
    fn minimize_delta_module_pin() {
        let m = model("config BUS\n\ttristate \"bus\"\nconfig DEV\n\ttristate \"dev\"\n\tdepends on BUS\n");
        let d = minimize_delta(&m, &pins(&[("DEV", Tristate::M)]), &accept_all).unwrap();
        // allyes has both at y; only DEV itself must move to m.
        assert_eq!(d.suggestion(), "CONFIG_DEV=m");
        assert!(d.config.is_builtin("BUS"));
    }

    #[test]
    fn minimize_delta_reports_hard_proofs() {
        let m = model("config DOOMED\n\tbool \"d\"\n\tdepends on MISSING\n");
        let err = minimize_delta(&m, &pins(&[("DOOMED", Tristate::Y)]), &accept_all).unwrap_err();
        assert_eq!(err, DeadnessProof::DeadSymbol("DOOMED".to_string()));
    }

    #[test]
    fn minimize_delta_exhausts_when_accept_rejects_everything() {
        let m = model("config A\n\tbool \"a\"\n");
        let err =
            minimize_delta(&m, &pins(&[("A", Tristate::Y)]), &|_| false).unwrap_err();
        assert_eq!(err, DeadnessProof::Exhausted);
    }

    #[test]
    fn minimize_delta_is_deterministic() {
        let m = model(
            "config FULL\n\tbool \"f\"\nconfig TINY\n\tbool \"t\"\n\tdepends on !FULL\nconfig MID\n\ttristate \"m\"\n\tdepends on !FULL\n",
        );
        let p = pins(&[("TINY", Tristate::Y), ("MID", Tristate::M)]);
        let a = minimize_delta(&m, &p, &accept_all).unwrap();
        let b = minimize_delta(&m, &p, &accept_all).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unsat_core_drops_satisfiable_pins() {
        let m = model(
            "config DOOMED\n\tbool \"d\"\n\tdepends on MISSING\nconfig FINE\n\tbool \"f\"\n",
        );
        let (core, proof) = unsat_core(
            &m,
            &pins(&[("DOOMED", Tristate::Y), ("FINE", Tristate::Y)]),
        )
        .expect("conjunction is dead");
        assert_eq!(core.len(), 1);
        assert_eq!(core.get("DOOMED"), Some(&Tristate::Y));
        assert_eq!(proof, DeadnessProof::DeadSymbol("DOOMED".to_string()));
    }

    #[test]
    fn unsat_core_none_when_satisfiable() {
        let m = model("config A\n\tbool \"a\"\n");
        assert!(unsat_core(&m, &pins(&[("A", Tristate::Y)])).is_none());
    }

    #[test]
    fn unsat_core_keeps_both_halves_of_a_choice_conflict() {
        let m = model(
            "choice\nconfig HZ_100\n\tbool \"100\"\nconfig HZ_1000\n\tbool \"1000\"\nendchoice\n",
        );
        let (core, proof) = unsat_core(
            &m,
            &pins(&[("HZ_100", Tristate::Y), ("HZ_1000", Tristate::Y)]),
        )
        .expect("choice conflict is dead");
        assert_eq!(core.len(), 2, "dropping either member would satisfy the rest");
        assert!(matches!(proof, DeadnessProof::ChoiceConflict(_, _)));
    }
}
