//! Undertaker-style satisfiability lint.
//!
//! The Undertaker (related work, paper §VI) finds *dead* blocks — code
//! whose configuration condition is a contradiction. JMake's Table IV
//! needs a slice of that power: given a symbol referenced by an `#ifdef`,
//! decide whether it is (a) settable but not set by allyesconfig, or
//! (b) never settable in the kernel at all.

use crate::ast::Symbol;
use crate::expr::Expr;
use crate::model::KconfigModel;
use crate::tristate::Tristate;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The set of symbols that can never be enabled under any configuration.
#[derive(Debug, Clone, Default)]
pub struct DeadSymbols {
    dead: BTreeSet<String>,
}

impl DeadSymbols {
    /// Compute dead symbols for `model`.
    ///
    /// A symbol is *live* when its dependencies are satisfiable assuming
    /// every other live symbol could be driven to any value its own
    /// liveness allows, or when a live symbol selects it under a
    /// satisfiable select condition. The computation is a least fixed
    /// point: start with nothing live and add symbols whose liveness is
    /// justified by already-live symbols. Growing from the bottom means a
    /// `select` can never launder liveness through a symbol that is
    /// itself dead — in the old greatest-fixed-point formulation two dead
    /// symbols selecting each other kept both alive forever, and a
    /// `select T if COND` counted even when COND was a contradiction.
    /// Evaluation stays optimistic (`X` contributes Y when X is live,
    /// `!X` is always satisfiable by leaving X off), so liveness is still
    /// an over-approximation: a symbol reported dead really is dead.
    ///
    /// The fixed point runs as a worklist over a reverse index
    /// (`least_fixed_point`), so it costs O(symbols + edges) expression
    /// evaluations rather than a scan of every `select` list per symbol
    /// per round. [`KconfigModel::dead_symbols`] memoizes the result on
    /// the model.
    pub fn compute(model: &KconfigModel) -> Self {
        let (live, _) = least_fixed_point(model, Lint::Live);
        let dead = model
            .symbols()
            .zip(live)
            .filter(|(_, live)| !live)
            .map(|(sym, _)| sym.name.clone())
            .collect();
        DeadSymbols { dead }
    }

    /// True when `name` can never be enabled. Undeclared symbols are dead
    /// by definition — `#ifdef CONFIG_FOO` with no `config FOO` anywhere is
    /// the paper's "variable never set in the kernel".
    pub fn is_dead(&self, model: &KconfigModel, name: &str) -> bool {
        !model.is_declared(name) || self.dead.contains(name)
    }

    /// The declared-but-unsatisfiable symbols.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.dead.iter().map(String::as_str)
    }

    /// Number of dead declared symbols.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// True when every declared symbol is satisfiable.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }
}

/// Symbols referenced by `depends on` or `select` clauses but declared
/// nowhere in the model — the "never-defined symbol" root cause of
/// Table IV, caught at the model level rather than at an `#ifdef`.
///
/// [`DeadSymbols`] already treats references to such symbols as
/// unsatisfiable; this lint *names* them, so a janitor (or the
/// `jmake-fix` remediator, which shares this detector) can tell "the
/// symbol exists but this expression kills it" apart from "the symbol
/// was never declared at all".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndeclaredRefs {
    /// Undeclared name → declared symbols referencing it (both in
    /// name order, so reports are deterministic).
    refs: BTreeMap<String, BTreeSet<String>>,
}

impl UndeclaredRefs {
    /// Scan every declared symbol's `depends on` expression, `select`
    /// targets, and `select … if` conditions for names the model never
    /// declares.
    pub fn compute(model: &KconfigModel) -> Self {
        let mut refs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut note = |name: &str, referencer: &str| {
            if !model.is_declared(name) {
                refs.entry(name.to_string())
                    .or_default()
                    .insert(referencer.to_string());
            }
        };
        for sym in model.symbols() {
            if let Some(dep) = &sym.depends {
                for name in dep.symbols() {
                    note(name, &sym.name);
                }
            }
            for (target, cond) in &sym.selects {
                note(target, &sym.name);
                if let Some(c) = cond {
                    for name in c.symbols() {
                        note(name, &sym.name);
                    }
                }
            }
        }
        UndeclaredRefs { refs }
    }

    /// True when `name` is referenced somewhere but declared nowhere.
    pub fn contains(&self, name: &str) -> bool {
        self.refs.contains_key(name)
    }

    /// The declared symbols whose clauses reference undeclared `name`
    /// (empty when `name` is declared or never referenced).
    pub fn referencers(&self, name: &str) -> impl Iterator<Item = &str> {
        self.refs
            .get(name)
            .into_iter()
            .flat_map(|s| s.iter().map(String::as_str))
    }

    /// Iterate `(undeclared name, referencing symbols)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, impl Iterator<Item = &str>)> {
        self.refs
            .iter()
            .map(|(n, rs)| (n.as_str(), rs.iter().map(String::as_str)))
    }

    /// Number of distinct undeclared names referenced.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when every referenced symbol is declared.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

/// The set of symbols enabled under *every* configuration — the
/// Undertaker's "undead" class. Code under `#ifndef UNDEAD` is dead in
/// the same sense code under `#ifdef DEAD` is.
#[derive(Debug, Clone, Default)]
pub struct UndeadSymbols {
    undead: BTreeSet<String>,
}

impl UndeadSymbols {
    /// Compute the undead set: promptless symbols whose unconditional
    /// default is `y` and whose dependencies (if any) are themselves
    /// undead, plus anything unconditionally selected by an undead
    /// symbol. A conservative under-approximation: a symbol reported
    /// undead really is always on.
    ///
    /// Runs through the same worklist as [`DeadSymbols::compute`].
    pub fn compute(model: &KconfigModel) -> Self {
        let (undead, _) = least_fixed_point(model, Lint::Undead);
        let undead = model
            .symbols()
            .zip(undead)
            .filter(|(_, undead)| *undead)
            .map(|(sym, _)| sym.name.clone())
            .collect();
        UndeadSymbols { undead }
    }

    /// True when `name` is enabled in every configuration.
    pub fn is_undead(&self, name: &str) -> bool {
        self.undead.contains(name)
    }

    /// Iterate over the undead names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.undead.iter().map(String::as_str)
    }

    /// Number of undead symbols.
    pub fn len(&self) -> usize {
        self.undead.len()
    }

    /// True when no symbol is always-on.
    pub fn is_empty(&self) -> bool {
        self.undead.is_empty()
    }
}

/// The two least-fixed-point lints: which symbols can be enabled at all
/// ([`DeadSymbols`] keeps the complement) and which are on in every
/// configuration ([`UndeadSymbols`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lint {
    Live,
    Undead,
}

impl Lint {
    /// Whether `sym`'s own `depends on` can admit it: any symbol may be
    /// live, but only a promptless symbol whose first default is an
    /// unconditional `y` is forced on.
    fn admits_own(self, sym: &Symbol) -> bool {
        match self {
            Lint::Live => true,
            Lint::Undead => {
                sym.prompt.is_none()
                    && sym
                        .defaults
                        .first()
                        .is_some_and(|(v, cond)| *v == Tristate::Y && cond.is_none())
            }
        }
    }

    /// Whether `e` is `y` against the current member set: most favourable
    /// value for liveness, least favourable for undeadness.
    fn holds(self, e: &Expr, member: &impl Fn(&str) -> bool) -> bool {
        let value = match self {
            Lint::Live => optimistic(e, member),
            Lint::Undead => pessimistic(e, member),
        };
        value == Tristate::Y
    }

    /// Whether a `select … if` clause can justify its target at all: a
    /// conditional select may force liveness, never undeadness.
    fn counts_conditional_selects(self) -> bool {
        self == Lint::Live
    }
}

thread_local! {
    /// Expression evaluations the lints have run on this thread.
    static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lint expression evaluations run on the calling thread so far. The
/// count is exact work, not time: the evaluation driver reads it before
/// and after each worker's claim loop, so a model that pays for its lint
/// more than once shows in the run summary.
pub fn evaluations() -> u64 {
    EVALUATIONS.with(std::cell::Cell::get)
}

/// The least fixed point of `lint` over `model`, as one flag per symbol
/// in [`KconfigModel::symbols`] order, plus the number of expression
/// evaluations it took.
///
/// A declared symbol joins when its own `depends on` holds (and `lint`
/// admits it), or when a member selects it under a condition that holds.
/// Both tests are monotone in the member set, so the order in which
/// symbols join does not change the result: it is the least fixed point
/// the old round-by-round scan reached. Each new member X re-checks only
/// what X can change — the symbols whose `depends on` mention X, the
/// targets X selects, and the targets of every `select … if` whose
/// condition mentions X — so every symbol is evaluated once up front and
/// every edge at most once more: O(symbols + edges) evaluations in all.
/// Undeclared names never join, whether referenced or selected.
fn least_fixed_point(model: &KconfigModel, lint: Lint) -> (Vec<bool>, usize) {
    let syms: Vec<&Symbol> = model.symbols().collect();
    let ids: HashMap<&str, usize> = syms
        .iter()
        .enumerate()
        .map(|(i, sym)| (sym.name.as_str(), i))
        .collect();
    // dependents[x]: (symbol, its `depends on`) for every admitted
    // symbol whose `depends on` mentions x.
    // watchers[x]: (selector, target, condition) of every counted
    // `select … if` whose condition mentions x.
    let mut dependents: Vec<Vec<(usize, &Expr)>> = vec![Vec::new(); syms.len()];
    let mut watchers: Vec<Vec<(usize, usize, &Expr)>> = vec![Vec::new(); syms.len()];
    for (i, sym) in syms.iter().enumerate() {
        if let Some(dep) = sym.depends.as_ref().filter(|_| lint.admits_own(sym)) {
            for x in dep.symbols().into_iter().filter_map(|n| ids.get(n)) {
                dependents[*x].push((i, dep));
            }
        }
        if !lint.counts_conditional_selects() {
            continue;
        }
        for (target, cond) in &sym.selects {
            if let (Some(&t), Some(cond)) = (ids.get(target.as_str()), cond) {
                for x in cond.symbols().into_iter().filter_map(|n| ids.get(n)) {
                    watchers[*x].push((i, t, cond));
                }
            }
        }
    }

    let mut member = vec![false; syms.len()];
    let mut evaluations = 0usize;
    let mut holds = |e: &Expr, member: &[bool]| {
        evaluations += 1;
        lint.holds(e, &|n: &str| ids.get(n).is_some_and(|&i| member[i]))
    };
    let mut work: Vec<usize> = Vec::new();
    for (i, sym) in syms.iter().enumerate() {
        if lint.admits_own(sym) && sym.depends.as_ref().is_none_or(|dep| holds(dep, &member)) {
            member[i] = true;
            work.push(i);
        }
    }
    while let Some(x) = work.pop() {
        for &(s, dep) in &dependents[x] {
            if !member[s] && holds(dep, &member) {
                member[s] = true;
                work.push(s);
            }
        }
        for (target, cond) in &syms[x].selects {
            let Some(&t) = ids.get(target.as_str()).filter(|&&t| !member[t]) else {
                continue;
            };
            let fires = match cond {
                None => true,
                Some(c) => lint.counts_conditional_selects() && holds(c, &member),
            };
            if fires {
                member[t] = true;
                work.push(t);
            }
        }
        for &(selector, t, cond) in &watchers[x] {
            if member[selector] && !member[t] && holds(cond, &member) {
                member[t] = true;
                work.push(t);
            }
        }
    }
    EVALUATIONS.with(|total| total.set(total.get() + evaluations as u64));
    (member, evaluations)
}

/// Least favourable value of `e`: undead symbols are pinned to `y`,
/// everything else to `n` (so `Y` here means "true no matter what").
fn pessimistic(e: &Expr, undead: &impl Fn(&str) -> bool) -> Tristate {
    match e {
        Expr::Const(t) => *t,
        Expr::Sym(n) => {
            if undead(n) {
                Tristate::Y
            } else {
                Tristate::N
            }
        }
        // `!X` is only guaranteed when X is guaranteed off — which we do
        // not track; stay conservative.
        Expr::Not(inner) => match &**inner {
            Expr::Const(t) => t.not(),
            _ => Tristate::N,
        },
        Expr::And(a, b) => pessimistic(a, undead).and(pessimistic(b, undead)),
        Expr::Or(a, b) => pessimistic(a, undead).or(pessimistic(b, undead)),
    }
}

/// Most favourable value of `e` given the set of live symbols: live
/// symbols may take any value, dead ones are pinned to `n`.
fn optimistic(e: &Expr, live: &impl Fn(&str) -> bool) -> Tristate {
    match e {
        Expr::Const(t) => *t,
        Expr::Sym(n) => {
            if live(n) {
                Tristate::Y
            } else {
                Tristate::N
            }
        }
        // A negation is always satisfiable at Y by leaving the symbol off —
        // unless the operand is a constant.
        Expr::Not(inner) => match &**inner {
            Expr::Const(t) => t.not(),
            _ => Tristate::Y,
        },
        Expr::And(a, b) => optimistic(a, live).and(optimistic(b, live)),
        Expr::Or(a, b) => optimistic(a, live).or(optimistic(b, live)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SymbolType;
    use crate::solve::{ConjunctionVerdict, DeadnessProof};

    fn model(src: &str) -> KconfigModel {
        let mut m = KconfigModel::new();
        m.parse_str("Kconfig", src).unwrap();
        m
    }

    /// `n` symbols shaped to need about one round per chain link under a
    /// round-by-round scan: half form a select chain in which every link
    /// but the last is dead by its own `depends on` and is justified only
    /// by the successor that selects it (and sorts after it); the other
    /// half depend on `A && (B || C)` over links spread along the chain.
    fn chain_with_fan_in(n: usize) -> KconfigModel {
        let chain = n / 2;
        let link = |i: usize| Expr::sym(format!("C{i:06}"));
        let mut m = KconfigModel::new();
        for i in 0..chain {
            let mut s = Symbol::new(format!("C{i:06}"), SymbolType::Bool);
            if i + 1 < chain {
                s.depends = Some(Expr::sym("MISSING"));
            }
            if i > 0 {
                s.selects.push((format!("C{:06}", i - 1), None));
            }
            m.insert(s);
        }
        for j in 0..n - chain {
            let mut s = Symbol::new(format!("F{j:06}"), SymbolType::Tristate);
            let either = Expr::Or(
                Box::new(link((j * 7 + 3) % chain)),
                Box::new(link((j * 13 + 5) % chain)),
            );
            s.depends = Some(Expr::And(Box::new(link(j % chain)), Box::new(either)));
            m.insert(s);
        }
        m
    }

    /// Reverse-index edges: names each `depends on` mentions, `select`
    /// clauses, and names each `select … if` condition mentions.
    fn edges(m: &KconfigModel) -> usize {
        m.symbols()
            .map(|s| {
                let depends = s.depends.as_ref().map_or(0, |d| d.symbols().len());
                let selects: usize = s
                    .selects
                    .iter()
                    .map(|(_, cond)| 1 + cond.as_ref().map_or(0, |c| c.symbols().len()))
                    .sum();
                depends + selects
            })
            .sum()
    }

    #[test]
    fn lint_work_is_linear_in_symbols_and_edges() {
        for n in [1_000, 4_000, 16_000] {
            let m = chain_with_fan_in(n);
            let bound = 2 * (m.len() + edges(&m));
            let (live, evaluations) = least_fixed_point(&m, Lint::Live);
            assert!(live.iter().all(|l| *l), "{n}: the chain and its fan-in are all live");
            assert!(evaluations <= bound, "{n}: {evaluations} evaluations > {bound}");
            let (_, evaluations) = least_fixed_point(&m, Lint::Undead);
            assert!(evaluations <= bound, "{n}: undead took {evaluations} evaluations");
        }
    }

    #[test]
    fn solve_conjunction_computes_the_lint_once_per_model() {
        // What one dead-symbol lint of `m` costs; the thread's count
        // records exactly that.
        let one_lint = |m: &KconfigModel| {
            let before = evaluations();
            let (_, n) = least_fixed_point(m, Lint::Live);
            assert_eq!(evaluations() - before, n as u64);
            n as u64
        };
        let mut m = model(
            "config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\n\tdepends on MISSING\n",
        );
        let cost = one_lint(&m);
        assert!(cost > 0);
        let before = evaluations();
        let on = |name: &str| BTreeMap::from([(name.to_string(), Tristate::Y)]);
        for _ in 0..5 {
            assert!(m.solve_conjunction(&on("A")).witness().is_some());
            assert_eq!(
                m.solve_conjunction(&on("B")),
                ConjunctionVerdict::Dead(DeadnessProof::DeadSymbol("B".to_string()))
            );
        }
        assert!(m.dead_symbols().is_dead(&m, "B"));
        assert_eq!(evaluations() - before, cost, "ten queries and a lookup share one lint");

        // Declaring MISSING revives B: parse_str resets the memo.
        m.parse_str("Kconfig.more", "config MISSING\n\tbool \"m\"\n").unwrap();
        let cost = one_lint(&m);
        let before = evaluations();
        assert!(m.solve_conjunction(&on("B")).witness().is_some());
        assert!(!m.dead_symbols().is_dead(&m, "B"));
        assert_eq!(evaluations() - before, cost);

        // So does insert.
        let mut gone = Symbol::new("MISSING", SymbolType::Bool);
        gone.depends = Some(Expr::Const(Tristate::N));
        m.insert(gone);
        let cost = one_lint(&m);
        let before = evaluations();
        assert!(m.dead_symbols().is_dead(&m, "B"));
        assert_eq!(evaluations() - before, cost);
    }

    #[test]
    fn healthy_symbols_are_live() {
        let m = model("config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\n\tdepends on A\n");
        let d = DeadSymbols::compute(&m);
        assert!(d.is_empty());
        assert!(!d.is_dead(&m, "A"));
        assert!(!d.is_dead(&m, "B"));
    }

    #[test]
    fn undeclared_symbol_is_dead() {
        let m = model("config A\n\tbool \"a\"\n");
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "NOT_IN_ANY_KCONFIG"));
    }

    #[test]
    fn depends_on_undeclared_is_dead() {
        let m = model("config BROKEN_DRV\n\tbool \"b\"\n\tdepends on MISSING\n");
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "BROKEN_DRV"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn transitive_death_propagates() {
        let m = model(
            "config DEAD1\n\tbool \"1\"\n\tdepends on MISSING\nconfig DEAD2\n\tbool \"2\"\n\tdepends on DEAD1\n",
        );
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "DEAD1"));
        assert!(d.is_dead(&m, "DEAD2"));
    }

    #[test]
    fn depends_on_constant_n_is_dead() {
        let m = model("config NEVER\n\tbool \"n\"\n\tdepends on n\n");
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "NEVER"));
    }

    #[test]
    fn select_resurrects() {
        let m = model(
            "config TARGET\n\tbool \"t\"\n\tdepends on MISSING\nconfig DRIVER\n\tbool \"d\"\n\tselect TARGET\n",
        );
        let d = DeadSymbols::compute(&m);
        // Selected by a live symbol: reachable despite dead depends.
        assert!(!d.is_dead(&m, "TARGET"));
    }

    #[test]
    fn negated_dependency_is_satisfiable() {
        let m = model("config TINY\n\tbool \"t\"\n\tdepends on !FULL\nconfig FULL\n\tbool \"f\"\n");
        let d = DeadSymbols::compute(&m);
        // Not set by allyesconfig, but perfectly settable — the distinction
        // Table IV rows 1 and 2 hinge on.
        assert!(!d.is_dead(&m, "TINY"));
        let cfg = m.allyesconfig();
        assert_eq!(cfg.get("TINY"), Tristate::N);
    }

    #[test]
    fn undead_detection_basics() {
        let m = model(
            "config ALWAYS\n\tdef_bool y\nconfig OPTIONAL\n\tbool \"opt\"\nconfig CHAINED\n\tdef_bool y\n\tdepends on ALWAYS\nconfig GATED\n\tdef_bool y\n\tdepends on OPTIONAL\n",
        );
        let u = UndeadSymbols::compute(&m);
        assert!(u.is_undead("ALWAYS"));
        assert!(u.is_undead("CHAINED"), "transitively undead");
        assert!(!u.is_undead("OPTIONAL"), "prompted symbols can be off");
        assert!(!u.is_undead("GATED"), "dep on optional symbol");
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn unconditional_select_by_undead_is_undead() {
        let m = model("config CORE\n\tdef_bool y\nconfig HELPER\n\tbool \"h\"\n");
        // HELPER has a prompt, but CORE (undead) selects it.
        let mut m = m;
        let mut core = m.symbol("CORE").cloned().unwrap();
        core.selects.push(("HELPER".to_string(), None));
        m.insert(core);
        let u = UndeadSymbols::compute(&m);
        assert!(u.is_undead("HELPER"));
    }

    #[test]
    fn undead_symbols_are_on_in_every_solver_output() {
        let m = model(
            "config ALWAYS\n\tdef_bool y\nconfig A\n\tbool \"a\"\nconfig B\n\ttristate \"b\"\n\tdepends on A\n",
        );
        let u = UndeadSymbols::compute(&m);
        for cfg in [m.allyesconfig(), m.allmodconfig(), m.defconfig("")] {
            for name in u.iter() {
                assert!(cfg.is_builtin(name), "{name} off in some config");
            }
        }
    }

    #[test]
    fn dead_selector_chain_stays_dead() {
        // ROOT is dead; its selects must not resurrect MID, and MID's
        // select must not resurrect LEAF. Every link of the chain has
        // unsatisfiable depends of its own, so nothing is legitimately
        // reachable.
        let m = model(
            "config ROOT\n\tbool \"r\"\n\tdepends on MISSING\n\tselect MID\nconfig MID\n\tbool \"m\"\n\tdepends on MISSING\n\tselect LEAF\nconfig LEAF\n\tbool \"l\"\n\tdepends on MISSING\n",
        );
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "ROOT"));
        assert!(d.is_dead(&m, "MID"), "select from a dead symbol resurrected MID");
        assert!(d.is_dead(&m, "LEAF"), "dead selector chain resurrected LEAF");
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn mutual_select_cycle_of_dead_symbols_stays_dead() {
        // The greatest-fixed-point formulation never struck either member
        // of this cycle: each round's snapshot still contained the other,
        // so the selects justified each other forever.
        let m = model(
            "config A\n\tbool \"a\"\n\tdepends on MISSING\n\tselect B\nconfig B\n\tbool \"b\"\n\tdepends on MISSING\n\tselect A\n",
        );
        let d = DeadSymbols::compute(&m);
        assert!(d.is_dead(&m, "A"), "select cycle kept A alive");
        assert!(d.is_dead(&m, "B"), "select cycle kept B alive");
    }

    #[test]
    fn select_with_dead_condition_does_not_resurrect() {
        // LIVE is healthy, but its select only fires `if DEADGATE`, and
        // DEADGATE can never be enabled — so TARGET stays dead.
        let m = model(
            "config LIVE\n\tbool \"l\"\n\tselect TARGET if DEADGATE\nconfig DEADGATE\n\tbool \"g\"\n\tdepends on MISSING\nconfig TARGET\n\tbool \"t\"\n\tdepends on MISSING\n",
        );
        let d = DeadSymbols::compute(&m);
        assert!(!d.is_dead(&m, "LIVE"));
        assert!(d.is_dead(&m, "DEADGATE"));
        assert!(d.is_dead(&m, "TARGET"), "conditionally-dead select resurrected TARGET");
    }

    #[test]
    fn select_with_live_condition_still_resurrects() {
        let m = model(
            "config LIVE\n\tbool \"l\"\n\tselect TARGET if GATE\nconfig GATE\n\tbool \"g\"\nconfig TARGET\n\tbool \"t\"\n\tdepends on MISSING\n",
        );
        let d = DeadSymbols::compute(&m);
        assert!(!d.is_dead(&m, "TARGET"));
    }

    #[test]
    fn disjunction_with_one_live_arm_is_live() {
        let m =
            model("config X\n\tbool \"x\"\n\tdepends on MISSING || A\nconfig A\n\tbool \"a\"\n");
        let d = DeadSymbols::compute(&m);
        assert!(!d.is_dead(&m, "X"));
    }

    #[test]
    fn undeclared_refs_from_depends() {
        let m = model("config A\n\tbool \"a\"\n\tdepends on MISSING && A2\nconfig A2\n\tbool \"a2\"\n");
        let u = UndeclaredRefs::compute(&m);
        assert!(u.contains("MISSING"));
        assert!(!u.contains("A2"), "declared symbols are not reported");
        assert_eq!(u.len(), 1);
        let refs: Vec<&str> = u.referencers("MISSING").collect();
        assert_eq!(refs, vec!["A"]);
    }

    #[test]
    fn undeclared_refs_from_select_target_and_condition() {
        let m = model(
            "config A\n\tbool \"a\"\n\tselect GHOST_TARGET if GHOST_GATE\nconfig B\n\tbool \"b\"\n\tdepends on GHOST_GATE\n",
        );
        let u = UndeclaredRefs::compute(&m);
        assert!(u.contains("GHOST_TARGET"));
        assert!(u.contains("GHOST_GATE"));
        assert_eq!(u.len(), 2);
        // Both A (select condition) and B (depends) reference GHOST_GATE.
        let refs: Vec<&str> = u.referencers("GHOST_GATE").collect();
        assert_eq!(refs, vec!["A", "B"]);
    }

    #[test]
    fn clean_model_has_no_undeclared_refs() {
        let m = model("config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\n\tdepends on A\n\tselect A\n");
        let u = UndeclaredRefs::compute(&m);
        assert!(u.is_empty());
        assert_eq!(u.iter().count(), 0);
    }

    #[test]
    fn undeclared_refs_agree_with_dead_symbols() {
        // Anything depending (positively, conjunctively) on an undeclared
        // ref must also be dead — the two lints describe the same root
        // cause at different granularities.
        let m = model("config A\n\tbool \"a\"\n\tdepends on NOWHERE\n");
        let u = UndeclaredRefs::compute(&m);
        let d = DeadSymbols::compute(&m);
        assert!(u.contains("NOWHERE"));
        assert!(d.is_dead(&m, "A"));
        assert!(d.is_dead(&m, "NOWHERE"), "undeclared names are dead by definition");
    }
}
