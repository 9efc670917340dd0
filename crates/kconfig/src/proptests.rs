//! Property tests for the Kconfig solvers.

use crate::ast::{Symbol, SymbolType};
use crate::expr::Expr;
use crate::lint::{DeadSymbols, UndeadSymbols};
use crate::model::KconfigModel;
use crate::tristate::Tristate;
use proptest::prelude::*;
use proptest::strategy::TestRng;
use std::collections::BTreeSet;

/// Strategy: a random dependency DAG of N symbols, where symbol `i` may
/// depend (possibly negated) on symbols with smaller indices and may select
/// a smaller-index symbol. Negation + select can form genuine constraint
/// knots with no consistent maximal solution — exactly like real Kconfig.
fn random_model() -> impl Strategy<Value = KconfigModel> {
    let sym = (
        prop::bool::ANY,             // tristate?
        prop::option::of(0usize..8), // depends on S<k>
        prop::bool::ANY,             // negate the dependency?
        prop::option::of(0usize..8), // select S<k>
    );
    prop::collection::vec(sym, 1..12).prop_map(|specs| {
        let mut m = KconfigModel::new();
        for (i, (tri, dep, neg, sel)) in specs.into_iter().enumerate() {
            let mut s = Symbol::new(
                format!("S{i}"),
                if tri {
                    SymbolType::Tristate
                } else {
                    SymbolType::Bool
                },
            );
            if let Some(d) = dep {
                if d < i {
                    let e = Expr::sym(format!("S{d}"));
                    s.add_depends(if neg { Expr::Not(Box::new(e)) } else { e });
                }
            }
            if let Some(t) = sel {
                if t < i {
                    s.selects.push((format!("S{t}"), None));
                }
            }
            m.insert(s);
        }
        m
    })
}

/// Strategy: like [`random_model`], with each symbol optionally assigned
/// to one of three mutually-exclusive choice groups — the randconfig
/// sampler must keep at most one member of each group enabled no matter
/// which members its hash aims at.
fn choicy_model() -> impl Strategy<Value = KconfigModel> {
    let sym = (
        prop::bool::ANY,             // tristate?
        prop::option::of(0usize..8), // depends on S<k>
        prop::option::of(0u32..3),   // choice group
    );
    prop::collection::vec(sym, 1..12).prop_map(|specs| {
        let mut m = KconfigModel::new();
        for (i, (tri, dep, grp)) in specs.into_iter().enumerate() {
            let mut s = Symbol::new(
                format!("S{i}"),
                if tri {
                    SymbolType::Tristate
                } else {
                    SymbolType::Bool
                },
            );
            if let Some(d) = dep {
                if d < i {
                    s.add_depends(Expr::sym(format!("S{d}")));
                }
            }
            s.choice_group = grp;
            m.insert(s);
        }
        m
    })
}

/// Strategy: monotone models — positive dependencies only, no selects.
/// These have a unique maximal solution, so the strongest properties hold.
fn monotone_model() -> impl Strategy<Value = KconfigModel> {
    let sym = (prop::bool::ANY, prop::option::of(0usize..8));
    prop::collection::vec(sym, 1..12).prop_map(|specs| {
        let mut m = KconfigModel::new();
        for (i, (tri, dep)) in specs.into_iter().enumerate() {
            let mut s = Symbol::new(
                format!("S{i}"),
                if tri {
                    SymbolType::Tristate
                } else {
                    SymbolType::Bool
                },
            );
            if let Some(d) = dep {
                if d < i {
                    s.add_depends(Expr::sym(format!("S{d}")));
                }
            }
            m.insert(s);
        }
        m
    })
}

/// Strategy: arbitrary small Kconfig graphs for the lint equivalence
/// properties. Unlike [`random_model`]'s DAGs these have forward
/// references, cycles, self-selects, `select … if`, nested `&&`/`||`/`!`,
/// constants (`m` included), promptless `default y` symbols, and
/// references to undeclared names.
struct AnyGraph;

impl Strategy for AnyGraph {
    type Value = KconfigModel;

    fn generate(&self, rng: &mut TestRng) -> KconfigModel {
        let n = 1 + rng.below(12) as usize;
        let mut m = KconfigModel::new();
        for i in 0..n {
            let ty = if rng.below(2) == 0 {
                SymbolType::Bool
            } else {
                SymbolType::Tristate
            };
            let mut s = Symbol::new(format!("S{i}"), ty);
            if rng.below(2) == 0 {
                s.prompt = Some(format!("s{i}"));
            }
            if rng.below(4) != 0 {
                s.depends = Some(any_expr(rng, n, 3));
            }
            if rng.below(2) == 0 {
                let value =
                    [Tristate::N, Tristate::M, Tristate::Y, Tristate::Y][rng.below(4) as usize];
                let cond = (rng.below(3) == 0).then(|| any_expr(rng, n, 1));
                s.defaults.push((value, cond));
            }
            for _ in 0..rng.below(3) {
                let target = any_name(rng, n);
                let cond = (rng.below(2) == 0).then(|| any_expr(rng, n, 2));
                s.selects.push((target, cond));
            }
            m.insert(s);
        }
        m
    }
}

/// A declared name `S0`..`S{n-1}` — any index, so forward references,
/// cycles and self-references all occur — or, one time in five, one of
/// three undeclared names.
fn any_name(rng: &mut TestRng, n: usize) -> String {
    if rng.below(5) == 0 {
        format!("U{}", rng.below(3))
    } else {
        format!("S{}", rng.below(n as u64))
    }
}

/// An expression over [`any_name`]s, nested at most `depth` operators
/// deep.
fn any_expr(rng: &mut TestRng, n: usize, depth: u32) -> Expr {
    let arms = if depth == 0 { 3 } else { 6 };
    match rng.below(arms) {
        0 => Expr::Const([Tristate::N, Tristate::M, Tristate::Y][rng.below(3) as usize]),
        1 | 2 => Expr::Sym(any_name(rng, n)),
        3 => Expr::Not(Box::new(any_expr(rng, n, depth - 1))),
        4 => Expr::And(
            Box::new(any_expr(rng, n, depth - 1)),
            Box::new(any_expr(rng, n, depth - 1)),
        ),
        _ => Expr::Or(
            Box::new(any_expr(rng, n, depth - 1)),
            Box::new(any_expr(rng, n, depth - 1)),
        ),
    }
}

/// The round-by-round fixed point `DeadSymbols::compute` ran before the
/// worklist, kept verbatim as the reference: each round re-tests every
/// symbol not yet live against its own `depends on` and against every
/// other symbol's `select` list. Returns the live set.
fn reference_live(model: &KconfigModel) -> BTreeSet<String> {
    let mut live: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for sym in model.symbols() {
            if live.contains(&sym.name) {
                continue;
            }
            let satisfiable = match &sym.depends {
                None => true,
                Some(e) => reference_optimistic(e, &live) == Tristate::Y,
            };
            let selected = model.symbols().any(|other| {
                live.contains(&other.name)
                    && other.selects.iter().any(|(t, cond)| {
                        t == &sym.name
                            && cond
                                .as_ref()
                                .is_none_or(|c| reference_optimistic(c, &live) == Tristate::Y)
                    })
            });
            if satisfiable || selected {
                live.insert(sym.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    live
}

/// The round-by-round fixed point `UndeadSymbols::compute` ran before the
/// worklist, kept verbatim as the reference.
fn reference_undead(model: &KconfigModel) -> BTreeSet<String> {
    let mut undead: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for sym in model.symbols() {
            if undead.contains(&sym.name) {
                continue;
            }
            let deps_undead = match &sym.depends {
                None => true,
                Some(e) => reference_pessimistic(e, &undead) == Tristate::Y,
            };
            let forced_default = sym.prompt.is_none()
                && sym
                    .defaults
                    .first()
                    .is_some_and(|(v, cond)| *v == Tristate::Y && cond.is_none());
            let selected_by_undead = model.symbols().any(|other| {
                undead.contains(&other.name)
                    && other
                        .selects
                        .iter()
                        .any(|(t, cond)| t == &sym.name && cond.is_none())
            });
            if (forced_default && deps_undead) || selected_by_undead {
                undead.insert(sym.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    undead
}

fn reference_optimistic(e: &Expr, live: &BTreeSet<String>) -> Tristate {
    match e {
        Expr::Const(t) => *t,
        Expr::Sym(n) => {
            if live.contains(n) {
                Tristate::Y
            } else {
                Tristate::N
            }
        }
        Expr::Not(inner) => match &**inner {
            Expr::Const(t) => t.not(),
            _ => Tristate::Y,
        },
        Expr::And(a, b) => reference_optimistic(a, live).and(reference_optimistic(b, live)),
        Expr::Or(a, b) => reference_optimistic(a, live).or(reference_optimistic(b, live)),
    }
}

fn reference_pessimistic(e: &Expr, undead: &BTreeSet<String>) -> Tristate {
    match e {
        Expr::Const(t) => *t,
        Expr::Sym(n) => {
            if undead.contains(n) {
                Tristate::Y
            } else {
                Tristate::N
            }
        }
        Expr::Not(inner) => match &**inner {
            Expr::Const(t) => t.not(),
            _ => Tristate::N,
        },
        Expr::And(a, b) => reference_pessimistic(a, undead).and(reference_pessimistic(b, undead)),
        Expr::Or(a, b) => reference_pessimistic(a, undead).or(reference_pessimistic(b, undead)),
    }
}

proptest! {
    /// The worklist dead-symbol lint, and the model's memo of it, name
    /// exactly the declared symbols outside the reference fixed point.
    #[test]
    fn worklist_dead_symbols_equivalent_to_reference_fixed_point(m in AnyGraph) {
        let live = reference_live(&m);
        let expected: Vec<&str> = m
            .symbols()
            .map(|s| s.name.as_str())
            .filter(|n| !live.contains(*n))
            .collect();
        let dead = DeadSymbols::compute(&m);
        prop_assert_eq!(dead.iter().collect::<Vec<_>>(), expected.clone(), "model: {:?}", m);
        prop_assert_eq!(m.dead_symbols().iter().collect::<Vec<_>>(), expected);
    }

    /// The worklist undead lint equals the reference fixed point.
    #[test]
    fn worklist_undead_symbols_equivalent_to_reference_fixed_point(m in AnyGraph) {
        let expected = reference_undead(&m);
        let undead = UndeadSymbols::compute(&m);
        prop_assert_eq!(
            undead.iter().collect::<Vec<_>>(),
            expected.iter().map(String::as_str).collect::<Vec<_>>(),
            "model: {:?}",
            m
        );
    }

    /// allyesconfig respects every dependency not overridden by a select.
    #[test]
    fn allyesconfig_respects_dependencies(m in random_model()) {
        let cfg = m.allyesconfig();
        let selected: std::collections::BTreeSet<&str> = m
            .symbols()
            .flat_map(|s| s.selects.iter().map(|(t, _)| t.as_str()))
            .collect();
        for sym in m.symbols() {
            if selected.contains(sym.name.as_str()) {
                continue; // selects may violate depends, as in real kconfig
            }
            if let Some(dep) = &sym.depends {
                let limit = dep.eval(&|n| cfg.get(n));
                let limit = if sym.is_tristate() { limit } else { limit.to_bool_value() };
                prop_assert!(
                    cfg.get(&sym.name) <= limit,
                    "{} = {} exceeds dep limit {}",
                    sym.name, cfg.get(&sym.name), limit
                );
            }
        }
    }

    /// On monotone models, allyesconfig is the unique maximal solution:
    /// every symbol is as high as its dependencies allow.
    #[test]
    fn allyesconfig_is_maximal_on_monotone_models(m in monotone_model()) {
        let cfg = m.allyesconfig();
        for sym in m.symbols() {
            let limit = match &sym.depends {
                Some(e) => e.eval(&|n| cfg.get(n)),
                None => Tristate::Y,
            };
            let limit = if sym.is_tristate() { limit } else { limit.to_bool_value() };
            prop_assert_eq!(
                cfg.get(&sym.name),
                limit,
                "{} = {} but its deps allow {}",
                sym.name, cfg.get(&sym.name), limit
            );
        }
    }

    /// allmodconfig never sets a tristate to y unless a select forces it.
    #[test]
    fn allmodconfig_keeps_tristates_modular(m in random_model()) {
        let cfg = m.allmodconfig();
        let selected: std::collections::BTreeSet<&str> = m
            .symbols()
            .flat_map(|s| s.selects.iter().map(|(t, _)| t.as_str()))
            .collect();
        for sym in m.symbols() {
            if sym.is_tristate() && !selected.contains(sym.name.as_str()) {
                prop_assert!(cfg.get(&sym.name) <= Tristate::M);
            }
        }
    }

    /// Dead symbols never get enabled by any solver.
    #[test]
    fn dead_symbols_stay_off(m in random_model()) {
        let dead = DeadSymbols::compute(&m);
        for solver in [KconfigModel::allyesconfig, KconfigModel::allmodconfig] {
            let cfg = solver(&m);
            for name in dead.iter() {
                prop_assert_eq!(
                    cfg.get(name),
                    Tristate::N,
                    "dead symbol {} was enabled", name
                );
            }
        }
    }

    /// render → defconfig reload reproduces the configuration on monotone
    /// models (knotted models may legitimately resolve differently).
    #[test]
    fn config_render_round_trips(m in monotone_model()) {
        let cfg = m.allyesconfig();
        let reloaded = m.defconfig(&cfg.render());
        prop_assert_eq!(reloaded, cfg);
    }

    /// The solver is deterministic, knots or not.
    #[test]
    fn solver_is_deterministic(m in random_model()) {
        prop_assert_eq!(m.allyesconfig(), m.allyesconfig());
        prop_assert_eq!(m.allmodconfig(), m.allmodconfig());
    }

    /// allmodconfig enables at least as many symbols as allyesconfig
    /// on monotone models (modules can slip past y-only limits never, but
    /// bool promotion keeps parity).
    #[test]
    fn allmod_enables_no_fewer_symbols(m in monotone_model()) {
        let yes = m.allyesconfig().enabled_count();
        let md = m.allmodconfig().enabled_count();
        prop_assert_eq!(yes, md);
    }

    /// A minimized delta's witness satisfies every pin, stays consistent
    /// with the model, and its flip list is exactly the diff against
    /// allyesconfig. When minimization fails instead, the pins really
    /// are unsatisfiable: an unsat core exists.
    #[test]
    fn minimized_delta_satisfies_the_model(
        m in random_model(),
        spec in prop::collection::vec((0usize..12, prop::bool::ANY), 1..3),
    ) {
        let pins = pins_from_spec(&m, &spec);
        match m.minimize_delta(&pins, &|_| true) {
            Ok(delta) => {
                for (name, v) in &pins {
                    prop_assert_eq!(delta.config.get(name), *v, "pin {} lost", name);
                }
                prop_assert!(m.is_consistent(&delta.config));
                let allyes = m.allyesconfig();
                for f in &delta.flips {
                    prop_assert_eq!(f.from, allyes.get(&f.name));
                    prop_assert_eq!(f.to, delta.config.get(&f.name));
                    prop_assert_ne!(f.from, f.to, "non-flip {} listed", f.name);
                }
                let listed: std::collections::BTreeSet<&str> =
                    delta.flips.iter().map(|f| f.name.as_str()).collect();
                for s in m.symbols() {
                    prop_assert_eq!(
                        listed.contains(s.name.as_str()),
                        delta.config.get(&s.name) != allyes.get(&s.name),
                        "flip list disagrees with the diff at {}", &s.name
                    );
                }
            }
            Err(_) => prop_assert!(
                m.unsat_core(&pins).is_some(),
                "minimization failed yet the pins have a witness"
            ),
        }
    }

    /// Local minimality: reverting any single unpinned flip back to its
    /// allyesconfig value leaves an inconsistent configuration — no flip
    /// is gratuitous. (Pinned flips are trivially load-bearing.)
    #[test]
    fn minimized_delta_is_locally_minimal(
        m in random_model(),
        spec in prop::collection::vec((0usize..12, prop::bool::ANY), 1..3),
    ) {
        let pins = pins_from_spec(&m, &spec);
        if let Ok(delta) = m.minimize_delta(&pins, &|_| true) {
            let allyes = m.allyesconfig();
            for f in &delta.flips {
                if pins.contains_key(&f.name) {
                    continue;
                }
                let mut reverted = delta.config.clone();
                reverted.set(f.name.clone(), allyes.get(&f.name));
                prop_assert!(
                    !m.is_consistent(&reverted),
                    "flip {} reverts without breaking anything", &f.name
                );
            }
        }
    }

    /// Every sampled randconfig satisfies the Kconfig model, for any seed,
    /// on models with dependency knots, selects, and choice groups — the
    /// determinism-contract half is covered below and by the doc-test on
    /// [`KconfigModel::randconfig`].
    #[test]
    fn randconfig_satisfies_the_model(m in random_model(), seed in 0u64..u64::MAX) {
        let cfg = m.randconfig(seed);
        prop_assert!(
            m.is_consistent(&cfg),
            "seed {} sampled an inconsistent configuration:\n{}",
            seed, cfg.render()
        );
    }

    /// Same (model, seed) → byte-identical configuration; the sample is a
    /// pure function with no RNG state to drift between calls or workers.
    #[test]
    fn randconfig_is_deterministic(m in random_model(), seed in 0u64..u64::MAX) {
        let a = m.randconfig(seed);
        let b = m.randconfig(seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.render(), b.render());
    }

    /// Choice groups stay mutually exclusive under randconfig: at most one
    /// member of each group is enabled, whichever members the hash aims at.
    #[test]
    fn randconfig_respects_choice_groups(m in choicy_model(), seed in 0u64..u64::MAX) {
        let cfg = m.randconfig(seed);
        prop_assert!(m.is_consistent(&cfg));
        let mut enabled_per_group = std::collections::BTreeMap::new();
        for sym in m.symbols() {
            if let Some(g) = sym.choice_group {
                if cfg.get(&sym.name).enabled() {
                    *enabled_per_group.entry(g).or_insert(0u32) += 1;
                }
            }
        }
        for (g, count) in enabled_per_group {
            prop_assert!(count <= 1, "choice group {} has {} enabled members", g, count);
        }
    }

    /// Dead symbols stay off under randconfig too — the sampler can aim a
    /// target at them, but the fixed point's dependency clamp wins.
    #[test]
    fn randconfig_keeps_dead_symbols_off(m in random_model(), seed in 0u64..u64::MAX) {
        let dead = DeadSymbols::compute(&m);
        let cfg = m.randconfig(seed);
        for name in dead.iter() {
            prop_assert_eq!(cfg.get(name), Tristate::N, "dead symbol {} was enabled", name);
        }
    }

    /// With a conditional soup as the accept check (a conjunction of
    /// possibly-negated symbol atoms, like a `#if` stack's presence
    /// condition), any delta that comes back satisfies the soup and every
    /// flip is load-bearing against pins ∧ consistency ∧ soup. The search
    /// is deterministic either way.
    #[test]
    fn minimized_delta_respects_conditional_soups(
        m in random_model(),
        spec in prop::collection::vec((0usize..12, prop::bool::ANY), 1..2),
        soup in prop::collection::vec((0usize..12, prop::bool::ANY), 1..4),
    ) {
        let pins = pins_from_spec(&m, &spec);
        let lits: Vec<(String, bool)> = soup
            .iter()
            .map(|(i, neg)| (format!("S{}", i % 12), *neg))
            .collect();
        let accept = |cfg: &crate::solve::Config| {
            lits.iter()
                .all(|(name, neg)| (cfg.get(name) != Tristate::N) != *neg)
        };
        let first = m.minimize_delta(&pins, &accept);
        prop_assert_eq!(&first, &m.minimize_delta(&pins, &accept), "nondeterministic search");
        if let Ok(delta) = first {
            prop_assert!(accept(&delta.config), "witness fails the soup it was solved under");
            let allyes = m.allyesconfig();
            for f in &delta.flips {
                if pins.contains_key(&f.name) {
                    continue;
                }
                let mut reverted = delta.config.clone();
                reverted.set(f.name.clone(), allyes.get(&f.name));
                let pins_ok = pins.iter().all(|(n, v)| reverted.get(n) == *v);
                prop_assert!(
                    !(pins_ok && m.is_consistent(&reverted) && accept(&reverted)),
                    "flip {} reverts without breaking pins, consistency, or the soup",
                    &f.name
                );
            }
        }
    }
}

/// Pin `S{i % n}` to y (or n) for each spec entry; later entries for the
/// same symbol win, mirroring how a caller would build the map.
fn pins_from_spec(
    m: &KconfigModel,
    spec: &[(usize, bool)],
) -> std::collections::BTreeMap<String, Tristate> {
    let n = m.symbols().count().max(1);
    spec.iter()
        .map(|(i, yes)| {
            (
                format!("S{}", i % n),
                if *yes { Tristate::Y } else { Tristate::N },
            )
        })
        .collect()
}
