//! Symbol definitions.

use crate::expr::Expr;
use crate::tristate::Tristate;

/// The type of a configuration symbol.
///
/// JMake's workload only exercises the value-bearing kinds through `bool`
/// and `tristate`; `int`/`hex`/`string` symbols are carried for fidelity
/// (kernel Kconfig files contain them) but always evaluate as `y` when set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymbolType {
    /// `bool` — `n` or `y`.
    #[default]
    Bool,
    /// `tristate` — `n`, `m`, or `y`.
    Tristate,
    /// `int` — numeric; treated as set/unset for dependency purposes.
    Int,
    /// `hex` — numeric; treated as set/unset for dependency purposes.
    Hex,
    /// `string` — treated as set/unset for dependency purposes.
    String,
}

/// One `config NAME` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name without the `CONFIG_` prefix.
    pub name: String,
    /// Value domain.
    pub ty: SymbolType,
    /// User-visible prompt; promptless symbols are only settable via
    /// `select` or `default`.
    pub prompt: Option<String>,
    /// `depends on` conjunction (including any enclosing `if`/`menu`
    /// conditions folded in by the parser).
    pub depends: Option<Expr>,
    /// `select TARGET [if COND]` clauses.
    pub selects: Vec<(String, Option<Expr>)>,
    /// `default VALUE [if COND]` clauses, in declaration order.
    pub defaults: Vec<(Tristate, Option<Expr>)>,
    /// Kconfig file that declared the symbol.
    pub declared_in: String,
    /// Id of the `choice` group the symbol belongs to, if any. Members of
    /// one choice are mutually exclusive: even allyesconfig can set only
    /// one to `y` — the paper's "the resulting configuration is forced to
    /// make some choices and thus does not include all lines of code".
    pub choice_group: Option<u32>,
}

impl Symbol {
    /// A fresh symbol with the given name and type, no constraints.
    pub fn new(name: impl Into<String>, ty: SymbolType) -> Self {
        Symbol {
            name: name.into(),
            ty,
            prompt: None,
            depends: None,
            selects: Vec::new(),
            defaults: Vec::new(),
            declared_in: String::new(),
            choice_group: None,
        }
    }

    /// AND another condition into `depends`.
    pub fn add_depends(&mut self, e: Expr) {
        self.depends = Some(match self.depends.take() {
            Some(old) => Expr::And(Box::new(old), Box::new(e)),
            None => e,
        });
    }

    /// True when the symbol can hold the value `m`.
    pub fn is_tristate(&self) -> bool {
        self.ty == SymbolType::Tristate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_depends_conjoins() {
        let mut s = Symbol::new("E1000", SymbolType::Tristate);
        s.add_depends(Expr::sym("NET"));
        s.add_depends(Expr::sym("PCI"));
        assert_eq!(
            s.depends,
            Some(Expr::And(
                Box::new(Expr::sym("NET")),
                Box::new(Expr::sym("PCI"))
            ))
        );
    }

    #[test]
    fn tristate_detection() {
        assert!(Symbol::new("A", SymbolType::Tristate).is_tristate());
        assert!(!Symbol::new("B", SymbolType::Bool).is_tristate());
    }
}
