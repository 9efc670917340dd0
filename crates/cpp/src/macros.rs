//! Macro definitions and the macro table.

use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A macro definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroDef {
    /// Macro name.
    pub name: String,
    /// `None` for object-like macros; parameter names for function-like.
    pub params: Option<Vec<String>>,
    /// Whether the parameter list ended with `...` (`__VA_ARGS__`).
    pub variadic: bool,
    /// Replacement-list tokens.
    pub body: Vec<Token>,
}

impl MacroDef {
    /// An object-like macro whose body is lexed from `body`.
    pub fn object(name: impl Into<String>, body: &str) -> Self {
        MacroDef {
            name: name.into(),
            params: None,
            variadic: false,
            body: lex(body, 0),
        }
    }

    /// A function-like macro whose body is lexed from `body`.
    pub fn function(name: impl Into<String>, params: Vec<String>, body: &str) -> Self {
        MacroDef {
            name: name.into(),
            params: Some(params),
            variadic: false,
            body: lex(body, 0),
        }
    }

    /// True for function-like macros.
    pub fn is_function_like(&self) -> bool {
        self.params.is_some()
    }

    /// A 64-bit content hash of the definition (name, parameters, body
    /// tokens including layout and provenance lines — anything that can
    /// influence expansion output).
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_str(&mut h, &self.name);
        match &self.params {
            None => fnv_byte(&mut h, 0),
            Some(params) => {
                fnv_byte(&mut h, 1);
                fnv_u64(&mut h, params.len() as u64);
                for p in params {
                    fnv_str(&mut h, p);
                }
            }
        }
        fnv_byte(&mut h, self.variadic as u8);
        fnv_u64(&mut h, self.body.len() as u64);
        for t in &self.body {
            let (tag, ch) = match t.kind {
                TokenKind::Ident => (0u8, 0u32),
                TokenKind::Number => (1, 0),
                TokenKind::Str => (2, 0),
                TokenKind::Char => (3, 0),
                TokenKind::Punct => (4, 0),
                TokenKind::Other(c) => (5, c as u32),
            };
            fnv_byte(&mut h, tag);
            fnv_u64(&mut h, ch as u64);
            fnv_str(&mut h, &t.text);
            fnv_byte(&mut h, t.space_before as u8);
            fnv_u64(&mut h, t.line as u64);
        }
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_byte(h: &mut u64, b: u8) {
    *h ^= b as u64;
    *h = h.wrapping_mul(FNV_PRIME);
}

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        fnv_byte(h, b);
    }
}

fn fnv_str(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        fnv_byte(h, *b);
    }
    // Length-prefix-free separator: a byte that never occurs in UTF-8.
    fnv_byte(h, 0xff);
}

/// A 64-bit hash of a standalone string (used for the pragma-once set
/// fingerprint).
pub(crate) fn str_hash(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_str(&mut h, s);
    h
}

/// The set of live macro definitions during preprocessing.
///
/// Maintains a running order-independent fingerprint of its contents
/// (a multiset fold over per-definition hashes), so "is the macro
/// environment identical to last time?" is an O(1) question — the key
/// discipline behind cross-patch preprocess memoization.
///
/// The table is copy-on-write: a shared immutable base plus a private
/// overlay of this copy's own writes, where `#undef` of a base name
/// leaves a tombstone. [`MacroTable::freeze`] moves everything into the
/// base, so a configuration's predefined table (`__KERNEL__`,
/// `IS_ENABLED`, every `CONFIG_*` define) is built once and every
/// translation unit's copy clones and drops in O(own writes) instead of
/// O(all defines). Lookups read the overlay first, then the base; the
/// fingerprint is the same sum over live definitions either way.
#[derive(Debug, Clone, Default)]
pub struct MacroTable {
    base: Arc<HashMap<Arc<str>, MacroSlot>>,
    /// This copy's writes over `base`: `Some` defines or redefines a
    /// name, `None` is a tombstone hiding a base definition.
    overlay: HashMap<Arc<str>, Option<MacroSlot>>,
    len: usize,
    fp: u64,
}

/// One live definition plus its memoized content hash, so replacement
/// and `#undef` adjust the running fingerprint without re-hashing.
#[derive(Debug, Clone)]
struct MacroSlot {
    hash: u64,
    def: Arc<MacroDef>,
}

impl MacroTable {
    /// An empty table.
    pub fn new() -> Self {
        MacroTable::default()
    }

    /// Define (or redefine) a macro.
    pub fn define(&mut self, def: MacroDef) {
        self.define_shared(Arc::new(def));
    }

    /// Define (or redefine) a macro whose definition is already shared —
    /// replaying recorded definitions bumps a refcount instead of
    /// deep-copying token bodies.
    pub fn define_shared(&mut self, def: Arc<MacroDef>) {
        let hash = def.content_hash();
        match self.slot(&def.name).map(|old| old.hash) {
            Some(old) => self.fp = self.fp.wrapping_sub(old),
            None => self.len += 1,
        }
        self.fp = self.fp.wrapping_add(hash);
        let name: Arc<str> = Arc::from(def.name.as_str());
        self.overlay.insert(name, Some(MacroSlot { hash, def }));
    }

    /// Remove a macro; silently ignores unknown names (like `#undef`).
    pub fn undef(&mut self, name: &str) {
        let Some(old) = self.slot(name).map(|old| old.hash) else {
            return;
        };
        self.fp = self.fp.wrapping_sub(old);
        self.len -= 1;
        if self.base.contains_key(name) {
            self.overlay.insert(Arc::from(name), None);
        } else {
            self.overlay.remove(name);
        }
    }

    /// Move every definition into the shared base, leaving the overlay
    /// empty. Contents and fingerprint are unchanged; afterwards cloning
    /// or dropping a copy costs O(writes made to that copy).
    pub fn freeze(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let base = Arc::make_mut(&mut self.base);
        // Take the overlay rather than drain it: a drained map keeps its
        // capacity, and every clone would copy that empty bucket array.
        for (name, entry) in std::mem::take(&mut self.overlay) {
            match entry {
                Some(slot) => base.insert(name, slot),
                None => base.remove(&name),
            };
        }
    }

    /// The running fingerprint: equal for tables holding identical
    /// definition multisets, regardless of the order they were built in
    /// or how they are split between base and overlay.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The live slot for `name`: the overlay's entry when it has one
    /// (a tombstone reads as undefined), else the base's.
    fn slot(&self, name: &str) -> Option<&MacroSlot> {
        match self.overlay.get(name) {
            Some(entry) => entry.as_ref(),
            None => self.base.get(name),
        }
    }

    /// Look up a macro.
    pub fn get(&self, name: &str) -> Option<&MacroDef> {
        self.slot(name).map(|slot| &*slot.def)
    }

    /// `defined(name)`.
    pub fn is_defined(&self, name: &str) -> bool {
        self.slot(name).is_some()
    }

    /// Number of live definitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no macros are defined.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the defined names (arbitrary order).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let base = self
            .base
            .keys()
            .filter(|name| !self.overlay.contains_key(&***name));
        let overlay = self
            .overlay
            .iter()
            .filter(|(_, entry)| entry.is_some())
            .map(|(name, _)| name);
        base.chain(overlay).map(|name| &**name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_lookup_undef() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("FOO", "1"));
        assert!(t.is_defined("FOO"));
        assert_eq!(t.get("FOO").unwrap().body[0].text, "1");
        t.undef("FOO");
        assert!(!t.is_defined("FOO"));
        t.undef("FOO"); // idempotent
        assert!(t.is_empty());
    }

    #[test]
    fn redefinition_replaces() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("X", "1"));
        t.define(MacroDef::object("X", "2"));
        assert_eq!(t.get("X").unwrap().body[0].text, "2");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fingerprint_is_order_independent_and_tracks_content() {
        let mut a = MacroTable::new();
        a.define(MacroDef::object("X", "1"));
        a.define(MacroDef::object("Y", "2"));
        let mut b = MacroTable::new();
        b.define(MacroDef::object("Y", "2"));
        b.define(MacroDef::object("X", "1"));
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Redefinition changes the fingerprint; undef restores emptiness.
        let before = a.fingerprint();
        a.define(MacroDef::object("X", "99"));
        assert_ne!(a.fingerprint(), before);
        a.undef("X");
        a.undef("Y");
        assert_eq!(a.fingerprint(), MacroTable::new().fingerprint());

        // Define-then-undef round-trips to the prior fingerprint.
        let mut c = MacroTable::new();
        c.define(MacroDef::object("K", "7"));
        let mid = c.fingerprint();
        c.define(MacroDef::object("T", "t"));
        c.undef("T");
        assert_eq!(c.fingerprint(), mid);
    }

    #[test]
    fn frozen_base_is_shared_and_copies_write_privately() {
        let mut base = MacroTable::new();
        base.define(MacroDef::object("A", "1"));
        base.define(MacroDef::object("B", "2"));
        let fp = base.fingerprint();
        base.freeze();
        assert_eq!(base.fingerprint(), fp, "freezing moves no definition");
        assert_eq!(base.len(), 2);

        // A copy shares the base and allocates nothing for its overlay.
        let mut copy = base.clone();
        assert!(Arc::ptr_eq(&base.base, &copy.base));
        assert_eq!(copy.overlay.capacity(), 0);

        copy.undef("A"); // a tombstone over the base
        copy.define(MacroDef::object("B", "3"));
        copy.define(MacroDef::object("C", "4"));
        assert!(base.is_defined("A") && !copy.is_defined("A"));
        assert_eq!(base.get("B").unwrap().body[0].text, "2");
        assert_eq!(copy.get("B").unwrap().body[0].text, "3");
        assert_eq!(copy.len(), 2);
        let mut names: Vec<&str> = copy.names().collect();
        names.sort_unstable();
        assert_eq!(names, ["B", "C"]);
        assert_eq!(
            base.fingerprint(),
            fp,
            "the base never sees a copy's writes"
        );

        // Same definitions, same fingerprint — however they are split
        // between base, overlay and tombstones.
        let mut fresh = MacroTable::new();
        fresh.define(MacroDef::object("C", "4"));
        fresh.define(MacroDef::object("B", "3"));
        assert_eq!(copy.fingerprint(), fresh.fingerprint());
        copy.freeze();
        assert_eq!(copy.fingerprint(), fresh.fingerprint());
        assert!(!copy.is_defined("A"), "freezing applies the tombstone");

        // Redefining over a tombstone revives the name.
        let mut revived = base.clone();
        revived.undef("A");
        revived.define(MacroDef::object("A", "1"));
        assert_eq!(revived.fingerprint(), fp);
        assert_eq!(revived.len(), 2);
    }

    #[test]
    fn content_hash_distinguishes_shape() {
        let obj = MacroDef::object("M", "1");
        let f = MacroDef::function("M", vec![], "1");
        assert_ne!(obj.content_hash(), f.content_hash());
        assert_ne!(
            MacroDef::object("M", "1").content_hash(),
            MacroDef::object("M", "2").content_hash()
        );
        assert_eq!(
            MacroDef::object("M", "1").content_hash(),
            MacroDef::object("M", "1").content_hash()
        );
    }

    #[test]
    fn function_like_detection() {
        let m = MacroDef::function("MAX", vec!["a".into(), "b".into()], "((a)>(b)?(a):(b))");
        assert!(m.is_function_like());
        assert!(!MacroDef::object("Y", "").is_function_like());
    }
}
