//! Conditional-compilation structure: the preprocessor's [`CondStack`],
//! which evaluates each branch as it goes, and the [`BranchTree`], the
//! nesting alone, built once per file for the Table IV classifier, the
//! precheck and the reachability analyzer.

use crate::lines::LogicalLine;

/// Where a conditional group currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchState {
    /// This branch is the live one; lines are emitted.
    Active,
    /// No branch has been taken yet; a later `#elif`/`#else` may activate.
    Pending,
    /// A branch was already taken; all remaining branches are dead.
    Done,
}

/// One open `#if`/`#ifdef`/`#ifndef` group.
#[derive(Debug, Clone, Copy)]
pub struct CondFrame {
    /// State of the current branch.
    pub state: BranchState,
    /// Whether the *enclosing* context was active (a nested conditional in
    /// a dead region can never activate).
    pub parent_active: bool,
    /// Whether `#else` has been seen (further `#elif`/`#else` is an error).
    pub saw_else: bool,
    /// Line of the opening directive (for unterminated-conditional
    /// diagnostics).
    pub opened_at: u32,
}

/// The conditional stack of a file being preprocessed.
#[derive(Debug, Clone, Default)]
pub struct CondStack {
    frames: Vec<CondFrame>,
}

impl CondStack {
    /// Empty stack.
    pub fn new() -> Self {
        CondStack::default()
    }

    /// True when the current position of the file is live.
    pub fn active(&self) -> bool {
        self.frames.iter().all(|f| f.state == BranchState::Active)
    }

    /// Open a group: `cond` is the evaluated controlling expression.
    pub fn push(&mut self, cond: bool, line: u32) {
        let parent_active = self.active();
        self.frames.push(CondFrame {
            state: if parent_active && cond {
                BranchState::Active
            } else if parent_active {
                BranchState::Pending
            } else {
                BranchState::Done
            },
            parent_active,
            saw_else: false,
            opened_at: line,
        });
    }

    /// True when the next `#elif`'s expression actually needs evaluating
    /// (the group is still pending and the enclosing context is live).
    /// Expressions in branches that can never activate are skipped, like
    /// gcc skips them — they may contain garbage.
    pub fn elif_needs_eval(&self) -> bool {
        matches!(
            self.frames.last(),
            Some(f) if f.state == BranchState::Pending && f.parent_active && !f.saw_else
        )
    }

    /// Handle `#elif cond`. Returns false when no group is open or `#else`
    /// was already seen.
    pub fn elif(&mut self, cond: bool) -> bool {
        let Some(top) = self.frames.last_mut() else {
            return false;
        };
        if top.saw_else {
            return false;
        }
        top.state = match top.state {
            BranchState::Active => BranchState::Done,
            BranchState::Pending if top.parent_active && cond => BranchState::Active,
            s => s,
        };
        true
    }

    /// Handle `#else`. Returns false when no group is open or `#else` was
    /// already seen.
    pub fn toggle_else(&mut self) -> bool {
        let Some(top) = self.frames.last_mut() else {
            return false;
        };
        if top.saw_else {
            return false;
        }
        top.saw_else = true;
        top.state = match top.state {
            BranchState::Active => BranchState::Done,
            BranchState::Pending if top.parent_active => BranchState::Active,
            s => s,
        };
        true
    }

    /// Handle `#endif`. Returns false when no group is open.
    pub fn pop(&mut self) -> bool {
        self.frames.pop().is_some()
    }

    /// Number of open groups (non-zero at end of file is an error).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Line of the innermost open group, if any.
    pub fn innermost_open_line(&self) -> Option<u32> {
        self.frames.last().map(|f| f.opened_at)
    }
}

/// Index of an arm in a [`BranchTree`]. Arms are numbered in source
/// order, so a parent comes before its children.
pub type ArmId = u32;

/// The directive that opens an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmKind {
    If,
    Ifdef,
    Ifndef,
    Elif,
    Else,
}

impl ArmKind {
    /// The directive name, as [`LogicalLine::directive`] returns it.
    pub fn name(self) -> &'static str {
        ["if", "ifdef", "ifndef", "elif", "else"][self as usize]
    }
}

/// One arm of a conditional group: the lines from one of its directives
/// to the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arm {
    /// The group, numbered in the order of the openers.
    pub group: u32,
    /// 0 for the opener, then one per `#elif`/`#else` in source order.
    pub index: u32,
    pub kind: ArmKind,
    /// The directive's operand, as [`LogicalLine::directive`] returns it.
    pub operand: String,
    /// The arm the group is nested in.
    pub parent: Option<ArmId>,
    /// The previous arm of the same group.
    pub prev: Option<ArmId>,
}

impl Arm {
    /// The arm tests its own operand and that operand is a literal zero:
    /// `#if 0`, `#elif (0)`.
    pub fn is_if_zero(&self) -> bool {
        matches!(self.kind, ArmKind::If | ArmKind::Elif) && is_literal_zero(&self.operand)
    }
}

/// Where one physical line sits in a [`BranchTree`]: the innermost arm
/// open once its logical line is applied, and what that line did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineSlot {
    /// The line is in no logical line (a lone `\` spliced onto the next
    /// one, or a line past the last); the arm open after the logical lines
    /// before it.
    Outside(Option<ArmId>),
    /// The line's logical line opened this arm.
    Opens(ArmId),
    /// The line's logical line is the `#endif` that closed a group.
    Closes(Option<ArmId>),
    /// Any other line, stray `#elif`/`#else`/`#endif` included.
    Body(Option<ArmId>),
}

impl LineSlot {
    /// The innermost arm open after the line.
    pub fn arm(self) -> Option<ArmId> {
        match self {
            LineSlot::Opens(a) => Some(a),
            LineSlot::Outside(a) | LineSlot::Closes(a) | LineSlot::Body(a) => a,
        }
    }
}

/// A file's conditional structure, built once from its logical lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchTree {
    arms: Vec<Arm>,
    /// Per group, the index of its `#endif` among the logical lines.
    endifs: Vec<Option<usize>>,
    unbalanced: bool,
    /// One slot per physical line, up to the last logical line's end.
    lines: Vec<LineSlot>,
}

impl BranchTree {
    /// An opener opens a group and its arm 0, an `#elif`/`#else` replaces
    /// the innermost open arm with its group's next arm, and an `#endif`
    /// closes the innermost group.
    pub fn build(lls: &[LogicalLine]) -> BranchTree {
        use ArmKind::{Elif, Else, If, Ifdef, Ifndef};
        let mut tree = BranchTree {
            lines: Vec::with_capacity(lls.last().map_or(0, |l| l.last_line as usize)),
            ..BranchTree::default()
        };
        let mut open: Option<ArmId> = None;
        for (idx, ll) in lls.iter().enumerate() {
            tree.fill(ll.first_line - 1, LineSlot::Outside(open));
            let Some((name, operand)) = ll.directive() else {
                tree.fill(ll.last_line, LineSlot::Body(open));
                continue;
            };
            let kinds = [If, Ifdef, Ifndef, Elif, Else];
            let kind = kinds.into_iter().find(|k| k.name() == name);
            let top = open.map(|a| (tree.arm(a).group, tree.arm(a).index, tree.arm(a).parent));
            let (kind, group, index, parent) = match (kind, top) {
                (Some(kind @ (Elif | Else)), Some((group, index, parent))) => {
                    (kind, group, index + 1, parent)
                }
                (Some(kind @ (If | Ifdef | Ifndef)), _) => {
                    tree.endifs.push(None);
                    (kind, tree.endifs.len() as u32 - 1, 0, open)
                }
                (None, Some((group, _, parent))) if name == "endif" => {
                    tree.endifs[group as usize] = Some(idx);
                    open = parent;
                    tree.fill(ll.last_line, LineSlot::Closes(open));
                    continue;
                }
                _ => {
                    // Any other directive. A stray `#elif`, `#else` or
                    // `#endif` changes nothing but the balance.
                    tree.unbalanced |= kind.is_some() || name == "endif";
                    tree.fill(ll.last_line, LineSlot::Body(open));
                    continue;
                }
            };
            tree.arms.push(Arm {
                group,
                index,
                kind,
                operand: operand.to_string(),
                parent,
                prev: if index == 0 { None } else { open },
            });
            let arm = tree.arms.len() as ArmId - 1;
            open = Some(arm);
            tree.fill(ll.last_line, LineSlot::Opens(arm));
        }
        tree.unbalanced |= open.is_some();
        tree
    }

    /// Slot every line up to 1-based `last` that has none yet.
    fn fill(&mut self, last: u32, slot: LineSlot) {
        self.lines.resize(last as usize, slot);
    }

    /// Every arm, indexed by [`ArmId`].
    pub fn arms(&self) -> &[Arm] {
        &self.arms
    }

    /// The index among the logical lines of `group`'s `#endif`, or `None`
    /// while the group is open at the end.
    pub fn endif(&self, group: u32) -> Option<usize> {
        self.endifs[group as usize]
    }

    /// False when an `#elif`, `#else` or `#endif` found nothing open, or a
    /// group is still open at the end.
    pub fn balanced(&self) -> bool {
        !self.unbalanced
    }

    /// The arm `id`.
    pub fn arm(&self, id: ArmId) -> &Arm {
        &self.arms[id as usize]
    }

    /// The first arm of `arm`'s group.
    pub fn opener<'a>(&'a self, arm: &'a Arm) -> &'a Arm {
        std::iter::successors(Some(arm), |a| a.prev.map(|p| self.arm(p)))
            .last()
            .unwrap_or(arm)
    }

    /// The slot of 1-based physical `line`. A line past the last logical
    /// line is [`LineSlot::Outside`] under the arm open at the end; line 0
    /// is outside every arm.
    pub fn slot(&self, line: u32) -> LineSlot {
        let i = (line as usize).wrapping_sub(1);
        self.lines.get(i).copied().unwrap_or_else(|| {
            LineSlot::Outside(self.lines.last().and_then(|s| s.arm()).filter(|_| line > 0))
        })
    }

    /// `arm` and the arms enclosing it, innermost first.
    pub fn chain(&self, arm: Option<ArmId>) -> impl Iterator<Item = &Arm> + '_ {
        std::iter::successors(arm.map(|a| self.arm(a)), |a| a.parent.map(|p| self.arm(p)))
    }
}

/// Is a conditional operand a literal constant zero? [`LogicalLine`]
/// text has its comments stripped already, but residue like
/// `0 /* disabled */` and a parenthesized `(0)` are accepted either way.
pub fn is_literal_zero(operand: &str) -> bool {
    let mut s = operand.trim();
    if let Some(i) = s.find("/*") {
        s = s[..i].trim_end();
    }
    if let Some(i) = s.find("//") {
        s = s[..i].trim_end();
    }
    let s = s
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .map(str::trim)
        .unwrap_or(s);
    s == "0"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::logical_lines;

    fn tree(src: &str) -> BranchTree {
        BranchTree::build(&logical_lines(src))
    }

    /// (group, index, kind) of the arm a line sits in.
    fn at(t: &BranchTree, line: u32) -> Option<(u32, u32, ArmKind)> {
        t.slot(line).arm().map(|a| {
            let arm = t.arm(a);
            (arm.group, arm.index, arm.kind)
        })
    }

    #[test]
    fn elif_and_else_advance_the_arm_and_endif_closes_the_group() {
        let t = tree("#if A\na\n#elif B\nb\n#else\nc\n#endif\nd\n");
        assert!(t.balanced());
        assert_eq!(at(&t, 1), Some((0, 0, ArmKind::If)));
        assert_eq!(at(&t, 2), Some((0, 0, ArmKind::If)));
        assert_eq!(at(&t, 3), Some((0, 1, ArmKind::Elif)));
        assert_eq!(at(&t, 5), Some((0, 2, ArmKind::Else)));
        assert_eq!(t.slot(7), LineSlot::Closes(None));
        assert_eq!(t.slot(8), LineSlot::Body(None));
        assert_eq!(t.arms()[2].prev, Some(1));
        assert_eq!(t.arms()[1].operand, "B");
        assert_eq!(t.endif(0), Some(6));
        assert_eq!(t.opener(&t.arms()[2]).kind, ArmKind::If);
    }

    #[test]
    fn nested_arms_chain_outward() {
        let t = tree("#ifdef A\n#ifndef B\nx\n#endif\n#else\ny\n#endif\n");
        let kinds: Vec<ArmKind> = t.chain(t.slot(3).arm()).map(|a| a.kind).collect();
        assert_eq!(kinds, vec![ArmKind::Ifndef, ArmKind::Ifdef]);
        assert_eq!(t.slot(2), LineSlot::Opens(1));
        // The inner #endif leaves the outer arm open; the outer #else's
        // parent is the outer group's.
        assert_eq!(at(&t, 4), Some((0, 0, ArmKind::Ifdef)));
        assert_eq!(at(&t, 6), Some((0, 1, ArmKind::Else)));
        assert_eq!(t.arm(t.slot(6).arm().unwrap()).parent, None);
    }

    #[test]
    fn stray_directives_only_unbalance() {
        let t = tree("#else\n#endif\nx\n");
        assert!(!t.balanced());
        assert!(t.arms().is_empty());
        assert_eq!(t.slot(1), LineSlot::Body(None));
        let open = tree("#if 1\nx\n");
        assert!(!open.balanced());
        assert_eq!(open.endif(0), None);
    }

    #[test]
    fn spliced_away_and_trailing_lines_are_outside() {
        // Line 3 is a lone splice: its logical line starts on line 4.
        let t = tree("#ifdef A\nx\n\\\n#endif\n");
        assert_eq!(t.slot(3), LineSlot::Outside(Some(0)));
        assert_eq!(t.slot(4), LineSlot::Closes(None));
        // Past the end: the arm still open there.
        let open = tree("#ifdef A\nx\n");
        assert_eq!(open.slot(9), LineSlot::Outside(Some(0)));
        assert_eq!(open.slot(0), LineSlot::Outside(None));
    }

    #[test]
    fn literal_zero_arms() {
        let t = tree("#if (0)\n#elif 0 /* off */\n#elif 00\n#else\n#endif\n");
        let zero: Vec<bool> = t.arms().iter().map(Arm::is_if_zero).collect();
        assert_eq!(zero, vec![true, true, false, false]);
        assert!(is_literal_zero("0 // why"));
        assert!(!is_literal_zero("0x0 + 0"));
        assert!(!is_literal_zero("CONFIG_FOO"));
    }

    #[test]
    fn simple_if_else() {
        let mut s = CondStack::new();
        assert!(s.active());
        s.push(false, 1);
        assert!(!s.active());
        assert!(s.toggle_else());
        assert!(s.active());
        assert!(s.pop());
        assert!(s.active());
    }

    #[test]
    fn taken_branch_kills_else() {
        let mut s = CondStack::new();
        s.push(true, 1);
        assert!(s.active());
        s.toggle_else();
        assert!(!s.active());
        s.pop();
    }

    #[test]
    fn elif_chain_takes_first_true() {
        let mut s = CondStack::new();
        s.push(false, 1);
        assert!(!s.active());
        assert!(s.elif(true));
        assert!(s.active());
        assert!(s.elif(true)); // already taken: stays done
        assert!(!s.active());
        s.toggle_else();
        assert!(!s.active());
    }

    #[test]
    fn nested_dead_region_never_activates() {
        let mut s = CondStack::new();
        s.push(false, 1);
        s.push(true, 2); // nested in dead region
        assert!(!s.active());
        s.toggle_else();
        assert!(!s.active());
        s.pop();
        s.toggle_else(); // outer else
        assert!(s.active());
    }

    #[test]
    fn double_else_rejected() {
        let mut s = CondStack::new();
        s.push(true, 1);
        assert!(s.toggle_else());
        assert!(!s.toggle_else());
        assert!(!s.elif(true));
    }

    #[test]
    fn stray_endif_rejected() {
        let mut s = CondStack::new();
        assert!(!s.pop());
        assert!(!s.toggle_else());
        assert!(!s.elif(false));
    }

    #[test]
    fn depth_and_open_line() {
        let mut s = CondStack::new();
        s.push(true, 10);
        s.push(false, 20);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.innermost_open_line(), Some(20));
    }
}
