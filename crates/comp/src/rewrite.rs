//! The rewrite driver: one change-driven fixpoint over owned terms.
//!
//! Every rule rewrites in place and **reports whether it fired**; a rule
//! that did not fire has not touched the term. At each comprehension the
//! driver repeats *unnest, operands, rule table* until an iteration fires
//! nothing — so a comprehension is revisited only when a rule fired on it
//! or beneath it, and "done" is never decided by cloning the term and
//! comparing it with its predecessor.
//!
//! The table is directional (cranelift's `opts/README` discipline): each
//! rule's right side is no worse than its left, so no rule undoes another
//! and the fixpoint exists. Three groups, in the order they are tried:
//!
//! * `DESCENT` — Rule (2) unnesting, on the way down and to exhaustion.
//!   It needs nothing from the operands and it decides which comprehension
//!   every other rule sees: an inner comprehension is rewritten in place
//!   only if its parent cannot absorb it.
//! * `NORMALIZE` — on the way up, over rewritten operands.
//! * `OPTIMIZE` — only in an iteration where nothing else fired:
//!   Rules (16)/(17) and range elimination match on the flat,
//!   predicate-pushed shape that normalization produces.

use std::fmt;

use crate::ir::{CExpr, Comprehension, NameGen};
use crate::{normalize as n, optimize as o};

/// A rewrite of one expression node whose operands are already rewritten.
type Fold = fn(&mut CExpr) -> bool;
/// A rewrite of one comprehension's qualifier list and head.
type Rule = fn(&mut Comprehension, &mut NameGen) -> bool;

const FOLDS: [(&str, Fold); 3] = [
    ("fold_constants", n::fold_constants),
    ("project_literals", n::project_literals),
    ("aggregate_singletons", n::aggregate_singletons),
];

const DESCENT: [(&str, Rule); 1] = [("unnest", n::unnest)];

const NORMALIZE: [(&str, Rule); 5] = [
    ("split_tuple_lets", n::split_tuple_lets),
    ("inline_lets", n::inline_lets),
    ("inline_aggregated_bags", n::inline_aggregated_bags),
    ("push_preds", n::push_preds),
    ("drop_true_preds", n::drop_true_preds),
];

const OPTIMIZE: [(&str, Rule); 5] = [
    ("dedup_array_accesses", o::dedup_array_accesses),
    ("eliminate_ranges", o::eliminate_ranges),
    ("rule16", o::rule16_constant_key),
    ("rule17", o::rule17_unique_key),
    ("drop_dead_lets", o::drop_dead_lets),
];

// Where each group's counters start in `RewriteStats::fires`.
const DESCENT_SLOT: usize = FOLDS.len();
const NORMALIZE_SLOT: usize = DESCENT_SLOT + DESCENT.len();
const OPTIMIZE_SLOT: usize = NORMALIZE_SLOT + NORMALIZE.len();

/// Comprehension visits one expression may spend. A whole Table 1 program
/// spends 3–74 and the spine's 200-statement program 780, over all their
/// expressions (`tests/rewrite_work.rs`); running out means two rules undo
/// each other.
pub const FUEL: u64 = 10_000;

/// What the driver did: how often each rule fired and how many times a
/// comprehension was visited (one visit = its operands, then the table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteStats {
    /// `(rule name, times it fired)`, every rule listed once, table order.
    pub fires: Vec<(&'static str, u64)>,
    /// Comprehension visits — the driver's unit of work.
    pub visits: u64,
}

impl Default for RewriteStats {
    fn default() -> Self {
        let rules = DESCENT.iter().chain(&NORMALIZE).chain(&OPTIMIZE);
        let names = FOLDS.iter().map(|r| r.0).chain(rules.map(|r| r.0));
        RewriteStats {
            fires: names.map(|name| (name, 0)).collect(),
            visits: 0,
        }
    }
}

impl RewriteStats {
    /// Adds another run's counts to this one.
    pub fn absorb(&mut self, other: &RewriteStats) {
        for (mine, theirs) in self.fires.iter_mut().zip(&other.fires) {
            mine.1 += theirs.1;
        }
        self.visits += other.visits;
    }
}

/// `unnest 12, inline_lets 9; 87 visits` — the rules that fired, in table
/// order.
impl fmt::Display for RewriteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fired = self.fires.iter().filter(|(_, count)| *count > 0);
        let fired: Vec<String> = fired
            .map(|(name, count)| format!("{name} {count}"))
            .collect();
        let fired = if fired.is_empty() {
            "none".to_string()
        } else {
            fired.join(", ")
        };
        write!(f, "{fired}; {} visits", self.visits)
    }
}

/// Rewrites `e` in place to the joint fixpoint of the folds and the rule
/// table — without the `OPTIMIZE` group when `optimize` is false — adding
/// what it did to `stats`.
pub(crate) fn rewrite(e: &mut CExpr, optimize: bool, ng: &mut NameGen, stats: &mut RewriteStats) {
    let mut driver = Driver {
        optimize,
        ng,
        stats,
        fuel: FUEL,
    };
    driver.expr(e);
}

struct Driver<'a> {
    optimize: bool,
    ng: &'a mut NameGen,
    stats: &'a mut RewriteStats,
    fuel: u64,
}

impl Driver<'_> {
    /// Rewrites everything beneath `e`, then folds `e` itself. A fold's
    /// result is an operand that was already rewritten, so one bottom-up
    /// sweep suffices outside comprehensions.
    fn expr(&mut self, e: &mut CExpr) -> bool {
        let mut fired = match e {
            CExpr::Var(_) | CExpr::Const(_) => return false,
            CExpr::Comp(c) => return self.comp(c),
            CExpr::Bin(_, a, b) | CExpr::Range(a, b) => self.expr(a) | self.expr(b),
            CExpr::Merge { left, right, .. } => self.expr(left) | self.expr(right),
            CExpr::Un(_, a) | CExpr::Proj(a, _) | CExpr::Agg(_, a) => self.expr(a),
            CExpr::Call(_, args) | CExpr::Tuple(args) => {
                args.iter_mut().fold(false, |f, a| self.expr(a) | f)
            }
            CExpr::Record(fs) => fs.iter_mut().fold(false, |f, (_, a)| self.expr(a) | f),
        };
        for (slot, (_, fold)) in FOLDS.iter().enumerate() {
            if fold(e) {
                self.stats.fires[slot].1 += 1;
                fired = true;
            }
        }
        fired
    }

    /// Brings one comprehension to its fixpoint; true if anything fired on
    /// it or beneath it.
    fn comp(&mut self, c: &mut Comprehension) -> bool {
        let mut fired_ever = false;
        loop {
            if self.fuel == 0 {
                debug_assert!(false, "rewrite fuel exhausted: two rules undo each other");
                return fired_ever;
            }
            self.fuel -= 1;
            self.stats.visits += 1;
            let mut fired = false;
            while self.apply(&DESCENT, DESCENT_SLOT, c) {
                fired = true;
            }
            for q in &mut c.quals {
                fired |= self.expr(q.expr_mut());
            }
            fired |= self.expr(&mut c.head);
            fired |= self.apply(&NORMALIZE, NORMALIZE_SLOT, c);
            if !fired && self.optimize {
                fired = self.apply(&OPTIMIZE, OPTIMIZE_SLOT, c);
            }
            if !fired {
                return fired_ever;
            }
            fired_ever = true;
        }
    }

    /// Tries each rule once, in table order; `slot` is the first rule's
    /// index into [`RewriteStats::fires`].
    fn apply(&mut self, rules: &[(&str, Rule)], slot: usize, c: &mut Comprehension) -> bool {
        let mut fired = false;
        for (i, (_, rule)) in rules.iter().enumerate() {
            if rule(c, self.ng) {
                self.stats.fires[slot + i].1 += 1;
                fired = true;
            }
        }
        fired
    }
}
