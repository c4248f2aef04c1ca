//! Global reassociation (§3.1) — the paper's headline enabling
//! transformation, in its three steps:
//!
//! 1. **Compute a rank for every expression.** On pruned SSA (built with
//!    copy folding), walk the CFG in reverse postorder giving block *i*
//!    rank *i*; constants rank 0; φ-results, parameters, load results and
//!    call results take their block's rank; every other expression takes
//!    the maximum of its operands' ranks. Loop-invariant values end up
//!    with lower ranks than loop-variant ones, and deeper loops give
//!    higher ranks.
//! 2. **Propagate expressions forward to their uses.** φ-nodes are
//!    replaced by copies in (split) predecessor blocks; then every *sink*
//!    — φ-input copy, branch condition, call argument, store address and
//!    value, load address, return value — gets the complete expression
//!    tree of its operand rebuilt immediately before it. This builds
//!    large expressions, eliminates partially-dead expressions, and
//!    guarantees the §5.1 rule that no expression name is live across a
//!    block boundary. It *duplicates* code (the paper's Table 2 measures
//!    the expansion — [`ReassocStats`] reports the same numbers) and can
//!    even push expressions into loops (§4.2); PRE is expected to clean up
//!    after it.
//! 3. **Reassociate, sorting operands by rank.** Subtraction is rewritten
//!    `x + (-y)` (Frailey), associative operator trees are flattened and
//!    their operands stably sorted by rank so low-ranked (loop-invariant,
//!    constant) operands group together, then re-emitted as left-leaning
//!    three-address code with subtractions reconstructed. With
//!    [`ReassocOptions::distribute`] set, a low-ranked multiplier is
//!    distributed over the rank groups of a higher-ranked sum (the
//!    paper's partial distribution: `a + b×((c+d)+e)` with `e` deeper
//!    becomes `a + b×(c+d) + b×e`), and sums are re-sorted.

use epre_analysis::AnalysisCache;
use epre_cfg::Cfg;
use epre_ir::{BinOp, Const, Function, Inst, Reg, Terminator, Ty, UnOp};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::budget::{Budget, BudgetExceeded, Meter};
use epre_telemetry::PassCounters;

/// Options for [`run`].
#[derive(Copy, Clone, Debug, Default)]
pub struct ReassocOptions {
    /// Distribute multiplication over addition when the multiplier's rank
    /// is lower than the sum's (the paper's `distribution` level).
    pub distribute: bool,
}

/// Static operation counts around forward propagation — the data of the
/// paper's Table 2.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReassocStats {
    /// Operations before the pass.
    pub ops_before: usize,
    /// Operations after forward propagation and re-emission.
    pub ops_after: usize,
    /// Registers assigned a non-zero rank (rank 0 marks constants).
    pub regs_ranked: usize,
    /// Low-ranked multipliers actually distributed over rank groups of a
    /// higher-ranked sum (zero unless `distribute` is enabled).
    pub distributions: u64,
}

impl ReassocStats {
    /// The code growth factor (`after / before`), Table 2's third column.
    pub fn expansion(&self) -> f64 {
        self.ops_after as f64 / self.ops_before.max(1) as f64
    }

    /// Did the invocation change the function? Always: the SSA round trip
    /// renames registers even when nothing propagates.
    pub fn changed(&self) -> bool {
        true
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("regs_ranked", self.regs_ranked as u64);
        counters.add("distributions", self.distributions);
        counters.add("ops_emitted", self.ops_after as u64);
    }
}

/// Run global reassociation on `f` under a resource [`Budget`]; returns
/// the Table 2 statistics. The pass rebuilds SSA internally, so it drops
/// every entry of the pipeline's `cache`.
///
/// There is one cooperative checkpoint per block of the
/// forward-propagation rewrite. Distribution is the pipeline's biggest
/// legitimate code-growth source (Table 2's expansion column), so the
/// growth dimension is checked block-by-block while the rewrite is still
/// in flight rather than once at the end.
///
/// # Errors
/// [`BudgetExceeded`] when a block rewrite starts over budget; blocks
/// already rewritten stay rewritten (callers needing atomicity run a
/// clone).
pub fn run(
    f: &mut Function,
    options: ReassocOptions,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<ReassocStats, BudgetExceeded> {
    let ops_before = f.static_op_count();
    let mut meter = budget.start(f);

    // Step 0+1: pruned SSA with copies folded into φs, then ranks.
    build_ssa(f, SsaOptions { fold_copies: true });
    let ranks = compute_ranks(f);
    let regs_ranked = ranks.iter().filter(|&&r| r > 0).count();

    // Step 2a: φs become copies in (split) predecessors. Their targets are
    // the *variable names* of the reassociated program.
    destroy_ssa(f);

    // Step 2b+3: forward-propagate trees into every sink, reassociating
    // along the way.
    let distributions = forward_propagate(f, &ranks, options, &mut meter)?;
    f.compact_regs();

    let ops_after = f.static_op_count();
    cache.invalidate_all();
    Ok(ReassocStats { ops_before, ops_after, regs_ranked, distributions })
}

/// Ranks per register (paper §3.1). Must run on SSA.
fn compute_ranks(f: &Function) -> Vec<u32> {
    let cfg = Cfg::new(f);
    let rpo = epre_cfg::order::RpoNumbers::new(&cfg);
    let mut rank = vec![0u32; f.reg_count()];
    // Parameters: defined at the entry block (rank 1, like the paper's
    // r0, r1 in Figure 4).
    for &p in &f.params {
        rank[p.index()] = 1;
    }
    for &b in rpo.order() {
        let brank = rpo.number(b).expect("reachable");
        for inst in &f.block(b).insts {
            let Some(d) = inst.dst() else { continue };
            rank[d.index()] = match inst {
                // Rule 1: constants rank zero.
                Inst::LoadI { .. } => 0,
                // Rule 2: φs, loads and call results take the block rank.
                Inst::Phi { .. } | Inst::Load { .. } | Inst::Call { .. } => brank,
                // Rule 3: max of operand ranks.
                Inst::Bin { lhs, rhs, .. } => rank[lhs.index()].max(rank[rhs.index()]),
                Inst::Un { src, .. } => rank[src.index()],
                Inst::Copy { src, .. } => rank[src.index()],
                Inst::Store { .. } => unreachable!("no destination"),
            };
        }
    }
    rank
}

/// An expression tree rooted at a sink operand.
#[derive(Clone, Debug, PartialEq)]
enum Tree {
    /// An opaque leaf: parameter, φ-variable, load or call result.
    Leaf(Reg),
    /// A constant (rank 0).
    Num(Const),
    /// A non-sum operator node (including flattened products etc. handled
    /// through `Nary`).
    Un(UnOp, Ty, Box<Tree>),
    /// Non-associative binary node.
    Bin(BinOp, Ty, Box<Tree>, Box<Tree>),
    /// Flattened associative operator with ≥2 operands. For `Add`, each
    /// operand carries a sign (Frailey's `x - y = x + (-y)` rewrite).
    Nary(BinOp, Ty, Vec<(Tree, bool)>),
}

struct Forwarder<'a> {
    ranks: &'a [u32],
    options: ReassocOptions,
    /// Single (pure) definition per register index, for tree building.
    defs: Vec<Option<Inst>>,
    /// Output buffer for the block being rewritten.
    out: Vec<Inst>,
    /// Multiplier-over-sum distributions performed so far.
    dists: u64,
}

/// Rewrite every block: delete pure-expression instructions and re-emit
/// reassociated trees immediately before each sink. Ticks `meter` once
/// per block, so growth is policed while distribution expands trees.
/// Returns the number of distributions performed.
fn forward_propagate(
    f: &mut Function,
    ranks: &[u32],
    options: ReassocOptions,
    meter: &mut Meter,
) -> Result<u64, BudgetExceeded> {
    // Pure expression defs (still single-assignment for expression
    // registers: copy targets — φ names — are multiply-defined but opaque).
    let mut defs: Vec<Option<Inst>> = vec![None; f.reg_count()];
    let mut def_count: Vec<u32> = vec![0; f.reg_count()];
    for block in &f.blocks {
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                def_count[d.index()] += 1;
                if inst.is_expression() {
                    defs[d.index()] = Some(inst.clone());
                }
            }
        }
    }
    // A register defined more than once cannot be treated as a tree node
    // (it is a variable); drop such defs. (Cannot arise from our SSA
    // pipeline, but `run` accepts arbitrary verified input.)
    for (def, &count) in defs.iter_mut().zip(&def_count) {
        if count > 1 {
            *def = None;
        }
    }

    let mut fw = Forwarder { ranks, options, defs, out: Vec::new(), dists: 0 };

    // Grow the rank table for registers the rewrite allocates: new regs
    // carry the rank of the tree they hold, but ranks are only read for
    // *input* registers, so a default of "huge" is never consulted.
    for bi in 0..f.blocks.len() {
        meter.tick(f)?;
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        fw.out = Vec::with_capacity(insts.len());
        // The trailing run of copies is a *parallel* copy group created by
        // φ-destruction. Its trees must all be materialized before any of
        // the copies writes a φ-name, or a tree whose leaf is an earlier
        // copy's destination would read the new value.
        let mut tail = insts.len();
        while tail > 0 && matches!(insts[tail - 1], Inst::Copy { .. }) {
            tail -= 1;
        }
        let (body, copy_group) = insts.split_at(tail);
        for inst in body {
            let mut inst = inst.clone();
            match &mut inst {
                // Pure expressions disappear; sinks rematerialize them.
                Inst::Bin { .. } | Inst::Un { .. } | Inst::LoadI { .. } => continue,
                Inst::Copy { src, .. } => {
                    let new = fw.materialize(f, *src);
                    *src = new;
                }
                Inst::Load { addr, .. } => {
                    let new = fw.materialize(f, *addr);
                    *addr = new;
                }
                Inst::Store { addr, value, .. } => {
                    let a = fw.materialize(f, *addr);
                    let v = fw.materialize(f, *value);
                    *addr = a;
                    *value = v;
                }
                Inst::Call { args, .. } => {
                    for a in args.iter_mut() {
                        *a = fw.materialize(f, *a);
                    }
                }
                Inst::Phi { .. } => unreachable!("φs destroyed before forward propagation"),
            }
            fw.out.push(inst);
        }
        // Materialize every tree the copy group and the terminator need
        // *before* any copy executes: they must read the pre-copy values
        // of the φ-names (this matches the original SSA evaluation order,
        // where the condition and the φ-inputs were computed before the
        // parallel copy).
        let mut rewritten_group: Vec<Inst> = Vec::with_capacity(copy_group.len());
        for inst in copy_group {
            let mut inst = inst.clone();
            if let Inst::Copy { src, .. } = &mut inst {
                let new = fw.materialize(f, *src);
                *src = new;
            }
            rewritten_group.push(inst);
        }
        let mut term = std::mem::replace(
            &mut f.blocks[bi].term,
            Terminator::Return { value: None },
        );
        match &mut term {
            Terminator::Branch { cond, .. } => {
                let new = fw.materialize(f, *cond);
                *cond = new;
            }
            Terminator::Return { value: Some(v) } => {
                let new = fw.materialize(f, *v);
                *v = new;
            }
            _ => {}
        }
        fw.out.extend(rewritten_group);
        f.blocks[bi].term = term;
        f.blocks[bi].insts = std::mem::take(&mut fw.out);
    }
    Ok(fw.dists)
}

impl Forwarder<'_> {
    /// The single pure definition of `r`, if it has one. Registers the
    /// rewrite allocates have none.
    fn def(&self, r: Reg) -> Option<&Inst> {
        self.defs.get(r.index()).and_then(Option::as_ref)
    }

    /// Materialize the value of `r` at the current point: returns `r`
    /// itself for leaves, or emits the reassociated tree and returns the
    /// register holding its root.
    fn materialize(&mut self, f: &mut Function, r: Reg) -> Reg {
        if self.def(r).is_none() {
            return r; // leaf: variable, parameter, load/call result
        }
        let tree = self.build_tree(r);
        let tree = normalize(tree);
        let tree = flatten(tree);
        let tree = if self.options.distribute {
            distribute(tree, self.ranks, &mut self.dists)
        } else {
            tree
        };
        let tree = sort_by_rank(tree, self.ranks);
        self.emit(f, &tree)
    }

    fn build_tree(&self, r: Reg) -> Tree {
        match self.def(r) {
            None => Tree::Leaf(r),
            Some(inst) => match inst {
                Inst::LoadI { value, .. } => Tree::Num(*value),
                Inst::Un { op, ty, src, .. } => {
                    Tree::Un(*op, *ty, Box::new(self.build_tree(*src)))
                }
                Inst::Bin { op, ty, lhs, rhs, .. } => Tree::Bin(
                    *op,
                    *ty,
                    Box::new(self.build_tree(*lhs)),
                    Box::new(self.build_tree(*rhs)),
                ),
                _ => Tree::Leaf(r),
            },
        }
    }

    /// Emit three-address code for `tree`; returns the result register.
    fn emit(&mut self, f: &mut Function, tree: &Tree) -> Reg {
        match tree {
            Tree::Leaf(r) => *r,
            Tree::Num(c) => {
                let dst = f.new_reg(c.ty());
                self.out.push(Inst::LoadI { dst, value: *c });
                dst
            }
            Tree::Un(op, ty, inner) => {
                let src = self.emit(f, inner);
                let dst = f.new_reg(op.result_ty(*ty));
                self.out.push(Inst::Un { op: *op, ty: *ty, dst, src });
                dst
            }
            Tree::Bin(op, ty, l, r) => {
                let lhs = self.emit(f, l);
                let rhs = self.emit(f, r);
                let dst = f.new_reg(op.result_ty(*ty));
                self.out.push(Inst::Bin { op: *op, ty: *ty, dst, lhs, rhs });
                dst
            }
            Tree::Nary(op, ty, terms) => {
                debug_assert!(terms.len() >= 2);
                if *op == BinOp::Add {
                    self.emit_sum(f, *ty, terms)
                } else {
                    let mut acc = self.emit(f, &terms[0].0);
                    for (t, _) in &terms[1..] {
                        let rhs = self.emit(f, t);
                        let dst = f.new_reg(*ty);
                        self.out.push(Inst::Bin { op: *op, ty: *ty, dst, lhs: acc, rhs });
                        acc = dst;
                    }
                    acc
                }
            }
        }
    }

    /// Emit a signed sum, reconstructing subtractions (§3.1 "we rely on a
    /// later pass … to reconstruct the original operations" — done eagerly
    /// here since `x + (-y)` and `x - y` are bit-identical in IEEE).
    fn emit_sum(&mut self, f: &mut Function, ty: Ty, terms: &[(Tree, bool)]) -> Reg {
        let (first, neg) = &terms[0];
        let mut acc = self.emit(f, first);
        if *neg {
            let dst = f.new_reg(ty);
            self.out.push(Inst::Un { op: UnOp::Neg, ty, dst, src: acc });
            acc = dst;
        }
        for (t, neg) in &terms[1..] {
            let rhs = self.emit(f, t);
            let dst = f.new_reg(ty);
            let op = if *neg { BinOp::Sub } else { BinOp::Add };
            self.out.push(Inst::Bin { op, ty, dst, lhs: acc, rhs });
            acc = dst;
        }
        acc
    }
}

/// Frailey normalization: `x - y → x + (-y)`, `-(-x) → x`, negation of
/// constants folded, negation pushed through sums.
fn normalize(tree: Tree) -> Tree {
    match tree {
        Tree::Bin(BinOp::Sub, ty, l, r) => {
            let l = normalize(*l);
            let r = normalize(*r);
            Tree::Bin(BinOp::Add, ty, Box::new(l), Box::new(neg_of(r, ty)))
        }
        Tree::Bin(op, ty, l, r) => {
            Tree::Bin(op, ty, Box::new(normalize(*l)), Box::new(normalize(*r)))
        }
        Tree::Un(UnOp::Neg, ty, inner) => neg_of(normalize(*inner), ty),
        Tree::Un(op, ty, inner) => Tree::Un(op, ty, Box::new(normalize(*inner))),
        t => t,
    }
}

fn neg_of(tree: Tree, ty: Ty) -> Tree {
    match tree {
        Tree::Un(UnOp::Neg, _, inner) => *inner,
        Tree::Num(Const::Int(v)) => Tree::Num(Const::Int(v.wrapping_neg())),
        Tree::Num(Const::Float(v)) => Tree::Num(Const::Float(-v)),
        t => Tree::Un(UnOp::Neg, ty, Box::new(t)),
    }
}

/// Flatten nested associative applications into N-ary nodes. A negation
/// over a sum distributes across its terms; a negated term of a sum flips
/// its sign bit.
fn flatten(tree: Tree) -> Tree {
    match tree {
        Tree::Bin(op, ty, l, r) if op.is_associative() => {
            let mut terms = Vec::new();
            collect(op, flatten(*l), false, &mut terms);
            collect(op, flatten(*r), false, &mut terms);
            if terms.len() == 1 {
                let (t, neg) = terms.pop().unwrap();
                if neg {
                    Tree::Un(UnOp::Neg, ty, Box::new(t))
                } else {
                    t
                }
            } else {
                Tree::Nary(op, ty, terms)
            }
        }
        Tree::Bin(op, ty, l, r) => Tree::Bin(op, ty, Box::new(flatten(*l)), Box::new(flatten(*r))),
        Tree::Un(UnOp::Neg, ty, inner) => match flatten(*inner) {
            // -(a + b) = (-a) + (-b): keeps sums flat under negation.
            Tree::Nary(BinOp::Add, nty, terms) => {
                Tree::Nary(BinOp::Add, nty, terms.into_iter().map(|(t, n)| (t, !n)).collect())
            }
            t => neg_of(t, ty),
        },
        Tree::Un(op, ty, inner) => Tree::Un(op, ty, Box::new(flatten(*inner))),
        t => t,
    }
}

fn collect(op: BinOp, t: Tree, neg: bool, out: &mut Vec<(Tree, bool)>) {
    match t {
        Tree::Nary(o, _, terms) if o == op => {
            for (t, n) in terms {
                out.push((t, neg != (n && op == BinOp::Add)));
                // Only sums carry signs; for other associative ops `n` is
                // always false by construction.
            }
        }
        Tree::Un(UnOp::Neg, _, inner) if op == BinOp::Add => {
            collect(op, *inner, !neg, out);
        }
        other => out.push((other, neg)),
    }
}

/// Rank of a tree: constants 0, leaves from the table, operators take the
/// max over children (matching the per-register rules).
fn tree_rank(t: &Tree, ranks: &[u32]) -> u32 {
    match t {
        Tree::Leaf(r) => ranks.get(r.index()).copied().unwrap_or(u32::MAX),
        Tree::Num(_) => 0,
        Tree::Un(_, _, inner) => tree_rank(inner, ranks),
        Tree::Bin(_, _, l, r) => tree_rank(l, ranks).max(tree_rank(r, ranks)),
        Tree::Nary(_, _, terms) => {
            terms.iter().map(|(t, _)| tree_rank(t, ranks)).max().unwrap_or(0)
        }
    }
}

/// Stable-sort every N-ary node's operands by rank (low first), recursing
/// into children first.
fn sort_by_rank(tree: Tree, ranks: &[u32]) -> Tree {
    match tree {
        Tree::Nary(op, ty, terms) => {
            let mut terms: Vec<(Tree, bool)> = terms
                .into_iter()
                .map(|(t, n)| (sort_by_rank(t, ranks), n))
                .collect();
            terms.sort_by_key(|(t, _)| tree_rank(t, ranks));
            Tree::Nary(op, ty, terms)
        }
        Tree::Bin(op, ty, l, r) => Tree::Bin(
            op,
            ty,
            Box::new(sort_by_rank(*l, ranks)),
            Box::new(sort_by_rank(*r, ranks)),
        ),
        Tree::Un(op, ty, inner) => Tree::Un(op, ty, Box::new(sort_by_rank(*inner, ranks))),
        t => t,
    }
}

/// Distribute a low-ranked multiplier over the *rank groups* of a
/// higher-ranked sum (paper §3.1: partial distribution; a complete
/// distribution "would result in extra multiplications without allowing
/// any additional code motion"). Applied bottom-up. Each distribution
/// performed increments `count` (the pass counter `distributions`).
fn distribute(tree: Tree, ranks: &[u32], count: &mut u64) -> Tree {
    match tree {
        Tree::Nary(BinOp::Mul, ty, factors) => {
            let factors: Vec<(Tree, bool)> =
                factors.into_iter().map(|(t, n)| (distribute(t, ranks, count), n)).collect();
            // Exactly one sum factor, and the rest strictly lower-ranked?
            let sums: Vec<usize> = factors
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| matches!(t, Tree::Nary(BinOp::Add, _, _)))
                .map(|(i, _)| i)
                .collect();
            if sums.len() != 1 {
                return Tree::Nary(BinOp::Mul, ty, factors);
            }
            let sum_idx = sums[0];
            let multiplier_rank = factors
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != sum_idx)
                .map(|(_, (t, _))| tree_rank(t, ranks))
                .max()
                .unwrap_or(0);
            let Tree::Nary(BinOp::Add, _, terms) = &factors[sum_idx].0 else { unreachable!() };
            let sum_rank = terms.iter().map(|(t, _)| tree_rank(t, ranks)).max().unwrap_or(0);
            if multiplier_rank >= sum_rank {
                return Tree::Nary(BinOp::Mul, ty, factors);
            }
            // Group the sum's terms: everything at or below the
            // multiplier's rank forms one group; each higher rank its own.
            let mut groups: Vec<(u32, Vec<(Tree, bool)>)> = Vec::new();
            let Tree::Nary(BinOp::Add, _, terms) = factors[sum_idx].0.clone() else {
                unreachable!()
            };
            for (t, n) in terms {
                let level = tree_rank(&t, ranks).max(multiplier_rank);
                match groups.iter_mut().find(|(l, _)| *l == level) {
                    Some((_, g)) => g.push((t, n)),
                    None => groups.push((level, vec![(t, n)])),
                }
            }
            *count += 1;
            let others: Vec<(Tree, bool)> = factors
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| i != sum_idx)
                .map(|(_, p)| p)
                .collect();
            let mut out_terms: Vec<(Tree, bool)> = Vec::new();
            for (_, group) in groups {
                let inner = if group.len() == 1 {
                    let (t, n) = group.into_iter().next().unwrap();
                    if n {
                        Tree::Un(UnOp::Neg, ty, Box::new(t))
                    } else {
                        t
                    }
                } else {
                    Tree::Nary(BinOp::Add, ty, group)
                };
                let mut fs = others.clone();
                fs.push((inner, false));
                out_terms.push((Tree::Nary(BinOp::Mul, ty, fs), false));
            }
            if out_terms.len() == 1 {
                out_terms.pop().unwrap().0
            } else {
                Tree::Nary(BinOp::Add, ty, out_terms)
            }
        }
        Tree::Nary(op, ty, terms) => Tree::Nary(
            op,
            ty,
            terms.into_iter().map(|(t, n)| (distribute(t, ranks, count), n)).collect(),
        ),
        Tree::Bin(op, ty, l, r) => Tree::Bin(
            op,
            ty,
            Box::new(distribute(*l, ranks, count)),
            Box::new(distribute(*r, ranks, count)),
        ),
        Tree::Un(op, ty, inner) => {
            Tree::Un(op, ty, Box::new(distribute(*inner, ranks, count)))
        }
        t => t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{FunctionBuilder, Module};
    use epre_interp::{Interpreter, Value};

    /// [`run`] with a fresh cache and no budget.
    fn reassociate(f: &mut Function, options: ReassocOptions) -> ReassocStats {
        run(f, options, &mut AnalysisCache::new(), &Budget::UNLIMITED).unwrap()
    }

    fn run_fn(f: &Function, name: &str, args: &[Value]) -> (Option<Value>, u64) {
        let mut m = Module::new();
        m.functions.push(f.clone());
        let mut i = Interpreter::new(&m);
        let r = i.run(name, args).unwrap();
        (r, i.counts().total)
    }

    /// The paper's Figure 2 function, built like the frontend would.
    fn paper_foo() -> Function {
        let mut b = FunctionBuilder::new("foo", Some(Ty::Float));
        let y = b.param(Ty::Float);
        let z = b.param(Ty::Float);
        let s = b.new_reg(Ty::Float);
        let x = b.new_reg(Ty::Float);
        let i = b.new_reg(Ty::Int);
        let limit = b.new_reg(Ty::Int);
        let body = b.new_block();
        let exit = b.new_block();
        // s = 0; x = y + z; i = x; limit = 100; guard
        let c0 = b.loadi(Const::Float(0.0));
        b.copy_to(s, c0);
        let t = b.bin(BinOp::Add, Ty::Float, y, z);
        b.copy_to(x, t);
        let xi = b.un(UnOp::F2I, Ty::Float, x);
        b.copy_to(i, xi);
        let c100 = b.loadi(Const::Int(100));
        b.copy_to(limit, c100);
        let g = b.bin(BinOp::CmpGt, Ty::Int, i, limit);
        b.branch(g, exit, body);
        // body: s = i + s + x ; i = i + 1 ; bottom test
        b.switch_to(body);
        let fi = b.un(UnOp::I2F, Ty::Int, i);
        let t1 = b.bin(BinOp::Add, Ty::Float, fi, s);
        let t2 = b.bin(BinOp::Add, Ty::Float, t1, x);
        b.copy_to(s, t2);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        let c = b.bin(BinOp::CmpLe, Ty::Int, i, limit);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn preserves_paper_foo_semantics() {
        let orig = paper_foo();
        for distribute in [false, true] {
            let mut f = orig.clone();
            let stats = reassociate(&mut f, ReassocOptions { distribute });
            assert!(f.verify().is_ok(), "{f}");
            assert!(stats.ops_after >= 1);
            let args = [Value::Float(1.0), Value::Float(2.0)];
            let (r0, _) = run_fn(&orig, "foo", &args);
            let (r1, _) = run_fn(&f, "foo", &args);
            // Float reassociation can change rounding; this example is
            // exact in f64, so results match exactly.
            assert_eq!(r0, r1);
        }
    }

    #[test]
    fn ranks_match_paper_figure4() {
        // In Figure 4 the params rank 1, constants rank 0, loop values
        // rank by their block.
        let mut f = paper_foo();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        let ranks = compute_ranks(&f);
        // Params y, z have rank 1.
        assert_eq!(ranks[f.params[0].index()], 1);
        assert_eq!(ranks[f.params[1].index()], 1);
        // y + z is rank 1 (invariant); constants rank 0.
        for (_, block) in f.iter_blocks() {
            for inst in &block.insts {
                match inst {
                    Inst::LoadI { dst, .. } => assert_eq!(ranks[dst.index()], 0),
                    Inst::Bin { op: BinOp::Add, ty: Ty::Float, dst, lhs, rhs }
                        if (*lhs == f.params[0] || *rhs == f.params[0]) => {
                            assert_eq!(ranks[dst.index()], 1, "y+z is loop-invariant");
                        }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn sorts_constants_first() {
        // 1 + rc + 2 must become (1 + 2) + rc shaped code: the two
        // constants adjacent at the front (paper §3.1 sorting example).
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let rc = b.param(Ty::Int);
        let one = b.loadi(Const::Int(1));
        let t = b.bin(BinOp::Add, Ty::Int, one, rc);
        let two = b.loadi(Const::Int(2));
        let u = b.bin(BinOp::Add, Ty::Int, t, two);
        b.ret(Some(u));
        let mut f = b.finish();
        reassociate(&mut f, ReassocOptions::default());
        assert!(f.verify().is_ok());
        // The first add must combine the two constants.
        let first_add = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .expect("an add remains");
        let loadi_dsts: Vec<Reg> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::LoadI { .. }))
            .filter_map(|i| i.dst())
            .collect();
        for u in first_add.uses() {
            assert!(loadi_dsts.contains(&u), "first add combines constants: {f}");
        }
        let (r, _) = run_fn(&f, "s", &[Value::Int(10)]);
        assert_eq!(r, Some(Value::Int(13)));
    }

    #[test]
    fn subtraction_round_trips_through_frailey() {
        // a - b + c: rewritten x + (-y) + z internally, re-emitted with a
        // subtraction, value preserved.
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let bb = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let t = b.bin(BinOp::Sub, Ty::Int, a, bb);
        let u = b.bin(BinOp::Add, Ty::Int, t, c);
        b.ret(Some(u));
        let orig = b.finish();
        let mut f = orig.clone();
        reassociate(&mut f, ReassocOptions::default());
        assert!(f.verify().is_ok());
        let args = [Value::Int(10), Value::Int(4), Value::Int(1)];
        assert_eq!(run_fn(&orig, "d", &args).0, run_fn(&f, "d", &args).0);
        // No stray negations: a Sub is reconstructed.
        let negs = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Un { op: UnOp::Neg, .. }))
            .count();
        assert_eq!(negs, 0, "{f}");
    }

    #[test]
    fn distribution_of_low_ranked_multiplier() {
        // The paper's example: a + b*((c+d)+e) where a,b,c,d are rank-1
        // (parameters) and e is loop-variant. Distribution must split
        // b*(c+d) (hoistable) from b*e.
        // Build: loop computing acc += a + b*((c+d)+e) with e = loop var.
        let mut b = FunctionBuilder::new("dist", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let bv = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let d = b.param(Ty::Int);
        let n = b.param(Ty::Int);
        let e = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(e, z);
        b.copy_to(acc, z);
        let g = b.bin(BinOp::CmpGe, Ty::Int, e, n);
        b.branch(g, exit, body);
        b.switch_to(body);
        let cd = b.bin(BinOp::Add, Ty::Int, c, d);
        let cde = b.bin(BinOp::Add, Ty::Int, cd, e);
        let prod = b.bin(BinOp::Mul, Ty::Int, bv, cde);
        let sum = b.bin(BinOp::Add, Ty::Int, a, prod);
        let acc2 = b.bin(BinOp::Add, Ty::Int, acc, sum);
        b.copy_to(acc, acc2);
        let one = b.loadi(Const::Int(1));
        let e2 = b.bin(BinOp::Add, Ty::Int, e, one);
        b.copy_to(e, e2);
        let cc = b.bin(BinOp::CmpLt, Ty::Int, e, n);
        b.branch(cc, body, exit);
        b.switch_to(exit);
        b.ret(Some(acc));
        let orig = b.finish();

        let mut f = orig.clone();
        reassociate(&mut f, ReassocOptions { distribute: true });
        assert!(f.verify().is_ok());
        // Distribution creates two multiplies per materialized body tree:
        // b×(c+d) — hoistable — and b×e. (Block ids shift under edge
        // splitting, so scan the whole function.)
        let _ = body;
        let mul_by_b = f
            .blocks
            .iter()
            .flat_map(|blk| &blk.insts)
            .filter(|i| {
                matches!(i, Inst::Bin { op: BinOp::Mul, lhs, rhs, .. } if *lhs == bv || *rhs == bv)
            })
            .count();
        assert!(mul_by_b >= 2, "partial distribution splits the product: {f}");
        // Semantics: acc = sum over e of (a + b*((c+d)+e)).
        let args =
            [Value::Int(2), Value::Int(3), Value::Int(4), Value::Int(5), Value::Int(4)];
        assert_eq!(run_fn(&orig, "dist", &args).0, run_fn(&f, "dist", &args).0);
    }

    #[test]
    fn no_distribution_without_rank_gap() {
        // b*(c+d) with all ranks equal: distribution must NOT fire
        // ("a complete distribution would result in extra multiplications
        // without allowing any additional code motion").
        let mut b = FunctionBuilder::new("nd", Some(Ty::Int));
        let bv = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let d = b.param(Ty::Int);
        let cd = b.bin(BinOp::Add, Ty::Int, c, d);
        let p = b.bin(BinOp::Mul, Ty::Int, bv, cd);
        b.ret(Some(p));
        let mut f = b.finish();
        reassociate(&mut f, ReassocOptions { distribute: true });
        let muls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1, "{f}");
    }

    #[test]
    fn forward_propagation_expands_code() {
        // A shared subexpression used at two sinks is duplicated —
        // Table 2's expansion effect.
        let mut b = FunctionBuilder::new("x", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let q = b.param(Ty::Int);
        let s = b.bin(BinOp::Add, Ty::Int, p, q);
        let t = b.bin(BinOp::Mul, Ty::Int, s, s);
        b.store(Ty::Int, p, t);
        b.store(Ty::Int, q, t);
        b.ret(Some(t));
        let mut f = b.finish();
        let stats = reassociate(&mut f, ReassocOptions::default());
        assert!(stats.ops_after > stats.ops_before, "{stats:?}: {f}");
        assert!(stats.expansion() > 1.0);
    }

    #[test]
    fn partially_dead_expression_moves_to_use() {
        // §4.2 forward-propagation discussion inverted: n = j + k computed
        // on the path where it is unused becomes dead and vanishes.
        let mut b = FunctionBuilder::new("pd", Some(Ty::Int));
        let j = b.param(Ty::Int);
        let k = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        // n = j + k before the branch, used only in the then-arm.
        let sum = b.bin(BinOp::Add, Ty::Int, j, k);
        b.copy_to(n, sum);
        b.branch(p, t, e);
        b.switch_to(t);
        b.ret(Some(n));
        b.switch_to(e);
        b.ret(Some(j));
        let orig = b.finish();
        let mut f = orig.clone();
        reassociate(&mut f, ReassocOptions::default());
        assert!(f.verify().is_ok());
        // The add now sits only on the then path (at the copy's sink the
        // tree is materialized; entry has the copy... the copy's source
        // tree lands before the copy, which is in the entry). Forward
        // propagation alone doesn't split the copy — but the expression
        // instructions were consumed into the copy's tree, so the *add*
        // count stays 1 and semantics hold on both paths.
        for pv in [0i64, 1] {
            let args = [Value::Int(3), Value::Int(4), Value::Int(pv)];
            assert_eq!(run_fn(&orig, "pd", &args).0, run_fn(&f, "pd", &args).0);
        }
    }

    #[test]
    fn loads_calls_variables_are_leaves() {
        let mut b = FunctionBuilder::new("lv", Some(Ty::Float));
        let p = b.param(Ty::Int);
        let v = b.load(Ty::Float, p);
        let s = b.call("sqrt", vec![v], Ty::Float);
        let t = b.bin(BinOp::Add, Ty::Float, v, s);
        b.ret(Some(t));
        let mut f = b.finish();
        reassociate(&mut f, ReassocOptions::default());
        assert!(f.verify().is_ok());
        // Exactly one load and one call remain.
        let loads =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Load { .. })).count();
        let calls =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Call { .. })).count();
        assert_eq!((loads, calls), (1, 1));
    }

    #[test]
    fn min_max_and_logicals_flatten() {
        // max(max(a, b), c) and (a & b) & c reorder without changing value.
        let mut b = FunctionBuilder::new("mm", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let bb = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let m1 = b.bin(BinOp::Max, Ty::Int, a, bb);
        let m2 = b.bin(BinOp::Max, Ty::Int, m1, c);
        let a1 = b.bin(BinOp::And, Ty::Int, a, bb);
        let a2 = b.bin(BinOp::And, Ty::Int, a1, c);
        let r = b.bin(BinOp::Xor, Ty::Int, m2, a2);
        b.ret(Some(r));
        let orig = b.finish();
        let mut f = orig.clone();
        reassociate(&mut f, ReassocOptions::default());
        let args = [Value::Int(9), Value::Int(-3), Value::Int(14)];
        assert_eq!(run_fn(&orig, "mm", &args).0, run_fn(&f, "mm", &args).0);
    }

    #[test]
    fn division_not_rewritten() {
        // §3.1: "we avoid rewriting x/y as x × 1/y".
        let mut b = FunctionBuilder::new("dv", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let y = b.param(Ty::Float);
        let q = b.bin(BinOp::Div, Ty::Float, x, y);
        b.ret(Some(q));
        let mut f = b.finish();
        reassociate(&mut f, ReassocOptions { distribute: true });
        let divs =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })).count();
        assert_eq!(divs, 1);
        let muls =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })).count();
        assert_eq!(muls, 0);
    }
}
