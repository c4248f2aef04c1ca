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

/// How a register is defined, as forward propagation sees it.
#[derive(Copy, Clone, Debug)]
enum Def {
    /// No parameter or instruction defines the register (yet).
    Undefined,
    /// A variable: a parameter, a register defined more than once, or the
    /// result of a load, call or copy. It stays a leaf of every tree.
    Opaque,
    /// The single definition `loadi c`.
    Num(Const),
    /// The single definition `op.ty src`.
    Un(UnOp, Ty, Reg),
    /// The single definition `op.ty lhs, rhs`.
    Bin(BinOp, Ty, Reg, Reg),
}

impl Def {
    /// The definition `inst` gives its destination, were it the only one.
    fn of(inst: &Inst) -> Def {
        match *inst {
            Inst::LoadI { value, .. } => Def::Num(value),
            Inst::Un { op, ty, src, .. } => Def::Un(op, ty, src),
            Inst::Bin { op, ty, lhs, rhs, .. } => Def::Bin(op, ty, lhs, rhs),
            _ => Def::Opaque,
        }
    }

    /// Is the register a tree node (rather than a leaf)?
    fn is_expression(self) -> bool {
        matches!(self, Def::Num(_) | Def::Un(..) | Def::Bin(..))
    }
}

/// Index of a [`Node`] in [`Forwarder::nodes`].
type NodeId = u32;

/// A node of the expression tree rooted at a sink operand. Every node is
/// pushed after its children, so children have smaller ids than their
/// parents and ascending id order is a bottom-up order.
#[derive(Copy, Clone, Debug)]
enum Node {
    /// An opaque leaf: parameter, φ-variable, load or call result.
    Leaf(Reg),
    /// A constant (rank 0).
    Num(Const),
    /// A unary operator.
    Un(UnOp, Ty, NodeId),
    /// A binary operator (only non-associative ones after flattening).
    Bin(BinOp, Ty, NodeId, NodeId),
    /// A flattened associative operator over the `len ≥ 2` operands
    /// `terms[start..start + len]`. For `Add`, each operand carries a sign
    /// (Frailey's `x - y = x + (-y)` rewrite).
    Nary(BinOp, Ty, u32, u32),
}

/// A step of the explicit-stack flattening walk (see [`Forwarder::flatten`]).
#[derive(Copy, Clone, Debug)]
enum Flat {
    /// Push the flattened form of a node onto `ids`.
    Node(NodeId),
    /// Gather the operands of an `op` cluster below a node into `gathered`,
    /// signs flipped if the flag is set.
    Gather(BinOp, NodeId, bool),
    /// Move the top of `ids` into `gathered` as an operand with this sign.
    Term(bool),
    /// Apply a unary operator to the top of `ids`.
    Un(UnOp, Ty),
    /// Negate the top of `ids`.
    Neg(Ty),
    /// Apply a binary operator to the two tops of `ids`.
    Bin(BinOp, Ty),
    /// Make an n-ary node of the operands gathered above this mark.
    Nary(BinOp, Ty, u32),
}

/// Marks a node that no rewrite has reached in [`Forwarder::distribute`].
const DEAD: NodeId = NodeId::MAX;
/// Marks a node of the tree being rewritten, not rewritten yet.
const LIVE: NodeId = NodeId::MAX - 1;

/// Forward propagation's state for one [`run`] call. Every tree lives in
/// one node arena, cleared after each sink, and every walk over a tree
/// uses an explicit stack or ascending id order, so neither the number of
/// allocations nor the depth of the call stack grows with a tree's size.
struct Forwarder<'a> {
    ranks: &'a [u32],
    options: ReassocOptions,
    /// How each register is defined. While a register's tree is being
    /// built, its entry reads [`Def::Opaque`] (the definition waits on the
    /// walk's stack), so a register met again on its own expansion path
    /// becomes a leaf.
    defs: Vec<Def>,
    /// The current sink's tree, each node with its rank: constants 0,
    /// leaves from the rank table, operators the max over their children.
    nodes: Vec<(Node, u32)>,
    /// Operand lists of the `Nary` nodes.
    terms: Vec<(NodeId, bool)>,
    /// Tree building's walk: a register to expand, or (with the definition
    /// it parked) one whose operands are built.
    expand: Vec<(Reg, Option<Def>)>,
    /// Flattening's walk.
    flat: Vec<Flat>,
    /// Finished subtrees of the current walk; while distributing, the
    /// products of one sum's rank groups.
    ids: Vec<NodeId>,
    /// Operands of the clusters being flattened, innermost last.
    gathered: Vec<(NodeId, bool)>,
    /// Per node, its rewritten id (or [`LIVE`]/[`DEAD`]) while distributing.
    map: Vec<NodeId>,
    /// Distinct rank levels of the sum being distributed over.
    levels: Vec<u32>,
    /// Emission's walk: a node and how many of its children are emitted.
    emitting: Vec<(NodeId, u32)>,
    /// Registers holding the emitted subtrees.
    regs: Vec<Reg>,
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
    // A register defined more than once cannot be a tree node (it is a
    // variable), and a parameter counts as a definition: SSA renaming never
    // redefines one, but it does not reach unreachable blocks, and `run`
    // accepts arbitrary verified input.
    let mut defs = vec![Def::Undefined; f.reg_count()];
    let mut define = |d: Reg, def: Def| {
        let slot = &mut defs[d.index()];
        *slot = if matches!(slot, Def::Undefined) { def } else { Def::Opaque };
    };
    for &p in &f.params {
        define(p, Def::Opaque);
    }
    for inst in f.blocks.iter().flat_map(|b| &b.insts) {
        if let Some(d) = inst.dst() {
            define(d, Def::of(inst));
        }
    }

    // Size the arena and the stacks once for the whole call, so that a tree
    // no bigger than the function grows none of them: every walk keeps at
    // most a few entries per level of a tree, and no level repeats a
    // register.
    let size = f.inst_count() + 16;
    let mut fw = Forwarder {
        ranks,
        options,
        defs,
        nodes: Vec::with_capacity(3 * size),
        terms: Vec::with_capacity(2 * size),
        expand: Vec::with_capacity(2 * size),
        flat: Vec::with_capacity(3 * size),
        ids: Vec::with_capacity(size),
        gathered: Vec::with_capacity(2 * size),
        map: Vec::new(),
        levels: Vec::new(),
        emitting: Vec::with_capacity(2 * size),
        regs: Vec::with_capacity(size),
        out: Vec::new(),
        dists: 0,
    };
    // Each block is rewritten into `fw.out` and moved out of it into a
    // vector of its exact length: the optimized function keeps no slack.
    let mut group: Vec<Inst> = Vec::new();
    for bi in 0..f.blocks.len() {
        meter.tick(f)?;
        let mut insts = std::mem::take(&mut f.blocks[bi].insts);
        fw.out.reserve(insts.len());
        // The trailing run of copies is a *parallel* copy group created by
        // φ-destruction. Its trees must all be materialized before any of
        // the copies writes a φ-name, or a tree whose leaf is an earlier
        // copy's destination would read the new value.
        let tail = insts.iter().rev().take_while(|i| matches!(i, Inst::Copy { .. })).count();
        group.extend(insts.drain(insts.len() - tail..));
        for mut inst in insts.drain(..) {
            match &mut inst {
                // Pure expressions disappear; sinks rematerialize them.
                Inst::Bin { .. } | Inst::Un { .. } | Inst::LoadI { .. } => continue,
                Inst::Copy { src, .. } => *src = fw.materialize(f, *src),
                Inst::Load { addr, .. } => *addr = fw.materialize(f, *addr),
                Inst::Store { addr, value, .. } => {
                    *addr = fw.materialize(f, *addr);
                    *value = fw.materialize(f, *value);
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
        for inst in &mut group {
            if let Inst::Copy { src, .. } = inst {
                *src = fw.materialize(f, *src);
            }
        }
        let mut term =
            std::mem::replace(&mut f.blocks[bi].term, Terminator::Return { value: None });
        match &mut term {
            Terminator::Branch { cond, .. } => *cond = fw.materialize(f, *cond),
            Terminator::Return { value: Some(v) } => *v = fw.materialize(f, *v),
            _ => {}
        }
        fw.out.append(&mut group);
        f.blocks[bi].term = term;
        f.blocks[bi].insts = fw.out.drain(..).collect();
    }
    Ok(fw.dists)
}

impl Forwarder<'_> {
    /// How `r` is defined. Registers the rewrite allocates have no
    /// definition.
    fn def(&self, r: Reg) -> Def {
        self.defs.get(r.index()).copied().unwrap_or(Def::Undefined)
    }

    /// Materialize the value of `r` at the current point: returns `r`
    /// itself for leaves, or emits the reassociated tree and returns the
    /// register holding its root.
    fn materialize(&mut self, f: &mut Function, r: Reg) -> Reg {
        if !self.def(r).is_expression() {
            return r; // leaf: variable, parameter, load/call result
        }
        let tree = self.build(r);
        let tree = self.flatten(tree);
        let tree = if self.options.distribute { self.distribute(tree) } else { tree };
        let root = self.emit(f, tree);
        self.nodes.clear();
        self.terms.clear();
        root
    }

    /// Push `node`, computing its rank; returns its id.
    fn push(&mut self, node: Node) -> NodeId {
        let rank = match node {
            Node::Leaf(r) => self.ranks.get(r.index()).copied().unwrap_or(u32::MAX),
            Node::Num(_) => 0,
            Node::Un(_, _, x) => self.rank(x),
            Node::Bin(_, _, l, r) => self.rank(l).max(self.rank(r)),
            Node::Nary(_, _, start, len) => {
                let terms = &self.terms[start as usize..(start + len) as usize];
                terms.iter().map(|&(t, _)| self.rank(t)).max().unwrap_or(0)
            }
        };
        self.nodes.push((node, rank));
        (self.nodes.len() - 1) as NodeId
    }

    fn node(&self, id: NodeId) -> Node {
        self.nodes[id as usize].0
    }

    fn rank(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].1
    }

    /// `-x`, folding a double negation and negated constants.
    fn neg_of(&mut self, x: NodeId, ty: Ty) -> NodeId {
        match self.node(x) {
            Node::Un(UnOp::Neg, _, inner) => inner,
            Node::Num(Const::Int(v)) => self.push(Node::Num(Const::Int(v.wrapping_neg()))),
            Node::Num(Const::Float(v)) => self.push(Node::Num(Const::Float(-v))),
            _ => self.push(Node::Un(UnOp::Neg, ty, x)),
        }
    }

    /// Build the expression tree of `r` through the single definitions,
    /// normalized as it is built (Frailey): `x - y → x + (-y)`, `-(-x) →
    /// x`, negated constants folded. Operands are built left to right,
    /// each before its operator.
    fn build(&mut self, r: Reg) -> NodeId {
        self.expand.push((r, None));
        while let Some((r, parked)) = self.expand.pop() {
            if let Some(def) = parked {
                self.defs[r.index()] = def;
                let node = match def {
                    Def::Un(UnOp::Neg, ty, _) => {
                        let x = self.ids.pop().expect("operand built");
                        self.neg_of(x, ty)
                    }
                    Def::Un(op, ty, _) => {
                        let x = self.ids.pop().expect("operand built");
                        self.push(Node::Un(op, ty, x))
                    }
                    Def::Bin(op, ty, ..) => {
                        let rhs = self.ids.pop().expect("operand built");
                        let lhs = self.ids.pop().expect("operand built");
                        if op == BinOp::Sub {
                            let rhs = self.neg_of(rhs, ty);
                            self.push(Node::Bin(BinOp::Add, ty, lhs, rhs))
                        } else {
                            self.push(Node::Bin(op, ty, lhs, rhs))
                        }
                    }
                    _ => unreachable!("only operators park their definition"),
                };
                self.ids.push(node);
                continue;
            }
            let def = self.def(r);
            let node = match def {
                Def::Num(c) => self.push(Node::Num(c)),
                Def::Un(_, _, src) => {
                    self.defs[r.index()] = Def::Opaque;
                    self.expand.extend([(r, Some(def)), (src, None)]);
                    continue;
                }
                Def::Bin(_, _, lhs, rhs) => {
                    self.defs[r.index()] = Def::Opaque;
                    self.expand.extend([(r, Some(def)), (rhs, None), (lhs, None)]);
                    continue;
                }
                Def::Undefined | Def::Opaque => self.push(Node::Leaf(r)),
            };
            self.ids.push(node);
        }
        self.ids.pop().expect("tree built")
    }

    /// Flatten nested associative applications into n-ary nodes. A negation
    /// over a sum distributes across its terms; a negated term of a sum flips
    /// its sign bit.
    ///
    /// The walk gathers each cluster of one associative operator top-down,
    /// carrying the sign in, so every operand is written once, however deep
    /// the cluster. `x` must be a built (normalized) tree: it has no double
    /// negation and no negated constant.
    fn flatten(&mut self, x: NodeId) -> NodeId {
        self.flat.push(Flat::Node(x));
        while let Some(step) = self.flat.pop() {
            match step {
                Flat::Node(x) => match self.node(x) {
                    Node::Leaf(_) | Node::Num(_) => self.ids.push(x),
                    Node::Bin(op, ty, l, r) if op.is_associative() => {
                        let mark = self.gathered.len() as u32;
                        self.flat.extend([
                            Flat::Nary(op, ty, mark),
                            Flat::Gather(op, r, false),
                            Flat::Gather(op, l, false),
                        ]);
                    }
                    Node::Bin(op, ty, l, r) => {
                        self.flat.extend([Flat::Bin(op, ty), Flat::Node(r), Flat::Node(l)]);
                    }
                    Node::Un(UnOp::Neg, ty, inner) => match self.node(inner) {
                        // -(a + b) = (-a) + (-b): keeps sums flat under negation.
                        Node::Bin(BinOp::Add, sum_ty, ..) => {
                            let mark = self.gathered.len() as u32;
                            self.flat.extend([
                                Flat::Nary(BinOp::Add, sum_ty, mark),
                                Flat::Gather(BinOp::Add, inner, true),
                            ]);
                        }
                        _ => self.flat.extend([Flat::Neg(ty), Flat::Node(inner)]),
                    },
                    Node::Un(op, ty, inner) => {
                        self.flat.extend([Flat::Un(op, ty), Flat::Node(inner)])
                    }
                    Node::Nary(..) => unreachable!("built trees have no n-ary nodes"),
                },
                Flat::Gather(op, x, neg) => match self.node(x) {
                    Node::Bin(o, _, l, r) if o == op => {
                        self.flat.extend([Flat::Gather(op, r, neg), Flat::Gather(op, l, neg)]);
                    }
                    Node::Un(UnOp::Neg, _, inner) if op == BinOp::Add => {
                        debug_assert!(!matches!(self.node(inner), Node::Num(_)), "normalized");
                        self.flat.push(Flat::Gather(op, inner, !neg));
                    }
                    // Only sums carry signs: `neg` stays false for the
                    // other associative operators.
                    _ => self.flat.extend([Flat::Term(neg), Flat::Node(x)]),
                },
                Flat::Term(neg) => {
                    let t = self.ids.pop().expect("operand flattened");
                    self.gathered.push((t, neg));
                }
                Flat::Un(op, ty) => {
                    let x = self.ids.pop().expect("operand flattened");
                    let node = self.push(Node::Un(op, ty, x));
                    self.ids.push(node);
                }
                Flat::Neg(ty) => {
                    let x = self.ids.pop().expect("operand flattened");
                    let node = self.neg_of(x, ty);
                    self.ids.push(node);
                }
                Flat::Bin(op, ty) => {
                    let r = self.ids.pop().expect("operand flattened");
                    let l = self.ids.pop().expect("operand flattened");
                    let node = self.push(Node::Bin(op, ty, l, r));
                    self.ids.push(node);
                }
                Flat::Nary(op, ty, mark) => {
                    let start = self.terms.len() as u32;
                    self.terms.extend(self.gathered.drain(mark as usize..));
                    let len = self.terms.len() as u32 - start;
                    debug_assert!(len >= 2);
                    let node = self.push(Node::Nary(op, ty, start, len));
                    self.ids.push(node);
                }
            }
        }
        self.ids.pop().expect("tree flattened")
    }

    /// Distribute a low-ranked multiplier over the *rank groups* of a
    /// higher-ranked sum (paper §3.1: partial distribution; a complete
    /// distribution "would result in extra multiplications without allowing
    /// any additional code motion"). Applied bottom-up: the nodes of the
    /// tree are rewritten in ascending id order. Each distribution
    /// performed increments the pass counter `distributions`.
    fn distribute(&mut self, root: NodeId) -> NodeId {
        // Mark the tree's nodes: parents come after their children, so one
        // descending sweep reaches every node from the root.
        let n = root as usize + 1;
        self.map.clear();
        self.map.resize(n, DEAD);
        self.map[root as usize] = LIVE;
        for id in (0..n).rev() {
            if self.map[id] == DEAD {
                continue;
            }
            match self.nodes[id].0 {
                Node::Un(_, _, x) => self.map[x as usize] = LIVE,
                Node::Bin(_, _, l, r) => {
                    self.map[l as usize] = LIVE;
                    self.map[r as usize] = LIVE;
                }
                Node::Nary(_, _, start, len) => {
                    for &(t, _) in &self.terms[start as usize..(start + len) as usize] {
                        self.map[t as usize] = LIVE;
                    }
                }
                Node::Leaf(_) | Node::Num(_) => {}
            }
        }
        for id in 0..n {
            if self.map[id] == LIVE {
                self.map[id] = self.distribute_node(id as NodeId);
            }
        }
        self.map[root as usize]
    }

    /// The rewrite of one node whose children are rewritten.
    fn distribute_node(&mut self, id: NodeId) -> NodeId {
        let mapped = |fw: &Self, x: NodeId| fw.map[x as usize];
        match self.node(id) {
            Node::Leaf(_) | Node::Num(_) => id,
            Node::Un(op, ty, x) => self.push(Node::Un(op, ty, mapped(self, x))),
            Node::Bin(op, ty, l, r) => {
                let (l, r) = (mapped(self, l), mapped(self, r));
                self.push(Node::Bin(op, ty, l, r))
            }
            Node::Nary(op, ty, start, len) => {
                let factors = self.terms.len() as u32;
                for i in start..start + len {
                    let (t, neg) = self.terms[i as usize];
                    self.terms.push((mapped(self, t), neg));
                }
                if op == BinOp::Mul {
                    self.distribute_product(ty, factors, len)
                } else {
                    self.push(Node::Nary(op, ty, factors, len))
                }
            }
        }
    }

    /// Distribute the product of the `len` rewritten factors at
    /// `terms[start..]`, if exactly one is a sum and the rest rank strictly
    /// lower than it.
    fn distribute_product(&mut self, ty: Ty, start: u32, len: u32) -> NodeId {
        let factors = start as usize..(start + len) as usize;
        let is_sum =
            |fw: &Self, i: usize| matches!(fw.node(fw.terms[i].0), Node::Nary(BinOp::Add, ..));
        let mut sums = factors.clone().filter(|&i| is_sum(self, i));
        let (Some(sum_at), None) = (sums.next(), sums.next()) else {
            return self.push(Node::Nary(BinOp::Mul, ty, start, len));
        };
        let multiplier_rank = factors
            .clone()
            .filter(|&i| i != sum_at)
            .map(|i| self.rank(self.terms[i].0))
            .max()
            .unwrap_or(0);
        let sum = self.terms[sum_at].0;
        let Node::Nary(_, _, sum_start, sum_len) = self.node(sum) else { unreachable!() };
        if multiplier_rank >= self.rank(sum) {
            return self.push(Node::Nary(BinOp::Mul, ty, start, len));
        }
        // Group the sum's terms: everything at or below the multiplier's
        // rank forms one group; each higher rank its own, in order of first
        // appearance.
        let sum_terms = sum_start as usize..(sum_start + sum_len) as usize;
        let level = |fw: &Self, i: usize| fw.rank(fw.terms[i].0).max(multiplier_rank);
        self.levels.clear();
        for i in sum_terms.clone() {
            let l = level(self, i);
            if !self.levels.contains(&l) {
                self.levels.push(l);
            }
        }
        self.dists += 1;
        // One product per group: the other factors (shared, not copied:
        // nothing rewrites a node in place but emission's sort, which is
        // idempotent) times the group.
        let products = self.ids.len();
        for g in 0..self.levels.len() {
            let group = self.terms.len();
            for i in sum_terms.clone() {
                if level(self, i) == self.levels[g] {
                    self.terms.push(self.terms[i]);
                }
            }
            let inner = match self.terms.len() - group {
                1 => match self.terms[group] {
                    (t, true) => self.push(Node::Un(UnOp::Neg, ty, t)),
                    (t, false) => t,
                },
                n => self.push(Node::Nary(BinOp::Add, ty, group as u32, n as u32)),
            };
            let fs = self.terms.len() as u32;
            for i in factors.clone().filter(|&i| i != sum_at) {
                self.terms.push(self.terms[i]);
            }
            self.terms.push((inner, false));
            let product = self.push(Node::Nary(BinOp::Mul, ty, fs, len));
            self.ids.push(product);
        }
        if self.ids.len() - products == 1 {
            return self.ids.pop().expect("one product");
        }
        let sum_start = self.terms.len() as u32;
        self.terms.extend(self.ids.drain(products..).map(|p| (p, false)));
        let n = self.terms.len() as u32 - sum_start;
        self.push(Node::Nary(BinOp::Add, ty, sum_start, n))
    }

    /// Emit three-address code for the tree at `root`, operands left to
    /// right and each before its operator; returns the result register.
    /// Each n-ary node's operands are stably sorted by rank (low first)
    /// just before they are emitted, so constants and loop-invariant
    /// operands group together. Sums are emitted with their subtractions
    /// reconstructed (§3.1 "we rely on a later pass … to reconstruct the
    /// original operations" — done eagerly here since `x + (-y)` and
    /// `x - y` are bit-identical in IEEE).
    fn emit(&mut self, f: &mut Function, root: NodeId) -> Reg {
        self.emitting.push((root, 0));
        while let Some((id, done)) = self.emitting.pop() {
            let value = match self.node(id) {
                Node::Leaf(r) => r,
                Node::Num(c) => {
                    let dst = f.new_reg(c.ty());
                    self.out.push(Inst::LoadI { dst, value: c });
                    dst
                }
                Node::Un(op, ty, inner) => {
                    if done == 0 {
                        self.emitting.extend([(id, 1), (inner, 0)]);
                        continue;
                    }
                    let src = self.regs.pop().expect("operand emitted");
                    let dst = f.new_reg(op.result_ty(ty));
                    self.out.push(Inst::Un { op, ty, dst, src });
                    dst
                }
                Node::Bin(op, ty, l, r) => {
                    if done < 2 {
                        let next = if done == 0 { l } else { r };
                        self.emitting.extend([(id, done + 1), (next, 0)]);
                        continue;
                    }
                    let rhs = self.regs.pop().expect("operand emitted");
                    let lhs = self.regs.pop().expect("operand emitted");
                    let dst = f.new_reg(op.result_ty(ty));
                    self.out.push(Inst::Bin { op, ty, dst, lhs, rhs });
                    dst
                }
                Node::Nary(op, ty, start, len) => {
                    let at = start as usize;
                    if done == 0 {
                        let nodes = &self.nodes;
                        let terms = &mut self.terms[at..at + len as usize];
                        terms.sort_by_key(|&(t, _)| nodes[t as usize].1);
                    } else if done == 1 {
                        if op == BinOp::Add && self.terms[at].1 {
                            let src = self.regs.pop().expect("operand emitted");
                            let dst = f.new_reg(ty);
                            self.out.push(Inst::Un { op: UnOp::Neg, ty, dst, src });
                            self.regs.push(dst);
                        }
                    } else {
                        let rhs = self.regs.pop().expect("operand emitted");
                        let lhs = self.regs.pop().expect("operand emitted");
                        let dst = f.new_reg(ty);
                        let op = match (op, self.terms[at + done as usize - 1].1) {
                            (BinOp::Add, true) => BinOp::Sub,
                            (op, _) => op,
                        };
                        self.out.push(Inst::Bin { op, ty, dst, lhs, rhs });
                        self.regs.push(dst);
                    }
                    if done < len {
                        self.emitting
                            .extend([(id, done + 1), (self.terms[at + done as usize].0, 0)]);
                    }
                    continue;
                }
            };
            self.regs.push(value);
        }
        self.regs.pop().expect("tree emitted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Reassociate;
    use crate::Pass;
    use epre_interp::{Interpreter, Value};
    use epre_ir::{FunctionBuilder, Module};

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
                        if (*lhs == f.params[0] || *rhs == f.params[0]) =>
                    {
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
        let args = [Value::Int(2), Value::Int(3), Value::Int(4), Value::Int(5), Value::Int(4)];
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
        let loads = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
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
        let divs = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. }))
            .count();
        assert_eq!(divs, 1);
        let muls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 0);
    }

    #[test]
    fn registers_defined_from_each_other_are_leaves() {
        // Renaming never reaches an unreachable block, so two of its
        // registers can be defined from each other. Each is a leaf where
        // its own expansion meets it again.
        let mut b = FunctionBuilder::new("cyc", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let dead = b.new_block();
        b.ret(Some(p));
        b.switch_to(dead);
        let (x, y) = (b.new_reg(Ty::Int), b.new_reg(Ty::Int));
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: x, lhs: y, rhs: p });
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: y, lhs: x, rhs: p });
        b.ret(Some(y));
        let orig = b.finish();
        for distribute in [false, true] {
            let mut f = orig.clone();
            reassociate(&mut f, ReassocOptions { distribute });
            assert!(f.verify().is_ok(), "{f}");
            assert_eq!(run_fn(&f, "cyc", &[Value::Int(5)]).0, Some(Value::Int(5)));
        }
    }

    #[test]
    fn a_parameter_redefined_in_unreachable_code_stays_a_variable() {
        // Renaming never reaches the unreachable block, so its
        // redefinition of `p` survives SSA. Were `p` not counted as
        // defined, that definition would become the tree of `ret p`.
        let mut b = FunctionBuilder::new("par", Some(Ty::Int));
        let (p, q) = (b.param(Ty::Int), b.param(Ty::Int));
        let dead = b.new_block();
        b.ret(Some(p));
        b.switch_to(dead);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: p, lhs: p, rhs: q });
        b.ret(Some(p));
        let orig = b.finish();
        for distribute in [false, true] {
            let mut f = orig.clone();
            reassociate(&mut f, ReassocOptions { distribute });
            assert!(f.verify().is_ok(), "{f}");
            let args = [Value::Int(5), Value::Int(7)];
            assert_eq!(run_fn(&f, "par", &args).0, Some(Value::Int(5)), "{f}");
        }
    }

    #[test]
    fn a_deep_chain_reassociates_on_a_small_stack() {
        // r{i+1} <- add.i r{i}, r0 in one block: a tree 50,000 operators
        // deep, on a 2 MiB worker-sized stack.
        const N: i64 = 50_000;
        let mut b = FunctionBuilder::new("chain", Some(Ty::Int));
        let r0 = b.param(Ty::Int);
        let mut r = r0;
        for _ in 0..N {
            r = b.bin(BinOp::Add, Ty::Int, r, r0);
        }
        b.ret(Some(r));
        let mut f = b.finish();
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
            Reassociate { distribute: true }.run(&mut f);
            f
        });
        let f = worker.unwrap().join().expect("reassociation finishes");
        assert!(f.verify().is_ok());
        assert_eq!(run_fn(&f, "chain", &[Value::Int(3)]).0, Some(Value::Int(3 * (N + 1))));
    }
}
