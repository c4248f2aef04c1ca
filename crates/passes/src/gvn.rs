//! Partition-based global value numbering and global renaming (§3.2).
//!
//! The paper uses Alpern, Wegman & Zadeck's algorithm: start from the
//! **optimistic** assumption that all values computed by the same operator
//! are equivalent and use the statements of the program to *disprove*
//! equivalences, refining a partition of the SSA names until it stabilizes.
//! Then "rename all values to reflect these equivalences": every
//! congruence class gets one register, which
//!
//! * encodes value equivalence into the name space (two congruent
//!   expressions become *lexically identical*, so PRE sees them),
//! * establishes the §2.2 naming discipline PRE requires (each expression
//!   one name; copies — which after SSA destruction come only from
//!   φ-nodes — target *variable names*).
//!
//! Initial partition keys: constants by value; parameters, loads and calls
//! as singletons (opaque); binary/unary operators by `(op, ty)`;
//! φ-nodes by their block. Commutative operators compare operand classes
//! order-insensitively (a mild strengthening the basic AWZ formulation
//! leaves out; it matters because reassociation sorts operands by rank,
//! not by class). As in the paper, "the names are the only things changed
//! during this phase; no instructions are added, deleted, or moved" —
//! except the φs, which SSA destruction then turns into copies.

use epre_analysis::AnalysisCache;
use epre_ir::{BlockId, Function, Inst, MixMap, Reg};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// What one GVN invocation proved and rewrote: the size of the final
/// congruence partition and how many operations the renaming actually
/// touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GvnStats {
    /// Number of congruence classes in the stabilized partition.
    pub partitions: u64,
    /// Instructions and terminators whose registers the renaming changed
    /// (the paper's "congruent ops renamed").
    pub ops_renamed: u64,
    /// Partition-refinement iterations consumed.
    pub ticks: u64,
}

impl GvnStats {
    /// Did the invocation change the function? Always: the SSA round trip
    /// renames registers even when no classes merge.
    pub fn changed(&self) -> bool {
        true
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("partitions", self.partitions);
        counters.add("ops_renamed", self.ops_renamed);
        counters.add("ticks", self.ticks);
    }
}

/// Run GVN + renaming on `f` under a resource [`Budget`]. The function
/// enters and leaves non-SSA form. The pass rebuilds SSA internally, so
/// it drops every entry of the pipeline's `cache`.
///
/// There is one cooperative checkpoint per partition-refinement iteration
/// (AWZ refinement only ever splits classes, so healthy runs take at most
/// `reg_count` iterations — a budget trip means the refinement is broken
/// or adversarial).
///
/// # Errors
/// [`BudgetExceeded`] when a refinement iteration starts over budget; the
/// function is left in SSA form, un-renamed (callers needing atomicity
/// run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<GvnStats, BudgetExceeded> {
    build_ssa(f, SsaOptions { fold_copies: true });
    let (classes, ticks) = congruence_classes_budgeted(f, budget)?;
    // Classes are numbered densely from zero.
    let partitions = classes.iter().max().map_or(0, |&c| u64::from(c) + 1);
    let ops_renamed = rename(f, &classes);
    dedupe_phis(f);
    destroy_ssa(f);
    f.compact_regs();
    cache.invalidate_all();
    Ok(GvnStats { partitions, ops_renamed, ticks })
}

/// Congruence class of every register of `f` (indexed by register
/// number), as computed by AWZ optimistic partition refinement — the
/// analysis half of [`run`], without the renaming.
///
/// `f` must be in SSA form: the partition keys each register by its
/// unique definition, so a register defined twice would silently keep
/// only its last definition's key. Registers with no definition map to
/// singleton classes. Two registers share a class number exactly when
/// GVN can prove they always hold the same value; this is the raw
/// material for value-based redundancy audits (see `epre-lint`).
pub fn value_classes(f: &Function) -> Vec<u32> {
    congruence_classes(f)
}

/// Initial partition key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum InitKey {
    Const(epre_ir::Const),
    Bin(epre_ir::BinOp, epre_ir::Ty),
    Un(epre_ir::UnOp, epre_ir::Ty),
    Phi(epre_ir::BlockId),
    /// Parameters, loads, calls, copies left in unreachable code, and
    /// registers with no definition: opaque singletons (the payload is the
    /// register).
    Opaque(Reg),
}

/// What refinement needs of a register's definition: the operands whose
/// classes must agree for two congruent registers.
#[derive(Clone, Copy)]
enum Def {
    /// No operands: constants, parameters, loads, calls, unreachable
    /// copies, undefined.
    Leaf,
    /// A binary operator; commutative operands compare as a set.
    Bin { commutative: bool, lhs: Reg, rhs: Reg },
    /// A unary operator.
    Un(Reg),
    /// A φ whose arguments are `phi_args[start..end]`.
    Phi { start: u32, end: u32 },
}

/// Compute the congruence class of every register (indexed by register).
/// Registers with no definition (unused allocations) map to themselves.
fn congruence_classes(f: &Function) -> Vec<u32> {
    match congruence_classes_budgeted(f, &Budget::UNLIMITED) {
        Ok((classes, _)) => classes,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`congruence_classes`] with a cooperative checkpoint per refinement
/// iteration. Also returns the number of refinement iterations consumed.
fn congruence_classes_budgeted(
    f: &Function,
    budget: &Budget,
) -> Result<(Vec<u32>, u64), BudgetExceeded> {
    let mut meter = budget.start(f);
    let nregs = f.reg_count();
    // Gather definitions and initial keys in one scan; each φ's block is
    // the block being scanned. Parameters and undefined registers keep
    // the default: an opaque singleton.
    let mut defs: Vec<Def> = vec![Def::Leaf; nregs];
    let mut keys: Vec<InitKey> = (0..nregs as u32).map(|r| InitKey::Opaque(Reg(r))).collect();
    let mut phi_args: Vec<(BlockId, Reg)> = Vec::new();
    for (bid, block) in f.iter_blocks() {
        for inst in &block.insts {
            let Some(d) = inst.dst() else { continue };
            let (def, key) = match inst {
                Inst::LoadI { value, .. } => (Def::Leaf, InitKey::Const(*value)),
                Inst::Bin { op, ty, lhs, rhs, .. } => (
                    Def::Bin { commutative: op.is_commutative(), lhs: *lhs, rhs: *rhs },
                    InitKey::Bin(*op, *ty),
                ),
                Inst::Un { op, ty, src, .. } => (Def::Un(*src), InitKey::Un(*op, *ty)),
                Inst::Phi { args, .. } => {
                    let start = phi_args.len() as u32;
                    phi_args.extend_from_slice(args);
                    (Def::Phi { start, end: phi_args.len() as u32 }, InitKey::Phi(bid))
                }
                // SSA construction folds the copies of every block its
                // dominator-tree walk reaches; a copy left in an
                // unreachable block never runs, so a singleton is sound.
                Inst::Load { .. } | Inst::Call { .. } | Inst::Copy { .. } => {
                    (Def::Leaf, InitKey::Opaque(d))
                }
                Inst::Store { .. } => unreachable!("stores define nothing"),
            };
            defs[d.index()] = def;
            keys[d.index()] = key;
        }
    }

    // Initial partition: classes numbered in order of first appearance.
    let mut class: Vec<u32> = Vec::with_capacity(nregs);
    {
        let mut key_ids: MixMap<InitKey, u32> = MixMap::default();
        for key in keys {
            let next = key_ids.len() as u32;
            class.push(*key_ids.entry(key).or_insert(next));
        }
    }

    // Refinement to a fixed point: split classes whose members disagree on
    // operand classes. A register's signature is its class plus two
    // operand slots; a φ's second slot holds the interned list of its
    // argument classes.
    const NONE: u32 = u32::MAX;
    let mut sig_ids: MixMap<(u32, u32, u32), u32> = MixMap::default();
    let mut list_ids: MixMap<Vec<u32>, u32> = MixMap::default();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut list: Vec<u32> = Vec::new();
    let mut new_class = vec![0u32; nregs];
    loop {
        meter.tick(f)?;
        sig_ids.clear();
        list_ids.clear();
        for (r, def) in defs.iter().enumerate() {
            let (a, b) = match *def {
                Def::Leaf => (NONE, NONE),
                Def::Bin { commutative, lhs, rhs } => {
                    let (a, b) = (class[lhs.index()], class[rhs.index()]);
                    if commutative && b < a {
                        (b, a)
                    } else {
                        (a, b)
                    }
                }
                Def::Un(src) => (class[src.index()], NONE),
                Def::Phi { start, end } => {
                    // Align by predecessor id so positional comparison is
                    // meaningful across φs of the same block.
                    pairs.clear();
                    pairs.extend(
                        phi_args[start as usize..end as usize]
                            .iter()
                            .map(|&(b, v)| (b.0, class[v.index()])),
                    );
                    pairs.sort_unstable();
                    list.clear();
                    list.extend(pairs.iter().map(|&(_, c)| c));
                    let id = match list_ids.get(list.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = list_ids.len() as u32;
                            list_ids.insert(list.clone(), id);
                            id
                        }
                    };
                    (NONE, id)
                }
            };
            let next = sig_ids.len() as u32;
            new_class[r] = *sig_ids.entry((class[r], a, b)).or_insert(next);
        }
        if new_class == class {
            break;
        }
        std::mem::swap(&mut class, &mut new_class);
    }
    let ticks = meter.ticks();
    Ok((class, ticks))
}

/// Rewrite every definition and use so each class has exactly one
/// register. Returns how many instructions and terminators actually
/// changed.
fn rename(f: &mut Function, class: &[u32]) -> u64 {
    // Representative per class: a parameter if the class has one (the
    // signature must not change), otherwise the lowest-numbered member.
    let n_classes = class.iter().max().map_or(0, |&c| c as usize + 1);
    let mut rep: Vec<Reg> = vec![Reg(0); n_classes];
    for (r, &c) in class.iter().enumerate().rev() {
        rep[c as usize] = Reg(r as u32);
    }
    for &p in &f.params {
        rep[class[p.index()] as usize] = p;
    }
    let map = |r: Reg| rep[class[r.index()] as usize];

    let mut renamed = 0u64;
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            let before = inst.clone();
            inst.map_uses(map);
            if let Some(d) = inst.dst() {
                inst.set_dst(map(d));
            }
            if *inst != before {
                renamed += 1;
            }
        }
        let before = block.term.clone();
        block.term.map_uses(map);
        if block.term != before {
            renamed += 1;
        }
    }
    renamed
}

/// Drop duplicate φs (same destination and arguments) left by renaming.
fn dedupe_phis(f: &mut Function) {
    for block in &mut f.blocks {
        let n = block.phi_count();
        let mut seen: Vec<Inst> = Vec::new();
        let mut keep = vec![true; block.insts.len()];
        for (inst, k) in block.insts.iter().zip(&mut keep).take(n) {
            if seen.contains(inst) {
                *k = false;
            } else {
                seen.push(inst.clone());
            }
        }
        let mut it = keep.iter();
        block.insts.retain(|_| *it.next().unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::Gvn, Pass};
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// The §2.2 example: x = y + z; a = y; b = a + z. After copy folding
    /// `a` is `y`, so `a + z` is congruent to `y + z`; renaming gives both
    /// computations the same name and PRE can see the redundancy.
    #[test]
    fn paper_2_2_naming_example() {
        let mut b = FunctionBuilder::new("n", Some(Ty::Int));
        let y = b.param(Ty::Int);
        let z = b.param(Ty::Int);
        let t1 = b.bin(BinOp::Add, Ty::Int, y, z); // x = y + z
        let a = b.copy(y); // a = y
        let t2 = b.bin(BinOp::Add, Ty::Int, a, z); // b = a + z
        let s = b.bin(BinOp::Mul, Ty::Int, t1, t2);
        b.ret(Some(s));
        let mut f = b.finish();
        Gvn.run(&mut f);
        let adds: Vec<&Inst> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        assert_eq!(adds[0], adds[1], "congruent expressions renamed identically: {f}");
        assert!(f.verify().is_ok());
    }

    #[test]
    fn constants_by_value() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let c1 = b.loadi(Const::Int(7));
        let c2 = b.loadi(Const::Int(7));
        let c3 = b.loadi(Const::Int(8));
        let s = b.bin(BinOp::Add, Ty::Int, c1, c2);
        let t = b.bin(BinOp::Add, Ty::Int, s, c3);
        b.ret(Some(t));
        let mut f = b.finish();
        Gvn.run(&mut f);
        let loadis: Vec<&Inst> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::LoadI { .. }))
            .collect();
        // The two 7s share a destination register; 8 differs.
        let d7: Vec<_> = loadis
            .iter()
            .filter(|i| matches!(i, Inst::LoadI { value: Const::Int(7), .. }))
            .map(|i| i.dst())
            .collect();
        assert_eq!(d7[0], d7[1]);
        let d8 = loadis
            .iter()
            .find(|i| matches!(i, Inst::LoadI { value: Const::Int(8), .. }))
            .unwrap()
            .dst();
        assert_ne!(d7[0], d8);
    }

    #[test]
    fn loads_are_opaque() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let v1 = b.load(Ty::Int, p);
        let v2 = b.load(Ty::Int, p);
        let s = b.bin(BinOp::Sub, Ty::Int, v1, v2);
        b.ret(Some(s));
        let mut f = b.finish();
        Gvn.run(&mut f);
        // The two loads keep distinct names (memory may have changed).
        let loads: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .map(|i| i.dst())
            .collect();
        assert_ne!(loads[0], loads[1]);
    }

    #[test]
    fn optimistic_congruence_through_loop_phis() {
        // Two loop variables with identical structure: i = j always.
        //   i = 0; j = 0; while (p) { i = i + 1; j = j + 1 }
        // Optimistic GVN proves i ≅ j; pessimistic approaches cannot.
        let mut b = FunctionBuilder::new("o", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let j = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        b.copy_to(j, z);
        b.jump(head);
        b.switch_to(head);
        b.branch(p, body, exit);
        b.switch_to(body);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        let one2 = b.loadi(Const::Int(1));
        let j2 = b.bin(BinOp::Add, Ty::Int, j, one2);
        b.copy_to(j, j2);
        b.jump(head);
        b.switch_to(exit);
        let d = b.bin(BinOp::Sub, Ty::Int, i, j);
        b.ret(Some(d));
        let mut f = b.finish();
        Gvn.run(&mut f);
        // After GVN the subtraction's operands are the same register.
        let sub = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find(|i| matches!(i, Inst::Bin { op: BinOp::Sub, .. }))
            .unwrap();
        let u: Vec<_> = sub.uses().collect();
        assert_eq!(u[0], u[1], "i and j proven congruent: {f}");
        // Semantics preserved.
        let mut m = epre_ir::Module::new();
        m.functions.push(f);
        let mut it = epre_interp::Interpreter::new(&m);
        assert_eq!(
            it.run("o", &[epre_interp::Value::Int(0)]).unwrap(),
            Some(epre_interp::Value::Int(0))
        );
    }

    #[test]
    fn commutative_operands_congruent() {
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Add, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        Gvn.run(&mut f);
        let adds: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .map(|i| i.dst())
            .collect();
        assert_eq!(adds[0], adds[1]);
    }

    #[test]
    fn non_commutative_order_matters() {
        let mut b = FunctionBuilder::new("nc", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Sub, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Sub, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        Gvn.run(&mut f);
        let subs: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Sub, .. }))
            .map(|i| i.dst())
            .collect();
        assert_ne!(subs[0], subs[1]);
    }

    #[test]
    fn preserves_semantics_on_branchy_code() {
        // x = a+b in one arm; y = a+b in the other; use after join.
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        let s1 = b.bin(BinOp::Add, Ty::Int, a, c);
        b.copy_to(x, s1);
        b.jump(j);
        b.switch_to(e);
        let s2 = b.bin(BinOp::Mul, Ty::Int, a, c);
        b.copy_to(x, s2);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        Gvn.run(&mut f);
        assert!(f.verify().is_ok());
        let mut m = epre_ir::Module::new();
        m.functions.push(f);
        for p in [0i64, 1] {
            let mut it = epre_interp::Interpreter::new(&m);
            let r = it
                .run(
                    "s",
                    &[
                        epre_interp::Value::Int(6),
                        epre_interp::Value::Int(7),
                        epre_interp::Value::Int(p),
                    ],
                )
                .unwrap();
            assert_eq!(r, Some(epre_interp::Value::Int(if p == 0 { 42 } else { 13 })));
        }
    }
}
