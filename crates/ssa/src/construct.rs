//! Pruned SSA construction with copy folding.
//!
//! Three steps, following Cytron et al. (the paper's reference \[11\]) with
//! the pruning of Choi, Cytron & Ferrante (reference \[7\]):
//!
//! 1. collect the definition sites of every register,
//! 2. place φ-nodes on the iterated dominance frontier of each register's
//!    definition sites — but only in blocks where the register is **live
//!    in** (pruned SSA),
//! 3. rename along a dominator-tree walk, giving every definition a fresh
//!    register; with [`SsaOptions::fold_copies`] set, `x <- copy y` does not
//!    define a new name — the current name of `y` simply becomes the
//!    current name of `x` and the copy disappears, "effectively folding
//!    \[copies\] into φ-nodes" (§3.1).

use epre_analysis::LiveIn;
use epre_cfg::{Cfg, Csr, Dominators};
use epre_ir::{BlockId, Function, Inst, Reg};

/// Options controlling SSA construction.
#[derive(Copy, Clone, Debug, Default)]
pub struct SsaOptions {
    /// Fold copies during renaming (the paper's variant). When false,
    /// copies are retained and their destinations get fresh names like any
    /// other definition.
    pub fold_copies: bool,
}

/// Rewrite `f` into pruned SSA form in place.
///
/// Every φ-node the pass inserts, and every renamed definition, uses a
/// fresh register; original registers survive only as the names of their
/// first (dominating) definitions where convenient. The registers the
/// renaming leaves unreferenced are then dropped by a monotone
/// [`Function::compact_regs`]. The function is left verifier-clean and
/// SSA-verifier-clean.
pub fn build_ssa(f: &mut Function, options: SsaOptions) {
    split_looping_entry(f);
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    let live = LiveIn::new(f, &cfg, dom.rpo().order());

    let n_blocks = f.blocks.len();
    let n_regs = f.reg_count();

    // 1. Definition sites per register (params define at entry), each
    // block listed once.
    let defs = f.iter_blocks().flat_map(|(bid, block)| {
        block.insts.iter().filter_map(move |inst| inst.dst().map(|d| (d.index(), bid)))
    });
    let params = f.params.iter().map(|p| (p.index(), BlockId::ENTRY));
    let mut def_sites = Csr::from_pairs(n_regs, params.chain(defs));
    def_sites.dedup_rows();

    // 2. φ-placement on iterated dominance frontiers, pruned by liveness.
    // Row b of `phi_for` lists the registers needing a φ in b. The two
    // per-block mark arrays are shared by all registers: register r stamps
    // them with epoch r + 1, so no register pays to clear them.
    let mut placements: Vec<(usize, Reg)> = Vec::with_capacity(n_blocks);
    let mut placed: Vec<u32> = vec![0; n_blocks];
    let mut on_work: Vec<u32> = vec![0; n_blocks];
    let mut work: Vec<BlockId> = Vec::with_capacity(n_blocks);
    for r in 0..n_regs {
        let sites = def_sites.row(r);
        if sites.is_empty() {
            continue;
        }
        let reg = Reg(r as u32);
        let epoch = reg.0 + 1;
        for &b in sites {
            if on_work[b.index()] != epoch {
                on_work[b.index()] = epoch;
                work.push(b);
            }
        }
        while let Some(b) = work.pop() {
            if !dom.is_reachable(b) {
                continue;
            }
            for &d in dom.frontier(b) {
                if placed[d.index()] != epoch && live.contains(d, reg) {
                    placed[d.index()] = epoch;
                    placements.push((d.index(), reg));
                    if on_work[d.index()] != epoch {
                        on_work[d.index()] = epoch;
                        work.push(d);
                    }
                }
            }
        }
    }
    let phi_for = Csr::from_pairs(n_blocks, placements.iter().copied());

    // Every φ and, at most, every definition gets a fresh register.
    let defs = f.blocks.iter().flat_map(|b| &b.insts).filter(|i| i.dst().is_some()).count();
    f.reg_ty.reserve(placements.len() + defs);

    // Insert φ skeletons (args filled during renaming), one splice per
    // block. Fresh registers follow `phi_for` order, but the φs stand in
    // the block in reverse order: φ i of block b is for register
    // `phi_for[b][len - 1 - i]`. Unreachable predecessors contribute no
    // φ-input: the edge can never execute and the renaming walk (dominator
    // tree from the entry) never visits them.
    let widest = (0..n_blocks).map(|b| phi_for.row(b).len()).max().unwrap_or(0);
    let mut phis: Vec<Inst> = Vec::with_capacity(widest);
    for b in 0..n_blocks {
        let bid = BlockId(b as u32);
        for &v in phi_for.row(b) {
            let dst = f.new_reg(f.ty_of(v));
            // Record the original variable in the args slot temporarily:
            // each pred maps to `v`, patched to the reaching name later.
            let preds = cfg.preds(bid).iter().filter(|&&p| dom.is_reachable(p));
            phis.push(Inst::Phi { dst, args: preds.map(|&p| (p, v)).collect() });
        }
        if !phis.is_empty() {
            f.blocks[b].insts.splice(0..0, phis.drain(..).rev());
        }
    }

    // 3. Renaming. The undo log holds at most every definition.
    let undo = Vec::with_capacity(f.params.len() + placements.len() + defs);
    let mut renamer = Renamer {
        f,
        cfg: &cfg,
        dom: &dom,
        current: vec![UNDEFINED; n_regs],
        undo,
        phi_for: &phi_for,
        fold_copies: options.fold_copies,
    };
    for i in 0..renamer.f.params.len() {
        let p = renamer.f.params[i];
        renamer.define(p, p);
    }
    renamer.rename_block(BlockId::ENTRY);
    f.compact_regs();
}

/// If the entry block has predecessors (a loop whose header is block 0),
/// move its body into a fresh block and leave block 0 as a plain jump.
/// Classic SSA construction and the renaming walk both assume the entry
/// dominates everything and receives no back edges; the front end never
/// produces such shapes but hand-built or generated IR can.
fn split_looping_entry(f: &mut Function) {
    if !f.blocks.iter().any(|b| b.term.successors().any(|s| s == BlockId::ENTRY)) {
        return;
    }
    let insts = std::mem::take(&mut f.blocks[BlockId::ENTRY.index()].insts);
    let term = std::mem::replace(
        &mut f.blocks[BlockId::ENTRY.index()].term,
        epre_ir::Terminator::Return { value: None },
    );
    let mut body = epre_ir::Block::new(term);
    body.insts = insts;
    let nb = f.add_block(body);
    // Every edge that targeted the entry now targets the body block —
    // including the body block's own edges (the old self-loop).
    for (id, block) in f.blocks.iter_mut().enumerate() {
        if id != BlockId::ENTRY.index() {
            block.term.retarget(BlockId::ENTRY, nb);
        }
    }
    f.blocks[BlockId::ENTRY.index()].term = epre_ir::Terminator::Jump { target: nb };
}

/// Marks a register with no reaching definition in [`Renamer::current`].
const UNDEFINED: Reg = Reg(u32::MAX);

struct Renamer<'a> {
    f: &'a mut Function,
    cfg: &'a Cfg,
    dom: &'a Dominators,
    /// The current SSA name of each original register on the path of the
    /// dominator-tree walk, or [`UNDEFINED`].
    current: Vec<Reg>,
    /// `(register, previous name)` for every definition on the walk's
    /// path, undone as the walk leaves the block that made it.
    undo: Vec<(Reg, Reg)>,
    /// The original register of each φ, as placed (see [`build_ssa`]).
    phi_for: &'a Csr<Reg>,
    fold_copies: bool,
}

/// The current name of `v`. A use of a never-defined register (possible
/// in ill-formed input) keeps its original name.
fn name_of(current: &[Reg], v: Reg) -> Reg {
    match current[v.index()] {
        UNDEFINED => v,
        name => name,
    }
}

/// The original register φ `i` of block `b` stands for.
fn phi_var(phi_for: &Csr<Reg>, b: BlockId, i: usize) -> Reg {
    let vars = phi_for.row(b.index());
    vars[vars.len() - 1 - i]
}

impl Renamer<'_> {
    fn define(&mut self, v: Reg, name: Reg) {
        self.undo.push((v, self.current[v.index()]));
        self.current[v.index()] = name;
    }

    fn rename_block(&mut self, b: BlockId) {
        let undo_mark = self.undo.len();

        let phi_count = self.f.block(b).phi_count();
        for i in 0..self.f.block(b).insts.len() {
            if i < phi_count {
                // φ definitions: dst is already a fresh register; it becomes
                // the current name of the original variable.
                let var = phi_var(self.phi_for, b, i);
                let dst = self.f.block(b).insts[i].dst().expect("φ defines");
                self.define(var, dst);
                continue;
            }
            // Rewrite uses to current names.
            let inst = &mut self.f.blocks[b.index()].insts[i];
            inst.map_uses(|r| name_of(&self.current, r));
            // Copy folding: the copy's source name becomes the current name
            // of the destination variable, and the copy is dropped below.
            if self.fold_copies {
                if let Inst::Copy { dst, src } = *inst {
                    self.define(dst, src);
                    continue;
                }
            }
            // Ordinary definition: fresh SSA name.
            if let Some(dst) = inst.dst() {
                let fresh = self.f.new_reg(self.f.ty_of(dst));
                self.f.blocks[b.index()].insts[i].set_dst(fresh);
                self.define(dst, fresh);
            }
        }
        // Terminator uses.
        self.f.blocks[b.index()].term.map_uses(|r| name_of(&self.current, r));

        // Patch φ arguments of successors for the edge from b: each slot
        // still holds the original variable, which its reaching name
        // replaces.
        for &s in self.cfg.succs(b) {
            for (i, inst) in self.f.blocks[s.index()].insts.iter_mut().enumerate() {
                let Inst::Phi { args, .. } = inst else { break };
                let var = phi_var(self.phi_for, s, i);
                for (pb, val) in args.iter_mut() {
                    if *pb == b {
                        *val = name_of(&self.current, var);
                    }
                }
            }
        }

        // Recurse over dominator-tree children.
        for &c in self.dom.children(b) {
            self.rename_block(c);
        }

        // Every copy of the block was folded.
        if self.fold_copies {
            self.f.block_mut(b).insts.retain(|inst| !matches!(inst, Inst::Copy { .. }));
        }
        while self.undo.len() > undo_mark {
            let (v, previous) = self.undo.pop().expect("above the mark");
            self.current[v.index()] = previous;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// x = 1; if p { x = 2 }; return x
    fn join_fixture() -> (Function, BlockId) {
        let mut b = FunctionBuilder::new("j", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let one = b.loadi(Const::Int(1));
        b.copy_to(x, one);
        let t = b.new_block();
        let j = b.new_block();
        b.branch(p, t, j);
        b.switch_to(t);
        let two = b.loadi(Const::Int(2));
        b.copy_to(x, two);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        (b.finish(), j)
    }

    #[test]
    fn places_phi_at_join() {
        let (mut f, j) = join_fixture();
        build_ssa(&mut f, SsaOptions { fold_copies: false });
        assert!(f.verify().is_ok());
        verify_ssa(&f).unwrap();
        assert_eq!(f.block(j).phi_count(), 1);
    }

    #[test]
    fn copy_folding_removes_copies() {
        let (mut f, j) = join_fixture();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        assert!(f.verify().is_ok());
        verify_ssa(&f).unwrap();
        assert_eq!(f.block(j).phi_count(), 1);
        // All copies folded away.
        let copies = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Copy { .. }))
            .count();
        assert_eq!(copies, 0);
        // The φ's inputs are the two loadi results.
        match &f.block(j).insts[0] {
            Inst::Phi { args, .. } => {
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected φ, got {other}"),
        }
    }

    #[test]
    fn pruning_skips_dead_variables() {
        // x assigned in both arms but never used after the join: no φ.
        let mut b = FunctionBuilder::new("p", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        let one = b.loadi(Const::Int(1));
        b.copy_to(x, one);
        b.jump(j);
        b.switch_to(e);
        let two = b.loadi(Const::Int(2));
        b.copy_to(x, two);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(p));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        verify_ssa(&f).unwrap();
        assert_eq!(f.block(j).phi_count(), 0, "pruned SSA places no dead φ");
    }

    #[test]
    fn loop_variable_gets_phi_at_header() {
        // i = 0; while (i < n) i = i + 1; return i
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        verify_ssa(&f).unwrap();
        assert_eq!(f.block(head).phi_count(), 1);
        // The parameter n needs no φ (single definition).
        match &f.block(head).insts[0] {
            Inst::Phi { args, .. } => assert_eq!(args.len(), 2),
            _ => panic!("expected φ"),
        }
    }

    #[test]
    fn straight_line_code_gets_no_phis() {
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        let z = b.bin(BinOp::Mul, Ty::Int, y, x);
        b.ret(Some(z));
        let mut f = b.finish();
        let before = f.inst_count();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        verify_ssa(&f).unwrap();
        assert_eq!(f.inst_count(), before);
        assert!(f.blocks.iter().all(|b| b.phi_count() == 0));
    }

    #[test]
    fn redefinition_in_same_block_renames() {
        // x = a; x = x + 1; return x
        let mut b = FunctionBuilder::new("r", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        b.copy_to(x, a);
        let one = b.loadi(Const::Int(1));
        let t = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: t, lhs: x, rhs: one });
        b.copy_to(x, t);
        b.ret(Some(x));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        verify_ssa(&f).unwrap();
        // After folding: loadi + add remain.
        assert_eq!(f.inst_count(), 2);
        // The add must read the parameter directly now.
        let add = f.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .unwrap();
        assert!(add.uses().any(|u| u == a));
    }

    #[test]
    fn entry_with_a_back_edge_moves_into_a_body_block() {
        // b0: i = i + 1; if i < n goto b0 else b1 — block 0 heads a loop.
        let mut b = FunctionBuilder::new("e", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let i = b.param(Ty::Int);
        let exit = b.new_block();
        let one = b.loadi(Const::Int(1));
        let t = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, t);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, n);
        b.branch(c, BlockId::ENTRY, exit);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        verify_ssa(&f).unwrap();
        assert_eq!(f.blocks.len(), 3);
        let body = BlockId(2);
        assert_eq!(f.blocks[0].term, epre_ir::Terminator::Jump { target: body });
        assert!(f.blocks[0].insts.is_empty());
        assert_eq!(f.block(body).phi_count(), 1, "{f}");
        // A function without an edge into block 0 keeps its blocks.
        let (mut g, _) = join_fixture();
        let blocks = g.blocks.len();
        build_ssa(&mut g, SsaOptions { fold_copies: true });
        assert_eq!(g.blocks.len(), blocks);
    }
}
