//! Live-variable analysis.
//!
//! Used in three places in the pipeline: building **pruned** SSA (a φ for
//! `v` is placed only where `v` is live — §3.1 builds "the pruned SSA form
//! of the routine"), the interference computation behind Chaitin-style
//! coalescing, and dead-code sweeps.
//!
//! This analysis operates on φ-free code (the pipeline's passes run it
//! before SSA construction or after SSA destruction).

use crate::bitset::BitSet;
use epre_cfg::order::reverse_postorder;
use epre_cfg::Cfg;
use epre_ir::{BlockId, Function, Inst, Reg};

/// Per-block `LIVEIN`/`LIVEOUT` register sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<BitSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<BitSet>,
}

impl Liveness {
    /// Compute liveness for `f`: the [`LiveIn`] rows as sets, and each
    /// reachable block's live-out set as the union over its successors.
    /// Unreachable blocks have neither.
    ///
    /// # Panics
    /// Panics (debug) if `f` contains φ-nodes; φ-aware liveness is not
    /// needed anywhere in the pipeline.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let rpo = reverse_postorder(cfg);
        let rows = LiveIn::new(f, cfg, &rpo);
        let mut live_in = vec![BitSet::new(f.reg_count()); f.blocks.len()];
        let mut live_out = live_in.clone();
        for &b in &rpo {
            live_in[b.index()].union_with_words(rows.row(b));
            for &s in cfg.succs(b) {
                live_out[b.index()].union_with_words(rows.row(s));
            }
        }
        Liveness { live_in, live_out }
    }
}

/// The registers live into each block, solved in one flat bit matrix: the
/// solver behind [`Liveness`], whose per-block sets it fills. Pruned SSA
/// construction asks only "is `r` live into `b`?" and keeps the matrix.
#[derive(Debug, Clone)]
pub struct LiveIn {
    /// Words per row.
    words: usize,
    /// Where the live-in rows start in `bits`.
    live_in: usize,
    /// One row per block of upward-exposed uses, then one of definitions,
    /// then one of live-in registers, then one scratch row.
    bits: Vec<u64>,
}

impl LiveIn {
    /// Compute the live-in sets of `f`, visiting the blocks reachable from
    /// the entry, given in reverse postorder as `rpo`. Unreachable blocks
    /// have none.
    pub fn new(f: &Function, cfg: &Cfg, rpo: &[BlockId]) -> Self {
        // At least one word per row, so a function without registers has
        // rows too.
        let (n, words) = (f.blocks.len(), f.reg_count().div_ceil(64).max(1));
        let mut bits = vec![0u64; (3 * n + 1) * words];
        let (uses, rest) = bits.split_at_mut(n * words);
        let (defs, rest) = rest.split_at_mut(n * words);
        let (live_in, out) = rest.split_at_mut(n * words);
        let has = |row: &[u64], r: Reg| row[r.index() / 64] >> (r.index() % 64) & 1 != 0;
        let add = |row: &mut [u64], r: Reg| row[r.index() / 64] |= 1 << (r.index() % 64);
        for ((block, uses), defs) in
            f.blocks.iter().zip(uses.chunks_mut(words)).zip(defs.chunks_mut(words))
        {
            for inst in &block.insts {
                debug_assert!(!matches!(inst, Inst::Phi { .. }), "liveness expects φ-free code");
                for u in inst.uses().filter(|&u| !has(defs, u)) {
                    add(uses, u);
                }
                if let Some(d) = inst.dst() {
                    add(defs, d);
                }
            }
            for u in block.term.uses().filter(|&u| !has(defs, u)) {
                add(uses, u);
            }
        }
        // in = uses ∪ (out − defs), out = ∪ in over the successors: the
        // least fixed point, sweeping in postorder.
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().rev() {
                let row = b.index() * words..(b.index() + 1) * words;
                out.fill(0);
                for s in cfg.succs(b) {
                    let succ = &live_in[s.index() * words..(s.index() + 1) * words];
                    out.iter_mut().zip(succ).for_each(|(o, i)| *o |= i);
                }
                let (u, d) = (&uses[row.clone()], &defs[row.clone()]);
                for (w, word) in live_in[row].iter_mut().enumerate() {
                    let new = u[w] | (out[w] & !d[w]);
                    changed |= new != *word;
                    *word = new;
                }
            }
        }
        LiveIn { words, live_in: 2 * n * words, bits }
    }

    /// Is `r` live into `b`?
    pub fn contains(&self, b: BlockId, r: Reg) -> bool {
        self.row(b)[r.index() / 64] >> (r.index() % 64) & 1 != 0
    }

    /// The live-in row of `b`, bit `r` for register `r`.
    fn row(&self, b: BlockId) -> &[u64] {
        let start = self.live_in + b.index() * self.words;
        &self.bits[start..start + self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, BlockId, Const, FunctionBuilder, Ty};

    #[test]
    fn param_live_into_loop() {
        // s = 0; while (s < n) s = s + n; return s
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let s = b.new_reg(Ty::Int);
        let z = b.loadi(Const::Int(0));
        b.copy_to(s, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, s, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Ty::Int, s, n);
        b.copy_to(s, s2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(s));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);

        // n is live around the whole loop.
        assert!(lv.live_in[head.index()].contains(n.index()));
        assert!(lv.live_out[body.index()].contains(n.index()));
        // s is live everywhere after its definition.
        assert!(lv.live_in[head.index()].contains(s.index()));
        assert!(lv.live_in[exit.index()].contains(s.index()));
        // Nothing is live after the return.
        assert!(lv.live_out[exit.index()].is_empty());
        // n live into entry (it is a parameter used later).
        assert!(lv.live_in[BlockId::ENTRY.index()].contains(n.index()));
        // s is defined before use in entry, so not live into entry.
        assert!(!lv.live_in[BlockId::ENTRY.index()].contains(s.index()));
    }

    #[test]
    fn dead_definition_not_live() {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let dead = b.loadi(Const::Int(9));
        b.ret(Some(x));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(!lv.live_in[0].contains(dead.index()));
        assert!(!lv.live_out[0].contains(dead.index()));
    }

    #[test]
    fn branch_condition_is_a_use() {
        let mut b = FunctionBuilder::new("c", None);
        let t = b.new_block();
        let c = b.loadi(Const::Int(1));
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        // c defined in entry before the branch use: not live-in.
        assert!(!lv.live_in[0].contains(c.index()));
        // Store/value uses through different blocks:
        let mut b = FunctionBuilder::new("c2", None);
        let cnd = b.param(Ty::Int);
        let t = b.new_block();
        b.jump(t);
        b.switch_to(t);
        b.branch(cnd, t, t);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(lv.live_in[0].contains(cnd.index()));
        assert!(lv.live_in[t.index()].contains(cnd.index()));
        assert!(lv.live_out[t.index()].contains(cnd.index())); // loop
    }

    #[test]
    fn live_in_rows_match_the_per_block_sets() {
        // A loop whose body redefines a variable read at its head, a
        // parameter read after the loop, and an unreachable block.
        let mut b = FunctionBuilder::new("m", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let (head, body, exit, dead) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        let s = b.new_reg(Ty::Int);
        let z = b.loadi(Const::Int(0));
        b.copy_to(s, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, s, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Ty::Int, s, n);
        b.copy_to(s, s2);
        b.jump(head);
        b.switch_to(exit);
        let r = b.bin(BinOp::Mul, Ty::Int, s, n);
        b.ret(Some(r));
        b.switch_to(dead);
        b.ret(Some(s));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        let live = LiveIn::new(&f, &cfg, &epre_cfg::order::reverse_postorder(&cfg));
        for (id, _) in f.iter_blocks() {
            let regs = (0..f.reg_count()).map(|r| Reg(r as u32));
            let rows: Vec<usize> = regs.filter(|&r| live.contains(id, r)).map(Reg::index).collect();
            assert_eq!(rows, lv.live_in[id.index()].iter().collect::<Vec<_>>(), "{id}");
        }
        assert!(live.contains(head, n) && !live.contains(dead, s));
    }
}
