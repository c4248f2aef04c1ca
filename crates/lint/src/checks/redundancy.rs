//! `L040-redundant-expression`: the redundancy auditor.
//!
//! PRE works over *lexical* expressions; GVN encodes value equivalence
//! into the name space so PRE can see it. The auditor measures how much
//! full redundancy survives an optimization pipeline by redoing the
//! analysis halves from scratch:
//!
//! 1. clone the function and build pruned SSA with copy folding,
//! 2. compute AWZ congruence classes ([`epre_passes::gvn::value_classes`]),
//! 3. key every pure computation by `(operator, type, operand classes)` —
//!    commutative operators order-insensitively — so congruent
//!    computations share a **value expression**,
//! 4. solve forward/∩ availability over those value expressions. In SSA a
//!    value, once computed, stays computed (operands are never redefined),
//!    so the kill sets are empty,
//! 5. every computation whose value expression is already available on
//!    block entry — or computed earlier in the same block — is **fully
//!    redundant**: every execution path has already produced the value.
//!
//! Findings are reported against the *original* (non-SSA) instruction:
//! SSA construction keeps the relative order of non-copy instructions
//! within each block, so the i-th non-φ instruction of an SSA block is
//! the i-th non-copy instruction of the source block.

use std::collections::HashMap;

use epre_analysis::{solve, BitSet, Direction, Meet};
use epre_cfg::Cfg;
use epre_ir::{BinOp, BlockId, Const, Function, Inst, Ty, UnOp};
use epre_passes::gvn::value_classes;
use epre_ssa::{build_ssa, SsaOptions};

use crate::diag::{Location, Report};
use crate::rules::Rule;

/// A value expression: an operator applied to congruence classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum VKey {
    Bin(BinOp, Ty, u32, u32),
    Un(UnOp, Ty, u32),
    Konst(Const),
}

fn key_of(inst: &Inst, class: &[u32]) -> Option<VKey> {
    match inst {
        Inst::Bin { op, ty, lhs, rhs, .. } => {
            let (mut a, mut b) = (class[lhs.index()], class[rhs.index()]);
            if op.is_commutative() && b < a {
                std::mem::swap(&mut a, &mut b);
            }
            Some(VKey::Bin(*op, *ty, a, b))
        }
        Inst::Un { op, ty, src, .. } => Some(VKey::Un(*op, *ty, class[src.index()])),
        Inst::LoadI { value, .. } => Some(VKey::Konst(*value)),
        _ => None,
    }
}

/// Audit `f` (non-SSA ILOC; functions already carrying φs are skipped)
/// for fully-redundant pure computations, appending one warning each.
pub fn audit(f: &Function, out: &mut Report) {
    if f.blocks.is_empty() || f.blocks.iter().any(|b| b.phi_count() > 0) {
        return;
    }
    let mut g = f.clone();
    build_ssa(&mut g, SsaOptions { fold_copies: true });
    let class = value_classes(&g);

    let cfg = Cfg::new(&g);
    let reach = cfg.reachable();

    // Number the value expressions of reachable code.
    let mut ids: HashMap<VKey, usize> = HashMap::new();
    for (bid, block) in g.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for inst in &block.insts {
            if let Some(k) = key_of(inst, &class) {
                let n = ids.len();
                ids.entry(k).or_insert(n);
            }
        }
    }

    // Availability: forward, ∩, no kills (SSA operands never change).
    let n = ids.len();
    let mut gen = vec![BitSet::new(n); cfg.len()];
    let kill = vec![BitSet::new(n); cfg.len()];
    for (bid, block) in g.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for inst in &block.insts {
            if let Some(k) = key_of(inst, &class) {
                gen[bid.index()].insert(ids[&k]);
            }
        }
    }
    let sol = solve(&cfg, Direction::Forward, Meet::Intersection, &gen, &kill);

    for (bid, block) in g.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        // Map the SSA block back to the source block: ids below the
        // original block count are unchanged; one extra block can only
        // come from entry splitting and holds the original entry's body.
        let orig_bid = if bid.index() < f.blocks.len() { bid } else { BlockId::ENTRY };
        let orig: Vec<(usize, &Inst)> = f
            .block(orig_bid)
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| !matches!(i, Inst::Copy { .. }))
            .collect();

        let mut avail = sol.ins[bid.index()].clone();
        let mut nonphi = 0usize;
        for inst in &block.insts {
            if matches!(inst, Inst::Phi { .. }) {
                continue;
            }
            let at = nonphi;
            nonphi += 1;
            let Some(k) = key_of(inst, &class) else { continue };
            let id = ids[&k];
            if avail.contains(id) {
                // Prefer the original instruction text and position.
                let (loc, text) = match orig.get(at) {
                    Some(&(i, oi)) => (Location::inst(&f.name, orig_bid, i), oi.to_string()),
                    None => (Location::block(&f.name, orig_bid), inst.to_string()),
                };
                out.push(
                    Rule::RedundantExpr,
                    loc,
                    format!(
                        "`{text}` is fully redundant: GVN proves its value is already \
                         computed on every path to this point"
                    ),
                );
            } else {
                avail.insert(id);
            }
        }
    }
}
