//! Delta-debugging IR reducer: shrink a failing module while a failure
//! predicate keeps holding.
//!
//! The reducer is ddmin (Zeller & Hildebrandt) specialized to ILOC
//! structure, applied coarse-to-fine and iterated to a fixpoint:
//!
//! 1. **functions** — drop whole functions,
//! 2. **instructions** — per function, ddmin over instruction sites,
//! 3. **blocks** — degrade branches to jumps, then compact unreachable
//!    blocks (with `BlockId` remapping and φ-argument cleanup),
//! 4. **operands** — canonicalize register uses toward the lowest
//!    same-typed register, collapsing the def-use web.
//!
//! Every candidate is accepted only when the predicate still holds, so
//! the final module provokes the *same* failure as the input, just with
//! (typically far) fewer instructions.

use std::cell::Cell;

use epre::{OptLevel, Optimizer};
use epre_ir::{BlockId, Function, Inst, Module, Terminator};
use epre_lint::{lint_function, LintOptions};

use crate::oracle::{compare_modules, OracleConfig};

/// A reusable failure predicate: "the interesting thing still happens".
#[derive(Debug, Clone)]
pub enum FailureSpec {
    /// Optimizing at `level` panics (or trips a debug verify fault) with a
    /// message containing `needle`. An empty needle matches any panic.
    PanicContains {
        /// Level whose pipeline must fail.
        level: OptLevel,
        /// Substring the panic/fault message must contain.
        needle: String,
    },
    /// Some function lints with this rule code (invariant rules only).
    LintCode {
        /// The rule code, e.g. `"L020"`.
        code: String,
    },
    /// Optimizing at `level` succeeds but the result diverges from the
    /// input under the differential oracle.
    OracleMismatch {
        /// Level whose output must diverge.
        level: OptLevel,
        /// Oracle settings used for the comparison.
        oracle: OracleConfig,
    },
}

impl FailureSpec {
    /// Does the failure hold on `m`?
    pub fn holds(&self, m: &Module) -> bool {
        match self {
            // `try_optimize` contains panics as typed faults whose
            // rendering carries the panic message.
            FailureSpec::PanicContains { level, needle } => {
                match Optimizer::new(*level).try_optimize(m) {
                    Err(fault) => fault.to_string().contains(needle.as_str()),
                    Ok(_) => false,
                }
            }
            FailureSpec::LintCode { code } => {
                let opts = LintOptions::invariants_only();
                m.functions.iter().any(|f| lint_function(f, &opts).codes().contains(&code.as_str()))
            }
            FailureSpec::OracleMismatch { level, oracle } => {
                match Optimizer::new(*level).try_optimize(m) {
                    Ok(opt) => !compare_modules(m, &opt, oracle).is_empty(),
                    Err(_) => false,
                }
            }
        }
    }
}

/// What the reducer accomplished.
#[derive(Debug, Clone, Default)]
pub struct ReduceStats {
    /// Whether the predicate held on the input at all. When `false` the
    /// input is returned unchanged.
    pub held: bool,
    /// Instructions in the input module.
    pub initial_insts: usize,
    /// Instructions in the reduced module.
    pub final_insts: usize,
    /// Functions in the input module.
    pub initial_functions: usize,
    /// Functions in the reduced module.
    pub final_functions: usize,
    /// Predicate evaluations performed.
    pub tests: usize,
}

impl ReduceStats {
    /// Fraction of instructions removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.initial_insts == 0 {
            0.0
        } else {
            1.0 - self.final_insts as f64 / self.initial_insts as f64
        }
    }
}

fn total_insts(m: &Module) -> usize {
    m.functions.iter().map(Function::inst_count).sum()
}

fn total_blocks(m: &Module) -> usize {
    m.functions.iter().map(|f| f.blocks.len()).sum()
}

/// Classic ddmin over `items`: returns a (locally) 1-minimal sublist on
/// which `test` still returns true. Assumes `test` holds on the full list.
fn ddmin_list<T: Clone>(items: Vec<T>, test: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = items;
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut progressed = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let complement: Vec<T> = cur[..start].iter().chain(&cur[end..]).cloned().collect();
            if test(&complement) {
                cur = complement;
                n = n.saturating_sub(1).max(2);
                progressed = true;
                break;
            }
            start = end;
        }
        if !progressed {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Phase 1: ddmin over whole functions.
fn reduce_functions(m: &Module, pred: &dyn Fn(&Module) -> bool, tests: &Cell<usize>) -> Module {
    let kept = ddmin_list(m.functions.clone(), &mut |fns: &[Function]| {
        let mut cand = m.clone();
        cand.functions = fns.to_vec();
        tests.set(tests.get() + 1);
        pred(&cand)
    });
    let mut out = m.clone();
    out.functions = kept;
    out
}

/// Phase 2: per function, ddmin over instruction sites.
fn reduce_instructions(m: &Module, pred: &dyn Fn(&Module) -> bool, tests: &Cell<usize>) -> Module {
    let mut cur = m.clone();
    for fi in 0..cur.functions.len() {
        let sites: Vec<(usize, usize)> = cur.functions[fi]
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(b, blk)| (0..blk.insts.len()).map(move |i| (b, i)))
            .collect();
        let build = |base: &Module, keep: &[(usize, usize)]| -> Module {
            let mut cand = base.clone();
            let f = &mut cand.functions[fi];
            for (b, blk) in f.blocks.iter_mut().enumerate() {
                let mut idx = 0;
                blk.insts.retain(|_| {
                    let keep_it = keep.contains(&(b, idx));
                    idx += 1;
                    keep_it
                });
            }
            cand
        };
        let base = cur.clone();
        let kept = ddmin_list(sites, &mut |keep: &[(usize, usize)]| {
            tests.set(tests.get() + 1);
            pred(&build(&base, keep))
        });
        cur = build(&base, &kept);
    }
    cur
}

/// Remove blocks unreachable from the entry, remapping `BlockId`s and
/// dropping φ-arguments whose predecessor vanished.
fn drop_unreachable(f: &mut Function) {
    if f.blocks.is_empty() {
        return;
    }
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if reachable[b] {
            continue;
        }
        reachable[b] = true;
        for s in f.blocks[b].term.successors() {
            stack.push(s.index());
        }
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    let mut remap = vec![None; f.blocks.len()];
    let mut next = 0u32;
    for (b, &r) in reachable.iter().enumerate() {
        if r {
            remap[b] = Some(BlockId(next));
            next += 1;
        }
    }
    let mut blocks = Vec::with_capacity(next as usize);
    for (b, blk) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let mut blk = blk;
        for inst in &mut blk.insts {
            if let Inst::Phi { args, .. } = inst {
                args.retain_mut(|(p, _)| match remap[p.index()] {
                    Some(new) => {
                        *p = new;
                        true
                    }
                    None => false,
                });
            }
        }
        match &mut blk.term {
            Terminator::Jump { target } => {
                *target = remap[target.index()].expect("reachable successor");
            }
            Terminator::Branch { then_to, else_to, .. } => {
                *then_to = remap[then_to.index()].expect("reachable successor");
                *else_to = remap[else_to.index()].expect("reachable successor");
            }
            Terminator::Return { .. } => {}
        }
        blocks.push(blk);
    }
    f.blocks = blocks;
}

/// Phase 3: degrade branches to jumps where the predicate allows, then
/// compact away unreachable blocks (reverted if compaction loses the
/// failure — e.g. it lived in an unreachable block).
fn reduce_blocks(m: &Module, pred: &dyn Fn(&Module) -> bool, tests: &Cell<usize>) -> Module {
    let mut cur = m.clone();
    for fi in 0..cur.functions.len() {
        for b in 0..cur.functions[fi].blocks.len() {
            let Terminator::Branch { then_to, else_to, .. } = cur.functions[fi].blocks[b].term
            else {
                continue;
            };
            for target in [then_to, else_to] {
                let mut cand = cur.clone();
                cand.functions[fi].blocks[b].term = Terminator::Jump { target };
                tests.set(tests.get() + 1);
                if pred(&cand) {
                    cur = cand;
                    break;
                }
            }
        }
    }
    let mut compacted = cur.clone();
    for f in &mut compacted.functions {
        drop_unreachable(f);
    }
    tests.set(tests.get() + 1);
    if pred(&compacted) {
        compacted
    } else {
        cur
    }
}

/// Phase 4: rewrite register uses toward the lowest same-typed register,
/// collapsing the def-use web one accepted substitution at a time.
fn reduce_operands(m: &Module, pred: &dyn Fn(&Module) -> bool, tests: &Cell<usize>) -> Module {
    let mut cur = m.clone();
    for fi in 0..cur.functions.len() {
        let nblocks = cur.functions[fi].blocks.len();
        for b in 0..nblocks {
            let ninsts = cur.functions[fi].blocks[b].insts.len();
            for i in 0..ninsts {
                let uses: Vec<_> = cur.functions[fi].blocks[b].insts[i].uses().collect();
                for u in uses {
                    let lowest = {
                        let f = &cur.functions[fi];
                        (0..f.reg_count())
                            .map(|r| epre_ir::Reg(r as u32))
                            .find(|&r| f.ty_of(r) == f.ty_of(u))
                    };
                    let Some(lowest) = lowest else {
                        continue;
                    };
                    if lowest == u {
                        continue;
                    }
                    let mut cand = cur.clone();
                    cand.functions[fi].blocks[b].insts[i]
                        .map_uses(|r| if r == u { lowest } else { r });
                    tests.set(tests.get() + 1);
                    if pred(&cand) {
                        cur = cand;
                    }
                }
            }
        }
    }
    cur
}

/// Shrink `input` while `pred` keeps holding.
///
/// When `pred` does not hold on the input, the input is returned
/// unchanged with [`ReduceStats::held`]` == false`.
pub fn reduce(input: &Module, pred: &dyn Fn(&Module) -> bool) -> (Module, ReduceStats) {
    let mut stats = ReduceStats {
        initial_insts: total_insts(input),
        initial_functions: input.functions.len(),
        ..ReduceStats::default()
    };
    let tests = Cell::new(0usize);
    tests.set(1);
    if !pred(input) {
        stats.final_insts = stats.initial_insts;
        stats.final_functions = stats.initial_functions;
        stats.tests = tests.get();
        return (input.clone(), stats);
    }
    stats.held = true;
    let mut cur = input.clone();
    loop {
        let metric = (cur.functions.len(), total_insts(&cur), total_blocks(&cur));
        cur = reduce_functions(&cur, pred, &tests);
        cur = reduce_instructions(&cur, pred, &tests);
        cur = reduce_blocks(&cur, pred, &tests);
        cur = reduce_operands(&cur, pred, &tests);
        if (cur.functions.len(), total_insts(&cur), total_blocks(&cur)) == metric {
            break;
        }
    }
    stats.final_insts = total_insts(&cur);
    stats.final_functions = cur.functions.len();
    stats.tests = tests.get();
    (cur, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};
    use epre_ir::Ty;

    const SRC: &str = "function foo(y, z)\n\
                       integer y, z, s, i\n\
                       begin\n\
                       s = 0\n\
                       do i = 1, 10\n\
                         s = s + y * z + i\n\
                       enddo\n\
                       return s\nend\n";

    #[test]
    fn ddmin_finds_single_culprit() {
        // The predicate: "contains the number 13".
        let items: Vec<u32> = (0..50).collect();
        let out = ddmin_list(items, &mut |xs| xs.contains(&13));
        assert_eq!(out, vec![13]);
    }

    #[test]
    fn ddmin_finds_pair() {
        let items: Vec<u32> = (0..32).collect();
        let out = ddmin_list(items, &mut |xs| xs.contains(&3) && xs.contains(&29));
        assert_eq!(out, vec![3, 29]);
    }

    #[test]
    fn lint_predicate_reduction_shrinks_hard() {
        let mut m = compile(SRC, NamingMode::Disciplined).unwrap();
        // Inject a use of a never-defined register: rule L020.
        {
            let f = &mut m.functions[0];
            let dst = f.new_reg(Ty::Int);
            let ghost = f.new_reg(Ty::Int);
            let last = f.blocks.len() - 1;
            f.blocks[last].insts.push(Inst::Copy { dst, src: ghost });
        }
        let spec = FailureSpec::LintCode { code: "L020".into() };
        assert!(spec.holds(&m));
        let (small, stats) = reduce(&m, &|cand| spec.holds(cand));
        assert!(stats.held);
        assert!(spec.holds(&small), "reduced module lost the failure");
        assert!(
            stats.final_insts <= 2,
            "L020 needs only the ghost copy; got {} insts",
            stats.final_insts
        );
        assert!(stats.reduction() >= 0.8, "only {:.0}% reduced", stats.reduction() * 100.0);
    }

    #[test]
    fn unreduced_input_is_returned_when_predicate_fails() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let spec = FailureSpec::LintCode { code: "L020".into() };
        let (out, stats) = reduce(&m, &|cand| spec.holds(cand));
        assert!(!stats.held);
        assert_eq!(format!("{out}"), format!("{m}"));
    }

    #[test]
    fn drop_unreachable_remaps_terminators() {
        let mut m = compile(SRC, NamingMode::Disciplined).unwrap();
        let f = &mut m.functions[0];
        // Append a floating block nothing jumps to.
        f.add_block(epre_ir::Block::new(Terminator::Return { value: None }));
        let before = f.blocks.len();
        drop_unreachable(f);
        assert_eq!(f.blocks.len(), before - 1);
        assert!(f.verify().is_ok());
    }
}
