//! SSA verification: single assignment and dominance of uses.
//!
//! [`verify_ssa_all`] accumulates **every** violation (the lint engine's
//! preferred form); [`verify_ssa`] keeps the historical fail-fast `Result`
//! contract by returning the first accumulated error.

use std::collections::HashMap;
use std::fmt;

use epre_cfg::{Cfg, Dominators};
use epre_ir::{BlockId, Function, Inst, Reg};

/// Classification of an SSA invariant violation, so downstream tooling
/// (the lint engine) can map each error onto a stable rule code without
/// parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsaErrorKind {
    /// A register (or parameter) has more than one definition.
    MultipleDefinition,
    /// A use names a register with no reachable definition.
    UndefinedUse,
    /// A use is not dominated by its definition (for φ inputs: the
    /// definition does not reach the end of the named predecessor).
    UseNotDominated,
}

/// An SSA invariant violation found by [`verify_ssa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsaError {
    /// Function name.
    pub function: String,
    /// Block where the violation was found (`None` for parameter errors).
    pub block: Option<BlockId>,
    /// Which invariant was broken.
    pub kind: SsaErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.function, self.message)
    }
}

impl std::error::Error for SsaError {}

/// Check that `f` is in SSA form:
///
/// * every register has at most one definition (params define once),
/// * every non-φ use is dominated by its definition,
/// * every φ use reaches the end of the corresponding predecessor block
///   (its definition dominates that predecessor).
///
/// Unreachable blocks are ignored (passes drop them independently).
///
/// # Errors
/// Returns the first violation found ([`verify_ssa_all`] collects all of
/// them).
pub fn verify_ssa(f: &Function) -> Result<(), SsaError> {
    match verify_ssa_all(f).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Check the SSA invariants of `f`, accumulating **every** violation
/// instead of stopping at the first. An empty vector means the function is
/// a well-formed SSA program.
///
/// On a multiple-definition violation the **first** definition stays in
/// force for the subsequent dominance checks, so one double definition
/// does not cascade into spurious dominance errors for every use of the
/// register.
pub fn verify_ssa_all(f: &Function) -> Vec<SsaError> {
    let mut errs: Vec<SsaError> = Vec::new();
    let fail =
        |errs: &mut Vec<SsaError>, block: Option<BlockId>, kind: SsaErrorKind, message: String| {
            errs.push(SsaError { function: f.name.clone(), block, kind, message });
        };
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);

    // Definition points: block + instruction index (params: entry, -1).
    // The first definition wins; later ones are reported, not recorded.
    let mut defs: HashMap<Reg, (BlockId, isize)> = HashMap::new();
    for &p in &f.params {
        match defs.entry(p) {
            std::collections::hash_map::Entry::Occupied(_) => fail(
                &mut errs,
                Some(BlockId::ENTRY),
                SsaErrorKind::MultipleDefinition,
                format!("parameter {p} defined twice"),
            ),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((BlockId::ENTRY, -1));
            }
        }
    }
    for (bid, block) in f.iter_blocks() {
        if !dom.is_reachable(bid) {
            continue;
        }
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                match defs.entry(d) {
                    std::collections::hash_map::Entry::Occupied(_) => fail(
                        &mut errs,
                        Some(bid),
                        SsaErrorKind::MultipleDefinition,
                        format!("register {d} defined more than once"),
                    ),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert((bid, i as isize));
                    }
                }
            }
        }
    }

    // A definition at (db, di) dominates a use at (ub, ui) iff db strictly
    // dominates ub, or same block with di < ui.
    let dominates_use = |d: (BlockId, isize), u: (BlockId, isize)| -> bool {
        if d.0 == u.0 {
            d.1 < u.1
        } else {
            dom.strictly_dominates(d.0, u.0)
        }
    };

    for (bid, block) in f.iter_blocks() {
        if !dom.is_reachable(bid) {
            continue;
        }
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Phi { args, dst } => {
                    for &(pb, r) in args {
                        match defs.get(&r) {
                            None => fail(
                                &mut errs,
                                Some(bid),
                                SsaErrorKind::UndefinedUse,
                                format!("φ {dst} uses undefined register {r}"),
                            ),
                            Some(&d) => {
                                // Must reach the end of pred block pb.
                                let end = (pb, isize::MAX);
                                if !(d.0 == pb || dominates_use(d, end)) {
                                    fail(
                                        &mut errs,
                                        Some(bid),
                                        SsaErrorKind::UseNotDominated,
                                        format!(
                                            "φ {dst} input {r} from {pb} not dominated by its definition"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                _ => {
                    for r in inst.uses() {
                        match defs.get(&r) {
                            None => fail(
                                &mut errs,
                                Some(bid),
                                SsaErrorKind::UndefinedUse,
                                format!("`{inst}` uses undefined register {r}"),
                            ),
                            Some(&d) => {
                                if !dominates_use(d, (bid, i as isize)) {
                                    fail(
                                        &mut errs,
                                        Some(bid),
                                        SsaErrorKind::UseNotDominated,
                                        format!(
                                            "use of {r} in `{inst}` not dominated by its definition"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        for r in block.term.uses() {
            match defs.get(&r) {
                None => fail(
                    &mut errs,
                    Some(bid),
                    SsaErrorKind::UndefinedUse,
                    format!("terminator uses undefined register {r}"),
                ),
                Some(&d) => {
                    if !dominates_use(d, (bid, isize::MAX - 1)) {
                        fail(
                            &mut errs,
                            Some(bid),
                            SsaErrorKind::UseNotDominated,
                            format!("terminator use of {r} not dominated by its definition"),
                        );
                    }
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{Block, Const, FunctionBuilder, Terminator, Ty};

    #[test]
    fn accepts_ssa() {
        let mut b = FunctionBuilder::new("ok", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.loadi(Const::Int(1));
        let z = b.bin(epre_ir::BinOp::Add, Ty::Int, x, y);
        b.ret(Some(z));
        let f = b.finish();
        assert!(verify_ssa(&f).is_ok());
    }

    #[test]
    fn rejects_double_definition() {
        let mut b = FunctionBuilder::new("dd", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.copy_to(x, x); // redefines the parameter
        b.ret(Some(x));
        let f = b.finish();
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("defined"));
        assert_eq!(e.kind, SsaErrorKind::MultipleDefinition);
    }

    #[test]
    fn rejects_undominated_use() {
        // Two arms; use in one arm of a def from the other.
        let mut f = Function::new("u", Some(Ty::Int));
        let p = f.new_reg(Ty::Int);
        f.params.push(p);
        let x = f.new_reg(Ty::Int);
        let y = f.new_reg(Ty::Int);
        f.add_block(Block::new(Terminator::Branch {
            cond: p,
            then_to: BlockId(1),
            else_to: BlockId(2),
        }));
        let mut b1 = Block::new(Terminator::Return { value: Some(x) });
        b1.insts.push(Inst::LoadI { dst: x, value: Const::Int(1) });
        f.add_block(b1);
        // b2 uses x, which does not dominate it.
        let mut b2 = Block::new(Terminator::Return { value: Some(y) });
        b2.insts.push(Inst::Copy { dst: y, src: x });
        f.add_block(b2);
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("not dominated") || e.message.contains("undefined"));
    }

    #[test]
    fn rejects_undefined_use() {
        let mut f = Function::new("uu", Some(Ty::Int));
        let ghost = f.new_reg(Ty::Int);
        f.add_block(Block::new(Terminator::Return { value: Some(ghost) }));
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("undefined"));
        assert_eq!(e.kind, SsaErrorKind::UndefinedUse);
    }

    #[test]
    fn accepts_phi_with_back_edge_input() {
        // i0 = 0; head: i1 = φ(entry: i0, body: i2); body: i2 = i1; -> head
        let mut f = Function::new("l", None);
        let i0 = f.new_reg(Ty::Int);
        let i1 = f.new_reg(Ty::Int);
        let i2 = f.new_reg(Ty::Int);
        let c = f.new_reg(Ty::Int);
        let mut entry = Block::new(Terminator::Jump { target: BlockId(1) });
        entry.insts.push(Inst::LoadI { dst: i0, value: Const::Int(0) });
        entry.insts.push(Inst::LoadI { dst: c, value: Const::Int(1) });
        f.add_block(entry);
        let mut head =
            Block::new(Terminator::Branch { cond: c, then_to: BlockId(2), else_to: BlockId(3) });
        head.insts.push(Inst::Phi { dst: i1, args: vec![(BlockId(0), i0), (BlockId(2), i2)] });
        f.add_block(head);
        let mut body = Block::new(Terminator::Jump { target: BlockId(1) });
        body.insts.push(Inst::Copy { dst: i2, src: i1 });
        f.add_block(body);
        f.add_block(Block::new(Terminator::Return { value: None }));
        assert!(f.verify().is_ok());
        assert!(verify_ssa(&f).is_ok());
    }

    #[test]
    fn double_definition_does_not_cascade() {
        // The first definition stays in force, so the later (otherwise
        // well-placed) uses report nothing beyond the double definition.
        let mut b = FunctionBuilder::new("dd2", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let one = b.loadi(Const::Int(1));
        b.push(Inst::Bin { op: epre_ir::BinOp::Add, ty: Ty::Int, dst: one, lhs: x, rhs: x });
        b.ret(Some(one));
        let f = b.finish();
        let all = verify_ssa_all(&f);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].kind, SsaErrorKind::MultipleDefinition);
        assert_eq!(all[0].block, Some(BlockId::ENTRY));
    }
}
