//! The evaluator: executes a module and counts retired operations.

use epre_ir::{BinOp, BlockId, Function, Inst, Module, Terminator, Ty, UnOp};

use crate::error::ExecError;
use crate::intrinsics::eval_intrinsic;
use crate::value::Value;

/// Dynamic operation counts, the paper's Table 1 metric.
///
/// Every retired instruction and terminator adds one to `total`; the
/// breakdown fields ease debugging and the per-category assertions in
/// tests. Branches are included, as in the paper ("the dynamic operation
/// count, including branches").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// All retired operations.
    pub total: u64,
    /// Arithmetic/logical/comparison/conversion operations.
    pub arith: u64,
    /// `loadi` constant materializations.
    pub loadi: u64,
    /// Register copies.
    pub copies: u64,
    /// Memory loads and stores.
    pub memory: u64,
    /// Calls (user functions and intrinsics).
    pub calls: u64,
    /// Terminators: jumps, conditional branches, returns.
    pub branches: u64,
}

/// The ILOC interpreter. Holds the module, its data-segment memory and the
/// accumulated [`OpCounts`].
///
/// Memory persists across [`run`](Self::run) calls so drivers can call an
/// initialization routine followed by a kernel; call
/// [`reset`](Self::reset) to start again from the fresh state.
#[derive(Debug)]
pub struct Interpreter<'m> {
    /// The module's functions sorted by name, resolved once so that a run
    /// or a call finds its function by binary search. Of several functions
    /// of one name only the first is kept, the one [`Module::function`]
    /// finds.
    functions: Vec<(&'m str, &'m Function)>,
    memory: Vec<Value>,
    counts: OpCounts,
    fuel: u64,
    /// The configured budget `fuel` started from, reported by
    /// [`ExecError::OutOfFuel`].
    fuel_budget: u64,
    /// Remaining call depth (guards against runaway recursion).
    depth: u32,
}

/// Default fuel: enough for the full benchmark suite with room to spare.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;
const DEFAULT_DEPTH: u32 = 128;

impl<'m> Interpreter<'m> {
    /// A fresh interpreter for `module` with zeroed memory.
    pub fn new(module: &'m Module) -> Self {
        let mut functions: Vec<(&str, &Function)> =
            module.functions.iter().map(|f| (f.name.as_str(), f)).collect();
        // A stable sort keeps each name's first function ahead of its
        // namesakes, and `dedup_by` keeps that one.
        functions.sort_by(|a, b| a.0.cmp(b.0));
        functions.dedup_by(|later, first| later.0 == first.0);
        Interpreter {
            functions,
            memory: vec![Value::Int(0); module.data_words],
            counts: OpCounts::default(),
            fuel: DEFAULT_FUEL,
            fuel_budget: DEFAULT_FUEL,
            depth: DEFAULT_DEPTH,
        }
    }

    /// Replace the fuel budget (operations until [`ExecError::OutOfFuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self.fuel_budget = fuel;
        self
    }

    /// The configured fuel budget.
    pub fn fuel_budget(&self) -> u64 {
        self.fuel_budget
    }

    /// The accumulated operation counts.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Read one word of the data segment (for test assertions).
    pub fn peek(&self, addr: usize) -> Option<Value> {
        self.memory.get(addr).copied()
    }

    /// Return to the fresh state: zeroed memory and counts, the whole fuel
    /// budget and the whole call depth.
    pub fn reset(&mut self) {
        self.memory.fill(Value::Int(0));
        self.counts = OpCounts::default();
        self.fuel = self.fuel_budget;
        self.depth = DEFAULT_DEPTH;
    }

    fn function(&self, name: &str) -> Option<&'m Function> {
        let i = self.functions.binary_search_by(|&(n, _)| n.cmp(name)).ok()?;
        Some(self.functions[i].1)
    }

    /// Execute `func` with `args`; returns its return value (or `None` for
    /// subroutines).
    ///
    /// # Errors
    /// Any [`ExecError`]; see that type for the catalogue.
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let f = self.function(func).ok_or_else(|| ExecError::UnknownFunction(func.to_string()))?;
        self.call_function(f, args)
    }

    fn call_function(&mut self, f: &Function, args: &[Value]) -> Result<Option<Value>, ExecError> {
        if f.params.len() != args.len() {
            return Err(ExecError::ArityMismatch {
                callee: f.name.clone(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        if self.depth == 0 {
            return Err(ExecError::OutOfFuel { budget: self.fuel_budget });
        }
        self.depth -= 1;
        let result = self.exec_body(f, args);
        self.depth += 1;
        result
    }

    fn exec_body(&mut self, f: &Function, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let mut regs: Vec<Option<Value>> = vec![None; f.reg_count()];
        for (&p, &a) in f.params.iter().zip(args) {
            regs[p.index()] = Some(coerce(a, f.ty_of(p)));
        }
        let mut block = BlockId::ENTRY;
        loop {
            let b = f.block(block);
            for inst in &b.insts {
                self.spend()?;
                self.exec_inst(f, inst, &mut regs, block)?;
            }
            self.spend()?;
            self.counts.branches += 1;
            match &b.term {
                Terminator::Jump { target } => block = *target,
                Terminator::Branch { cond, then_to, else_to } => {
                    let c = read(&regs, *cond)?;
                    block = if c.is_truthy() { *then_to } else { *else_to };
                }
                Terminator::Return { value } => {
                    return match value {
                        Some(v) => Ok(Some(read(&regs, *v)?)),
                        None => Ok(None),
                    };
                }
            }
        }
    }

    fn spend(&mut self) -> Result<(), ExecError> {
        if self.fuel == 0 {
            return Err(ExecError::OutOfFuel { budget: self.fuel_budget });
        }
        self.fuel -= 1;
        self.counts.total += 1;
        Ok(())
    }

    fn exec_inst(
        &mut self,
        f: &Function,
        inst: &Inst,
        regs: &mut [Option<Value>],
        block: BlockId,
    ) -> Result<(), ExecError> {
        match inst {
            Inst::Bin { op, ty, dst, lhs, rhs } => {
                self.counts.arith += 1;
                let a = read(regs, *lhs)?;
                let b = read(regs, *rhs)?;
                regs[dst.index()] = Some(eval_bin(*op, *ty, a, b)?);
            }
            Inst::Un { op, ty, dst, src } => {
                self.counts.arith += 1;
                let a = read(regs, *src)?;
                regs[dst.index()] = Some(eval_un(*op, *ty, a)?);
            }
            Inst::LoadI { dst, value } => {
                self.counts.loadi += 1;
                regs[dst.index()] = Some(Value::from(*value));
            }
            Inst::Copy { dst, src } => {
                self.counts.copies += 1;
                regs[dst.index()] = Some(read(regs, *src)?);
            }
            Inst::Load { ty, dst, addr } => {
                self.counts.memory += 1;
                let a = addr_of(read(regs, *addr)?, self.memory.len())?;
                regs[dst.index()] = Some(coerce(self.memory[a], *ty));
            }
            Inst::Store { ty, addr, value } => {
                self.counts.memory += 1;
                let a = addr_of(read(regs, *addr)?, self.memory.len())?;
                let v = read(regs, *value)?;
                self.memory[a] = coerce(v, *ty);
            }
            Inst::Call { dst, callee, args } => {
                self.counts.calls += 1;
                let mut vals = Vec::with_capacity(args.len());
                for &a in args {
                    vals.push(read(regs, a)?);
                }
                let result = match eval_intrinsic(callee, &vals) {
                    Some(r) => Some(r?),
                    None => {
                        let g = self
                            .function(callee)
                            .ok_or_else(|| ExecError::UnknownCallee(callee.clone()))?;
                        self.call_function(g, &vals)?
                    }
                };
                if let Some((r, ty)) = dst {
                    let v = result.ok_or_else(|| ExecError::TypeMismatch {
                        what: format!("call `{callee}` returned no value"),
                    })?;
                    regs[r.index()] = Some(coerce(v, *ty));
                }
            }
            Inst::Phi { .. } => return Err(ExecError::PhiExecuted(block)),
        }
        let _ = f;
        Ok(())
    }
}

fn read(regs: &[Option<Value>], r: epre_ir::Reg) -> Result<Value, ExecError> {
    regs[r.index()].ok_or(ExecError::UninitializedRegister(r))
}

fn addr_of(v: Value, size: usize) -> Result<usize, ExecError> {
    let a = v.as_int().ok_or_else(|| ExecError::TypeMismatch { what: "address".into() })?;
    if a < 0 || a as usize >= size {
        return Err(ExecError::OutOfBounds { addr: a, size });
    }
    Ok(a as usize)
}

/// Convert `v` to `ty`. Loads/stores and parameter passing coerce values so
/// that zero-initialized memory reads as `0.0` for float loads.
fn coerce(v: Value, ty: Ty) -> Value {
    match (v, ty) {
        (Value::Int(i), Ty::Float) => Value::Float(i as f64),
        (Value::Float(f), Ty::Int) => Value::Int(f as i64),
        _ => v,
    }
}

fn eval_bin(op: BinOp, ty: Ty, a: Value, b: Value) -> Result<Value, ExecError> {
    // Operands were produced by type-checked code; coerce defensively so a
    // stray Int 0 in Float context behaves like 0.0.
    match ty {
        Ty::Int => {
            let x =
                a.as_int().ok_or_else(|| ExecError::TypeMismatch { what: format!("{op:?}") })?;
            let y =
                b.as_int().ok_or_else(|| ExecError::TypeMismatch { what: format!("{op:?}") })?;
            Ok(match op {
                BinOp::Add => Value::Int(x.wrapping_add(y)),
                BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    Value::Int(x.wrapping_div(y))
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    Value::Int(x.wrapping_rem(y))
                }
                BinOp::Min => Value::Int(x.min(y)),
                BinOp::Max => Value::Int(x.max(y)),
                BinOp::And => Value::Int(x & y),
                BinOp::Or => Value::Int(x | y),
                BinOp::Xor => Value::Int(x ^ y),
                BinOp::Shl => Value::Int(x.wrapping_shl((y & 63) as u32)),
                BinOp::Shr => Value::Int(x.wrapping_shr((y & 63) as u32)),
                BinOp::CmpEq => Value::Int((x == y) as i64),
                BinOp::CmpNe => Value::Int((x != y) as i64),
                BinOp::CmpLt => Value::Int((x < y) as i64),
                BinOp::CmpLe => Value::Int((x <= y) as i64),
                BinOp::CmpGt => Value::Int((x > y) as i64),
                BinOp::CmpGe => Value::Int((x >= y) as i64),
            })
        }
        Ty::Float => {
            let x =
                a.as_float().ok_or_else(|| ExecError::TypeMismatch { what: format!("{op:?}") })?;
            let y =
                b.as_float().ok_or_else(|| ExecError::TypeMismatch { what: format!("{op:?}") })?;
            Ok(match op {
                BinOp::Add => Value::Float(x + y),
                BinOp::Sub => Value::Float(x - y),
                BinOp::Mul => Value::Float(x * y),
                BinOp::Div => Value::Float(x / y),
                BinOp::Rem => Value::Float(x % y),
                BinOp::Min => Value::Float(x.min(y)),
                BinOp::Max => Value::Float(x.max(y)),
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                    return Err(ExecError::TypeMismatch { what: format!("float {op:?}") })
                }
                BinOp::CmpEq => Value::Int((x == y) as i64),
                BinOp::CmpNe => Value::Int((x != y) as i64),
                BinOp::CmpLt => Value::Int((x < y) as i64),
                BinOp::CmpLe => Value::Int((x <= y) as i64),
                BinOp::CmpGt => Value::Int((x > y) as i64),
                BinOp::CmpGe => Value::Int((x >= y) as i64),
            })
        }
    }
}

fn eval_un(op: UnOp, ty: Ty, a: Value) -> Result<Value, ExecError> {
    match op {
        UnOp::Neg => match (ty, a) {
            (Ty::Int, Value::Int(x)) => Ok(Value::Int(x.wrapping_neg())),
            (Ty::Float, Value::Float(x)) => Ok(Value::Float(-x)),
            _ => Err(ExecError::TypeMismatch { what: "neg".into() }),
        },
        UnOp::Not => match a {
            Value::Int(x) => Ok(Value::Int(!x)),
            _ => Err(ExecError::TypeMismatch { what: "not".into() }),
        },
        UnOp::I2F => match a {
            Value::Int(x) => Ok(Value::Float(x as f64)),
            _ => Err(ExecError::TypeMismatch { what: "i2f".into() }),
        },
        UnOp::F2I => match a {
            Value::Float(x) => Ok(Value::Int(x as i64)),
            _ => Err(ExecError::TypeMismatch { what: "f2i".into() }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{Const, FunctionBuilder};

    fn module_of(f: Function) -> Module {
        let mut m = Module::new();
        m.functions.push(f);
        m
    }

    #[test]
    fn counts_every_operation() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let c = b.loadi(Const::Int(1));
        let s = b.bin(BinOp::Add, Ty::Int, x, c);
        b.ret(Some(s));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("f", &[Value::Int(4)]).unwrap(), Some(Value::Int(5)));
        let c = i.counts();
        assert_eq!(c.total, 3);
        assert_eq!(c.loadi, 1);
        assert_eq!(c.arith, 1);
        assert_eq!(c.branches, 1);
    }

    #[test]
    fn loop_counts_scale_with_iterations() {
        // for i in 0..n: s += i
        let mut b = FunctionBuilder::new("sum", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let s = b.new_reg(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(s, z);
        b.copy_to(i, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Ty::Int, s, i);
        b.copy_to(s, s2);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(s));
        let m = module_of(b.finish());

        let mut i10 = Interpreter::new(&m);
        assert_eq!(i10.run("sum", &[Value::Int(10)]).unwrap(), Some(Value::Int(45)));
        let mut i20 = Interpreter::new(&m);
        i20.run("sum", &[Value::Int(20)]).unwrap();
        assert!(i20.counts().total > i10.counts().total);
        // entry (4) + 11 header visits × 2 + 10 body iterations × 6 + ret.
        assert_eq!(i10.counts().total, 4 + 11 * 2 + 10 * 6 + 1);
    }

    #[test]
    fn memory_round_trip_and_bounds() {
        let mut b = FunctionBuilder::new("mem", Some(Ty::Float));
        let addr = b.param(Ty::Int);
        let v = b.loadi(Const::Float(2.5));
        b.store(Ty::Float, addr, v);
        let r = b.load(Ty::Float, addr);
        b.ret(Some(r));
        let mut m = module_of(b.finish());
        m.data_words = 8;
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("mem", &[Value::Int(3)]).unwrap(), Some(Value::Float(2.5)));
        assert_eq!(i.peek(3), Some(Value::Float(2.5)));
        let mut i = Interpreter::new(&m);
        assert!(matches!(
            i.run("mem", &[Value::Int(8)]),
            Err(ExecError::OutOfBounds { addr: 8, size: 8 })
        ));
        let mut i = Interpreter::new(&m);
        assert!(matches!(i.run("mem", &[Value::Int(-1)]), Err(ExecError::OutOfBounds { .. })));
    }

    #[test]
    fn uninitialized_register_is_an_error() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let ghost = b.new_reg(Ty::Int);
        b.ret(Some(ghost));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("u", &[]), Err(ExecError::UninitializedRegister(ghost)));
    }

    #[test]
    fn integer_division_by_zero() {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let z = b.loadi(Const::Int(0));
        let q = b.bin(BinOp::Div, Ty::Int, x, z);
        b.ret(Some(q));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("d", &[Value::Int(1)]), Err(ExecError::DivisionByZero));
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        let mut b = FunctionBuilder::new("d", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let z = b.loadi(Const::Float(0.0));
        let q = b.bin(BinOp::Div, Ty::Float, x, z);
        b.ret(Some(q));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("d", &[Value::Float(1.0)]).unwrap(), Some(Value::Float(f64::INFINITY)));
    }

    #[test]
    fn user_calls_and_intrinsics() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("hyp", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let y = b.param(Ty::Float);
        let xx = b.bin(BinOp::Mul, Ty::Float, x, x);
        let yy = b.bin(BinOp::Mul, Ty::Float, y, y);
        let s = b.bin(BinOp::Add, Ty::Float, xx, yy);
        let r = b.call("sqrt", vec![s], Ty::Float);
        b.ret(Some(r));
        m.functions.push(b.finish());
        let mut b = FunctionBuilder::new("main", Some(Ty::Float));
        let a = b.loadi(Const::Float(3.0));
        let c = b.loadi(Const::Float(4.0));
        let h = b.call("hyp", vec![a, c], Ty::Float);
        b.ret(Some(h));
        m.functions.push(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("main", &[]).unwrap(), Some(Value::Float(5.0)));
        // Counts include the callee's operations.
        assert!(i.counts().total > 5);
        assert_eq!(i.counts().calls, 2);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut b = FunctionBuilder::new("spin", None);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m).with_fuel(1000);
        assert_eq!(i.run("spin", &[]), Err(ExecError::OutOfFuel { budget: 1000 }));
    }

    #[test]
    fn phi_execution_is_an_error() {
        let mut b = FunctionBuilder::new("p", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let d = b.new_reg(Ty::Int);
        b.push(Inst::Phi { dst: d, args: vec![] });
        b.ret(Some(x));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("p", &[Value::Int(0)]), Err(ExecError::PhiExecuted(BlockId::ENTRY)));
    }

    #[test]
    fn arity_and_unknowns() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.ret(Some(x));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert!(matches!(i.run("f", &[]), Err(ExecError::ArityMismatch { .. })));
        assert!(matches!(i.run("g", &[]), Err(ExecError::UnknownFunction(_))));
    }

    #[test]
    fn min_max_and_shifts() {
        let mut b = FunctionBuilder::new("mm", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let mn = b.bin(BinOp::Min, Ty::Int, x, y);
        let mx = b.bin(BinOp::Max, Ty::Int, x, y);
        let d = b.bin(BinOp::Sub, Ty::Int, mx, mn);
        let one = b.loadi(Const::Int(1));
        let sh = b.bin(BinOp::Shl, Ty::Int, d, one);
        b.ret(Some(sh));
        let m = module_of(b.finish());
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("mm", &[Value::Int(3), Value::Int(10)]).unwrap(), Some(Value::Int(14)));
    }

    /// Functions that each leave state behind for the next run: `poke`
    /// stores, `spin` spends all the fuel, `deep(n)` recurses `n` calls deep.
    const RESET_SRC: &str = "module data 4
function f(r0:i) -> i
block b0:
  ret r0
end
function poke(r0:i) -> i
block b0:
  r1 <- load.i [r0]
  r2 <- loadi 7:i
  store.i [r0] <- r2
  ret r1
end
function spin()
block b0:
  jump b0
end
function deep(r0:i) -> i
block b0:
  cbr r0 -> b1, b2
block b1:
  r1 <- loadi 1:i
  r2 <- sub.i r0, r1
  r3 <- call deep(r2):i
  ret r3
block b2:
  ret r0
end
";

    #[test]
    fn reset_clears_state() {
        const FUEL: u64 = 10_000;
        let m = epre_ir::parse_module(RESET_SRC).unwrap();
        let mut i = Interpreter::new(&m).with_fuel(FUEL);

        // Without a reset, stores, counts and spent fuel carry over.
        assert_eq!(i.run("poke", &[Value::Int(2)]), Ok(Some(Value::Int(0))));
        assert_eq!(i.run("poke", &[Value::Int(2)]), Ok(Some(Value::Int(7))));
        assert!(i.counts().total > 0);
        assert_eq!(i.run("spin", &[]), Err(ExecError::OutOfFuel { budget: FUEL }));
        assert_eq!(i.run("f", &[Value::Int(1)]), Err(ExecError::OutOfFuel { budget: FUEL }));
        i.reset();
        assert_eq!(i.counts(), OpCounts::default());
        assert_eq!(i.peek(2), Some(Value::Int(0)));
        assert_eq!(i.run("f", &[Value::Int(1)]), Ok(Some(Value::Int(1))));

        // Runaway recursion trips the depth guard long before the fuel runs
        // out; a reset interpreter then recurses as deep as a fresh one.
        // Each run below follows one that left memory, counts, fuel or
        // depth behind, and must match a fresh interpreter exactly.
        let runs: [(&str, &[Value]); 7] = [
            ("poke", &[Value::Int(2)]),
            ("poke", &[Value::Int(2)]),
            ("spin", &[]),
            ("f", &[Value::Int(3)]),
            ("deep", &[Value::Int(1000)]),
            ("deep", &[Value::Int(120)]),
            ("f", &[Value::Int(4)]),
        ];
        for (name, args) in runs {
            i.reset();
            let mut fresh = Interpreter::new(&m).with_fuel(FUEL);
            assert_eq!(i.run(name, args), fresh.run(name, args), "{name}{args:?}");
            assert_eq!(i.counts(), fresh.counts(), "{name}{args:?}");
            for addr in 0..4 {
                assert_eq!(i.peek(addr), fresh.peek(addr), "{name}{args:?} word {addr}");
            }
        }
        let mut fresh = Interpreter::new(&m).with_fuel(FUEL);
        let tripped = fresh.run("deep", &[Value::Int(1000)]);
        assert_eq!(tripped, Err(ExecError::OutOfFuel { budget: FUEL }));
        assert!(fresh.counts().total < FUEL, "the depth guard, not the fuel, stopped it");
        assert_eq!(fresh.run("deep", &[Value::Int(120)]), Ok(Some(Value::Int(0))));
    }

    #[test]
    fn first_function_of_a_name_wins() {
        let text = "module data 0
function f() -> i
block b0:
  r0 <- loadi 1:i
  ret r0
end
function f() -> i
block b0:
  r0 <- loadi 2:i
  ret r0
end
function g() -> i
block b0:
  r0 <- call f():i
  ret r0
end
";
        let m = epre_ir::parse_module(text).unwrap();
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("f", &[]), Ok(Some(Value::Int(1))));
        assert_eq!(i.run("g", &[]), Ok(Some(Value::Int(1))));
        assert!(std::ptr::eq(i.function("f").unwrap(), m.function("f").unwrap()));
    }
}
