//! Lowering: AST → ILOC.
//!
//! The lowering follows the paper's front-end conventions:
//!
//! * scalar variables live in dedicated registers (*variable names*);
//!   assignments end in a `copy` to the variable's register,
//! * array elements are addressed with explicit three-address arithmetic in
//!   FORTRAN column-major order — `a(i, j)` with dimensions `(d1, d2)`
//!   becomes `base + (i-1) + (j-1)*d1`, the exact "multi-dimensional array
//!   addressing computation" shape §2.1 calls out,
//! * local arrays are allocated statically in the module data segment,
//! * `DO` loops evaluate their bounds once and test at the top
//!   (FORTRAN-77 trip semantics with a constant step).
//!
//! Two register-naming disciplines are supported, selected by
//! [`NamingMode`]; see the crate docs for the contrast. The disciplined
//! mode maintains the §2.2 hash table from lexical expression to canonical
//! register and re-emits the computation into that register at every
//! occurrence, so expression names never cross block boundaries (the §5.1
//! correctness rule).

use std::collections::HashMap;

use epre_ir::{
    is_intrinsic, is_polymorphic_intrinsic, BinOp, Const, FunctionBuilder, Module, Reg, Ty, UnOp,
};

use crate::ast::{BinExpr, Decl, Expr, FunctionDef, Program, Stmt, TypeName};
use crate::FrontendError;

/// Register-naming discipline used by lowering (paper §2.2).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum NamingMode {
    /// Hash-table expression naming: each lexical expression (and each
    /// constant) has one canonical register; variables are copy targets.
    /// This is what PRE requires and what the paper's compiler does.
    #[default]
    Disciplined,
    /// A fresh temporary for every computed value, as in the paper's
    /// Figure 3. PRE finds far less under this naming; global value
    /// numbering repairs it.
    Simple,
}

/// Lower a parsed [`Program`] to an ILOC [`Module`].
///
/// # Errors
/// Returns the first semantic error (unknown names, arity mismatches,
/// subscript count mismatches, misplaced assumed-size dimensions, …).
pub fn lower_program(program: &Program, mode: NamingMode) -> Result<Module, FrontendError> {
    let mut module = Module::new();
    let mut data_words = 0usize;

    // Pass 1: signatures (param count + return type) for call checking.
    let mut sigs: HashMap<String, Signature> = HashMap::new();
    for f in &program.functions {
        if sigs.contains_key(&f.name) {
            return Err(FrontendError {
                line: f.line,
                message: format!("duplicate procedure `{}`", f.name),
            });
        }
        sigs.insert(f.name.clone(), signature_of(f));
    }

    // Pass 2: lower each function.
    for f in &program.functions {
        let lowered = FnLowerer::new(f, &sigs, mode, &mut data_words)?.lower()?;
        module.functions.push(lowered);
    }
    module.data_words = data_words;
    module.verify().map_err(|e| FrontendError {
        line: 0,
        message: format!("internal error: lowered module fails verification: {e}"),
    })?;
    Ok(module)
}

/// Callee information for call sites.
#[derive(Debug, Clone)]
struct Signature {
    /// Parameter kinds, in order: `None` for an array (address), or the
    /// scalar's type.
    params: Vec<Option<Ty>>,
    /// Return type (None for subroutines).
    ret: Option<Ty>,
}

/// FORTRAN implicit typing: names starting with `i`–`n` are integer.
fn implicit_ty(name: &str) -> Ty {
    match name.chars().next() {
        Some(c @ 'i'..='n') => {
            let _ = c;
            Ty::Int
        }
        _ => Ty::Float,
    }
}

fn decl_ty(ty: TypeName) -> Ty {
    match ty {
        TypeName::Integer => Ty::Int,
        TypeName::Real => Ty::Float,
    }
}

fn signature_of(f: &FunctionDef) -> Signature {
    let decl_of = |name: &str| f.decls.iter().find(|d| d.name == name);
    let params = f
        .params
        .iter()
        .map(|p| match decl_of(p) {
            Some(d) if !d.dims.is_empty() => None,
            Some(d) => Some(decl_ty(d.ty)),
            None => Some(implicit_ty(p)),
        })
        .collect();
    let ret = if f.returns_value {
        Some(match decl_of(&f.name) {
            Some(d) => decl_ty(d.ty),
            None => implicit_ty(&f.name),
        })
    } else {
        None
    };
    Signature { params, ret }
}

/// A name in scope.
#[derive(Debug, Clone)]
enum Sym {
    Scalar {
        reg: Reg,
        ty: Ty,
    },
    Array {
        /// Static base address, or the parameter register holding it.
        base: ArrayBase,
        /// Dimensions; a trailing 0 means assumed-size (parameter arrays).
        dims: Vec<i64>,
        elem_ty: Ty,
    },
}

#[derive(Debug, Clone, Copy)]
enum ArrayBase {
    Static(i64),
    Param(Reg),
}

struct FnLowerer<'a> {
    def: &'a FunctionDef,
    sigs: &'a HashMap<String, Signature>,
    mode: NamingMode,
    b: FunctionBuilder,
    syms: HashMap<String, Sym>,
    ret_ty: Option<Ty>,
    /// Disciplined-mode canonical names for expressions.
    expr_names: HashMap<ExprName, Reg>,
}

/// Hash key identifying a lexical expression for the naming discipline.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ExprName {
    Bin(BinOp, Ty, Reg, Reg),
    Un(UnOp, Ty, Reg),
    Const(Const),
}

impl<'a> FnLowerer<'a> {
    fn new(
        def: &'a FunctionDef,
        sigs: &'a HashMap<String, Signature>,
        mode: NamingMode,
        data_words: &mut usize,
    ) -> Result<Self, FrontendError> {
        let sig = &sigs[&def.name];
        let ret_ty = sig.ret;
        let mut b = FunctionBuilder::new(def.name.clone(), ret_ty);
        let mut syms = HashMap::new();

        // Parameters first (register order must match call order).
        for (p, kind) in def.params.iter().zip(&sig.params) {
            match kind {
                Some(ty) => {
                    let reg = b.param(*ty);
                    syms.insert(p.clone(), Sym::Scalar { reg, ty: *ty });
                }
                None => {
                    let reg = b.param(Ty::Int); // array base address
                    let d = def.decls.iter().find(|d| d.name == *p).expect("array param decl");
                    validate_dims(d)?;
                    syms.insert(
                        p.clone(),
                        Sym::Array {
                            base: ArrayBase::Param(reg),
                            dims: d.dims.clone(),
                            elem_ty: decl_ty(d.ty),
                        },
                    );
                }
            }
        }
        // Declared locals.
        for d in &def.decls {
            if def.params.contains(&d.name) || d.name == def.name {
                continue; // parameter or function-name type declaration
            }
            if syms.contains_key(&d.name) {
                return Err(FrontendError {
                    line: d.line,
                    message: format!("`{}` declared twice", d.name),
                });
            }
            if d.dims.is_empty() {
                let ty = decl_ty(d.ty);
                let reg = b.new_reg(ty);
                syms.insert(d.name.clone(), Sym::Scalar { reg, ty });
            } else {
                validate_dims(d)?;
                if d.dims.contains(&0) {
                    return Err(FrontendError {
                        line: d.line,
                        message: format!("local array `{}` needs explicit dimensions", d.name),
                    });
                }
                let words: i64 = d.dims.iter().product();
                let base = *data_words as i64;
                *data_words += words as usize;
                syms.insert(
                    d.name.clone(),
                    Sym::Array {
                        base: ArrayBase::Static(base),
                        dims: d.dims.clone(),
                        elem_ty: decl_ty(d.ty),
                    },
                );
            }
        }
        Ok(FnLowerer { def, sigs, mode, b, syms, ret_ty, expr_names: HashMap::new() })
    }

    fn lower(mut self) -> Result<epre_ir::Function, FrontendError> {
        let returned = self.stmts(&self.def.body.clone())?;
        if !returned {
            // Implicit return at `end`.
            match self.ret_ty {
                None => self.b.ret(None),
                Some(ty) => {
                    // FORTRAN would return the (possibly unset) function
                    // variable; returning a deterministic zero keeps the
                    // interpreter's semantics reproducible.
                    let z = self.constant(match ty {
                        Ty::Int => Const::Int(0),
                        Ty::Float => Const::Float(0.0),
                    });
                    self.b.ret(Some(z));
                }
            }
        }
        Ok(self.b.finish())
    }

    // ---- naming discipline -------------------------------------------

    /// Emit a binary operation, honouring the naming mode.
    fn bin(&mut self, op: BinOp, ty: Ty, lhs: Reg, rhs: Reg) -> Reg {
        match self.mode {
            NamingMode::Simple => self.b.bin(op, ty, lhs, rhs),
            NamingMode::Disciplined => {
                // Canonicalize commutative operand order so `y+x` reuses
                // the name of `x+y`.
                let (l, r) = if op.is_commutative() && rhs < lhs { (rhs, lhs) } else { (lhs, rhs) };
                let key = ExprName::Bin(op, ty, l, r);
                match self.expr_names.get(&key) {
                    Some(&dst) => {
                        self.b.push(epre_ir::Inst::Bin { op, ty, dst, lhs: l, rhs: r });
                        dst
                    }
                    None => {
                        let dst = self.b.new_reg(op.result_ty(ty));
                        self.b.push(epre_ir::Inst::Bin { op, ty, dst, lhs: l, rhs: r });
                        self.expr_names.insert(key, dst);
                        dst
                    }
                }
            }
        }
    }

    /// Emit a unary operation, honouring the naming mode.
    fn un(&mut self, op: UnOp, ty: Ty, src: Reg) -> Reg {
        match self.mode {
            NamingMode::Simple => self.b.un(op, ty, src),
            NamingMode::Disciplined => {
                let key = ExprName::Un(op, ty, src);
                match self.expr_names.get(&key) {
                    Some(&dst) => {
                        self.b.push(epre_ir::Inst::Un { op, ty, dst, src });
                        dst
                    }
                    None => {
                        let dst = self.b.new_reg(op.result_ty(ty));
                        self.b.push(epre_ir::Inst::Un { op, ty, dst, src });
                        self.expr_names.insert(key, dst);
                        dst
                    }
                }
            }
        }
    }

    /// Materialize a constant, honouring the naming mode.
    fn constant(&mut self, c: Const) -> Reg {
        match self.mode {
            NamingMode::Simple => self.b.loadi(c),
            NamingMode::Disciplined => {
                let key = ExprName::Const(c);
                match self.expr_names.get(&key) {
                    Some(&dst) => {
                        self.b.push(epre_ir::Inst::LoadI { dst, value: c });
                        dst
                    }
                    None => {
                        let dst = self.b.new_reg(c.ty());
                        self.b.push(epre_ir::Inst::LoadI { dst, value: c });
                        self.expr_names.insert(key, dst);
                        dst
                    }
                }
            }
        }
    }

    /// Coerce `(reg, ty)` to `want`.
    fn coerce(&mut self, reg: Reg, ty: Ty, want: Ty) -> Reg {
        match (ty, want) {
            (Ty::Int, Ty::Float) => self.un(UnOp::I2F, Ty::Int, reg),
            (Ty::Float, Ty::Int) => self.un(UnOp::F2I, Ty::Float, reg),
            _ => reg,
        }
    }

    // ---- statements ---------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<bool, FrontendError> {
        // Returns true if the statement list definitely terminated (ended
        // in `return` on every path through its tail).
        for (i, s) in body.iter().enumerate() {
            if self.stmt(s)? {
                // Unreachable trailing statements are a semantic error in
                // this front end (keeps lowering simple and honest).
                if i + 1 != body.len() {
                    return Err(FrontendError {
                        line: stmt_line(&body[i + 1]),
                        message: "unreachable statement after `return`".into(),
                    });
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Lower one statement; returns true if it unconditionally returned.
    fn stmt(&mut self, s: &Stmt) -> Result<bool, FrontendError> {
        match s {
            Stmt::Assign { name, subs, value, line } => {
                self.assign(name, subs, value, *line)?;
                Ok(false)
            }
            Stmt::Return { value, line } => {
                match (self.ret_ty, value) {
                    (None, None) => self.b.ret(None),
                    (None, Some(_)) => {
                        return Err(FrontendError {
                            line: *line,
                            message: "subroutine cannot return a value".into(),
                        })
                    }
                    (Some(_), None) => {
                        return Err(FrontendError {
                            line: *line,
                            message: "function must return a value".into(),
                        })
                    }
                    (Some(want), Some(e)) => {
                        let (r, ty) = self.expr(e)?;
                        let r = self.coerce(r, ty, want);
                        self.b.ret(Some(r));
                    }
                }
                Ok(true)
            }
            Stmt::Call { name, args, line } => {
                let arg_regs = self.call_args(name, args, *line)?;
                let sig = self.sigs.get(name).ok_or_else(|| FrontendError {
                    line: *line,
                    message: format!("unknown subroutine `{name}`"),
                })?;
                if sig.ret.is_some() {
                    return Err(FrontendError {
                        line: *line,
                        message: format!("`{name}` is a function; call it in an expression"),
                    });
                }
                self.b.call_void(name.clone(), arg_regs);
                Ok(false)
            }
            Stmt::If { arms, otherwise, .. } => self.lower_if(arms, otherwise),
            Stmt::Do { var, from, to, step, body, line } => {
                self.lower_do(var, from, to, *step, body, *line)
            }
            Stmt::While { cond, body, .. } => self.lower_while(cond, body),
        }
    }

    fn assign(
        &mut self,
        name: &str,
        subs: &[Expr],
        value: &Expr,
        line: usize,
    ) -> Result<(), FrontendError> {
        let (vr, vty) = self.expr(value)?;
        if subs.is_empty() {
            let (reg, ty) = self.scalar_lvalue(name);
            let vr = self.coerce(vr, vty, ty);
            self.b.copy_to(reg, vr);
        } else {
            let (addr, elem_ty) = self.element_address(name, subs, line)?;
            let vr = self.coerce(vr, vty, elem_ty);
            self.b.store(elem_ty, addr, vr);
        }
        Ok(())
    }

    /// Resolve (creating on first assignment, FORTRAN-style) a scalar
    /// variable.
    fn scalar_lvalue(&mut self, name: &str) -> (Reg, Ty) {
        match self.syms.get(name) {
            Some(Sym::Scalar { reg, ty }) => (*reg, *ty),
            Some(Sym::Array { .. }) => {
                // Assigning to an array without subscripts: treat as an
                // implicit scalar shadow would be confusing; create a
                // scalar of the implicit type under a distinct key is
                // wrong, so fall through to implicit creation is NOT done.
                // Instead the caller reports via element_address when subs
                // are present; without subs this is an error in spirit,
                // but FORTRAN function-name assignment lands here too. We
                // allocate a scalar alias.
                let ty = implicit_ty(name);
                let reg = self.b.new_reg(ty);
                self.syms.insert(name.to_string(), Sym::Scalar { reg, ty });
                (reg, ty)
            }
            None => {
                let ty = implicit_ty(name);
                let reg = self.b.new_reg(ty);
                self.syms.insert(name.to_string(), Sym::Scalar { reg, ty });
                (reg, ty)
            }
        }
    }

    fn lower_if(
        &mut self,
        arms: &[(Expr, Vec<Stmt>)],
        otherwise: &[Stmt],
    ) -> Result<bool, FrontendError> {
        let join = self.b.new_block();
        let mut all_return = true;
        let mut joined = false;

        for (cond, body) in arms {
            let (c, cty) = self.expr(cond)?;
            let c = self.coerce(c, cty, Ty::Int);
            let then_b = self.b.new_block();
            let else_b = self.b.new_block();
            self.b.branch(c, then_b, else_b);
            self.b.switch_to(then_b);
            let returned = self.stmts(body)?;
            if !returned {
                self.b.jump(join);
                joined = true;
                all_return = false;
            }
            self.b.switch_to(else_b);
        }
        // Else arm (possibly empty) in the current block.
        let returned = self.stmts(otherwise)?;
        if !returned {
            self.b.jump(join);
            joined = true;
            all_return = false;
        }
        self.b.switch_to(join);
        if !joined {
            // Join unreachable; terminate it vacuously so the builder is
            // happy, then report "everything returned" to the caller. The
            // clean pass removes the dead block later.
            match self.ret_ty {
                None => self.b.ret(None),
                Some(ty) => {
                    let z = self.constant(match ty {
                        Ty::Int => Const::Int(0),
                        Ty::Float => Const::Float(0.0),
                    });
                    self.b.ret(Some(z));
                }
            }
        }
        Ok(all_return)
    }

    fn lower_do(
        &mut self,
        var: &str,
        from: &Expr,
        to: &Expr,
        step: i64,
        body: &[Stmt],
        _line: usize,
    ) -> Result<bool, FrontendError> {
        // FORTRAN-77 rotated loop shape, exactly the paper's Figure 3: a
        // zero-trip guard at the top, the test at the bottom. This is the
        // shape that lets PRE hoist loop invariants without lengthening
        // the zero-trip path (a top-test `while` shape would block it).
        let (iv, ivty) = self.scalar_lvalue(var);
        let (fr, frty) = self.expr(from)?;
        let fr = self.coerce(fr, frty, ivty);
        self.b.copy_to(iv, fr);
        // The limit is evaluated once, into a stable variable register.
        let (tr, trty) = self.expr(to)?;
        let tr = self.coerce(tr, trty, ivty);
        let limit = self.b.new_reg(ivty);
        self.b.copy_to(limit, tr);

        let body_b = self.b.new_block();
        let exit = self.b.new_block();
        // Guard: skip the loop entirely when the trip count is zero.
        let guard_cmp = if step > 0 { BinOp::CmpGt } else { BinOp::CmpLt };
        let g = self.bin(guard_cmp, ivty, iv, limit);
        self.b.branch(g, exit, body_b);
        self.b.switch_to(body_b);
        let returned = self.stmts(body)?;
        if !returned {
            let s = self.constant(match ivty {
                Ty::Int => Const::Int(step),
                Ty::Float => Const::Float(step as f64),
            });
            let next = self.bin(BinOp::Add, ivty, iv, s);
            self.b.copy_to(iv, next);
            let cmp = if step > 0 { BinOp::CmpLe } else { BinOp::CmpGe };
            let c = self.bin(cmp, ivty, iv, limit);
            self.b.branch(c, body_b, exit);
        }
        self.b.switch_to(exit);
        Ok(false)
    }

    fn lower_while(&mut self, cond: &Expr, body: &[Stmt]) -> Result<bool, FrontendError> {
        let head = self.b.new_block();
        let body_b = self.b.new_block();
        let exit = self.b.new_block();
        self.b.jump(head);
        self.b.switch_to(head);
        let (c, cty) = self.expr(cond)?;
        let c = self.coerce(c, cty, Ty::Int);
        self.b.branch(c, body_b, exit);
        self.b.switch_to(body_b);
        let returned = self.stmts(body)?;
        if !returned {
            self.b.jump(head);
        }
        self.b.switch_to(exit);
        Ok(false)
    }

    // ---- expressions ---------------------------------------------------

    /// Lower an expression; returns its register and type.
    fn expr(&mut self, e: &Expr) -> Result<(Reg, Ty), FrontendError> {
        match e {
            Expr::Int(v) => Ok((self.constant(Const::Int(*v)), Ty::Int)),
            Expr::Real(v) => Ok((self.constant(Const::Float(*v)), Ty::Float)),
            Expr::Var(name, line) => match self.syms.get(name) {
                Some(Sym::Scalar { reg, ty }) => Ok((*reg, *ty)),
                Some(Sym::Array { .. }) => Err(FrontendError {
                    line: *line,
                    message: format!("array `{name}` used without subscripts"),
                }),
                None => Err(FrontendError {
                    line: *line,
                    message: format!("`{name}` used before any assignment"),
                }),
            },
            Expr::Neg(inner, _) => {
                let (r, ty) = self.expr(inner)?;
                Ok((self.un(UnOp::Neg, ty, r), ty))
            }
            Expr::Not(inner, _) => {
                let (r, ty) = self.expr(inner)?;
                let r = self.coerce(r, ty, Ty::Int);
                let z = self.constant(Const::Int(0));
                Ok((self.bin(BinOp::CmpEq, Ty::Int, r, z), Ty::Int))
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                let (lr, lt) = self.expr(lhs)?;
                let (rr, rt) = self.expr(rhs)?;
                // FORTRAN mixed-mode arithmetic: promote to float if either
                // side is float; logical ops stay integral.
                let (op, is_logic) = match op {
                    BinExpr::Add => (BinOp::Add, false),
                    BinExpr::Sub => (BinOp::Sub, false),
                    BinExpr::Mul => (BinOp::Mul, false),
                    BinExpr::Div => (BinOp::Div, false),
                    BinExpr::Eq => (BinOp::CmpEq, false),
                    BinExpr::Ne => (BinOp::CmpNe, false),
                    BinExpr::Lt => (BinOp::CmpLt, false),
                    BinExpr::Le => (BinOp::CmpLe, false),
                    BinExpr::Gt => (BinOp::CmpGt, false),
                    BinExpr::Ge => (BinOp::CmpGe, false),
                    BinExpr::And => (BinOp::And, true),
                    BinExpr::Or => (BinOp::Or, true),
                };
                let ty = if is_logic {
                    Ty::Int
                } else if lt == Ty::Float || rt == Ty::Float {
                    Ty::Float
                } else {
                    Ty::Int
                };
                let lr = self.coerce(lr, lt, ty);
                let rr = self.coerce(rr, rt, ty);
                Ok((self.bin(op, ty, lr, rr), op.result_ty(ty)))
            }
            Expr::Index { name, args, line } => self.index_or_call(name, args, *line),
        }
    }

    /// `name(args)`: array element, builtin, intrinsic or function call.
    fn index_or_call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: usize,
    ) -> Result<(Reg, Ty), FrontendError> {
        if let Some(Sym::Array { elem_ty, .. }) = self.syms.get(name) {
            let elem_ty = *elem_ty;
            let (addr, _) = self.element_address(name, args, line)?;
            return Ok((self.load_element(elem_ty, addr), elem_ty));
        }
        // Builtins lowered to ILOC operations rather than calls.
        match name {
            "min" | "max" => {
                if args.len() < 2 {
                    return Err(FrontendError {
                        line,
                        message: format!("`{name}` needs at least two arguments"),
                    });
                }
                let op = if name == "min" { BinOp::Min } else { BinOp::Max };
                let mut vals = Vec::new();
                let mut ty = Ty::Int;
                for a in args {
                    let (r, t) = self.expr(a)?;
                    if t == Ty::Float {
                        ty = Ty::Float;
                    }
                    vals.push((r, t));
                }
                let mut acc = {
                    let (r, t) = vals[0];
                    self.coerce(r, t, ty)
                };
                for &(r, t) in &vals[1..] {
                    let r = self.coerce(r, t, ty);
                    acc = self.bin(op, ty, acc, r);
                }
                return Ok((acc, ty));
            }
            "float" | "real" => {
                if args.len() != 1 {
                    return Err(FrontendError {
                        line,
                        message: format!("`{name}` takes one argument"),
                    });
                }
                let (r, t) = self.expr(&args[0])?;
                return Ok((self.coerce(r, t, Ty::Float), Ty::Float));
            }
            "int" => {
                if args.len() != 1 {
                    return Err(FrontendError { line, message: "`int` takes one argument".into() });
                }
                let (r, t) = self.expr(&args[0])?;
                return Ok((self.coerce(r, t, Ty::Int), Ty::Int));
            }
            _ => {}
        }
        // Intrinsic library functions (opaque calls).
        if is_intrinsic(name) {
            let mut regs = Vec::new();
            for a in args {
                let (r, t) = self.expr(a)?;
                // Polymorphic intrinsics keep their argument type; the
                // float-only ones coerce.
                let r =
                    if is_polymorphic_intrinsic(name) { r } else { self.coerce(r, t, Ty::Float) };
                regs.push(r);
            }
            let ret_ty = if is_polymorphic_intrinsic(name) {
                // Type follows the first argument.
                self.b.ty_of(regs[0])
            } else {
                Ty::Float
            };
            let dst = self.b.call(name.to_string(), regs, ret_ty);
            return Ok((dst, ret_ty));
        }
        // User function call.
        let sig = self.sigs.get(name).cloned().ok_or_else(|| FrontendError {
            line,
            message: format!("unknown array or function `{name}`"),
        })?;
        let ret = sig.ret.ok_or_else(|| FrontendError {
            line,
            message: format!("subroutine `{name}` used as a function"),
        })?;
        let regs = self.call_args(name, args, line)?;
        let dst = self.b.call(name.to_string(), regs, ret);
        Ok((dst, ret))
    }

    /// Lower call arguments, checking against the callee's signature.
    /// Whole-array arguments pass their base address.
    fn call_args(
        &mut self,
        callee: &str,
        args: &[Expr],
        line: usize,
    ) -> Result<Vec<Reg>, FrontendError> {
        let sig = self.sigs.get(callee).cloned().ok_or_else(|| FrontendError {
            line,
            message: format!("unknown procedure `{callee}`"),
        })?;
        if sig.params.len() != args.len() {
            return Err(FrontendError {
                line,
                message: format!(
                    "`{callee}` expects {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(args.len());
        for (a, kind) in args.iter().zip(&sig.params) {
            match kind {
                None => {
                    // Array parameter: the argument must be an array name.
                    match a {
                        Expr::Var(n, l) => match self.syms.get(n) {
                            Some(Sym::Array { base, .. }) => {
                                let r = self.base_reg(*base);
                                out.push(r);
                            }
                            _ => {
                                return Err(FrontendError {
                                    line: *l,
                                    message: format!(
                                        "`{callee}` expects an array for this argument"
                                    ),
                                })
                            }
                        },
                        other => {
                            return Err(FrontendError {
                                line: other.line().max(line),
                                message: format!("`{callee}` expects an array argument"),
                            })
                        }
                    }
                }
                Some(want) => {
                    let (r, t) = self.expr(a)?;
                    out.push(self.coerce(r, t, *want));
                }
            }
        }
        Ok(out)
    }

    fn base_reg(&mut self, base: ArrayBase) -> Reg {
        match base {
            ArrayBase::Static(addr) => self.constant(Const::Int(addr)),
            ArrayBase::Param(reg) => reg,
        }
    }

    /// Compute the address of `name(subs...)` in column-major order.
    fn element_address(
        &mut self,
        name: &str,
        subs: &[Expr],
        line: usize,
    ) -> Result<(Reg, Ty), FrontendError> {
        let (base, dims, elem_ty) = match self.syms.get(name) {
            Some(Sym::Array { base, dims, elem_ty }) => (*base, dims.clone(), *elem_ty),
            _ => return Err(FrontendError { line, message: format!("`{name}` is not an array") }),
        };
        if subs.len() != dims.len() {
            return Err(FrontendError {
                line,
                message: format!(
                    "`{name}` has {} dimension(s), {} subscript(s) given",
                    dims.len(),
                    subs.len()
                ),
            });
        }
        // offset = (s1 - 1) + (s2 - 1)*d1 + (s3 - 1)*d1*d2 + ...
        let one = self.constant(Const::Int(1));
        let mut offset: Option<Reg> = None;
        let mut stride: i64 = 1;
        for (k, sub) in subs.iter().enumerate() {
            let (sr, st) = self.expr(sub)?;
            let sr = self.coerce(sr, st, Ty::Int);
            let adj = self.bin(BinOp::Sub, Ty::Int, sr, one);
            let term = if stride == 1 {
                adj
            } else {
                let s = self.constant(Const::Int(stride));
                self.bin(BinOp::Mul, Ty::Int, adj, s)
            };
            offset = Some(match offset {
                None => term,
                Some(acc) => self.bin(BinOp::Add, Ty::Int, acc, term),
            });
            if k < dims.len() - 1 {
                stride *= dims[k];
            }
        }
        let off = offset.expect("at least one subscript");
        let baser = self.base_reg(base);
        let addr = self.bin(BinOp::Add, Ty::Int, baser, off);
        Ok((addr, elem_ty))
    }

    fn load_element(&mut self, elem_ty: Ty, addr: Reg) -> Reg {
        self.b.load(elem_ty, addr)
    }
}

fn validate_dims(d: &Decl) -> Result<(), FrontendError> {
    // `*` (encoded 0) may appear only as the last dimension.
    for (i, &dim) in d.dims.iter().enumerate() {
        if dim == 0 && i + 1 != d.dims.len() {
            return Err(FrontendError {
                line: d.line,
                message: format!("`*` must be the last dimension of `{}`", d.name),
            });
        }
    }
    Ok(())
}

fn stmt_line(s: &Stmt) -> usize {
    match s {
        Stmt::Assign { line, .. }
        | Stmt::If { line, .. }
        | Stmt::Do { line, .. }
        | Stmt::While { line, .. }
        | Stmt::Call { line, .. }
        | Stmt::Return { line, .. } => *line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use epre_ir::Inst;

    fn lower(src: &str, mode: NamingMode) -> Module {
        lower_program(&parse_program(src).unwrap(), mode).unwrap()
    }

    #[test]
    fn disciplined_naming_reuses_expression_names() {
        // x = y + z ; a = y ; b = a + z — the paper's §2.2 example.
        // Under the discipline, `y + z` and `a + z` have different names
        // (different operand names), but two occurrences of `y + z` share.
        let src = "subroutine s(y, z)\nreal y, z\nbegin\n\
                   x = y + z\n\
                   w = y + z\n\
                   end\n";
        let m = lower(src, NamingMode::Disciplined);
        let f = m.function("s").unwrap();
        let adds: Vec<&Inst> = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        assert_eq!(adds[0].dst(), adds[1].dst(), "same lexical expression, same name");
    }

    #[test]
    fn simple_naming_gives_fresh_temps() {
        let src = "subroutine s(y, z)\nreal y, z\nbegin\n\
                   x = y + z\n\
                   w = y + z\n\
                   end\n";
        let m = lower(src, NamingMode::Simple);
        let f = m.function("s").unwrap();
        let adds: Vec<&Inst> = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        assert_ne!(adds[0].dst(), adds[1].dst());
    }

    #[test]
    fn commuted_operands_share_a_name_when_disciplined() {
        let src = "subroutine s(y, z)\nreal y, z\nbegin\n\
                   x = y + z\n\
                   w = z + y\n\
                   end\n";
        let m = lower(src, NamingMode::Disciplined);
        let f = m.function("s").unwrap();
        let adds: Vec<&Inst> = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds[0].dst(), adds[1].dst());
        assert_eq!(
            adds[0].uses().collect::<Vec<_>>(),
            adds[1].uses().collect::<Vec<_>>(),
            "operands canonicalized"
        );
    }

    #[test]
    fn constants_get_canonical_names() {
        let src = "subroutine s()\nbegin\n\
                   i = 5\n\
                   j = 5\n\
                   end\n";
        let m = lower(src, NamingMode::Disciplined);
        let f = m.function("s").unwrap();
        let loadis: Vec<&Inst> =
            f.blocks[0].insts.iter().filter(|i| matches!(i, Inst::LoadI { .. })).collect();
        assert_eq!(loadis.len(), 2);
        assert_eq!(loadis[0].dst(), loadis[1].dst());
    }

    #[test]
    fn implicit_typing_follows_fortran() {
        let src = "subroutine s()\nbegin\n\
                   i = 1\n\
                   x = 1.5\n\
                   end\n";
        let m = lower(src, NamingMode::Simple);
        let f = m.function("s").unwrap();
        // i gets Int, x gets Float: check the copies' destination types.
        let copies: Vec<&Inst> =
            f.blocks[0].insts.iter().filter(|i| matches!(i, Inst::Copy { .. })).collect();
        assert_eq!(f.ty_of(copies[0].dst().unwrap()), Ty::Int);
        assert_eq!(f.ty_of(copies[1].dst().unwrap()), Ty::Float);
    }

    #[test]
    fn array_addressing_is_column_major() {
        let src = "function f(i, j)\nreal m(10, 20)\nbegin\n\
                   m(i, j) = 1.0\n\
                   return m(i, j)\n\
                   end\n";
        let m = lower(src, NamingMode::Disciplined);
        assert_eq!(m.data_words, 200);
        let f = m.function("f").unwrap();
        // Address arithmetic: (i-1) + (j-1)*10 — a multiply by the leading
        // dimension must appear.
        let has_mul_by_10 = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }));
        assert!(has_mul_by_10);
        // Element type is float.
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Store { ty: Ty::Float, .. })));
    }

    #[test]
    fn arrays_allocate_disjoint_storage() {
        let src = "subroutine a()\nreal v(8)\nbegin\nv(1) = 0\nend\n\
                   subroutine b()\nreal w(8)\nbegin\nw(1) = 0\nend\n";
        let m = lower(src, NamingMode::Simple);
        assert_eq!(m.data_words, 16);
    }

    #[test]
    fn mixed_mode_arithmetic_promotes() {
        let src = "function f(i)\ninteger i\nbegin\nreturn i + 0.5\nend\n";
        let m = lower(src, NamingMode::Simple);
        let f = m.function("f").unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Un { op: UnOp::I2F, .. })));
        assert_eq!(f.ret_ty, Some(Ty::Float));
    }

    #[test]
    fn function_return_type_from_name() {
        let m = lower("function ifoo()\nbegin\nreturn 1\nend\n", NamingMode::Simple);
        assert_eq!(m.function("ifoo").unwrap().ret_ty, Some(Ty::Int));
        let m = lower("function xfoo()\nbegin\nreturn 1.0\nend\n", NamingMode::Simple);
        assert_eq!(m.function("xfoo").unwrap().ret_ty, Some(Ty::Float));
        // Overridden by a declaration of the function name.
        let m = lower("function ifoo()\nreal ifoo\nbegin\nreturn 1.0\nend\n", NamingMode::Simple);
        assert_eq!(m.function("ifoo").unwrap().ret_ty, Some(Ty::Float));
    }

    #[test]
    fn errors_for_bad_programs() {
        let err = |src: &str| {
            lower_program(&parse_program(src).unwrap(), NamingMode::Simple).unwrap_err()
        };
        assert!(err("subroutine s()\nbegin\nreturn 1\nend\n").message.contains("subroutine"));
        assert!(err("function f()\nbegin\nreturn\nend\n").message.contains("must return"));
        assert!(err("subroutine s()\nbegin\nx = y\nend\n").message.contains("before any"));
        assert!(err("subroutine s()\nreal v(4)\nbegin\nx = v(1, 2)\nend\n")
            .message
            .contains("dimension"));
        assert!(err("subroutine s()\nbegin\ncall nosuch(1)\nend\n").message.contains("unknown"));
        assert!(err("subroutine s(x)\nreal x(*)\nbegin\ncall t(1)\nend\n\
                     subroutine t(v)\nreal v(*)\nbegin\nv(1)=0\nend\n")
        .message
        .contains("array"));
        assert!(err("subroutine s()\nreal v(*)\nbegin\nend\n").message.contains("explicit"));
        assert!(err("function f()\nbegin\nreturn 1\nx = 2\nend\n").message.contains("unreachable"));
        assert!(err("function f()\nbegin\nreturn 1\nend\nfunction f()\nbegin\nreturn 2\nend\n")
            .message
            .contains("duplicate"));
    }

    #[test]
    fn do_loop_shape_matches_paper() {
        // Figure 3: enter, initialization, guarded loop.
        let src = "function foo(y, z)\nreal y, z, s, x\ninteger i\nbegin\n\
                   s = 0\n\
                   x = y + z\n\
                   do i = x, 100\n\
                     s = i + s + x\n\
                   enddo\n\
                   return s\nend\n";
        let m = lower(src, NamingMode::Simple);
        let f = m.function("foo").unwrap();
        // Figure 3 rotated shape: entry-with-guard + body + exit.
        assert_eq!(f.blocks.len(), 3);
        assert!(f.verify().is_ok());
        // Loop body adds i (int→float), s, x.
        let body_adds = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, ty: Ty::Float, .. }))
            .count();
        assert!(body_adds >= 3); // y+z, i+s, (i+s)+x
    }

    #[test]
    fn min_max_builtins_lower_to_ops() {
        let src = "function f(a, b, c)\nreal a, b, c\nbegin\nreturn max(a, b, c)\nend\n";
        let m = lower(src, NamingMode::Simple);
        let f = m.function("f").unwrap();
        let maxes = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Max, .. }))
            .count();
        assert_eq!(maxes, 2);
        assert_eq!(
            f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::Call { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn intrinsics_lower_to_calls() {
        let src = "function f(a)\nreal a\nbegin\nreturn sqrt(a) + abs(a)\nend\n";
        let m = lower(src, NamingMode::Disciplined);
        let f = m.function("f").unwrap();
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 2);
    }
}
