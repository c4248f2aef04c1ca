#![cfg(feature = "prop-tests")]
// Gated: requires the proptest dev-dependency, which the offline build
// environment cannot fetch. Restore it in Cargo.toml and build with
// `--features prop-tests` to run these.

//! Property-based testing: randomly generated structured programs must
//! compute identical results at every optimization level, and PRE must
//! never lengthen the executed path.
//!
//! The generator builds random mini-FORTRAN functions over integer
//! scalars (integers make equality exact — float reassociation
//! legitimately changes rounding) with nested `if`s, `do` loops and
//! shared subexpressions, then runs baseline vs. each level.

use proptest::prelude::*;

use epre::{OptLevel, Optimizer};
use epre_frontend::{compile, NamingMode};
use epre_interp::{ExecError, Interpreter, Value};
use epre_ir::Module;

/// A small expression AST rendered to mini-FORTRAN source.
#[derive(Debug, Clone)]
enum E {
    Var(usize),
    Num(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
}

impl E {
    fn render(&self, out: &mut String) {
        match self {
            E::Var(i) => out.push_str(&format!("v{i}")),
            E::Num(n) => {
                if *n < 0 {
                    out.push_str(&format!("(0 - {})", -n));
                } else {
                    out.push_str(&n.to_string());
                }
            }
            E::Add(a, b) => bin(out, a, "+", b),
            E::Sub(a, b) => bin(out, a, "-", b),
            E::Mul(a, b) => bin(out, a, "*", b),
            E::Min(a, b) => call(out, "min", a, b),
            E::Max(a, b) => call(out, "max", a, b),
        }
    }
}

fn bin(out: &mut String, a: &E, op: &str, b: &E) {
    out.push('(');
    a.render(out);
    out.push_str(&format!(" {op} "));
    b.render(out);
    out.push(')');
}

fn call(out: &mut String, name: &str, a: &E, b: &E) {
    out.push_str(name);
    out.push('(');
    a.render(out);
    out.push_str(", ");
    b.render(out);
    out.push(')');
}

#[derive(Debug, Clone)]
enum S {
    Assign(usize, E),
    If(E, Vec<S>, Vec<S>),
    Do(usize, i64, Vec<S>),
}

fn render_stmts(stmts: &[S], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for s in stmts {
        match s {
            S::Assign(v, e) => {
                out.push_str(&format!("{pad}v{v} = "));
                e.render(out);
                out.push('\n');
            }
            S::If(c, t, e) => {
                out.push_str(&format!("{pad}if "));
                c.render(out);
                out.push_str(" > 0 then\n");
                render_stmts(t, depth + 1, out);
                if !e.is_empty() {
                    out.push_str(&format!("{pad}else\n"));
                    render_stmts(e, depth + 1, out);
                }
                out.push_str(&format!("{pad}endif\n"));
            }
            S::Do(v, n, body) => {
                // Loop variables are disjoint from data variables.
                out.push_str(&format!("{pad}do k{v} = 1, {n}\n"));
                render_stmts(body, depth + 1, out);
                out.push_str(&format!("{pad}enddo\n"));
            }
        }
    }
}

const NVARS: usize = 4;

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![(0..NVARS).prop_map(E::Var), (-20i64..40).prop_map(E::Num),];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::Max(Box::new(a), Box::new(b))),
        ]
    })
}

fn stmt_strategy(depth: u32) -> BoxedStrategy<S> {
    if depth == 0 {
        (0..NVARS, expr_strategy()).prop_map(|(v, e)| S::Assign(v, e)).boxed()
    } else {
        // Each nesting depth owns one loop variable (k0, k1, k2), so
        // nested DOs never reuse a loop variable — reuse is illegal
        // FORTRAN and loops forever under rotated-loop lowering.
        let loop_var = depth as usize - 1;
        prop_oneof![
            3 => (0..NVARS, expr_strategy()).prop_map(|(v, e)| S::Assign(v, e)),
            1 => (
                expr_strategy(),
                prop::collection::vec(stmt_strategy(depth - 1), 1..3),
                prop::collection::vec(stmt_strategy(depth - 1), 0..2),
            )
                .prop_map(|(c, t, e)| S::If(c, t, e)),
            1 => (
                2i64..6,
                prop::collection::vec(stmt_strategy(depth - 1), 1..3),
            )
                .prop_map(move |(n, b)| S::Do(loop_var, n, b)),
        ]
        .boxed()
    }
}

fn program_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(stmt_strategy(2), 1..6).prop_map(|stmts| {
        let mut src = String::from("function f(v0, v1, v2, v3)\n");
        src.push_str("integer f, v0, v1, v2, v3, k0, k1, k2\nbegin\n");
        render_stmts(&stmts, 0, &mut src);
        // Combine all variables so everything is live.
        src.push_str("return v0 + 2 * v1 + 3 * v2 + 5 * v3\nend\n");
        src
    })
}

fn exec(m: &Module, args: &[Value]) -> Result<(Option<Value>, u64), ExecError> {
    let mut i = Interpreter::new(m).with_fuel(2_000_000);
    let r = i.run("f", args)?;
    Ok((r, i.counts().total))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Every optimization level computes exactly the baseline's result on
    /// random integer programs (and when the unoptimized program traps —
    /// e.g. overflow-free here, so traps don't occur — levels are skipped).
    #[test]
    fn all_levels_preserve_semantics(src in program_strategy(),
                                     a0 in -10i64..10, a1 in -10i64..10,
                                     a2 in -10i64..10, a3 in -10i64..10) {
        let module = compile(&src, NamingMode::Disciplined).expect("generated programs compile");
        let args = [Value::Int(a0), Value::Int(a1), Value::Int(a2), Value::Int(a3)];
        let base = exec(&module, &args);
        // Programs are total (no division); any failure is a harness bug.
        let (r0, c0) = base.expect("unoptimized program runs");
        for level in OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level).optimize(&module);
            opt.verify().expect("optimized module verifies");
            let (r1, c1) = exec(&opt, &args).expect("optimized program runs");
            prop_assert_eq!(r0, r1, "level {} on:\n{}", level.label(), src);
            // PRE alone never lengthens the path.
            if level == OptLevel::Partial {
                prop_assert!(c1 <= c0, "partial lengthened {} -> {} on:\n{}", c0, c1, src);
            }
        }
    }

    /// Both naming modes agree after full optimization.
    #[test]
    fn naming_modes_agree(src in program_strategy(),
                          a0 in -10i64..10, a1 in -10i64..10) {
        let args = [Value::Int(a0), Value::Int(a1), Value::Int(1), Value::Int(-2)];
        let mut results = Vec::new();
        for mode in [NamingMode::Simple, NamingMode::Disciplined] {
            let module = compile(&src, mode).expect("compiles");
            let opt = Optimizer::new(OptLevel::Distribution).optimize(&module);
            let (r, _) = exec(&opt, &args).expect("runs");
            results.push(r);
        }
        prop_assert_eq!(results[0], results[1], "on:\n{}", src);
    }
}
