#![cfg(feature = "prop-tests")]
// Gated: requires the proptest dev-dependency, which the offline build
// environment cannot fetch. Restore it in Cargo.toml and build with
// `--features prop-tests` to run these.

//! Per-pass semantic preservation: each optimization pass, applied alone
//! to randomly generated programs, must preserve the interpreter-observable
//! result exactly (integer programs). This isolates faults to a single
//! pass, unlike the whole-pipeline property tests.

use proptest::prelude::*;

use epre_frontend::{compile, NamingMode};
use epre_interp::{Interpreter, Value};
use epre_ir::Module;
use epre_passes::passes::{Clean, Coalesce, ConstProp, Dce, Gvn, Lvn, Peephole, Pre, Reassociate};
use epre_passes::Pass;

/// Random structured integer program, shared shape with
/// `equivalence_prop.rs` but kept deliberately independent (different
/// statement mix) so the two generators cover different corners.
fn program_strategy() -> impl Strategy<Value = String> {
    let expr = prop_oneof![
        Just("v0".to_string()),
        Just("v1".to_string()),
        Just("v2".to_string()),
        (0i64..30).prop_map(|n| n.to_string()),
    ]
    .prop_recursive(3, 16, 2, |inner| {
        (inner.clone(), prop_oneof![Just("+"), Just("-"), Just("*")], inner)
            .prop_map(|(a, op, b)| format!("({a} {op} {b})"))
    });

    let assign = (0..3usize, expr.clone()).prop_map(|(v, e)| format!("v{v} = {e}\n"));
    let cond = (expr.clone(), 0..3usize, expr.clone(), 0..3usize, expr.clone()).prop_map(
        |(c, v1, e1, v2, e2)| format!("if {c} > 5 then\nv{v1} = {e1}\nelse\nv{v2} = {e2}\nendif\n"),
    );
    let dloop = (2i64..5, 0..3usize, expr.clone())
        .prop_map(|(n, v, e)| format!("do k0 = 1, {n}\nv{v} = v{v} + {e}\nenddo\n"));

    prop::collection::vec(prop_oneof![3 => assign, 1 => cond, 1 => dloop], 1..7).prop_map(|stmts| {
        let mut s = String::from("function f(v0, v1, v2)\ninteger f, v0, v1, v2, k0\nbegin\n");
        for st in stmts {
            s.push_str(&st);
        }
        s.push_str("return v0 + 2 * v1 + 3 * v2\nend\n");
        s
    })
}

fn result_of(m: &Module, args: &[Value]) -> Option<Value> {
    let mut i = Interpreter::new(m).with_fuel(1_000_000);
    i.run("f", args).expect("integer programs are total")
}

fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(Reassociate { distribute: false }),
        Box::new(Reassociate { distribute: true }),
        Box::new(Gvn),
        Box::new(Pre),
        Box::new(ConstProp),
        Box::new(Peephole),
        Box::new(Dce),
        Box::new(Coalesce),
        Box::new(Clean),
        Box::new(Lvn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn each_pass_alone_preserves_results(src in program_strategy(),
                                         a0 in -8i64..8, a1 in -8i64..8, a2 in -8i64..8,
                                         disciplined in any::<bool>()) {
        let mode = if disciplined { NamingMode::Disciplined } else { NamingMode::Simple };
        let module = compile(&src, mode).expect("generated programs compile");
        let args = [Value::Int(a0), Value::Int(a1), Value::Int(a2)];
        let expected = result_of(&module, &args);
        for pass in all_passes() {
            let mut m = module.clone();
            for f in &mut m.functions {
                pass.run(f);
                prop_assert!(f.verify().is_ok(), "{} broke the verifier on:\n{}", pass.name(), src);
            }
            let got = result_of(&m, &args);
            prop_assert_eq!(expected, got, "pass {} on ({},{},{}):\n{}", pass.name(), a0, a1, a2, src);
        }
    }

    /// Random pass *sequences* (the pipeline space) preserve results too —
    /// passes must compose in any order, like the paper's Unix filters.
    #[test]
    fn random_pass_sequences_preserve_results(src in program_strategy(),
                                              order in prop::collection::vec(0usize..10, 1..6),
                                              a0 in -8i64..8, a1 in -8i64..8) {
        let module = compile(&src, NamingMode::Disciplined).expect("compiles");
        let args = [Value::Int(a0), Value::Int(a1), Value::Int(2)];
        let expected = result_of(&module, &args);
        let passes = all_passes();
        let mut m = module.clone();
        for &i in &order {
            let pass = &passes[i % passes.len()];
            for f in &mut m.functions {
                pass.run(f);
            }
        }
        m.verify().expect("sequence result verifies");
        let got = result_of(&m, &args);
        prop_assert_eq!(expected, got, "sequence {:?} on:\n{}", order, src);
    }
}
