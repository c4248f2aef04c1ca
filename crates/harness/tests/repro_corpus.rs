//! The checked-in repro corpus: every `tests/repros/*.f` source must
//! compile and agree with its unoptimized self at **every** optimization
//! level under the differential oracle (these files are shrunk former
//! failures — the cheapest regression net there is), and every
//! `tests/repros/*.iloc` module must parse and provoke the failure its
//! header documents.

use epre::Optimizer;
use epre_frontend::{compile, NamingMode};
use epre_harness::oracle::OracleConfig;
use epre_harness::{compare_modules, FailureSpec, ALL_LEVELS};
use epre_interp::{ExecError, Interpreter, Value};
use epre_ir::parse_module;

fn repro_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

fn read_corpus(ext: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(repro_dir()).expect("repros directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no .{ext} repros found");
    out
}

#[test]
fn fortran_repros_agree_at_every_level() {
    for (name, src) in read_corpus("f") {
        let m = compile(&src, NamingMode::Disciplined).unwrap_or_else(|e| panic!("{name}: {e}"));
        for level in ALL_LEVELS {
            let opt = Optimizer::new(level).optimize(&m);
            let d = compare_modules(&m, &opt, &OracleConfig::default());
            assert!(d.is_empty(), "{name} at {}: {}", level.label(), d[0]);
        }
    }
}

/// The historical failure case recorded alongside the proptest
/// regression: the shadowed-index program with all-zero arguments. The
/// inner loop clobbers the outer counter, so the program never
/// terminates — the equivalence claim is that every level exhausts the
/// *same* fuel budget with the *same* error, exactly.
#[test]
fn nested_do_shadowed_index_exact_case() {
    let (_, src) = read_corpus("f")
        .into_iter()
        .find(|(n, _)| n == "nested_do_shadowed_index.f")
        .expect("promoted regression present");
    let m = compile(&src, NamingMode::Disciplined).unwrap();
    let args = [Value::Int(0), Value::Int(0), Value::Int(0), Value::Int(0)];
    let budget = 10_000u64;
    let reference: Result<Option<Value>, ExecError> =
        Interpreter::new(&m).with_fuel(budget).run("f", &args);
    assert_eq!(reference, Err(ExecError::OutOfFuel { budget }), "loop is non-terminating");
    for level in ALL_LEVELS {
        let opt = Optimizer::new(level).optimize(&m);
        let got = Interpreter::new(&opt).with_fuel(budget).run("f", &args);
        assert_eq!(got, reference, "level {}", level.label());
    }
}

#[test]
fn iloc_repros_parse_and_provoke_their_failure() {
    for (name, text) in read_corpus("iloc") {
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Convention: an iloc repro's failure is named in its filename,
        // e.g. `use_before_def_min.iloc` provokes L020.
        if name.starts_with("use_before_def") {
            let spec = FailureSpec::LintCode { code: "L020".into() };
            assert!(spec.holds(&m), "{name}: no longer provokes L020");
        }
    }
}
