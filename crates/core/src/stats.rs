//! Measurement helpers: run a routine under every optimization level and
//! collect the paper's metrics.

use epre_interp::{ExecError, Interpreter, OpCounts, Value};
use epre_ir::Module;

use crate::pipeline::{OptLevel, Optimizer};

/// One routine measured at one optimization level.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The level measured.
    pub level: OptLevel,
    /// Dynamic operation counts (Table 1's metric).
    pub counts: OpCounts,
    /// Static operation count of the optimized code.
    pub static_ops: usize,
    /// The computed result, for cross-level equivalence checking.
    pub result: Option<Value>,
}

/// Optimize `module` at `level` and execute `entry(args)`.
///
/// # Errors
/// Propagates interpreter failures (the unoptimized program misbehaving).
pub fn measure(
    module: &Module,
    level: OptLevel,
    entry: &str,
    args: &[Value],
) -> Result<Measurement, ExecError> {
    let optimized = Optimizer::new(level).optimize(module);
    let mut interp = Interpreter::new(&optimized);
    let result = interp.run(entry, args)?;
    Ok(Measurement {
        level,
        counts: interp.counts(),
        static_ops: optimized.static_op_count(),
        result,
    })
}

/// Measure `entry(args)` at every paper level, verifying that all levels
/// agree on the result (floats compared with a relative tolerance, since
/// reassociation legitimately changes rounding).
///
/// # Errors
/// Propagates interpreter failures.
///
/// # Panics
/// Panics if two levels disagree beyond tolerance — that is a *bug* in a
/// pass, and the benchmark harness must not silently report numbers from
/// miscompiled code.
pub fn measure_module(
    module: &Module,
    entry: &str,
    args: &[Value],
) -> Result<Vec<Measurement>, ExecError> {
    let mut out = Vec::new();
    for level in OptLevel::PAPER_LEVELS {
        out.push(measure(module, level, entry, args)?);
    }
    let baseline = out[0].result;
    for m in &out[1..] {
        assert!(
            results_agree(baseline, m.result),
            "{entry}: {} result {:?} differs from baseline {:?}",
            m.level.label(),
            m.result,
            baseline
        );
    }
    Ok(out)
}

/// Result agreement: exact for integers, relative 1e-6 for floats
/// (reassociation reorders float arithmetic, as FORTRAN permits).
pub fn results_agree(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
        (Some(Value::Float(x)), Some(Value::Float(y))) => {
            if x == y {
                return true;
            }
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-6 * scale
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};

    #[test]
    fn measure_reports_all_levels() {
        let src = "function f(a, b)\nreal a, b\nbegin\nreturn a * b + a * b\nend\n";
        let m = compile(src, NamingMode::Disciplined).unwrap();
        let ms = measure_module(&m, "f", &[Value::Float(3.0), Value::Float(4.0)]).unwrap();
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0].level, OptLevel::Baseline);
        assert!(ms.iter().all(|m| m.result == Some(Value::Float(24.0))));
        // PRE removes the duplicated a*b.
        assert!(ms[1].counts.total <= ms[0].counts.total);
    }

    #[test]
    fn tolerance_comparison() {
        assert!(results_agree(Some(Value::Float(1.0)), Some(Value::Float(1.0 + 1e-12))));
        assert!(!results_agree(Some(Value::Float(1.0)), Some(Value::Float(1.1))));
        assert!(results_agree(Some(Value::Int(3)), Some(Value::Int(3))));
        assert!(!results_agree(Some(Value::Int(3)), Some(Value::Float(3.0))));
        assert!(results_agree(None, None));
    }
}
