//! The 50-routine suite as benchmark input, and the checks on what the
//! optimizer gives back. The checks use only the front end, the ILOC
//! parser and the interpreter, never the optimizer's own code.

use epre_frontend::NamingMode;
use epre_interp::{Interpreter, Value};
use epre_ir::Module;
use epre_perfbench::stats::Tally;

/// One compiled suite routine.
pub struct Routine {
    /// Suite name (`fmin`, `tomcatv`, ...).
    pub name: &'static str,
    /// Driver function that returns the checksum.
    pub entry: &'static str,
    /// The front end's output.
    pub module: Module,
}

/// Compile every suite routine, in Table 1 order.
pub fn compile() -> Vec<Routine> {
    epre_suite::all_routines()
        .into_iter()
        .map(|r| Routine {
            name: r.name,
            entry: r.entry,
            module: r
                .compile(NamingMode::Disciplined)
                .unwrap_or_else(|e| panic!("suite routine {} does not compile: {e}", r.name)),
        })
        .collect()
}

/// What one run of a routine's driver did.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The checksum the driver returned.
    pub result: Option<Value>,
    /// Dynamic ILOC operations executed (Table 1's measure).
    pub dyn_ops: u64,
}

/// Run `entry` in the interpreter.
///
/// # Errors
/// The interpreter's error, rendered.
pub fn run(module: &Module, entry: &str) -> Result<Run, String> {
    let mut interp = Interpreter::new(module);
    let result = interp
        .run(entry, &[])
        .map_err(|e| format!("{entry}: {e}"))?;
    Ok(Run {
        result,
        dyn_ops: interp.counts().total,
    })
}

/// Checksum agreement: exact for integers; for floats a relative 1e-6,
/// because reassociation reorders floating-point sums.
pub fn same_checksum(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
        (Some(Value::Float(x)), Some(Value::Float(y))) => {
            x == y || (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
        }
        _ => false,
    }
}

/// What a workload's untimed check found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Dynamic ILOC operations of the checked outputs.
    pub dyn_ops: u64,
    /// Static ILOC operations of the checked outputs.
    pub static_ops: u64,
    /// Operations the interpreter executed while checking.
    pub interp_ops: u64,
    /// Seconds the interpreter spent on them.
    pub interp_s: f64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Static operation count: instructions plus one terminator per block.
pub fn static_ops(module: &Module) -> u64 {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64 + 1)
        .sum()
}
