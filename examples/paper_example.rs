//! The paper's complete walkthrough, Figures 2 through 10: the function
//! `foo` of Figure 2 is taken through every stage of the pipeline, and
//! the IR is printed after each stage so the transformations can be read
//! side by side with the paper.
//!
//! Run with: `cargo run --example paper_example`

use epre::stages::{try_run_staged, Stage};
use epre_frontend::{compile, NamingMode};
use epre_interp::{Interpreter, Value};

fn main() {
    // Figure 2: Source Code. (The paper's FORTRAN, transcribed.)
    let source = "function foo(y, z)\n\
                  real y, z, s, x\n\
                  integer i\n\
                  begin\n\
                  s = 0\n\
                  x = y + z\n\
                  do i = x, 100\n\
                    s = i + s + x\n\
                  enddo\n\
                  return s\n\
                  end\n";
    println!("Figure 2: Source Code\n\n{source}");

    // Figure 3's translation "does not conform to the naming discipline",
    // so lower with Simple naming, as the paper does.
    let module = compile(source, NamingMode::Simple).expect("compiles");
    let routine = module.function("foo").unwrap();

    let staged = try_run_staged(routine, true).expect("the walkthrough stages verify");
    for (_, description, f) in &staged.snapshots {
        println!("{description}\n\n{f}\n");
    }

    // "Taken together, the sequence of transformations reduced the length
    // of the loop ... without increasing the length of any path through
    // the routine."
    let args = [Value::Float(1.0), Value::Float(2.0)];
    let mut m_before = epre_ir::Module::new();
    m_before.functions.push(staged.stage(Stage::Intermediate).clone());
    let mut m_after = epre_ir::Module::new();
    m_after.functions.push(staged.stage(Stage::Final).clone());
    let mut i_before = Interpreter::new(&m_before);
    let mut i_after = Interpreter::new(&m_after);
    let r0 = i_before.run("foo", &args).unwrap();
    let r1 = i_after.run("foo", &args).unwrap();
    assert_eq!(r0, r1, "semantics preserved");
    println!(
        "dynamic operations: {} before, {} after ({} saved); result {} both times",
        i_before.counts().total,
        i_after.counts().total,
        i_before.counts().total - i_after.counts().total,
        r1.unwrap(),
    );
}
