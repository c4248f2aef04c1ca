//! # epre-ir — an ILOC-style three-address intermediate representation
//!
//! This crate implements the intermediate language that the whole
//! reproduction of Briggs & Cooper's *Effective Partial Redundancy
//! Elimination* (PLDI 1994) is built on. The paper's experimental compiler
//! uses **ILOC**, a low-level, register-based, three-address code: most
//! operations name two source registers and a target register, control flow
//! is explicit (`jump` / `cbr`), and memory is accessed only through `load`
//! and `store`.
//!
//! The representation here follows that design:
//!
//! * a [`Module`] is a set of [`Function`]s plus a statically-sized data
//!   segment (mini-FORTRAN arrays are allocated at link time, much like
//!   FORTRAN `COMMON` storage),
//! * a [`Function`] is a vector of basic [`Block`]s; block 0 is the entry,
//! * a [`Block`] is a straight-line vector of [`Inst`]s closed by a single
//!   [`Terminator`],
//! * every value lives in a virtual register [`Reg`] with a fixed type
//!   ([`Ty::Int`] or [`Ty::Float`]).
//!
//! The paper distinguishes **variable names** (targets of copies — they
//! correspond to source-level assignments and φ-nodes) from **expression
//! names** (targets of any other computation). That distinction is not a
//! static property of this IR; the passes that need it (PRE, global value
//! numbering, reassociation) establish and exploit it. See
//! [`Inst::is_expression`] for the classification used throughout.
//!
//! A faithful textual format is provided (modules [`mod@print`] and
//! [`parse`]) so that each optimization pass can be treated as a filter
//! over ILOC text, mirroring the paper's Unix-filter pass structure, and
//! so tests can round-trip IR.
//!
//! ```
//! use epre_ir::{FunctionBuilder, Ty, BinOp, Const};
//!
//! // function add3(a, b, c) { return a + b + c; }
//! let mut b = FunctionBuilder::new("add3", Some(Ty::Int));
//! let a = b.param(Ty::Int);
//! let bb = b.param(Ty::Int);
//! let c = b.param(Ty::Int);
//! let t1 = b.bin(BinOp::Add, Ty::Int, a, bb);
//! let t2 = b.bin(BinOp::Add, Ty::Int, t1, c);
//! b.ret(Some(t2));
//! let f = b.finish();
//! assert_eq!(f.blocks.len(), 1);
//! assert!(f.verify().is_ok());
//! # let _ = Const::Int(0);
//! ```

pub mod builder;
pub mod function;
pub mod hash;
pub mod inst;
pub mod parse;
pub mod print;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, Function, Module, Terminator};
pub use hash::{MixMap, MixState};
pub use inst::{is_intrinsic, is_polymorphic_intrinsic, BinOp, Inst, UnOp, INTRINSICS};
pub use parse::{parse_function, parse_module, ParseError, MAX_DATA_WORDS, MAX_REGS};
pub use types::{BlockId, Const, Reg, Ty};
pub use verify::{verify_function, verify_function_all, VerifyError, VerifyErrorKind};
