//! # epre-cfg — control-flow analysis for `epre-ir`
//!
//! Control-flow infrastructure shared by every pass in the Effective PRE
//! pipeline (Briggs & Cooper, PLDI 1994):
//!
//! * [`Cfg`] — predecessor/successor maps derived from a function's
//!   terminators, stored as [`Csr`] tables (one flat array per map, the
//!   layout every per-block list the passes rebuild shares),
//! * [`order`] — postorder and the **reverse postorder** traversal that the
//!   paper's rank computation walks (§3.1 "we traverse the control-flow
//!   graph in reverse postorder, assigning ranks"),
//! * [`dom`] — immediate dominators (Cooper–Harvey–Kennedy iterative
//!   algorithm), the dominator tree, and **dominance frontiers** (Cytron et
//!   al.) used to place φ-nodes,
//! * [`loops`] — natural loops and per-block **loop nesting depth**,
//! * [`edit`] — CFG surgery: splitting (critical) edges, needed both by
//!   forward propagation (§3.1 "if necessary, the entering edges are split")
//!   and by PRE's edge placement of inserted computations.
//!
//! ```
//! use epre_ir::{FunctionBuilder, Ty, Const, BinOp};
//! use epre_cfg::{Cfg, dom::Dominators};
//!
//! let mut b = FunctionBuilder::new("loopy", Some(Ty::Int));
//! let n = b.param(Ty::Int);
//! let head = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.jump(head);
//! b.switch_to(head);
//! let z = b.loadi(Const::Int(0));
//! let c = b.bin(BinOp::CmpLt, Ty::Int, z, n);
//! b.branch(c, body, exit);
//! b.switch_to(body);
//! b.jump(head);
//! b.switch_to(exit);
//! b.ret(Some(n));
//! let f = b.finish();
//!
//! let cfg = Cfg::new(&f);
//! let dom = Dominators::new(&f, &cfg);
//! assert!(dom.dominates(head, body));
//! ```

pub mod csr;
pub mod dom;
pub mod edit;
pub mod graph;
pub mod loops;
pub mod order;

pub use csr::Csr;
pub use dom::Dominators;
pub use graph::Cfg;
pub use loops::LoopInfo;
pub use order::{postorder, reverse_postorder, RpoNumbers};
