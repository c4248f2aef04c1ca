//! # epre-analysis — data-flow analyses for the Effective PRE pipeline
//!
//! The paper's optimizer solves several global data-flow problems:
//! availability and anticipatability of *lexical expressions* for PRE
//! (Drechsler–Stadel formulation, §2 and §4), and live-variable analysis
//! for pruned SSA construction (§3.1) and Chaitin-style coalescing.
//!
//! This crate provides the shared machinery:
//!
//! * [`BitSet`] — a dense fixed-capacity bit set, the workhorse
//!   representation for all set-valued facts,
//! * [`dataflow`] — a small gen/kill solver over the CFG covering every
//!   union/intersection, forward/backward problem the pipeline needs,
//! * [`liveness`] — classic live-variable analysis, solved in one flat bit
//!   matrix,
//! * [`exprs`] — the **expression universe**: the set of distinct lexical
//!   three-address expressions of a function, the domain of PRE (the paper's
//!   naming discipline of §2.2 guarantees each has one canonical name),
//! * [`local`] — the per-block local predicates `TRANSP`, `ANTLOC`, `COMP`
//!   that seed PRE's global systems,
//! * [`cache`] — the [`AnalysisCache`]: lazily-memoized per-function
//!   CFG/orders/dominators/universe with pass-declared preservation, the
//!   backbone of the pass manager.

pub mod bitset;
pub mod cache;
pub mod dataflow;
pub mod exprs;
pub mod liveness;
pub mod local;

pub use bitset::BitSet;
pub use cache::{AnalysisCache, CacheStats, PreservedAnalyses};
pub use dataflow::{solve, Direction, Meet, Solution};
pub use exprs::{ExprId, ExprKey, ExprUniverse};
pub use liveness::{LiveIn, Liveness};
pub use local::LocalPredicates;
