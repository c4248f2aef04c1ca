//! Lazily-computed, memoized per-function analyses for the pass manager.
//!
//! Every pass in the paper's pipeline is "a Unix filter … including all the
//! required control-flow and data-flow analyses" — which, taken literally,
//! rebuilds the CFG and dominator tree from scratch at every pass boundary
//! and several times *within* passes like `sccp` and `clean`. The
//! [`AnalysisCache`] removes that cost without giving up the filter
//! structure: the pipeline owns one cache per function, passes request
//! analyses through it, and each pass drops exactly the entries its edits
//! make stale (`invalidate_*`, or [`AnalysisCache::retain`] with a
//! [`PreservedAnalyses`] set) rather than recomputing pessimistically.
//!
//! The contract (enforced in debug builds by [`AnalysisCache::validate`]):
//! when a pass returns, a cached entry, when present, is always equal to
//! what a fresh computation over the current function would produce. A
//! pass that breaks it — mutating the CFG and leaving the cached one in
//! place — is caught by `validate` and surfaced as a verifier-kind pass
//! fault by the pipeline.

use epre_cfg::{order, Cfg, Dominators};
use epre_ir::{BlockId, Function};

use crate::exprs::ExprUniverse;
use crate::liveness::Liveness;

/// The set of cached analyses a pass keeps valid when it changes the IR.
///
/// The flags are coarse on purpose, mirroring how the analyses depend on
/// each other: `cfg` covers the whole control-flow family (CFG, reverse
/// postorder, postorder, dominators), which is invalidated only by edits
/// to block structure or terminators; `universe` covers the lexical
/// expression universe, invalidated by any instruction edit; `liveness`
/// covers the per-block live-variable sets, invalidated by any edit that
/// adds, removes, or renames a definition or use (which in practice means
/// any instruction edit — CFG edits drop it transitively).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreservedAnalyses {
    cfg: bool,
    universe: bool,
    liveness: bool,
}

impl PreservedAnalyses {
    /// Nothing survives — the safe default for a transforming pass.
    pub fn none() -> Self {
        PreservedAnalyses { cfg: false, universe: false, liveness: false }
    }

    /// Everything survives.
    pub fn all() -> Self {
        PreservedAnalyses { cfg: true, universe: true, liveness: true }
    }

    /// Builder: additionally preserve the control-flow family (CFG,
    /// traversal orders, dominators).
    pub fn with_cfg(mut self) -> Self {
        self.cfg = true;
        self
    }

    /// Builder: additionally preserve the expression universe.
    pub fn with_universe(mut self) -> Self {
        self.universe = true;
        self
    }

    /// Builder: additionally preserve the live-variable sets.
    pub fn with_liveness(mut self) -> Self {
        self.liveness = true;
        self
    }

    /// Does the set include the control-flow family?
    pub fn preserves_cfg(&self) -> bool {
        self.cfg
    }

    /// Does the set include the expression universe?
    pub fn preserves_universe(&self) -> bool {
        self.universe
    }

    /// Does the set include the live-variable sets?
    pub fn preserves_liveness(&self) -> bool {
        self.liveness
    }
}

/// Hit/miss counters for one [`AnalysisCache`] (or a whole run, via
/// [`CacheStats::merge`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to compute the analysis.
    pub misses: u64,
}

impl CacheStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Memoized per-function analyses: CFG, traversal orders, dominators, and
/// the lexical expression universe.
///
/// ```
/// use epre_analysis::AnalysisCache;
/// use epre_ir::{FunctionBuilder, Ty};
///
/// let mut b = FunctionBuilder::new("f", Some(Ty::Int));
/// let x = b.param(Ty::Int);
/// b.ret(Some(x));
/// let f = b.finish();
///
/// let mut cache = AnalysisCache::new();
/// let n = cache.cfg(&f).len();      // computed
/// assert_eq!(cache.cfg(&f).len(), n); // cached
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AnalysisCache {
    cfg: Option<Cfg>,
    rpo: Option<Vec<BlockId>>,
    postorder: Option<Vec<BlockId>>,
    doms: Option<Dominators>,
    universe: Option<ExprUniverse>,
    liveness: Option<Liveness>,
    stats: CacheStats,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    fn ensure_cfg(&mut self, f: &Function) {
        if self.cfg.is_none() {
            self.stats.misses += 1;
            self.cfg = Some(Cfg::new(f));
        } else {
            self.stats.hits += 1;
        }
    }

    /// The function's CFG, computed at most once per invalidation epoch.
    pub fn cfg(&mut self, f: &Function) -> &Cfg {
        self.ensure_cfg(f);
        self.cfg.as_ref().expect("just ensured")
    }

    /// Reverse postorder over the reachable blocks.
    pub fn rpo(&mut self, f: &Function) -> &[BlockId] {
        if self.rpo.is_none() {
            self.ensure_cfg(f);
            self.stats.misses += 1;
            self.rpo = Some(order::reverse_postorder(self.cfg.as_ref().expect("just ensured")));
        } else {
            self.stats.hits += 1;
        }
        self.rpo.as_ref().expect("just ensured")
    }

    /// Postorder over the reachable blocks.
    pub fn postorder(&mut self, f: &Function) -> &[BlockId] {
        if self.postorder.is_none() {
            self.ensure_cfg(f);
            self.stats.misses += 1;
            self.postorder = Some(order::postorder(self.cfg.as_ref().expect("just ensured")));
        } else {
            self.stats.hits += 1;
        }
        self.postorder.as_ref().expect("just ensured")
    }

    /// Immediate dominators, dominator tree, and dominance frontiers.
    pub fn dominators(&mut self, f: &Function) -> &Dominators {
        if self.doms.is_none() {
            self.ensure_cfg(f);
            self.stats.misses += 1;
            self.doms = Some(Dominators::new(f, self.cfg.as_ref().expect("just ensured")));
        } else {
            self.stats.hits += 1;
        }
        self.doms.as_ref().expect("just ensured")
    }

    /// The lexical expression universe of `f`.
    pub fn universe(&mut self, f: &Function) -> &ExprUniverse {
        if self.universe.is_none() {
            self.stats.misses += 1;
            self.universe = Some(ExprUniverse::new(f));
        } else {
            self.stats.hits += 1;
        }
        self.universe.as_ref().expect("just ensured")
    }

    /// Per-block live-variable sets (φ-free code only).
    ///
    /// The sets are the backbone of the incremental interference
    /// representation behind coalescing and of the dead-code sweeps:
    /// both passes run back to back at the tail of every level, so a
    /// quiesced `dce` hands its final liveness to `coalesce` for free.
    pub fn liveness(&mut self, f: &Function) -> &Liveness {
        if self.liveness.is_none() {
            self.ensure_cfg(f);
            self.stats.misses += 1;
            self.liveness = Some(Liveness::new(f, self.cfg.as_ref().expect("just ensured")));
        } else {
            self.stats.hits += 1;
        }
        self.liveness.as_ref().expect("just ensured")
    }

    /// CFG and dominators together (both borrows live simultaneously).
    pub fn cfg_and_dominators(&mut self, f: &Function) -> (&Cfg, &Dominators) {
        if self.doms.is_none() {
            // Route through the getter so stats are counted.
            let _ = self.dominators(f);
        } else {
            // Both present: two hits.
            self.stats.hits += 2;
        }
        (
            self.cfg.as_ref().expect("dominators imply cfg"),
            self.doms.as_ref().expect("just ensured"),
        )
    }

    /// Drop every cached entry.
    pub fn invalidate_all(&mut self) {
        self.cfg = None;
        self.rpo = None;
        self.postorder = None;
        self.doms = None;
        self.universe = None;
        self.liveness = None;
    }

    /// Drop the control-flow family (CFG, traversal orders, dominators).
    /// Liveness is built on top of the CFG, so it falls with it.
    pub fn invalidate_cfg(&mut self) {
        self.cfg = None;
        self.rpo = None;
        self.postorder = None;
        self.doms = None;
        self.liveness = None;
    }

    /// Drop the expression universe.
    pub fn invalidate_universe(&mut self) {
        self.universe = None;
    }

    /// Drop the live-variable sets.
    pub fn invalidate_liveness(&mut self) {
        self.liveness = None;
    }

    /// Keep exactly the analyses in `preserved`, dropping the rest.
    pub fn retain(&mut self, preserved: PreservedAnalyses) {
        if !preserved.preserves_cfg() {
            self.invalidate_cfg();
        }
        if !preserved.preserves_universe() {
            self.invalidate_universe();
        }
        if !preserved.preserves_liveness() {
            self.invalidate_liveness();
        }
    }

    /// Is a CFG currently cached? (Inspection hook for tests.)
    pub fn has_cfg(&self) -> bool {
        self.cfg.is_some()
    }

    /// Is an expression universe currently cached?
    pub fn has_universe(&self) -> bool {
        self.universe.is_some()
    }

    /// Are live-variable sets currently cached?
    pub fn has_liveness(&self) -> bool {
        self.liveness.is_some()
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Check every cached entry against a fresh computation over `f`.
    ///
    /// This is the cache-soundness oracle the pipeline runs in debug
    /// builds after each pass: a pass that mutated the IR but left an
    /// analysis it broke in the cache produces a mismatch here and is
    /// blamed by name.
    ///
    /// # Errors
    /// A human-readable description of the first stale entry found.
    pub fn validate(&self, f: &Function) -> Result<(), String> {
        if let Some(cached) = &self.cfg {
            let fresh = Cfg::new(f);
            if *cached != fresh {
                return Err("cached CFG is stale (control flow changed under a pass that claimed to preserve it)".into());
            }
            if let Some(rpo) = &self.rpo {
                if *rpo != order::reverse_postorder(&fresh) {
                    return Err("cached reverse postorder is stale".into());
                }
            }
            if let Some(po) = &self.postorder {
                if *po != order::postorder(&fresh) {
                    return Err("cached postorder is stale".into());
                }
            }
        }
        if let Some(cached) = &self.universe {
            if *cached != ExprUniverse::new(f) {
                return Err("cached expression universe is stale (instructions changed under a pass that claimed to preserve it)".into());
            }
        }
        if let Some(cached) = &self.liveness {
            // The CFG check above already caught structural drift; an
            // independent fresh CFG keeps this check self-contained even
            // when only liveness is cached.
            let cfg = Cfg::new(f);
            if *cached != Liveness::new(f, &cfg) {
                return Err("cached liveness is stale (defs/uses changed under a pass that claimed to preserve it)".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Terminator, Ty};

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, x, z);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn memoizes_and_counts() {
        let f = diamond();
        let mut cache = AnalysisCache::new();
        assert_eq!(cache.cfg(&f).len(), 4);
        assert_eq!(cache.cfg(&f).len(), 4);
        let _ = cache.rpo(&f);
        let _ = cache.rpo(&f);
        let _ = cache.dominators(&f);
        let _ = cache.universe(&f);
        let s = cache.stats();
        assert_eq!(s.misses, 4, "{s:?}"); // cfg, rpo, doms, universe
        assert!(s.hits >= 3, "{s:?}"); // repeat cfg/rpo + ensure_cfg hits
        assert!(cache.validate(&f).is_ok());
    }

    #[test]
    fn retain_follows_preserved_sets() {
        let f = diamond();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        let _ = cache.universe(&f);
        cache.retain(PreservedAnalyses::none().with_cfg());
        assert!(cache.has_cfg());
        assert!(!cache.has_universe());
        cache.retain(PreservedAnalyses::none());
        assert!(!cache.has_cfg());
        // all() keeps everything.
        let _ = cache.cfg(&f);
        cache.retain(PreservedAnalyses::all());
        assert!(cache.has_cfg());
    }

    #[test]
    fn validate_detects_stale_cfg_and_universe() {
        let mut f = diamond();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        let _ = cache.universe(&f);
        assert!(cache.validate(&f).is_ok());
        // Rewire the join to return via block 1: control flow changed.
        f.blocks[1].term = Terminator::Return { value: None };
        let err = cache.validate(&f).expect_err("stale CFG must be caught");
        assert!(err.contains("CFG"), "{err}");
        // A pure instruction edit with intact control flow: CFG fine,
        // universe stale.
        let mut f2 = diamond();
        let mut cache2 = AnalysisCache::new();
        let _ = cache2.cfg(&f2);
        let _ = cache2.universe(&f2);
        f2.blocks[0].insts.pop();
        // Removing the compare breaks the branch's use, but validate only
        // compares analyses; the universe check fires first.
        let err2 = cache2.validate(&f2).expect_err("stale universe must be caught");
        assert!(err2.contains("universe"), "{err2}");
    }

    #[test]
    fn liveness_is_cached_and_invalidated_with_cfg() {
        let f = diamond();
        let mut cache = AnalysisCache::new();
        let live_in_entry = cache.liveness(&f).live_in[0].clone();
        assert!(cache.has_liveness());
        let misses = cache.stats().misses;
        assert_eq!(cache.liveness(&f).live_in[0], live_in_entry); // hit
        assert_eq!(cache.stats().misses, misses);
        assert!(cache.validate(&f).is_ok());

        // CFG invalidation takes liveness down with it.
        cache.invalidate_cfg();
        assert!(!cache.has_liveness());

        // retain() honors the liveness flag; all() keeps it.
        let _ = cache.liveness(&f);
        cache.retain(PreservedAnalyses::all());
        assert!(cache.has_liveness());
        cache.retain(PreservedAnalyses::none().with_cfg().with_universe());
        assert!(!cache.has_liveness());
    }

    #[test]
    fn validate_detects_stale_liveness() {
        let mut f = diamond();
        let mut cache = AnalysisCache::new();
        let _ = cache.liveness(&f);
        assert!(cache.validate(&f).is_ok());
        // Dropping the compare changes upward-exposed uses (and the
        // universe, but only liveness is cached here).
        f.blocks[0].insts.pop();
        f.blocks[0].insts.pop();
        let err = cache.validate(&f).expect_err("stale liveness must be caught");
        assert!(err.contains("liveness"), "{err}");
    }

    #[test]
    fn cfg_and_dominators_borrow_together() {
        let f = diamond();
        let mut cache = AnalysisCache::new();
        let (cfg, doms) = cache.cfg_and_dominators(&f);
        assert_eq!(cfg.len(), 4);
        assert!(doms.is_reachable(epre_ir::BlockId::ENTRY));
        let (_, _) = cache.cfg_and_dominators(&f);
        assert!(cache.stats().hits >= 2);
    }
}
