//! # epre-suite — the benchmark routine suite
//!
//! The paper's test suite "consists of 50 routines, drawn from the Spec
//! benchmark suite and from Forsythe, Malcolm, and Moler's book on
//! numerical methods". The original FORTRAN sources are not distributable,
//! so this crate provides **50 mini-FORTRAN routines with the same names
//! and the same computational shapes**: the FMM numerical routines
//! (`fmin`, `zeroin`, `spline`, `seval`, `decomp`, `solve`, `svd`,
//! `rkf45`/`rkfs`/`fehl`, `urand`), the BLAS-style kernels (`saxpy`,
//! `sgemv`, `sgemm`), the Spec mesh/physics kernels (`tomcatv`, and the
//! doduc-flavoured routines `bilan` … `yeh`), and the table-generation
//! and bookkeeping routines (`gamgen`, `fmtset`, `fmtgen`, …).
//!
//! Each [`Routine`] is a self-contained program with a driver function
//! that fixes the workload (sizes reduced exactly as the paper reduced
//! `matrix300` and `tomcatv` "to ease testing") and returns a checksum,
//! so every optimization level can be validated against every other.
//!
//! ```
//! let suite = epre_suite::all_routines();
//! assert_eq!(suite.len(), 50);
//! let fmin = suite.iter().find(|r| r.name == "fmin").unwrap();
//! let module = fmin.compile(epre_frontend::NamingMode::Disciplined).unwrap();
//! assert!(module.function(fmin.entry).is_some());
//! ```

mod blas;
mod doduc;
mod fmm;
mod misc;

use std::collections::HashSet;

use epre_frontend::{compile, FrontendError, NamingMode};
use epre_ir::{Inst, Module};

/// One suite routine: a named mini-FORTRAN program plus its driver.
#[derive(Debug, Clone)]
pub struct Routine {
    /// The routine's name, matching the paper's Tables 1 and 2.
    pub name: &'static str,
    /// Complete mini-FORTRAN source (kernel + driver).
    pub source: &'static str,
    /// Driver function to execute; takes no arguments and returns a
    /// checksum.
    pub entry: &'static str,
    /// Provenance note: which part of the paper's suite it models.
    pub origin: &'static str,
}

impl Routine {
    /// Compile the routine under the given naming mode.
    ///
    /// # Errors
    /// Returns the front end's error; the bundled sources always compile
    /// (the test suite checks).
    pub fn compile(&self, mode: NamingMode) -> Result<Module, FrontendError> {
        compile(self.source, mode)
    }
}

/// All 50 routines, in the paper's Table 2 (alphabetical) order.
pub fn all_routines() -> Vec<Routine> {
    let mut v = Vec::new();
    v.extend(fmm::routines());
    v.extend(blas::routines());
    v.extend(doduc::routines());
    v.extend(misc::routines());
    v.sort_by_key(|r| r.name);
    v
}

/// All 50 routines fused into one module of 108 functions, so a
/// per-function driver (`--jobs`, the daemon) has real work to share out.
///
/// Each function's name, and each call to a function of the same
/// routine, is prefixed with `<routine>__` to keep names unique;
/// intrinsic calls are left alone. The routines' data segments overlap,
/// so the fused module is for optimizing, not for running.
///
/// # Panics
/// Panics if a bundled routine fails to compile (the suite's own tests
/// check that they all do).
pub fn fused_module() -> Module {
    let mut out = Module::new();
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        let local: HashSet<String> = m.functions.iter().map(|f| f.name.clone()).collect();
        out.data_words = out.data_words.max(m.data_words);
        for mut f in m.functions {
            f.name = format!("{}__{}", r.name, f.name);
            for inst in f.blocks.iter_mut().flat_map(|b| &mut b.insts) {
                if let Inst::Call { callee, .. } = inst {
                    if local.contains(callee.as_str()) {
                        *callee = format!("{}__{}", r.name, callee);
                    }
                }
            }
            out.functions.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifty_unique_routines() {
        let suite = all_routines();
        assert_eq!(suite.len(), 50, "the paper's suite has 50 routines");
        let mut names: Vec<&str> = suite.iter().map(|r| r.name).collect();
        names.dedup();
        assert_eq!(names.len(), 50, "routine names unique");
    }

    #[test]
    fn matches_paper_table2_names() {
        let expected = [
            "bilan", "cardeb", "coeray", "colbur", "dcoera", "ddeflu", "debflu", "debico",
            "decomp", "deseco", "drepvi", "drigl", "efill", "fehl", "fmin", "fmtgen", "fmtset",
            "fpppp", "gamgen", "heat", "hmoy", "ihbtr", "inideb", "iniset", "inithx", "integr",
            "orgpar", "paroi", "pastem", "prophy", "repvid", "rkf45", "rkfs", "saturr", "saxpy",
            "seval", "sgemm", "sgemv", "si", "solve", "spline", "subb", "supp", "svd", "tomcatv",
            "tvldrv", "urand", "x21y21", "yeh", "zeroin",
        ];
        let names: Vec<&str> = all_routines().iter().map(|r| r.name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn every_routine_compiles_in_both_naming_modes() {
        for r in all_routines() {
            for mode in [NamingMode::Simple, NamingMode::Disciplined] {
                let m = r.compile(mode).unwrap_or_else(|e| panic!("{} ({mode:?}): {e}", r.name));
                assert!(m.function(r.entry).is_some(), "{}: entry `{}`", r.name, r.entry);
                m.verify().unwrap_or_else(|e| panic!("{}: {e}", r.name));
            }
        }
    }

    #[test]
    fn fused_module_has_unique_names_and_resolves_local_calls() {
        let m = fused_module();
        let names: HashSet<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!((m.functions.len(), names.len()), (108, 108), "function names unique");
        for inst in m.functions.iter().flat_map(|f| &f.blocks).flat_map(|b| &b.insts) {
            if let Inst::Call { callee, .. } = inst {
                assert!(
                    names.contains(callee.as_str()) || epre_ir::is_intrinsic(callee),
                    "{callee}"
                );
            }
        }
        m.verify().unwrap();
    }

    #[test]
    fn every_routine_runs_unoptimized() {
        for r in all_routines() {
            let m = r.compile(NamingMode::Disciplined).unwrap();
            let mut i = epre_interp::Interpreter::new(&m);
            let out = i.run(r.entry, &[]);
            assert!(out.is_ok(), "{}: {:?}", r.name, out.err());
            assert!(out.unwrap().is_some(), "{}: driver must return a checksum", r.name);
            assert!(i.counts().total > 20, "{}: workload too trivial", r.name);
        }
    }
}
