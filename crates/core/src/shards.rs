//! The module driver: [`map_functions`] maps a per-function pipeline over
//! a module's functions, inline or on a scoped worker pool.
//!
//! Functions are independent compilation units in the paper's optimizer
//! (§4.1 applies one pass sequence to each routine), so every module-level
//! entry point — the plain, traced, governed and journaled pipelines — is
//! one call to [`map_functions`] with a different per-function closure.
//! The driver owns the three decisions those entry points used to repeat:
//!
//! * **Scheduling.** Workers take function indices from one shared
//!   atomic counter, in module order, as the harness's watchdog pool
//!   does: a worker that drew a heavyweight function takes its next
//!   index later, so no function waits in a queue behind it.
//! * **Determinism.** Results land in per-function slots and are
//!   reassembled in module order, and the error reported is the one of
//!   the earliest function in that order — so the output never depends
//!   on the schedule or on `jobs`.
//! * **Containment.** Any panic in the per-function closure is caught by
//!   [`catch_quiet`] and becomes a [`PassFault`] of kind `panic` blamed on
//!   the pseudo-pass `pipeline`, at every `jobs`, inline included.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use epre_ir::{Function, Module};

use crate::fault::PassFault;

thread_local! {
    /// When set, the process-wide panic hook stays silent for panics on
    /// this thread: the caller expects them and converts them to faults.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Run `body`, catching any panic and returning its payload as a string.
///
/// The first call installs a process-wide panic-hook shim that suppresses
/// hook output for panics occurring while this thread is inside
/// `catch_quiet` — without it a fuzz campaign injecting thousands of
/// faults would bury real output in backtrace noise. Panics on other
/// threads keep the previous hook's behaviour. Calls nest.
///
/// # Errors
/// The panic payload (downcast to a string where possible).
pub fn catch_quiet<R>(body: impl FnOnce() -> R) -> Result<R, String> {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = QUIET_PANICS.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(body));
    QUIET_PANICS.with(|q| q.set(outer));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Map `per_fn` over the functions of `module` with up to `jobs` threads,
/// returning the results in module order.
///
/// Each worker first calls `setup` once to build its private state (a
/// pass list, typically: pass objects are not `Sync`), then runs
/// `per_fn(&mut state, index, function)` for every function it takes.
/// `jobs <= 1` (or a module of at most one function) runs inline on the
/// calling thread and stops at the first error; otherwise a
/// [`std::thread::scope`] pool of up to `jobs` workers draws indices
/// from one atomic counter and every function runs. Either way the error returned is that of the earliest
/// function in module order, and a panic inside `per_fn` is contained as
/// [`PassFault::panic`] (pass `pipeline`) converted into `E`.
///
/// ```
/// use epre::shards::map_functions;
/// use epre::PassFault;
/// use epre_ir::{Function, Module};
///
/// let mut m = Module::new();
/// m.functions.push(Function::new("a", None));
/// m.functions.push(Function::new("b", None));
/// let names: Result<Vec<String>, PassFault> =
///     map_functions(&m, 4, || (), |_, _, f| Ok(f.name.clone()));
/// assert_eq!(names.unwrap(), ["a", "b"]);
/// ```
///
/// # Errors
/// The first error in module function order.
pub fn map_functions<S, R, E>(
    module: &Module,
    jobs: usize,
    setup: impl Fn() -> S + Sync,
    per_fn: impl Fn(&mut S, usize, &Function) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: From<PassFault> + Send,
{
    let functions = &module.functions;
    let run = |state: &mut S, i: usize| {
        let f = &functions[i];
        catch_quiet(|| per_fn(state, i, f))
            .unwrap_or_else(|payload| Err(PassFault::panic("pipeline", &f.name, payload).into()))
    };
    let n = functions.len();
    if jobs <= 1 || n <= 1 {
        let mut state = setup();
        return (0..n).map(|i| run(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            let (next, slots, setup, run) = (&next, &slots, &setup, &run);
            s.spawn(move || {
                let mut state = setup();
                loop {
                    // Relaxed: the counter publishes no data; results reach
                    // the caller through the slots' mutexes and the join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(run(&mut state, i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(names: &[&str]) -> Module {
        let mut m = Module::new();
        for name in names {
            m.functions.push(Function::new(*name, None));
        }
        m
    }

    #[test]
    fn map_functions_keeps_module_order_and_runs_setup_per_worker() {
        let m = module(&["a", "b", "c", "d", "e"]);
        let expect: Vec<(usize, String)> =
            m.functions.iter().enumerate().map(|(i, f)| (i, f.name.clone())).collect();
        for jobs in [1, 2, 4, 8] {
            let setups = AtomicUsize::new(0);
            let out: Result<Vec<(usize, String)>, PassFault> = map_functions(
                &m,
                jobs,
                || setups.fetch_add(1, Ordering::Relaxed),
                |_, i, f| Ok((i, f.name.clone())),
            );
            assert_eq!(out.unwrap(), expect, "jobs {jobs}");
            assert_eq!(setups.into_inner(), jobs.min(5), "one setup per worker at jobs {jobs}");
        }
    }

    #[test]
    fn map_functions_reports_the_earliest_error_and_contains_panics() {
        let m = module(&["a", "boom", "c", "late"]);
        for jobs in [1, 2, 4, 8] {
            let out: Result<Vec<()>, PassFault> = map_functions(
                &m,
                jobs,
                || (),
                |_, _, f| match f.name.as_str() {
                    "boom" => panic!("deliberate"),
                    "late" => Err(PassFault::verify("late-pass", "late", "bad".into())),
                    _ => Ok(()),
                },
            );
            let fault = out.expect_err("the panic must surface as a fault");
            assert_eq!(fault.function, "boom", "jobs {jobs}");
            assert_eq!(fault.pass, "pipeline", "jobs {jobs}");
            assert_eq!(fault.kind_label(), "panic", "jobs {jobs}");
        }
    }
}
