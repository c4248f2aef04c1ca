//! §4.2 of the paper: the three documented sources of code degradation.
//! "Since we are using heuristic approaches to difficult problems, we
//! should not be surprised by occasional losses." Each case must stay a
//! *performance* loss only — semantics always preserved.

use epre::{OptLevel, Optimizer};
use epre_frontend::{compile, NamingMode};
use epre_interp::{ExecError, Interpreter, Value};
use epre_ir::Module;

fn counts(m: &Module, entry: &str, args: &[Value], level: OptLevel) -> (Option<Value>, u64) {
    let opt = Optimizer::new(level).optimize(m);
    let mut i = Interpreter::new(&opt);
    let r = i.run(entry, args).unwrap();
    (r, i.counts().total)
}

/// Run at `level` under a fuel budget, returning whatever happened.
fn observe(
    m: &Module,
    entry: &str,
    args: &[Value],
    level: OptLevel,
    fuel: u64,
) -> Result<Option<Value>, ExecError> {
    let opt = Optimizer::new(level).optimize(m);
    Interpreter::new(&opt).with_fuel(fuel).run(entry, args)
}

/// Error paths must degrade like value paths: *identically*. For a given
/// failing input, every optimization level must fail with the same
/// [`ExecError`] variant as the unoptimized program.
fn assert_same_failure(m: &Module, entry: &str, args: &[Value], fuel: u64, expect: &str) {
    let reference =
        Interpreter::new(m).with_fuel(fuel).run(entry, args).expect_err("reference must fail");
    assert_eq!(reference.variant_name(), expect, "unexpected reference failure: {reference}");
    for level in [
        OptLevel::Baseline,
        OptLevel::Partial,
        OptLevel::Reassociation,
        OptLevel::Distribution,
        OptLevel::DistributionLvn,
    ] {
        let got = observe(m, entry, args, level, fuel).expect_err("optimized must fail too");
        assert!(
            got.same_variant(&reference),
            "{level:?}: failed with `{got}` but reference failed with `{reference}`"
        );
    }
}

/// §4.2 "Reassociation": sorting by rank can hide that `r0 + r1` was
/// already computed (the paper's own running example exhibits it). The
/// requirement is semantic preservation and bounded loss.
#[test]
fn reassociation_may_hide_cses_but_stays_correct() {
    let src = "function f(a, b, c)\n\
               real a, b, c, u, v\n\
               begin\n\
               u = a + b\n\
               v = a + b + c\n\
               return u * v\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    let args = [Value::Float(1.5), Value::Float(2.5), Value::Float(3.0)];
    let (r_base, c_base) = counts(&m, "f", &args, OptLevel::Baseline);
    let (r_reas, c_reas) = counts(&m, "f", &args, OptLevel::Reassociation);
    assert_eq!(r_base, r_reas);
    // Loss bounded: straight-line code with one shared subexpression can
    // lose the sharing but no more.
    assert!(c_reas <= c_base + 4, "unbounded degradation: {c_reas} vs {c_base}");
    // Error path: under a fuel budget too small for anyone, every level
    // fails with the same `OutOfFuel { budget }` — the error carries the
    // *configured* budget precisely so that optimized and unoptimized
    // runs compare equal.
    assert_same_failure(&m, "f", &args, 2, "out-of-fuel");
}

/// §4.2 "Distribution": the paper's 4×(ri−1) / 8×(ri−1) example. After
/// distribution and folding, `ri − 1` is no longer commonable — slightly
/// worse code, same values.
#[test]
fn distribution_array_stride_example() {
    // Two arrays of different element widths indexed by the same i, as in
    // the paper's single/double-precision pair.
    let src = "function f(n)\n\
               real f, a4(64), a8(64)\n\
               integer n, i\n\
               real s\n\
               begin\n\
               do i = 1, n\n\
                 a4(i) = 1.0 * i\n\
                 a8(i) = 2.0 * i\n\
               enddo\n\
               s = 0\n\
               do i = 1, n\n\
                 s = s + a4(i) * a8(i)\n\
               enddo\n\
               return s\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    let (r_reas, _) = counts(&m, "f", &[Value::Int(32)], OptLevel::Reassociation);
    let (r_dist, c_dist) = counts(&m, "f", &[Value::Int(32)], OptLevel::Distribution);
    assert_eq!(r_reas, r_dist, "distribution must not change values");
    assert!(c_dist > 0);
    // Error path: a trip count past the arrays' bounds must fail as
    // out-of-bounds at every level — distribution may reshape the address
    // arithmetic, but not where it faults.
    assert_same_failure(&m, "f", &[Value::Int(100)], 1_000_000, "out-of-bounds");
}

/// §4.2 "Forward Propagation": `n = j + k` computed before a loop and
/// used only inside it gets pushed into the loop; PRE cannot hoist it
/// back "without lengthening the path around the use of n". Values must
/// still agree for every trip count, including zero.
#[test]
fn forward_propagation_into_loop_stays_correct() {
    let src = "function f(j, k, m)\n\
               integer f, j, k, m, n, i, s\n\
               begin\n\
               n = j + k\n\
               s = 0\n\
               i = 0\n\
               while i < 100 do\n\
                 if i == m then\n\
                   s = s + n\n\
                 endif\n\
                 i = i + 1\n\
               endwhile\n\
               return s\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    for mv in [0i64, 50, 1000] {
        let args = [Value::Int(3), Value::Int(4), Value::Int(mv)];
        let (r_base, _) = counts(&m, "f", &args, OptLevel::Baseline);
        let (r_dist, _) = counts(&m, "f", &args, OptLevel::Distribution);
        assert_eq!(r_base, r_dist, "m = {mv}");
    }
    // Error path: the same forward-propagated expression used as a
    // divisor must trap identically everywhere it lands. `n / m` divides
    // by zero when m = 0, wherever propagation placed the computation.
    let src = "function g(j, k, m)\n\
               integer g, j, k, m, n, i, s\n\
               begin\n\
               n = j + k\n\
               s = 0\n\
               i = 0\n\
               while i < 100 do\n\
                 if i == m then\n\
                   s = s + n / m\n\
                 endif\n\
                 i = i + 1\n\
               endwhile\n\
               return s\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    let args = [Value::Int(3), Value::Int(4), Value::Int(0)];
    assert_same_failure(&m, "g", &args, 1_000_000, "division-by-zero");
}

/// The paper's overall safety claim distilled: whatever the level does to
/// the shape of the code, every suite-style program computes the same
/// thing at every level (checked in bulk over the suite elsewhere; here
/// over the §4.2 shapes at additional inputs).
#[test]
fn degradation_is_never_miscompilation() {
    let src = "function f(a, b)\n\
               real a, b, u, v, w\n\
               begin\n\
               u = a - b + a\n\
               v = (a + b) * (a - b)\n\
               w = u * v - a / (b + 1.0)\n\
               return w + u - v\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    for (a, b) in [(1.0, 2.0), (-3.5, 0.25), (100.0, -100.5)] {
        let args = [Value::Float(a), Value::Float(b)];
        let (r_base, _) = counts(&m, "f", &args, OptLevel::Baseline);
        for level in [OptLevel::Partial, OptLevel::Reassociation, OptLevel::Distribution] {
            let (r, _) = counts(&m, "f", &args, level);
            let (Some(Value::Float(x)), Some(Value::Float(y))) = (r_base, r) else {
                panic!("float results expected");
            };
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= 1e-9 * scale, "{level:?} at ({a},{b}): {y} vs {x}");
        }
    }
}

/// Degradation is never mis-*failure* either: for every §4.2-style error
/// path — fuel exhaustion, out-of-bounds, division by zero — the exact
/// `OutOfFuel` error (including its budget payload) and the variant of
/// the other errors agree across every optimization level.
#[test]
fn error_paths_fail_identically_across_levels() {
    // Fuel: carries the configured budget, so errors compare *equal*,
    // not merely same-variant.
    let src = "function f(a, b)\n\
               real a, b, u\n\
               begin\n\
               u = a + b\n\
               return u * u\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    let args = [Value::Float(1.0), Value::Float(2.0)];
    let budget = 1u64;
    let reference = Interpreter::new(&m).with_fuel(budget).run("f", &args);
    assert_eq!(reference, Err(ExecError::OutOfFuel { budget }));
    for level in [OptLevel::Baseline, OptLevel::Distribution, OptLevel::DistributionLvn] {
        assert_eq!(
            observe(&m, "f", &args, level, budget),
            Err(ExecError::OutOfFuel { budget }),
            "{level:?}"
        );
    }
    // Out-of-bounds: a direct store past the data segment.
    let src = "function h(i)\n\
               real a(4)\n\
               integer i\n\
               begin\n\
               a(i) = 1.0\n\
               return a(i)\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    assert_same_failure(&m, "h", &[Value::Int(9)], 1_000_000, "out-of-bounds");
    // Division by zero, reached through a value PRE is keen to move.
    let src = "function q(a, b)\n\
               integer q, a, b, t\n\
               begin\n\
               t = a + b\n\
               return t / (a - a)\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    assert_same_failure(&m, "q", &[Value::Int(2), Value::Int(5)], 1_000_000, "division-by-zero");
}

/// Like [`observe`], but optimizing with the parallel module driver.
fn observe_jobs(
    m: &Module,
    entry: &str,
    args: &[Value],
    level: OptLevel,
    fuel: u64,
    jobs: usize,
) -> Result<Option<Value>, ExecError> {
    let opt = Optimizer::new(level).optimize_jobs(m, jobs);
    Interpreter::new(&opt).with_fuel(fuel).run(entry, args)
}

/// The worker count is a scheduling knob, not a semantic one: every §4.2
/// error path must fail with the *same variant* whether the module was
/// optimized with 1, 2, or 8 jobs.
#[test]
fn error_paths_are_job_count_invariant() {
    let cases: [(&str, &str, Vec<Value>, u64, &str); 3] = [
        (
            "function f(a, b)\n\
             real a, b, u\n\
             begin\n\
             u = a + b\n\
             return u * u\n\
             end\n",
            "f",
            vec![Value::Float(1.0), Value::Float(2.0)],
            1,
            "out-of-fuel",
        ),
        (
            "function h(i)\n\
             real a(4)\n\
             integer i\n\
             begin\n\
             a(i) = 1.0\n\
             return a(i)\n\
             end\n",
            "h",
            vec![Value::Int(9)],
            1_000_000,
            "out-of-bounds",
        ),
        (
            "function q(a, b)\n\
             integer q, a, b, t\n\
             begin\n\
             t = a + b\n\
             return t / (a - a)\n\
             end\n",
            "q",
            vec![Value::Int(2), Value::Int(5)],
            1_000_000,
            "division-by-zero",
        ),
    ];
    for (src, entry, args, fuel, expect) in cases {
        let m = compile(src, NamingMode::Disciplined).unwrap();
        for level in [OptLevel::Baseline, OptLevel::Distribution, OptLevel::DistributionLvn] {
            let reference = observe_jobs(&m, entry, &args, level, fuel, 1).expect_err("must fail");
            assert_eq!(reference.variant_name(), expect, "{level:?}");
            for jobs in [2, 8] {
                let got = observe_jobs(&m, entry, &args, level, fuel, jobs)
                    .expect_err("must fail at every job count");
                assert!(
                    got.same_variant(&reference),
                    "{level:?} jobs={jobs}: `{got}` vs `{reference}`"
                );
            }
        }
    }
}

/// The budget dimension of §4.2-style degradation: a pass stopped by its
/// resource budget degrades the function (rollback to input form), and
/// that degradation — the output text, the fault list, the fault *kind* —
/// is identical at every worker count.
#[test]
fn budget_faults_are_job_count_invariant() {
    use epre::fault::FaultKind;
    use epre::{Budget, BudgetKind};
    use epre_harness::{run_module_governed, FaultPolicy, PassFaultModel};
    use epre_lint::LintOptions;

    let srcs = [
        "function fa(x)\ninteger x, fa\nbegin\nreturn x + x\nend\n",
        "function fb(x)\ninteger x, fb\nbegin\nreturn x * 3\nend\n",
        "function fc(x)\ninteger x, fc\nbegin\nreturn x - 1\nend\n",
        "function fd(x)\ninteger x, fd\nbegin\nreturn x * x + x\nend\n",
    ];
    let mut m = Module::new();
    for s in srcs {
        m.functions.extend(compile(s, NamingMode::Disciplined).unwrap().functions);
    }
    for model in PassFaultModel::ALL {
        let expect = match model {
            PassFaultModel::NonTerminating => BudgetKind::Iterations,
            PassFaultModel::QuadraticGrowth => BudgetKind::Growth,
        };
        let passes_for = move || {
            let mut ps = Optimizer::new(OptLevel::Distribution).passes();
            ps.insert(0, model.build());
            ps
        };
        let budget = Budget::governed();
        let opts = LintOptions::invariants_only();
        let (m1, r1) =
            run_module_governed(&m, &passes_for, FaultPolicy::BestEffort, &opts, &budget, 3, 1)
                .unwrap();
        assert!(!r1.faults.is_empty(), "{model:?}: the model must fault");
        for ft in &r1.faults {
            assert!(
                matches!(&ft.kind, FaultKind::Budget(b) if b.kind == expect),
                "{model:?}: wrong fault kind: {ft:?}"
            );
        }
        for jobs in [2, 8] {
            let (mj, rj) = run_module_governed(
                &m,
                &passes_for,
                FaultPolicy::BestEffort,
                &opts,
                &budget,
                3,
                jobs,
            )
            .unwrap();
            assert_eq!(format!("{m1}"), format!("{mj}"), "{model:?} output at jobs={jobs}");
            assert_eq!(r1.faults.len(), rj.faults.len(), "{model:?} faults at jobs={jobs}");
            for (a, b) in r1.faults.iter().zip(&rj.faults) {
                assert_eq!(format!("{a}"), format!("{b}"), "{model:?} order at jobs={jobs}");
            }
            assert_eq!(r1.skipped, rj.skipped, "{model:?} skip tally at jobs={jobs}");
            assert_eq!(r1.quarantined, rj.quarantined, "{model:?} at jobs={jobs}");
        }
    }
}

/// The serve path inherits the quarantine's concurrency contract: two
/// requests from the same client faulting on the same (pass, module)
/// pair — racing through the daemon's engine on separate threads —
/// must record exactly *one* piece of evidence. Double-counting a
/// single offense would let one racy client quarantine itself (or,
/// server-side, an innocent tenant) at half the configured threshold.
#[test]
fn concurrent_serve_requests_record_fault_evidence_once() {
    use std::sync::Arc;

    use epre_harness::PassFaultModel;
    use epre_serve::{OptimizeRequest, Request, Response, ResultCache, ServeConfig, ServerCore};

    let src = "function f(a, b)\n\
               integer f, a, b\n\
               begin\n\
               return a * b + a\n\
               end\n";
    let text = format!("{}", compile(src, NamingMode::Disciplined).unwrap());
    let config = ServeConfig {
        chaos: Some(PassFaultModel::QuadraticGrowth),
        client_threshold: 2,
        breaker_threshold: 100, // let every fault through to evidence
        ..Default::default()
    };
    let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
    let request = OptimizeRequest {
        client: "racer".into(),
        level: "distribution".into(),
        policy: "best-effort".into(),
        deadline_ms: None,
        idempotency: String::new(),
        request: String::new(),
        module_text: text,
    };

    std::thread::scope(|s| {
        for _ in 0..2 {
            let core = Arc::clone(&core);
            let request = request.clone();
            s.spawn(move || {
                let mut terminal = None;
                core.handle(&Request::Optimize(request), &mut |resp| {
                    terminal = Some(resp);
                    Ok(())
                })
                .unwrap();
                match terminal {
                    Some(Response::Done(d)) => {
                        assert_eq!(d.status, "degraded", "the chaos pass must fault");
                        assert!(!d.client_quarantined, "one offense is below threshold 2");
                    }
                    other => panic!("expected a done frame, got {other:?}"),
                }
            });
        }
    });

    // Both racers faulted on the identical (pass, module) pair: one
    // evidence entry, client still serving.
    let stats = core.stats_snapshot();
    let open = stats.iter().find(|(k, _)| k == "quarantined_clients").unwrap().1;
    assert_eq!(open, 0, "a single racy offense must not trip the quarantine");
}

/// A *non-cooperative* hang — a pass that simply never returns for one
/// function — must not block the rest of the module: the watchdog rolls
/// the hung function back to its input form and the siblings come out
/// fully optimized.
#[test]
fn watchdog_rolls_back_a_hung_function_without_blocking_the_module() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use epre::Budget;
    use epre_harness::{optimize_module_watchdog, FaultPolicy, WatchdogConfig, WATCHDOG_PASS};
    use epre_lint::LintOptions;
    use epre_passes::Pass;

    static RELEASE: AtomicBool = AtomicBool::new(false);

    /// Hangs (until released) on the function named `stuck`, is a no-op
    /// everywhere else. Deliberately ignores the budget: this models
    /// non-cooperative code the meter cannot stop.
    struct StuckOnName;
    impl Pass for StuckOnName {
        fn name(&self) -> &'static str {
            "stuck-on-name"
        }
        fn run_budgeted(
            &self,
            f: &mut epre_ir::Function,
            _cache: &mut epre_analysis::AnalysisCache,
            _budget: &Budget,
        ) -> Result<bool, epre::BudgetExceeded> {
            if f.name == "stuck" {
                while !RELEASE.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Ok(false)
        }
    }

    let srcs = [
        "function alpha(x)\ninteger x, alpha\nbegin\nreturn x + x + x\nend\n",
        "function stuck(x)\ninteger x, stuck\nbegin\nreturn x * 2\nend\n",
        "function omega(x)\ninteger x, omega\nbegin\nreturn x * x\nend\n",
    ];
    let mut m = Module::new();
    for s in srcs {
        m.functions.extend(compile(s, NamingMode::Disciplined).unwrap().functions);
    }
    let level = OptLevel::Distribution;
    let (out, rep) = optimize_module_watchdog(
        &m,
        Arc::new(move || {
            let mut ps = Optimizer::new(level).passes();
            ps.insert(0, Box::new(StuckOnName) as Box<dyn Pass>);
            ps
        }),
        FaultPolicy::BestEffort,
        LintOptions::invariants_only(),
        Budget::governed(),
        &WatchdogConfig::new(Duration::from_millis(100), 2),
    )
    .unwrap();
    RELEASE.store(true, Ordering::Relaxed);
    // The hung function was rolled back to its input form and blamed on
    // the watchdog's wall-clock evidence.
    assert_eq!(
        format!("{}", out.function("stuck").unwrap()),
        format!("{}", m.function("stuck").unwrap()),
        "hung function must come out as it went in"
    );
    assert!(
        rep.faults.iter().any(|f| f.pass == WATCHDOG_PASS && f.function == "stuck"),
        "missing watchdog fault: {:?}",
        rep.faults
    );
    // The siblings were not held hostage: they come out exactly as the
    // plain optimizer would emit them.
    let plain = Optimizer::new(level).optimize(&m);
    for name in ["alpha", "omega"] {
        assert_eq!(
            format!("{}", out.function(name).unwrap()),
            format!("{}", plain.function(name).unwrap()),
            "`{name}` must be fully optimized despite the hang"
        );
    }
}
