//! The daemon's result cache at suite scale, in process: a cold submit of
//! the fused 108-function suite module at `distribution+lvn` optimizes
//! every function, and an unchanged resubmit replays every function
//! byte-identically and at least 5x faster (best of 5 each). The ratio is
//! a property of release builds, where the benchmark runs, so debug builds
//! skip the test and `scripts/ci.sh` runs it with `--release`.

use std::time::{Duration, Instant};

use epre_serve::{OptimizeRequest, Request, Response, ResultCache, ServeConfig, ServerCore};

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate for release builds (scripts/ci.sh)")]
fn warm_resubmit_of_the_fused_suite_is_identical_and_5x_faster_than_cold() {
    let module = epre_suite::fused_module();
    let n = module.functions.len() as u64;
    let req = Request::Optimize(OptimizeRequest {
        client: "gate".into(),
        level: "distribution+lvn".into(),
        policy: "best-effort".into(),
        deadline_ms: None,
        idempotency: String::new(),
        request: String::new(),
        module_text: format!("{module}"),
    });
    let new_core = || ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
    // The wall time, the accounting and the text of one submit.
    let submit = |core: &ServerCore| {
        let mut done = None;
        let start = Instant::now();
        core.handle(&req, &mut |resp| {
            if let Response::Done(frame) = resp {
                done = Some(frame);
            }
            Ok(())
        })
        .expect("in-process emit cannot fail");
        let d = done.expect("request must end with a terminal frame");
        (start.elapsed(), (d.status, d.reused, d.fresh), d.module_text)
    };

    // Cold: a fresh in-memory cache each time, so every function goes
    // through the governed pipeline. Warm: one core primed once, then
    // unchanged resubmits. The two alternate, so a slow spell of the host
    // lands on both sides rather than on every sample of one.
    let core = new_core();
    submit(&core);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        cold.push(submit(&new_core()));
        warm.push(submit(&core));
    }

    let text = &cold[0].2;
    for (_, accounting, t) in &cold {
        assert_eq!(*accounting, ("clean".into(), 0, n), "a cold submit optimizes every function");
        assert_eq!(t, text);
    }
    for (_, accounting, t) in &warm {
        assert_eq!(*accounting, ("clean".into(), n, 0), "a warm resubmit replays every function");
        assert_eq!(t, text, "replay must be byte-identical to recomputation");
    }
    let best = |runs: &[(Duration, _, String)]| runs.iter().map(|r| r.0).min().unwrap();
    let (cold, warm) = (best(&cold), best(&warm));
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!("{n} functions: cold {cold:?}, warm {warm:?}, warm speedup {speedup:.1}x");
    assert!(speedup >= 5.0, "warm resubmit must be at least 5x faster than cold ({speedup:.2}x)");
}
