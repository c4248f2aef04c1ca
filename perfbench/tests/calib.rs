use epre_perfbench::calib::{Calibrator, REFERENCE_MS, WINDOW};

#[test]
fn scale_follows_the_recent_window_only() {
    let mut c = Calibrator::default();
    // An old, very slow stretch falls out of the window entirely.
    for _ in 0..WINDOW {
        c.record(100.0 * REFERENCE_MS);
    }
    // The host now runs the kernel at half the reference speed, so a
    // 10 ms wall time is 5 ms at reference speed.
    for _ in 0..WINDOW {
        c.record(2.0 * REFERENCE_MS);
    }
    assert_eq!(c.scale(10.0), 5.0);
}

#[test]
fn scale_takes_the_median_so_one_stall_does_not_move_it() {
    let mut c = Calibrator::default();
    for _ in 0..WINDOW - 1 {
        c.record(REFERENCE_MS);
    }
    c.record(1000.0 * REFERENCE_MS);
    assert_eq!(c.scale(10.0), 10.0);
}

#[test]
fn kernel_ms_is_the_median_of_every_run() {
    let mut c = Calibrator::default();
    for ms in [3.0, 1.0, 2.0] {
        c.record(ms);
    }
    assert_eq!(c.kernel_ms(), 2.0);
}

#[test]
fn sampling_times_real_kernel_runs() {
    let mut c = Calibrator::default();
    c.sample(2);
    c.sample_all(1);
    assert!(c.kernel_ms() > 0.0 && c.kernel_ms().is_finite());
    assert!(c.scale(1.0) > 0.0);
}
