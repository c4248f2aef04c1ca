use epre_perfbench::stats::{
    median, min_samples, nearest_rank, OpenLoopSample, Outcome, Tally, MIN_BEYOND,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    // An outlier moves the mean, not the median.
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 1000.0]), Some(3.0));
}

#[test]
fn nearest_rank_picks_a_sample_not_an_interpolation() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(nearest_rank(&xs, 50.0), Some(500.0));
    assert_eq!(nearest_rank(&xs, 99.0), Some(990.0));
    assert_eq!(nearest_rank(&xs, 90.0), Some(900.0));
    // Input order does not matter.
    let mut rev = xs.clone();
    rev.reverse();
    assert_eq!(nearest_rank(&rev, 99.0), Some(990.0));
}

#[test]
fn nearest_rank_needs_ten_samples_beyond() {
    // p99 of 1000 samples has exactly 10 beyond it: reported.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert!(nearest_rank(&xs, 99.0).is_some());
    // p99 of 999 samples has 9 beyond: withheld.
    assert_eq!(nearest_rank(&xs[..999], 99.0), None);
    // p90 needs 100 samples, p99 needs 1000.
    assert_eq!(min_samples(90.0), 100);
    assert_eq!(min_samples(99.0), 1000);
    assert_eq!(min_samples(50.0), 2 * MIN_BEYOND);
    assert!(nearest_rank(&xs[..100], 90.0).is_some());
    assert_eq!(nearest_rank(&xs[..99], 90.0), None);
    assert_eq!(nearest_rank(&[], 50.0), None);
}

#[test]
fn open_loop_latency_charges_a_stall_to_the_queue_behind_it() {
    // One connection, a request due every 10 ms, service 1 ms — except
    // request 0, which stalls for 50 ms. Requests 1..=4 fall due during
    // the stall and can only be sent when it ends.
    let service = |i: usize| if i == 0 { 0.050 } else { 0.001 };
    let mut free_at = 0.0_f64;
    let mut samples = Vec::new();
    for i in 0..10 {
        let due = i as f64 * 0.010;
        let sent = due.max(free_at);
        let done = sent + service(i);
        free_at = done;
        samples.push(OpenLoopSample { due, sent, done });
    }
    // Request 1 was due at 10 ms, sent at 50 ms, answered at 51 ms.
    let s1 = samples[1];
    assert!((s1.latency() - 0.041).abs() < 1e-9, "{s1:?}");
    assert!((s1.late() - 0.040).abs() < 1e-9, "{s1:?}");
    // Timing from the send instead would hide the stall: 1 ms.
    assert!((s1.done - s1.sent - 0.001).abs() < 1e-9);
    // Every request that fell due during the stall is charged for it.
    for s in &samples[1..=4] {
        assert!(s.latency() > 0.010, "{s:?}");
    }
    // Once the queue drains, latency is the service time again.
    assert!((samples[9].latency() - 0.001).abs() < 1e-9);
    assert_eq!(samples[9].late(), 0.0);
}

#[test]
fn failed_frac_counts_refusals_as_failures() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), 0.0);
    for outcome in [Outcome::Ok, Outcome::Ok, Outcome::Refused, Outcome::Ok] {
        t.record(outcome);
    }
    assert_eq!(
        t,
        Tally {
            attempted: 4,
            failed: 1
        }
    );
    assert_eq!(t.failed_frac(), 0.25);
    for outcome in [
        Outcome::Wrong,
        Outcome::Failed,
        Outcome::Faulted,
        Outcome::Ok,
    ] {
        t.record(outcome);
    }
    assert_eq!(
        t,
        Tally {
            attempted: 8,
            failed: 4
        }
    );
    assert_eq!(t.failed_frac(), 0.5);
}
