//! The arithmetic of the record, on fixed vectors.

use iolap_benchmark::compare::{compare_metric, Verdict};
use iolap_benchmark::record::{QueryRun, Samples};
use iolap_benchmark::stats::{batch_growth, median, mix, percentile, quartiles, spread};

#[test]
fn median_and_percentile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    // Nearest rank: 190 samples at or below, 10 beyond.
    assert_eq!(percentile(&v, 0.95), 190.0);
    assert_eq!(percentile(&v, 0.5), 100.0);
    assert_eq!(percentile(&[7.0], 0.95), 7.0);
}

#[test]
fn quartiles_are_pythons() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
    assert_eq!(spread(&v), Some(1.0));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn growth_is_last_quarter_over_second_quarter() {
    // 20 batches, two repeats: flat at 2 ms except the last quarter at 6.
    let flat: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![if i >= 15 { 6.0 } else { 2.0 }; 2])
        .collect();
    assert_eq!(batch_growth(&flat), Some(3.0));
    // Linear growth from zero is 2.33×, not more: the ratio of the
    // quarters' mid-points.
    let linear: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
    assert_eq!(batch_growth(&linear), Some(17.0 / 7.0));
    // Index 0 (submit → first report) never enters.
    let four = vec![vec![100.0], vec![1.0], vec![1.0], vec![2.0]];
    assert_eq!(batch_growth(&four), Some(2.0));
    assert_eq!(batch_growth(&four[..3]), None);
}

#[test]
fn updates_are_waits_and_growth_uses_batch_times() {
    // Reports 1 and 2 arrive together 40 ms after report 0.
    let run = QueryRun {
        query: "q".into(),
        arrivals_ms: vec![10.0, 50.0, 50.0, 60.0],
        cis: vec![None, Some(0.2), Some(0.04), Some(0.01)],
        batch_ms: vec![9.0, 4.0, 4.0, 6.0],
        rows: 100,
        complete: true,
        restart_at: None,
    };
    assert_eq!(run.ttfa_ms(), 10.0);
    assert_eq!(run.ttt_ms(), 50.0);
    assert_eq!(run.total_ms(), 60.0);
    let mut s = Samples::default();
    s.add_run(&run);
    s.wall_s = 0.06;
    let m = s.end_to_end(false);
    let get = |name: &str| m.iter().find(|(n, _, _)| *n == name).expect(name).1;
    // Two updates: 40 ms and 10 ms.
    assert_eq!(get("batch_p50_ms"), 25.0);
    assert_eq!(get("batch_p95_ms"), 40.0);
    // The reports' own batch times: last quarter (6) over second quarter (4).
    assert_eq!(get("batch_growth"), 1.5);
    assert_eq!(get("total_ms"), 60.0);
}

#[test]
fn compare_applies_direction_bound_and_spread() {
    let steady = |m: f64| vec![m * 0.99, m, m * 1.01];
    let v = |a: &[f64], b: &[f64], lower| compare_metric(a, b, lower, 0.10).verdict;
    assert_eq!(v(&steady(100.0), &steady(105.0), true), Verdict::Unchanged);
    assert_eq!(v(&steady(100.0), &steady(115.0), true), Verdict::Regressed);
    assert_eq!(v(&steady(100.0), &steady(85.0), true), Verdict::Improved);
    // Higher is better: the same move reads the other way.
    assert_eq!(v(&steady(100.0), &steady(115.0), false), Verdict::Improved);
    assert_eq!(v(&steady(100.0), &steady(85.0), false), Verdict::Regressed);
    // A set whose own runs spread wider than the bound resolves nothing…
    let noisy = [80.0, 100.0, 125.0];
    assert_eq!(v(&noisy, &steady(104.0), true), Verdict::Unresolved);
    // …except a regression, which stays one.
    assert_eq!(v(&noisy, &steady(130.0), true), Verdict::Regressed);
    let c = compare_metric(&steady(100.0), &steady(115.0), true, 0.10);
    assert_eq!((c.base, c.other), (100.0, 115.0));
    assert!((c.ratio() - 1.15).abs() < 1e-12);
}

#[test]
fn derived_seeds_differ() {
    assert_ne!(mix(1, 0), mix(2, 0));
    assert_ne!(mix(1, 0), mix(1, 1));
    assert_eq!(mix(9, 4), mix(9, 4));
}

#[test]
fn midmean_is_the_mean_of_the_middle_half() {
    use iolap_benchmark::stats::midmean;
    assert_eq!(midmean(&[]), 0.0);
    assert_eq!(midmean(&[5.0]), 5.0);
    assert_eq!(midmean(&[1.0, 3.0]), 2.0);
    // A rare slow repeat is ignored…
    assert_eq!(
        midmean(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 500.0]),
        10.0
    );
    // …and between two modes it moves with their shares instead of jumping.
    assert_eq!(
        midmean(&[16.0, 16.0, 16.0, 100.0, 100.0, 100.0, 100.0, 100.0]),
        79.0
    );
    assert_eq!(
        midmean(&[16.0, 16.0, 16.0, 16.0, 100.0, 100.0, 100.0, 100.0]),
        58.0
    );
}
