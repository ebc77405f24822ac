//! Property tests for the empirical CDF.

use entrada::agg::Cdf;
use proptest::prelude::*;

proptest! {
    /// CDF: monotone, bounded by [0,1], and quantiles are actual samples.
    #[test]
    fn cdf_laws(samples in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut cdf = Cdf::new();
        for s in &samples {
            cdf.add(*s);
        }
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(cdf.fraction_at_most(max), 1.0);
        let mut last = 0.0;
        for x in (0..=max).step_by((max as usize / 20).max(1)) {
            let f = cdf.fraction_at_most(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f + 1e-12 >= last);
            last = f;
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q);
            prop_assert!(samples.contains(&v), "quantile {q} -> {v} not a sample");
        }
        // median splits mass: at least half the samples are <= median
        let med = cdf.median();
        prop_assert!(cdf.fraction_at_most(med) >= 0.5);
    }
}
