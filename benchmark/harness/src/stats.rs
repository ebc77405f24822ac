//! Median and quartiles over the reps of one run.

/// Median and the first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Value at fractional rank `p` (0..=1) of a sorted sample, linearly
/// interpolated between neighbours.
fn at_rank(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartiles of `values`. A single value is its own three quartiles.
///
/// # Panics
/// On an empty sample or a NaN: both mean a rep loop that measured
/// nothing, which is a bug in the harness.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    Quartiles {
        q1: at_rank(&sorted, 0.25),
        median: at_rank(&sorted, 0.5),
        q3: at_rank(&sorted, 0.75),
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn quartiles_interpolate_between_neighbours() {
        let q = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn single_value_is_every_quartile() {
        let q = quartiles(&[7.5]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 7.5, 7.5));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        assert_eq!(
            quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0])
        );
    }
}
