//! The workspace's single ceil nearest-rank quantile implementation.
//!
//! Both `Cdf::quantile` (jmake-kbuild) and `StageMetrics::host_quantile_us`
//! (this crate) report quantiles under the same convention: the smallest
//! sample `v` such that at least a `q` fraction of samples are ≤ `v`, which
//! guarantees `fraction_at(quantile(q)) >= q` for every `q`. That contract
//! was fixed once (PR 2) after a round-based nearest rank undershot it;
//! keeping exactly one implementation here means the fix cannot drift
//! between copies.

/// Ceil nearest-rank quantile of `sorted` (ascending). `q` is clamped to
/// `[0, 1]`. Returns 0 when `sorted` is empty.
pub fn ceil_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_documented_convention() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(ceil_nearest_rank(&sorted, 0.0), 10);
        assert_eq!(ceil_nearest_rank(&sorted, 0.25), 10);
        assert_eq!(ceil_nearest_rank(&sorted, 0.26), 20);
        assert_eq!(ceil_nearest_rank(&sorted, 0.5), 20);
        assert_eq!(ceil_nearest_rank(&sorted, 0.6), 30);
        assert_eq!(ceil_nearest_rank(&sorted, 1.0), 40);
    }

    #[test]
    fn clamps_q_and_handles_empty() {
        assert_eq!(ceil_nearest_rank(&[], 0.5), 0);
        assert_eq!(ceil_nearest_rank(&[7], -3.0), 7);
        assert_eq!(ceil_nearest_rank(&[7], 42.0), 7);
    }

    #[test]
    fn fraction_at_inverse_holds() {
        // fraction_at(quantile(q)) >= q — the PR-2 contract, asserted here
        // directly against the shared helper.
        for samples in [
            vec![10u64, 20, 30, 40],
            vec![7],
            vec![1, 1, 1, 2],
            vec![5, 1, 3, 9, 9, 2, 8],
            (0..100).map(|i| i * i).collect(),
        ] {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for i in 0..=100 {
                let q = i as f64 / 100.0;
                let v = ceil_nearest_rank(&sorted, q);
                let frac = sorted.partition_point(|&s| s <= v) as f64 / sorted.len() as f64;
                assert!(
                    frac >= q,
                    "fraction_at(quantile({q})) = {frac} over {sorted:?}"
                );
            }
        }
    }
}
