//! Sample-to-population extrapolation: the paper compares the prevalence
//! of IPv4 and IPv6 outliers across samples of different sizes (§5.1.3).

/// Ratio of two prevalences with both sides extrapolated from (possibly
/// different-rate) samples.
///
/// Mirrors §5.1.3: *"the prevalence of IPv6 outliers … is only 1/12 of the
/// prevalence of IPv4 outliers"* — a ratio of (outliers / population) across
/// protocols.
pub fn prevalence_ratio(
    count_a: u64,
    population_a: u64,
    count_b: u64,
    population_b: u64,
) -> Option<f64> {
    if population_a == 0 || population_b == 0 || count_b == 0 {
        return None;
    }
    let pa = count_a as f64 / population_a as f64;
    let pb = count_b as f64 / population_b as f64;
    Some(pa / pb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prevalence_ratio_paper_shape() {
        // 114 IPv4 outliers among ~ N4 users vs 4 IPv6 outliers among ~ N6.
        // With N4 ≈ 2.6 * N6 (v4 users outnumber v6 users), ratio v6/v4 ≈ 1/12.
        let r = prevalence_ratio(4, 350_000, 114, 1_000_000).unwrap();
        assert!(r < 0.2 && r > 0.05, "ratio {r}");
        assert!(prevalence_ratio(1, 0, 1, 10).is_none());
        assert!(prevalence_ratio(1, 10, 0, 10).is_none());
    }
}
