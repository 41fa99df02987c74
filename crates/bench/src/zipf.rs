//! The suites' seedable streams: splitmix64 and a Zipf sampler over it.

/// splitmix64 — the repo's standard seedable scrambler (no RNG
/// dependency, so a stream is a function of its seed alone).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over `ranks` ranks by inverse CDF: rank `k` (0-based) has
/// weight `1/(k+1)^s`.
pub struct Zipf {
    /// Running weight totals; the last entry is the normaliser.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `ranks ≥ 1` ranks.
    pub fn new(ranks: usize, s: f64) -> Self {
        assert!(ranks > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let cumulative = (1..=ranks)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one 0-based rank, advancing `state` by one splitmix64 step.
    pub fn sample(&self, state: &mut u64) -> usize {
        let last = self.cumulative.len() - 1;
        let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * self.cumulative[last];
        self.cumulative.partition_point(|&c| c < u).min(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_ranks_dominate_and_every_draw_is_in_range() {
        let zipf = Zipf::new(8, 1.0);
        let (mut state, mut hits) = (7, [0usize; 8]);
        for _ in 0..10_000 {
            hits[zipf.sample(&mut state)] += 1;
        }
        // Rank 0 carries 1/H(8) ≈ 36.8 % of the mass.
        assert!(
            (3_400..4_000).contains(&hits[0]) && hits[0] > hits[1] && hits[1] > hits[7],
            "{hits:?}"
        );
    }
}
