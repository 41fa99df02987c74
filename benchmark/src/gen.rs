//! Seeded input generation. The program under test never sees the seed
//! of the benchmark, only the operations made from it.

/// SplitMix64: small, fast, and good enough to shuffle and sample.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n ≥ 1`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The seed of sub-stream `stream` of `seed` (instances, probes).
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Splits `total` items over the popularity ranks `ranks` (0 is the most
/// popular) in Zipf(1.0) proportions by the largest-remainder rule. The shares are exact, not sampled: the seed
/// decides *who* lands on which rank, never *how many*, so message
/// volume is the same for every seed and runs on different seeds can be
/// compared.
pub fn zipf_quotas(total: usize, ranks: std::ops::Range<usize>) -> Vec<usize> {
    let k = ranks.len();
    let weights: Vec<f64> = ranks.map(|r| 1.0 / (r + 1) as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..k).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - quotas.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        quotas[r] += 1;
    }
    quotas
}

/// `quotas` flattened to one rank per item and shuffled.
pub fn shuffled_ranks(quotas: &[usize], rng: &mut Rng) -> Vec<u32> {
    let mut ranks: Vec<u32> = quotas
        .iter()
        .enumerate()
        .flat_map(|(r, &q)| std::iter::repeat_n(r as u32, q))
        .collect();
    rng.shuffle(&mut ranks);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_sum_to_the_total_and_fall_with_rank() {
        let q = zipf_quotas(10_000, 0..64);
        assert_eq!(q.iter().sum::<usize>(), 10_000);
        assert!(q.windows(2).all(|w| w[0] >= w[1]));
        assert!(q[0] > 2_000 && q[63] >= 30, "{q:?}");
        // Ranks 1.. keep their proportions to one another.
        let rest = zipf_quotas(300, 1..4);
        assert_eq!(rest.iter().sum::<usize>(), 300);
        assert_eq!(rest, [139, 92, 69]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(derive(9, 0), derive(9, 1));
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut w: Vec<u32> = (0..50).collect();
        b.shuffle(&mut w);
        assert_eq!(v, w);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<u32>>());
    }
}
