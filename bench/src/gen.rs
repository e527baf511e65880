//! The deterministic generator: everything a run feeds the program is a
//! pure function of `--seed` (image contents, model-mix order, tenant
//! interleave, due times). Plan *weights* are not generated here — they
//! keep the fixed compile seed so every run measures the same plans.

use apnn_bitpack::{BitTensor4, Encoding, Layout, Tensor4};

/// splitmix64: tiny, seedable, and good enough to decorrelate streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one
    /// seed (images vs. schedule) so adding draws to one never shifts the
    /// other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` dense 8-bit NHWC code tensors of shape `c×hw×hw`, one image each.
pub fn image_codes(rng: &mut Rng, n: usize, c: usize, hw: usize) -> Vec<Tensor4<u32>> {
    (0..n)
        .map(|_| {
            Tensor4::from_fn(1, c, hw, hw, Layout::Nhwc, |_, _, _, _| {
                rng.below(256) as u32
            })
        })
        .collect()
}

/// Pack one 8-bit code tensor the way every request image is packed.
pub fn pack(codes: &Tensor4<u32>) -> BitTensor4 {
    BitTensor4::from_tensor(codes, 8, Encoding::ZeroOne)
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the window starts at which the request is due.
    pub due_ns: u64,
    /// Index into the workload's model classes.
    pub class: usize,
    /// Index into the workload's tenants.
    pub tenant: usize,
    /// Index into the image pool.
    pub image: usize,
}

/// `n` indices in a seeded random order, index `i` making up exactly its
/// `share` of them (percent, summing to 100; the rounding remainder goes
/// to the largest fractions).
fn exact_mix(rng: &mut Rng, n: usize, share: &[u64]) -> Vec<usize> {
    let mut counts: Vec<usize> = share.iter().map(|&s| n * s as usize / 100).collect();
    let mut by_fraction: Vec<usize> = (0..share.len()).collect();
    by_fraction.sort_by_key(|&i| std::cmp::Reverse(n * share[i] as usize % 100));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_fraction.iter().cycle().take(short) {
        counts[i] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// A Poisson arrival schedule of exactly `round(rate_hz * seconds)`
/// requests over `seconds`: the due times are sorted uniform draws (a
/// Poisson process conditioned on its count), the model classes follow
/// `class_share` and the tenants `tenant_share` exactly, in seeded order,
/// and images are drawn uniformly from `images`. The seed decides every
/// gap and every order; fixing the count and the mix keeps the generator's
/// own sampling noise (a window that happens to draw 58 % of the cheapest
/// model) out of the run-to-run spread.
pub fn schedule(
    rng: &mut Rng,
    rate_hz: f64,
    seconds: f64,
    class_share: &[u64],
    tenant_share: &[u64],
    images: usize,
) -> Vec<Arrival> {
    let n = (rate_hz * seconds).round() as usize;
    let horizon_ns = (seconds * 1e9) as u64;
    let mut due: Vec<u64> = (0..n).map(|_| rng.below(horizon_ns)).collect();
    due.sort_unstable();
    let classes = exact_mix(rng, n, class_share);
    let tenants = exact_mix(rng, n, tenant_share);
    due.into_iter()
        .zip(classes.into_iter().zip(tenants))
        .map(|(due_ns, (class, tenant))| Arrival {
            due_ns,
            class,
            tenant,
            image: rng.below(images as u64) as usize,
        })
        .collect()
}

/// FNV-1a over logits, printed per workload so a reader can tell two runs
/// computed the same answers without diffing them.
pub fn fnv64(logits: impl IntoIterator<Item = i32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in logits {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(seed: u64) -> Vec<Arrival> {
        schedule(
            &mut Rng::new(seed, 2),
            400.0,
            2.0,
            &[50, 30, 20],
            &[75, 25],
            32,
        )
    }

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        assert_eq!(sched(7), sched(7));
        assert_ne!(sched(7), sched(8));
        let a = image_codes(&mut Rng::new(7, 1), 2, 3, 8);
        let b = image_codes(&mut Rng::new(7, 1), 2, 3, 8);
        let c = image_codes(&mut Rng::new(8, 1), 2, 3, 8);
        assert_eq!(a[1].data(), b[1].data());
        assert_ne!(a[1].data(), c[1].data());
    }

    #[test]
    fn schedule_has_the_exact_count_and_mix_inside_the_horizon() {
        let s = sched(3);
        assert_eq!(s.len(), 800, "400 Hz over 2 s");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 2_000_000_000 && a.image < 32));
        let count = |f: &dyn Fn(&Arrival) -> bool| s.iter().filter(|a| f(a)).count();
        assert_eq!([0, 1, 2].map(|c| count(&|a| a.class == c)), [400, 240, 160]);
        assert_eq!([0, 1].map(|t| count(&|a| a.tenant == t)), [600, 200]);
        // The order is shuffled, not blocked by class.
        assert!(s[..400].iter().any(|a| a.class != 0));
    }

    #[test]
    fn exact_mix_gives_the_remainder_to_the_largest_fractions() {
        // 7 of 50/30/20: 3.5, 2.1, 1.4 -> floors 3, 2, 1 and one more for
        // the class with the largest fraction.
        let mut m = exact_mix(&mut Rng::new(1, 0), 7, &[50, 30, 20]);
        m.sort_unstable();
        assert_eq!(m, [0, 0, 0, 0, 1, 1, 2]);
        assert!(exact_mix(&mut Rng::new(1, 0), 0, &[50, 50]).is_empty());
    }

    #[test]
    fn fnv64_starts_at_the_offset_basis_and_is_order_sensitive() {
        assert_eq!(fnv64([]), 0xcbf2_9ce4_8422_2325);
        // One byte 0x01 then three zero bytes, by hand: xor, multiply, x4.
        let p = 0x0000_0100_0000_01B3u64;
        let h = (0xcbf2_9ce4_8422_2325u64 ^ 1).wrapping_mul(p);
        assert_eq!(
            fnv64([1]),
            h.wrapping_mul(p).wrapping_mul(p).wrapping_mul(p)
        );
        assert_ne!(fnv64([1, 2]), fnv64([2, 1]));
    }
}
