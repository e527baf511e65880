//! Reproducible synthetic image-classification dataset.
//!
//! The offline stand-in for ImageNet in the Table 1 accuracy experiment
//! (see `DESIGN.md` §2): each class is a random prototype pattern; samples
//! mix their class prototype with shared "style" directions and Gaussian
//! pixel noise, then squash into `[0, 1]`. The mixing keeps the problem
//! non-trivial (not linearly separable at high noise) so quantization has
//! visible accuracy cost, which is the phenomenon Table 1 measures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fixed train/test split of synthetic feature vectors.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Training features, row-major `n × dim`, values in `[0, 1]`.
    pub train_x: Vec<f32>,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test features.
    pub test_x: Vec<f32>,
    /// Test labels.
    pub test_y: Vec<usize>,
}

impl SyntheticDataset {
    /// Generate a dataset.
    ///
    /// * `noise` — Gaussian pixel-noise σ. The class signal has unit-ish
    ///   scale ~0.35, so σ ≳ 0.8 puts the task in the regime where reduced
    ///   activation/weight resolution has visible accuracy cost — the
    ///   phenomenon Table 1 measures.
    pub fn generate(
        num_classes: usize,
        dim: usize,
        train_per_class: usize,
        test_per_class: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Class prototypes (deliberately weak signal) and shared style
        // directions.
        let protos: Vec<Vec<f32>> = (0..num_classes)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.35f32..0.35)).collect())
            .collect();
        let n_styles = 4;
        let styles: Vec<Vec<f32>> = (0..n_styles)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();

        #[allow(clippy::needless_range_loop)] // class indexes the prototype table
        let gen_split = |per_class: usize, rng: &mut SmallRng| {
            let mut xs = Vec::with_capacity(num_classes * per_class * dim);
            let mut ys = Vec::with_capacity(num_classes * per_class);
            for class in 0..num_classes {
                for _ in 0..per_class {
                    let style_w: Vec<f32> =
                        (0..n_styles).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
                    for d in 0..dim {
                        let mut v = protos[class][d];
                        for (s, sw) in style_w.iter().enumerate() {
                            v += sw * styles[s][d];
                        }
                        // Gaussian noise via CLT of 4 uniforms.
                        let g: f32 = (0..4).map(|_| rng.gen_range(-0.5f32..0.5)).sum();
                        v += noise * g * 1.732;
                        // Squash into [0, 1] (sigmoid-ish).
                        xs.push(0.5 + 0.5 * (v).tanh());
                    }
                    ys.push(class);
                }
            }
            (xs, ys)
        };

        let (train_x, train_y) = gen_split(train_per_class, &mut rng);
        let (test_x, test_y) = gen_split(test_per_class, &mut rng);
        SyntheticDataset {
            num_classes,
            dim,
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_y.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_y.len()
    }

    /// One training sample.
    pub fn train_sample(&self, i: usize) -> (&[f32], usize) {
        (
            &self.train_x[i * self.dim..(i + 1) * self.dim],
            self.train_y[i],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticDataset::generate(4, 16, 10, 5, 0.3, 42);
        let b = SyntheticDataset::generate(4, 16, 10, 5, 0.3, 42);
        assert_eq!(a.train_x, b.train_x);
        assert_eq!(a.test_y, b.test_y);
        let c = SyntheticDataset::generate(4, 16, 10, 5, 0.3, 43);
        assert_ne!(a.train_x, c.train_x);
    }

    #[test]
    fn shapes_and_ranges() {
        let d = SyntheticDataset::generate(5, 32, 20, 10, 0.4, 1);
        assert_eq!(d.train_len(), 100);
        assert_eq!(d.test_len(), 50);
        assert_eq!(d.train_x.len(), 100 * 32);
        assert_eq!(d.test_x.len(), 50 * 32);
        assert!(d.train_x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let (x, y) = d.train_sample(99);
        assert_eq!(x.len(), 32);
        assert!(y < 5);
    }

    #[test]
    fn classes_are_balanced() {
        let d = SyntheticDataset::generate(3, 8, 7, 3, 0.2, 9);
        for c in 0..3 {
            assert_eq!(d.train_y.iter().filter(|&&y| y == c).count(), 7);
            assert_eq!(d.test_y.iter().filter(|&&y| y == c).count(), 3);
        }
    }
}
