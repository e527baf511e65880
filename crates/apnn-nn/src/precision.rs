//! Network precision configurations (the schemes of Tables 2 & 3).

use apnn_bitpack::Encoding;
use apnn_kernels::baselines::BaselineKind;

/// A whole-network precision scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetPrecision {
    /// CUTLASS single-precision on CUDA cores.
    Fp32,
    /// CUTLASS half-precision on tensor cores.
    Fp16,
    /// CUTLASS int8 on tensor cores.
    Int8,
    /// Binarized network in the style of the paper's BNN baseline
    /// (BSTC/TCBNN): 1-bit ±1 weights and activations, small fixed tiles,
    /// no cross-plane batching, un-fused element-wise layers.
    Bnn,
    /// APNN-TC arbitrary precision: `w`-bit weights, `a`-bit activations,
    /// batched emulation + semantic-aware fusion.
    Apnn {
        /// Weight bits.
        w: u32,
        /// Activation bits.
        a: u32,
    },
}

impl NetPrecision {
    /// The `wPaQ` configurations used throughout the evaluation.
    pub fn w1a2() -> Self {
        NetPrecision::Apnn { w: 1, a: 2 }
    }

    /// Does this scheme run on the APNN emulation machinery?
    pub fn is_emulated(self) -> bool {
        matches!(self, NetPrecision::Bnn | NetPrecision::Apnn { .. })
    }

    /// Library kernel family for the non-emulated schemes.
    pub fn baseline_kind(self) -> Option<BaselineKind> {
        match self {
            NetPrecision::Fp32 => Some(BaselineKind::CutlassFp32),
            NetPrecision::Fp16 => Some(BaselineKind::CutlassFp16),
            NetPrecision::Int8 => Some(BaselineKind::CutlassInt8),
            _ => None,
        }
    }

    /// Weight bits of a main layer.
    pub fn weight_bits(self) -> u32 {
        match self {
            NetPrecision::Fp32 => 32,
            NetPrecision::Fp16 => 16,
            NetPrecision::Int8 => 8,
            NetPrecision::Bnn => 1,
            NetPrecision::Apnn { w, .. } => w,
        }
    }

    /// Activation bits of an *intermediate* main layer. The first main layer
    /// always consumes the 8-bit quantized RGB input (§5.1).
    pub fn activation_bits(self, first_layer: bool) -> u32 {
        match self {
            NetPrecision::Fp32 => 32,
            NetPrecision::Fp16 => 16,
            NetPrecision::Int8 => 8,
            NetPrecision::Bnn => {
                if first_layer {
                    8
                } else {
                    1
                }
            }
            NetPrecision::Apnn { a, .. } => {
                if first_layer {
                    8
                } else {
                    a
                }
            }
        }
    }

    /// Weight encoding for emulated schemes: 1-bit weights are ±1 (Case II /
    /// III), multi-bit weights are unsigned codes.
    pub fn weight_encoding(self) -> Encoding {
        if self.is_emulated() && self.weight_bits() == 1 {
            Encoding::PlusMinusOne
        } else {
            Encoding::ZeroOne
        }
    }

    /// Activation encoding: BNN intermediate activations are ±1; everything
    /// else is unsigned.
    pub fn activation_encoding(self, first_layer: bool) -> Encoding {
        if matches!(self, NetPrecision::Bnn) && !first_layer {
            Encoding::PlusMinusOne
        } else {
            Encoding::ZeroOne
        }
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> String {
        match self {
            NetPrecision::Fp32 => "CUTLASS-Single".into(),
            NetPrecision::Fp16 => "CUTLASS-Half-TC".into(),
            NetPrecision::Int8 => "CUTLASS-INT8-TC".into(),
            NetPrecision::Bnn => "BNN".into(),
            NetPrecision::Apnn { w, a } => format!("APNN-w{w}a{a}"),
        }
    }
}

/// One main layer's precision assignment inside a
/// [`PrecisionSchedule`]: `w`-bit weights, `a`-bit activation quantization
/// at the layer's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerPrecision {
    /// Weight bits (1..=8).
    pub w: u32,
    /// Output activation bits (1..=8). Unused for the final (logit) layer
    /// and for skip-projection stages, which carry no quantizing epilogue.
    pub a: u32,
}

impl LayerPrecision {
    /// `w`-bit weights, `a`-bit activations.
    pub fn new(w: u32, a: u32) -> Self {
        LayerPrecision { w, a }
    }

    /// The equivalent whole-network scheme.
    pub fn as_uniform(self) -> NetPrecision {
        NetPrecision::Apnn {
            w: self.w,
            a: self.a,
        }
    }

    /// Weight encoding: 1-bit weights are ±1 (emulation Case II/III),
    /// multi-bit weights are unsigned codes — the same rule
    /// [`NetPrecision::weight_encoding`] applies.
    pub fn weight_encoding(self) -> Encoding {
        if self.w == 1 {
            Encoding::PlusMinusOne
        } else {
            Encoding::ZeroOne
        }
    }
}

/// A per-layer arbitrary mixed-precision assignment: one
/// [`LayerPrecision`] per *main* (conv/linear, including skip-projection)
/// layer, indexed by the fused `main_index`. Fused order is network order
/// except that each skip projection comes right before its joining conv
/// (ResNet18-Tiny: `layer2.0a` = 5, `layer2.0ds` = 6, `layer2.0b` = 7).
/// Only APNN-emulated schemes participate — baselines and BNN stay
/// whole-network.
///
/// The schedule fixes each layer's weight bits and *output* activation
/// bits; a layer's input bits follow from its producer (the previous chain
/// stage, or the saved branch for skip projections), and the first main
/// layer always consumes the 8-bit quantized input (§5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrecisionSchedule {
    layers: Vec<LayerPrecision>,
}

impl PrecisionSchedule {
    /// Build a schedule from per-layer assignments. Panics if empty or if
    /// any bit width falls outside `1..=8`.
    pub fn new(layers: Vec<LayerPrecision>) -> Self {
        assert!(!layers.is_empty(), "a precision schedule needs layers");
        for (i, l) in layers.iter().enumerate() {
            assert!(
                (1..=8).contains(&l.w) && (1..=8).contains(&l.a),
                "layer {i}: bits must be in 1..=8, got w{}a{}",
                l.w,
                l.a
            );
        }
        PrecisionSchedule { layers }
    }

    /// A uniform schedule: every one of `n_layers` main layers at `w`/`a`
    /// bits. Compiles to a plan byte-identical to the whole-network
    /// [`NetPrecision::Apnn`] scheme.
    pub fn uniform(w: u32, a: u32, n_layers: usize) -> Self {
        Self::new(vec![LayerPrecision::new(w, a); n_layers])
    }

    /// Number of main layers scheduled.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Is the schedule empty? (Never true for constructed schedules.)
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The assignment for main layer `i` (fused `main_index`).
    pub fn layer(&self, i: usize) -> LayerPrecision {
        self.layers[i]
    }

    /// All assignments, in `main_index` order.
    pub fn layers(&self) -> &[LayerPrecision] {
        &self.layers
    }

    /// `Some(scheme)` when every layer carries the same assignment.
    pub fn as_uniform(&self) -> Option<NetPrecision> {
        let first = self.layers[0];
        self.layers
            .iter()
            .all(|l| *l == first)
            .then(|| first.as_uniform())
    }

    /// Display label: uniform schedules collapse to the whole-network
    /// label (`APNN-w1a2`); mixed schedules run-length compress in layer
    /// order (`APNN-mixed-w2a2x5-w1a2x16`). Labels stay filesystem-safe
    /// after the golden-file lowering (`-` → `_`).
    pub fn label(&self) -> String {
        if let Some(p) = self.as_uniform() {
            return p.label();
        }
        let mut runs: Vec<(LayerPrecision, usize)> = Vec::new();
        for &l in &self.layers {
            match runs.last_mut() {
                Some((p, n)) if *p == l => *n += 1,
                _ => runs.push((l, 1)),
            }
        }
        let body: Vec<String> = runs
            .iter()
            .map(|(p, n)| format!("w{}a{}x{n}", p.w, p.a))
            .collect();
        format!("APNN-mixed-{}", body.join("-"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_layer_is_8bit_for_emulated() {
        assert_eq!(NetPrecision::w1a2().activation_bits(true), 8);
        assert_eq!(NetPrecision::w1a2().activation_bits(false), 2);
        assert_eq!(NetPrecision::Bnn.activation_bits(true), 8);
        assert_eq!(NetPrecision::Bnn.activation_bits(false), 1);
    }

    #[test]
    fn encodings() {
        assert_eq!(
            NetPrecision::w1a2().weight_encoding(),
            Encoding::PlusMinusOne
        );
        assert_eq!(
            NetPrecision::Apnn { w: 2, a: 2 }.weight_encoding(),
            Encoding::ZeroOne
        );
        assert_eq!(
            NetPrecision::Bnn.activation_encoding(false),
            Encoding::PlusMinusOne
        );
        assert_eq!(
            NetPrecision::Bnn.activation_encoding(true),
            Encoding::ZeroOne
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(NetPrecision::w1a2().label(), "APNN-w1a2");
        assert_eq!(NetPrecision::Fp32.label(), "CUTLASS-Single");
    }

    #[test]
    fn baseline_kinds() {
        assert!(NetPrecision::Fp16.baseline_kind().is_some());
        assert!(NetPrecision::w1a2().baseline_kind().is_none());
    }
}
