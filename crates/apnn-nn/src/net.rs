//! Sequential network container.

use crate::compile::{CompileOptions, CompiledNet};
use crate::fuse::{fuse_network, Stage};
use crate::layer::{LayerSpec, ShapeCursor};
use crate::precision::{NetPrecision, PrecisionSchedule};

/// A sequential network: input shape + ordered layers.
#[derive(Debug, Clone)]
pub struct Network {
    /// Model name (reports).
    pub name: String,
    /// Input channels (3 for RGB).
    pub input_c: usize,
    /// Input height.
    pub input_h: usize,
    /// Input width.
    pub input_w: usize,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl Network {
    /// New network over `c×h×w` inputs.
    pub fn new(name: &str, c: usize, h: usize, w: usize) -> Self {
        Network {
            name: name.to_string(),
            input_c: c,
            input_h: h,
            input_w: w,
            layers: Vec::new(),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: LayerSpec) -> Self {
        self.layers.push(layer);
        self
    }

    /// Shape cursor at the network input.
    pub fn input_shape(&self) -> ShapeCursor {
        ShapeCursor::Map {
            c: self.input_c,
            h: self.input_h,
            w: self.input_w,
        }
    }

    /// Shape after every layer (length = layers + 1, starting with input).
    pub fn shapes(&self) -> Vec<ShapeCursor> {
        let mut shapes = Vec::with_capacity(self.layers.len() + 1);
        let mut cur = self.input_shape();
        shapes.push(cur);
        for l in &self.layers {
            cur = cur.advance(l);
            shapes.push(cur);
        }
        shapes
    }

    /// Output features (classes) — the shape after the last layer.
    pub fn output_features(&self) -> usize {
        self.shapes().last().unwrap().elements()
    }

    /// Total MACs of one forward pass per image (main layers only),
    /// summed over the unfused lowering's main ops — so a skip projection
    /// is counted at the branch shape it reads.
    pub fn macs_per_image(&self) -> u64 {
        fuse_network(self, false)
            .iter()
            .filter_map(|s| match s {
                Stage::Main { op, .. } => Some(op.macs()),
                Stage::Elementwise { .. } => None,
            })
            .sum()
    }

    /// Number of main (conv/linear) layers.
    pub fn num_main_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.is_main()).count()
    }

    /// Lower this network into an executable plan (see
    /// [`crate::compile::CompiledNet`]).
    pub fn compile(&self, precision: NetPrecision, opts: &CompileOptions) -> CompiledNet {
        CompiledNet::compile(self, precision, opts)
    }

    /// Lower this network under a per-layer mixed-precision schedule (see
    /// [`CompiledNet::compile_scheduled`]).
    pub fn compile_scheduled(
        &self,
        schedule: &PrecisionSchedule,
        opts: &CompileOptions,
    ) -> CompiledNet {
        CompiledNet::compile_scheduled(self, schedule, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        Network::new("tiny", 3, 8, 8)
            .push(LayerSpec::conv("c1", 16, 3, 1, 1))
            .push(LayerSpec::Relu)
            .push(LayerSpec::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            })
            .push(LayerSpec::Flatten)
            .push(LayerSpec::linear("fc", 10))
    }

    #[test]
    fn shapes_walk() {
        let n = tiny();
        let shapes = n.shapes();
        assert_eq!(shapes.len(), 6);
        assert_eq!(shapes[1], ShapeCursor::Map { c: 16, h: 8, w: 8 });
        assert_eq!(shapes[3], ShapeCursor::Map { c: 16, h: 4, w: 4 });
        assert_eq!(n.output_features(), 10);
    }

    #[test]
    fn macs_accounting() {
        let n = tiny();
        // conv: 16*8*8*3*9 = 27648; fc: 256*10 = 2560.
        assert_eq!(n.macs_per_image(), 27648 + 2560);
        assert_eq!(n.num_main_layers(), 2);
    }
}
