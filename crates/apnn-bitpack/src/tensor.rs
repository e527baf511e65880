//! Dense 4-D tensors with explicit memory layouts.
//!
//! The paper contrasts the traditional NCHW layout with its channel-major
//! NPHWC organization (Fig. 4). This module provides the dense layouts;
//! the bit-packed NPHWC container lives in [`crate::bittensor`].

/// Memory layout of a dense 4-D activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// `[batch][channel][height][width]` — the traditional layout (Fig. 4a).
    Nchw,
    /// `[batch][height][width][channel]` — channel-major, the dense precursor
    /// of the paper's packed NPHWC organization (Fig. 4b).
    Nhwc,
}

/// A dense 4-D tensor over `T` with an explicit [`Layout`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4<T> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Zero-initialized tensor with logical shape `(n, c, h, w)`.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize, layout: Layout) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            layout,
            data: vec![T::default(); n * c * h * w],
        }
    }

    /// Build from a closure over `(n, c, h, w)`.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        layout: Layout,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(n, c, h, w, layout);
        for in_ in 0..n {
            for ic in 0..c {
                for ih in 0..h {
                    for iw in 0..w {
                        let idx = t.index(in_, ic, ih, iw);
                        t.data[idx] = f(in_, ic, ih, iw);
                    }
                }
            }
        }
        t
    }

    /// Wrap an existing buffer (length must be `n*c*h*w`).
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, layout: Layout, data: Vec<T>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "buffer length mismatch");
        Tensor4 {
            n,
            c,
            h,
            w,
            layout,
            data,
        }
    }

    /// Logical shape `(n, c, h, w)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Current memory layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Flat index of `(n, c, h, w)` under the current layout.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        match self.layout {
            Layout::Nchw => ((n * self.c + c) * self.h + h) * self.w + w,
            Layout::Nhwc => ((n * self.h + h) * self.w + w) * self.c + c,
        }
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> T {
        self.data[self.index(n, c, h, w)]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: T) {
        let i = self.index(n, c, h, w);
        self.data[i] = v;
    }

    /// Backing buffer in layout order.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nchw_indexing_is_row_major() {
        let t = Tensor4::<i32>::from_fn(2, 3, 4, 5, Layout::Nchw, |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as i32
        });
        assert_eq!(t.data()[0], 0);
        assert_eq!(t.get(1, 2, 3, 4), 1234);
        // In NCHW consecutive w are adjacent.
        assert_eq!(t.index(0, 0, 0, 1), t.index(0, 0, 0, 0) + 1);
        // Channel stride is h*w.
        assert_eq!(t.index(0, 1, 0, 0), 20);
    }

    #[test]
    fn nhwc_channel_is_innermost() {
        let t = Tensor4::<i32>::zeros(1, 8, 2, 2, Layout::Nhwc);
        assert_eq!(t.index(0, 1, 0, 0), t.index(0, 0, 0, 0) + 1);
        assert_eq!(t.index(0, 0, 0, 1), 8);
    }

    #[test]
    fn either_layout_reads_the_same_values() {
        // The same logical tensor in either layout: different backing
        // order, identical values at every logical index.
        let f = |n, c, h, w| (n * 100 + c * 10 + h * 2 + w) as i32;
        let t = Tensor4::<i32>::from_fn(2, 3, 2, 2, Layout::Nchw, f);
        let u = Tensor4::<i32>::from_fn(2, 3, 2, 2, Layout::Nhwc, f);
        assert_ne!(t.data(), u.data());
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..2 {
                    for w in 0..2 {
                        assert_eq!(t.get(n, c, h, w), u.get(n, c, h, w));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn from_vec_validates_length() {
        let _ = Tensor4::<f32>::from_vec(1, 2, 3, 4, Layout::Nchw, vec![0.0; 5]);
    }
}
