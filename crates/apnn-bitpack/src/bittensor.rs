//! Channel-major bit-packed activation tensors — the paper's **NPHWC**
//! data organization (§4.2(a), Fig. 4).
//!
//! Two design choices from the paper:
//! 1. A `P`-bit feature map is split into `P` one-bit feature maps, each
//!    stored consecutively, so every plane is individually bit-addressable
//!    and memory accesses stay aligned for any precision `P`.
//! 2. All channels of one spatial location are stored consecutively
//!    (channel-major). Convolutions read whole channel vectors per pixel,
//!    which turns the `K×K` window walk into coalesced 128-bit reads.

use crate::encoding::Encoding;
use crate::tensor::Tensor4;
use crate::word::{pad_to_bmma_k, WORD_BITS};

/// A bit-packed 4-D activation tensor in NPHWC order:
/// `[batch][plane][height][width][channel-bits]`.
///
/// The channel dimension is padded to a multiple of 128 bits and padding bits
/// are always zero (same invariant as [`crate::BitMatrix`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTensor4 {
    n: usize,
    bits: u32,
    h: usize,
    w: usize,
    c: usize,
    padded_c: usize,
    words_per_pixel: usize,
    encoding: Encoding,
    data: Vec<u64>,
}

impl BitTensor4 {
    /// Zeroed tensor of logical shape `(n, h, w, c)` with `bits` planes.
    pub fn zeros(n: usize, h: usize, w: usize, c: usize, bits: u32, encoding: Encoding) -> Self {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        BitTensor4 {
            n,
            bits,
            h,
            w,
            c,
            padded_c,
            words_per_pixel,
            encoding,
            data: vec![0u64; n * bits as usize * h * w * words_per_pixel],
        }
    }

    /// Pack a dense tensor of unsigned codes (`< 2^bits`) into NPHWC planes.
    /// Accepts any input [`crate::Layout`].
    pub fn from_tensor(codes: &Tensor4<u32>, bits: u32, encoding: Encoding) -> Self {
        let (n, c, h, w) = codes.shape();
        let mut t = Self::zeros(n, h, w, c, bits, encoding);
        let mut row = vec![0u32; w * c];
        for in_ in 0..n {
            for ih in 0..h {
                for (iw, px) in row.chunks_exact_mut(c.max(1)).enumerate() {
                    for (ic, code) in px.iter_mut().enumerate() {
                        *code = codes.get(in_, ic, ih, iw);
                    }
                }
                t.pack_row(in_, ih, &row);
            }
        }
        t
    }

    /// Logical shape `(n, h, w, c)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.h, self.w, self.c)
    }

    /// Number of bit planes `P`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Operand encoding.
    #[inline]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Channel count after 128-bit padding.
    #[inline]
    pub fn padded_c(&self) -> usize {
        self.padded_c
    }

    /// Packed words per (plane, pixel) channel vector.
    #[inline]
    pub fn words_per_pixel(&self) -> usize {
        self.words_per_pixel
    }

    /// Total packed size in bytes (the global-memory footprint the paper's
    /// minimal-traffic dataflow accounts for).
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Reshape this tensor in place to `(n, h, w, c)` with `bits` planes,
    /// zeroing every bit and **reusing the backing store**: once the tensor
    /// has been sized at its peak shape, later resets to any shape that
    /// fits the allocated capacity perform zero heap allocations. This is
    /// the workspace-slot rebuild primitive behind steady-state serving.
    pub fn reset_zeros(
        &mut self,
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
        encoding: Encoding,
    ) {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        self.data.clear();
        self.data
            .resize(n * bits as usize * h * w * words_per_pixel, 0);
        self.n = n;
        self.bits = bits;
        self.h = h;
        self.w = w;
        self.c = c;
        self.padded_c = padded_c;
        self.words_per_pixel = words_per_pixel;
        self.encoding = encoding;
    }

    /// [`BitTensor4::reset_zeros`] without the zeroing pass, for callers
    /// that immediately overwrite **every** image slot with
    /// [`BitTensor4::copy_image_from`] (gather/concat coalescing): the
    /// surviving prefix of the backing store keeps stale bits, which is
    /// sound only because a full-stride image copy — from a tensor whose
    /// own padding is zero — replaces all of them. Any region grown beyond
    /// the previous length is zero-filled.
    pub fn reset_for_overwrite(
        &mut self,
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
        encoding: Encoding,
    ) {
        assert!((1..=8).contains(&bits));
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        let padded_c = pad_to_bmma_k(c);
        let words_per_pixel = padded_c / WORD_BITS;
        let len = n * bits as usize * h * w * words_per_pixel;
        self.data.truncate(len);
        self.data.resize(len, 0);
        self.n = n;
        self.bits = bits;
        self.h = h;
        self.w = w;
        self.c = c;
        self.padded_c = padded_c;
        self.words_per_pixel = words_per_pixel;
        self.encoding = encoding;
    }

    /// Copy image `src_index` of `src` into slot `dst_index` of `self` —
    /// one contiguous word-level memcpy, no allocation. Both tensors must
    /// agree on per-image geometry (`h × w × c`, bits, encoding).
    pub fn copy_image_from(&mut self, src: &BitTensor4, src_index: usize, dst_index: usize) {
        assert_eq!(
            (src.h, src.w, src.c, src.bits, src.encoding),
            (self.h, self.w, self.c, self.bits, self.encoding),
            "copy_image_from tensors disagree on image geometry"
        );
        assert!(src_index < src.n, "source image index out of range");
        assert!(dst_index < self.n, "destination image index out of range");
        let stride = self.image_stride();
        self.data[dst_index * stride..(dst_index + 1) * stride]
            .copy_from_slice(src.image_words(src_index));
    }

    /// Copy images `[start, start + len)` into a new tensor. The NPHWC
    /// layout is batch-major, so this is one contiguous memcpy — the batch
    /// sharding primitive behind `infer_batched` serving.
    pub fn batch_slice(&self, start: usize, len: usize) -> BitTensor4 {
        assert!(start + len <= self.n, "batch slice out of range");
        let stride = self.image_stride();
        BitTensor4 {
            n: len,
            bits: self.bits,
            h: self.h,
            w: self.w,
            c: self.c,
            padded_c: self.padded_c,
            words_per_pixel: self.words_per_pixel,
            encoding: self.encoding,
            data: self.data[start * stride..(start + len) * stride].to_vec(),
        }
    }

    /// Reserve backing-store capacity for `n` images of the given
    /// per-image geometry without reshaping or writing anything. Pair
    /// with [`BitTensor4::fill_from_batch_range`]: one up-front
    /// reservation at the peak width makes every later fill — any shard
    /// width, in any order — allocation-free.
    pub fn reserve_images(&mut self, n: usize, h: usize, w: usize, c: usize, bits: u32) {
        let words = n * bits as usize * h * w * (pad_to_bmma_k(c) / WORD_BITS);
        self.data.reserve(words.saturating_sub(self.data.len()));
    }

    /// Reshape to `len` images of `src`'s per-image geometry and copy
    /// images `[start, start + len)` of `src` in — **one contiguous
    /// word-level memcpy** (the NPHWC layout is batch-major), and nothing
    /// else: shrinking truncates, growing appends the copied words
    /// directly, so no byte is ever zero-filled only to be overwritten.
    /// This is the shard-staging primitive of the parallel batched
    /// execution path; reserve capacity once at the peak width
    /// ([`BitTensor4::reserve_images`]) and every fill is allocation-free.
    pub fn fill_from_batch_range(&mut self, src: &BitTensor4, start: usize, len: usize) {
        assert!(start + len <= src.n, "batch range out of bounds");
        let stride = src.image_stride();
        let need = len * stride;
        let src_words = &src.data[start * stride..(start + len) * stride];
        let have = self.data.len().min(need);
        self.data.truncate(have);
        self.data[..have].copy_from_slice(&src_words[..have]);
        self.data.extend_from_slice(&src_words[have..]);
        self.n = len;
        self.bits = src.bits;
        self.h = src.h;
        self.w = src.w;
        self.c = src.c;
        self.padded_c = src.padded_c;
        self.words_per_pixel = src.words_per_pixel;
        self.encoding = src.encoding;
    }

    /// Packed words of one whole image (`[start, start+1)` of the batch).
    #[inline]
    fn image_words(&self, n: usize) -> &[u64] {
        let stride = self.image_stride();
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Packed words per image (all planes × pixels of one batch entry).
    #[inline]
    fn image_stride(&self) -> usize {
        self.bits as usize * self.h * self.w * self.words_per_pixel
    }

    /// Gather images by (possibly non-contiguous, repeated, reordered)
    /// batch indices into a new tensor: `out[i] = self[indices[i]]`.
    ///
    /// This is the request-coalescing primitive of `apnn-serve`: pending
    /// requests land anywhere in a submission buffer, and a serving shard
    /// gathers exactly the images it owns. Word-level copies — no
    /// per-element re-packing.
    pub fn batch_gather(&self, indices: &[usize]) -> BitTensor4 {
        let mut out = BitTensor4::zeros(0, self.h, self.w, self.c, self.bits, self.encoding);
        self.batch_gather_into(indices, &mut out);
        out
    }

    /// [`batch_gather`] writing into a caller-owned tensor: `out` is
    /// reshaped in place (see [`BitTensor4::reset_zeros`]) and filled with
    /// word-level image copies, so a serving worker that keeps one
    /// coalescing buffer per thread gathers every batch without touching
    /// the allocator once the buffer has reached its peak size.
    ///
    /// [`batch_gather`]: BitTensor4::batch_gather
    pub fn batch_gather_into(&self, indices: &[usize], out: &mut BitTensor4) {
        // Every slot is overwritten below, so skip the zeroing pass.
        out.reset_for_overwrite(
            indices.len(),
            self.h,
            self.w,
            self.c,
            self.bits,
            self.encoding,
        );
        for (slot, &i) in indices.iter().enumerate() {
            assert!(
                i < self.n,
                "batch_gather index {i} out of range ({})",
                self.n
            );
            out.copy_image_from(self, i, slot);
        }
    }

    /// Concatenate tensors along the batch dimension (the scatter-side
    /// inverse of [`batch_gather`]): coalesces single-image requests into
    /// one contiguous batch. All parts must agree on shape, bit width and
    /// encoding; empty parts (n = 0) contribute nothing.
    ///
    /// [`batch_gather`]: BitTensor4::batch_gather
    pub fn concat_images(parts: &[&BitTensor4]) -> BitTensor4 {
        let first = parts
            .first()
            .expect("concat_images needs at least one part");
        let mut out = BitTensor4::zeros(0, first.h, first.w, first.c, first.bits, first.encoding);
        Self::concat_images_into(parts, &mut out);
        out
    }

    /// [`concat_images`] writing into a caller-owned tensor (reshaped in
    /// place, allocation-free once `out` has reached its peak capacity).
    ///
    /// [`concat_images`]: BitTensor4::concat_images
    pub fn concat_images_into(parts: &[&BitTensor4], out: &mut BitTensor4) {
        let first = parts
            .first()
            .expect("concat_images needs at least one part");
        let total: usize = parts.iter().map(|p| p.n).sum();
        // Every slot is overwritten below, so skip the zeroing pass.
        out.reset_for_overwrite(total, first.h, first.w, first.c, first.bits, first.encoding);
        let mut slot = 0;
        for p in parts {
            assert_eq!(
                (p.h, p.w, p.c, p.bits, p.encoding),
                (first.h, first.w, first.c, first.bits, first.encoding),
                "concat_images parts disagree on shape/bits/encoding"
            );
            for i in 0..p.n {
                out.copy_image_from(p, i, slot);
                slot += 1;
            }
        }
    }

    #[inline]
    fn pixel_base(&self, n: usize, plane: u32, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && plane < self.bits && h < self.h && w < self.w);
        (((n * self.bits as usize + plane as usize) * self.h + h) * self.w + w)
            * self.words_per_pixel
    }

    /// The packed channel vector of plane `plane` at pixel `(n, h, w)`.
    #[inline]
    pub fn pixel_words(&self, n: usize, plane: u32, h: usize, w: usize) -> &[u64] {
        let base = self.pixel_base(n, plane, h, w);
        &self.data[base..base + self.words_per_pixel]
    }

    /// The packed words of plane `plane` of image row `(n, h)`: `w` pixels ×
    /// [`BitTensor4::words_per_pixel`] words, pixel-major.
    #[inline]
    pub fn row_words(&self, n: usize, plane: u32, h: usize) -> &[u64] {
        let base = self.pixel_base(n, plane, h, 0);
        &self.data[base..base + self.w * self.words_per_pixel]
    }

    /// Image row `(n, h)` of every plane, mutably, plane 0 first: each item
    /// is the row's `w` pixels × [`BitTensor4::words_per_pixel`] words of
    /// one plane — what a kernel tail that produces packed words itself
    /// stores through. The writer owns the invariant that channel padding
    /// bits stay zero.
    pub fn row_planes_mut(&mut self, n: usize, h: usize) -> impl Iterator<Item = &mut [u64]> {
        assert!(n < self.n && h < self.h, "row out of range");
        let (row, stride) = (self.w * self.words_per_pixel, self.image_stride());
        let plane = self.h * row;
        self.data[n * stride..(n + 1) * stride]
            .chunks_exact_mut(plane.max(1))
            .map(move |p| &mut p[h * row..(h + 1) * row])
    }

    /// Pack one image row of codes — `codes[x·c + ch]`, each `< 2^bits` —
    /// into every plane at `(n, h)`, a whole word at a time: 64 channels
    /// become one word per plane, and every word of every pixel is stored
    /// (channel padding as zeros), so the row's previous contents never
    /// matter. The word-level form of [`BitTensor4::set_code`].
    pub fn pack_row(&mut self, n: usize, h: usize, codes: &[u32]) {
        assert_eq!(
            codes.len(),
            self.w * self.c,
            "one code per (pixel, channel)"
        );
        let (wpp, stride) = (self.words_per_pixel, self.h * self.w * self.words_per_pixel);
        let base = self.pixel_base(n, 0, h, 0);
        for (x, px) in codes.chunks_exact(self.c.max(1)).enumerate() {
            // Live words, then the all-padding words of the fragment.
            let chunks = px.chunks(WORD_BITS).chain(std::iter::repeat(&[][..]));
            for (j, chunk) in chunks.take(wpp).enumerate() {
                let words = pack_word(chunk, self.bits);
                for (plane, &word) in words[..self.bits as usize].iter().enumerate() {
                    self.data[base + plane * stride + x * wpp + j] = word;
                }
            }
        }
    }

    /// Unpack image row `(n, h)` into `out[x·c + ch]` (`u32` codes or the
    /// `i32` activations they are), a word at a time — inverse of
    /// [`BitTensor4::pack_row`], the word-level form of
    /// [`BitTensor4::get_code`].
    pub fn unpack_row<T>(&self, n: usize, h: usize, out: &mut [T])
    where
        T: Copy + From<u8> + std::ops::BitOrAssign,
    {
        assert_eq!(out.len(), self.w * self.c, "one code per (pixel, channel)");
        let (wpp, stride) = (self.words_per_pixel, self.h * self.w * self.words_per_pixel);
        let base = self.pixel_base(n, 0, h, 0);
        for (x, px) in out.chunks_exact_mut(self.c.max(1)).enumerate() {
            for (j, chunk) in px.chunks_mut(WORD_BITS).enumerate() {
                chunk.fill(T::from(0));
                for plane in 0..self.bits as usize {
                    unpack_word(self.data[base + plane * stride + x * wpp + j], plane, chunk);
                }
            }
        }
    }

    /// [`BitTensor4::unpack_row`] over every row of every image: the whole
    /// tensor as dense NHWC values, `out[((n·h + y)·w + x)·c + ch]`.
    pub fn unpack<T>(&self, out: &mut [T])
    where
        T: Copy + From<u8> + std::ops::BitOrAssign,
    {
        assert_eq!(out.len(), self.n * self.h * self.w * self.c);
        for (i, row) in out.chunks_exact_mut((self.w * self.c).max(1)).enumerate() {
            self.unpack_row(i / self.h, i % self.h, row);
        }
    }

    /// Read one bit of plane `plane` at `(n, h, w, c)`.
    #[inline]
    pub fn get_bit(&self, n: usize, plane: u32, h: usize, w: usize, c: usize) -> bool {
        debug_assert!(c < self.c);
        let words = self.pixel_words(n, plane, h, w);
        (words[c / WORD_BITS] >> (c % WORD_BITS)) & 1 != 0
    }

    /// Write a full `bits`-wide code at `(n, h, w, c)` across all planes.
    pub fn set_code(&mut self, n: usize, h: usize, w: usize, c: usize, code: u32) {
        debug_assert!(c < self.c);
        debug_assert!(self.bits == 32 || code < (1u32 << self.bits));
        for plane in 0..self.bits {
            let base = self.pixel_base(n, plane, h, w);
            let word = &mut self.data[base + c / WORD_BITS];
            let mask = 1u64 << (c % WORD_BITS);
            if (code >> plane) & 1 != 0 {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        }
    }

    /// Read back the full code at `(n, h, w, c)`.
    pub fn get_code(&self, n: usize, h: usize, w: usize, c: usize) -> u32 {
        let mut code = 0u32;
        for plane in 0..self.bits {
            if self.get_bit(n, plane, h, w, c) {
                code |= 1 << plane;
            }
        }
        code
    }

    /// Unpack into a dense NHWC code tensor (inverse of [`from_tensor`]).
    ///
    /// [`from_tensor`]: BitTensor4::from_tensor
    pub fn to_tensor(&self) -> Tensor4<u32> {
        Tensor4::from_fn(
            self.n,
            self.c,
            self.h,
            self.w,
            crate::tensor::Layout::Nhwc,
            |n, c, h, w| self.get_code(n, h, w, c),
        )
    }

    /// Verify the channel-padding invariant (test helper).
    pub fn padding_is_zero(&self) -> bool {
        for n in 0..self.n {
            for p in 0..self.bits {
                for h in 0..self.h {
                    for w in 0..self.w {
                        let words = self.pixel_words(n, p, h, w);
                        for c in self.c..self.padded_c {
                            if (words[c / WORD_BITS] >> (c % WORD_BITS)) & 1 != 0 {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

/// One word per plane (`words[..bits]`) from up to 64 channel codes:
/// channel `i`'s bit `t` lands at bit `i` of `words[t]`.
#[inline]
fn pack_word(codes: &[u32], bits: u32) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (t, word) in words[..bits as usize].iter_mut().enumerate() {
        for (i, &code) in codes.iter().enumerate() {
            *word |= u64::from((code >> t) & 1) << i;
        }
    }
    words
}

/// OR bit `i` of `word`, shifted to bit `plane`, into `out[i]` — written
/// over 32-bit halves so the lane-indexed shifts vectorize.
#[inline]
fn unpack_word<T>(word: u64, plane: usize, out: &mut [T])
where
    T: Copy + From<u8> + std::ops::BitOrAssign,
{
    for (half, out) in out.chunks_mut(32).enumerate() {
        let w = (word >> (32 * half)) as u32;
        for (i, code) in out.iter_mut().enumerate() {
            *code |= T::from((((w >> i) & 1) << plane) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Layout;

    #[test]
    fn shape_and_padding() {
        let t = BitTensor4::zeros(2, 3, 3, 130, 2, Encoding::ZeroOne);
        assert_eq!(t.shape(), (2, 3, 3, 130));
        assert_eq!(t.padded_c(), 256);
        assert_eq!(t.words_per_pixel(), 4);
        assert!(t.padding_is_zero());
    }

    #[test]
    fn code_roundtrip() {
        let mut t = BitTensor4::zeros(1, 2, 2, 5, 3, Encoding::ZeroOne);
        t.set_code(0, 1, 1, 4, 0b101);
        t.set_code(0, 0, 0, 0, 0b011);
        assert_eq!(t.get_code(0, 1, 1, 4), 0b101);
        assert_eq!(t.get_code(0, 0, 0, 0), 0b011);
        assert_eq!(t.get_code(0, 0, 1, 2), 0);
        // Overwrite clears old bits.
        t.set_code(0, 1, 1, 4, 0b010);
        assert_eq!(t.get_code(0, 1, 1, 4), 0b010);
        assert!(t.padding_is_zero());
    }

    #[test]
    fn from_tensor_roundtrip_nchw() {
        let codes = Tensor4::<u32>::from_fn(2, 4, 3, 3, Layout::Nchw, |n, c, h, w| {
            ((n + c + h + w) % 4) as u32
        });
        let packed = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let unpacked = packed.to_tensor();
        for n in 0..2 {
            for c in 0..4 {
                for h in 0..3 {
                    for w in 0..3 {
                        assert_eq!(codes.get(n, c, h, w), unpacked.get(n, c, h, w));
                    }
                }
            }
        }
    }

    #[test]
    fn row_pack_unpack_round_trips_and_zeroes_padding_over_a_dirty_slot() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for c in [1usize, 63, 64, 65, 130] {
            for bits in [1u32, 2, 3, 8] {
                let (n, h, w) = (2, 3, 5);
                let codes = Tensor4::<u32>::from_fn(n, c, h, w, Layout::Nhwc, |_, _, _, _| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed >> 33) as u32 & ((1 << bits) - 1)
                });
                // Element-wise reference on a clean tensor.
                let mut want = BitTensor4::zeros(n, h, w, c, bits, Encoding::ZeroOne);
                // Word-level packing over a slot whose every bit — channel
                // padding included — is stale.
                let mut got = want.clone();
                got.data.fill(u64::MAX);
                let mut row = vec![0u32; w * c];
                for b in 0..n {
                    for y in 0..h {
                        for x in 0..w {
                            for ch in 0..c {
                                want.set_code(b, y, x, ch, codes.get(b, ch, y, x));
                                row[x * c + ch] = codes.get(b, ch, y, x);
                            }
                        }
                        got.pack_row(b, y, &row);
                    }
                }
                assert_eq!(got, want, "c={c} bits={bits}");
                assert!(got.padding_is_zero(), "c={c} bits={bits}");
                assert_eq!(
                    BitTensor4::from_tensor(&codes, bits, Encoding::ZeroOne),
                    want
                );
                // Unpacking overwrites stale output, as codes and as i32.
                let (mut back, mut back_i32) = (vec![u32::MAX; w * c], vec![-1i32; w * c]);
                for b in 0..n {
                    for y in 0..h {
                        got.unpack_row(b, y, &mut back);
                        got.unpack_row(b, y, &mut back_i32);
                        for (i, (&u, &v)) in back.iter().zip(&back_i32).enumerate() {
                            let code = got.get_code(b, y, i / c, i % c);
                            assert_eq!((u, v), (code, code as i32), "c={c} bits={bits} at {i}");
                        }
                        let words: Vec<u64> = (0..w)
                            .flat_map(|x| got.pixel_words(b, bits - 1, y, x).to_vec())
                            .collect();
                        assert_eq!(got.row_words(b, bits - 1, y), &words[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn planes_are_contiguous_per_pixel() {
        // Channel-major: the packed words of one (plane, pixel) pair hold all
        // channels; neighbouring channels land in the same word.
        let mut t = BitTensor4::zeros(1, 1, 1, 64, 1, Encoding::ZeroOne);
        for c in 0..64 {
            t.set_code(0, 0, 0, c, (c % 2) as u32);
        }
        let words = t.pixel_words(0, 0, 0, 0);
        assert_eq!(words[0], 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(words[1], 0); // padding word
    }

    #[test]
    fn batch_gather_matches_per_image_slices() {
        let codes = Tensor4::<u32>::from_fn(5, 3, 2, 2, Layout::Nhwc, |n, c, h, w| {
            ((7 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        // Reordered, repeated, non-contiguous.
        let idx = [4, 1, 1, 0];
        let g = t.batch_gather(&idx);
        assert_eq!(g.shape(), (4, 2, 2, 3));
        for (out_i, &src) in idx.iter().enumerate() {
            assert_eq!(g.batch_slice(out_i, 1), t.batch_slice(src, 1));
        }
        assert!(g.padding_is_zero());
        // Empty gather is a zero-batch tensor.
        assert_eq!(t.batch_gather(&[]).shape(), (0, 2, 2, 3));
    }

    #[test]
    fn concat_images_inverts_batch_slices() {
        let codes = Tensor4::<u32>::from_fn(4, 2, 3, 3, Layout::Nhwc, |n, c, h, w| {
            ((n + c + 2 * h + w) % 8) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 3, Encoding::ZeroOne);
        let parts: Vec<BitTensor4> = (0..4).map(|i| t.batch_slice(i, 1)).collect();
        let refs: Vec<&BitTensor4> = parts.iter().collect();
        let joined = BitTensor4::concat_images(&refs);
        assert_eq!(joined, t);
        // Uneven split round-trips too.
        let a = t.batch_slice(0, 3);
        let b = t.batch_slice(3, 1);
        assert_eq!(BitTensor4::concat_images(&[&a, &b]), t);
    }

    #[test]
    fn gather_into_reuses_one_buffer_across_shrinking_and_growing_gathers() {
        let codes = Tensor4::<u32>::from_fn(6, 3, 2, 2, Layout::Nhwc, |n, c, h, w| {
            ((11 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let mut buf = BitTensor4::zeros(6, 2, 2, 3, 2, Encoding::ZeroOne);
        for idx in [vec![5, 0, 0, 2, 4, 1], vec![3], vec![1, 1, 2, 0]] {
            t.batch_gather_into(&idx, &mut buf);
            assert_eq!(buf, t.batch_gather(&idx));
        }
        // concat_images_into round-trips through the same reused buffer.
        let a = t.batch_slice(0, 2);
        let b = t.batch_slice(2, 4);
        BitTensor4::concat_images_into(&[&a, &b], &mut buf);
        assert_eq!(buf, t);
    }

    #[test]
    fn fill_from_batch_range_matches_batch_slice_across_widths() {
        let codes = Tensor4::<u32>::from_fn(6, 3, 4, 4, Layout::Nhwc, |n, c, h, w| {
            ((9 * n + 5 * c + 3 * h + w) % 4) as u32
        });
        let t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let mut staged = BitTensor4::zeros(0, 1, 1, 1, 1, Encoding::ZeroOne);
        // Shrinking and growing ranges through one reused buffer.
        for (start, len) in [(0, 6), (2, 3), (5, 1), (0, 4), (3, 3)] {
            staged.fill_from_batch_range(&t, start, len);
            assert_eq!(staged, t.batch_slice(start, len), "range {start}+{len}");
            assert!(staged.padding_is_zero());
        }
    }

    #[test]
    fn reset_zeros_reshapes_and_clears() {
        let codes = Tensor4::<u32>::from_fn(2, 4, 3, 3, Layout::Nhwc, |_, _, _, _| 3);
        let mut t = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        t.reset_zeros(1, 2, 2, 200, 1, Encoding::ZeroOne);
        assert_eq!(t.shape(), (1, 2, 2, 200));
        assert_eq!(t.bits(), 1);
        assert_eq!(t.padded_c(), 256);
        assert!(t.padding_is_zero());
        assert_eq!(t.get_code(0, 1, 1, 199), 0);
        assert_eq!(t, BitTensor4::zeros(1, 2, 2, 200, 1, Encoding::ZeroOne));
    }

    #[test]
    fn packed_bytes_scale_with_bits() {
        let t1 = BitTensor4::zeros(1, 8, 8, 128, 1, Encoding::ZeroOne);
        let t2 = BitTensor4::zeros(1, 8, 8, 128, 2, Encoding::ZeroOne);
        assert_eq!(t2.packed_bytes(), 2 * t1.packed_bytes());
    }
}
