use super::*;
use crate::apconv::padding::{correct_xor_window, fill_words, PadFill};
use crate::apconv::{ApConv, ConvWeights, Residual};
use crate::fusion::{Epilogue, EpilogueOp, Steps};
use crate::reference::conv2d_i32;
use crate::select::plan_xor_only;
use apnn_bitpack::{Encoding, Layout, Tensor4};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Build packed input + decoded reference values.
fn make_input(desc: &ConvDesc, seed: &mut u64) -> (BitTensor4, Vec<i32>) {
    let codes = Tensor4::<u32>::from_fn(
        desc.batch,
        desc.cin,
        desc.h,
        desc.w,
        Layout::Nhwc,
        |_, _, _, _| (lcg(seed) as u32) % (1 << desc.x_bits),
    );
    let packed = BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc);
    // Decoded NHWC values.
    let mut vals = vec![0i32; desc.batch * desc.h * desc.w * desc.cin];
    for b in 0..desc.batch {
        for y in 0..desc.h {
            for x in 0..desc.w {
                for c in 0..desc.cin {
                    vals[((b * desc.h + y) * desc.w + x) * desc.cin + c] =
                        desc.x_enc.code_value(codes.get(b, c, y, x), desc.x_bits);
                }
            }
        }
    }
    (packed, vals)
}

fn make_weights(desc: &ConvDesc, seed: &mut u64) -> (ConvWeights, Vec<i32>) {
    let n = desc.cout * desc.kh * desc.kw * desc.cin;
    let codes: Vec<u32> = (0..n)
        .map(|_| (lcg(seed) as u32) % (1 << desc.w_bits))
        .collect();
    let w = ConvWeights::from_codes(desc, &codes);
    let vals: Vec<i32> = codes
        .iter()
        .map(|&c| desc.w_enc.code_value(c, desc.w_bits))
        .collect();
    (w, vals)
}

/// Seeded operands plus the naive i32 oracle's NHWC accumulators.
fn operands_and_oracle(desc: &ConvDesc, seed: u64) -> (BitTensor4, ConvWeights, Vec<i32>) {
    let mut seed = seed;
    let (input, x_vals) = make_input(desc, &mut seed);
    let (weights, w_vals) = make_weights(desc, &mut seed);
    let want = conv2d_i32(
        &x_vals,
        &w_vals,
        desc.batch,
        desc.h,
        desc.w,
        desc.cin,
        desc.cout,
        desc.kh,
        desc.kw,
        desc.stride,
        desc.pad,
    );
    (input, weights, want)
}

fn check_against_reference(desc: &ConvDesc, seed: u64) {
    let (input, weights, want) = operands_and_oracle(desc, seed);
    let got = ApConv::new(*desc).prepare(weights).execute(&input);
    assert_eq!(got, want, "desc {desc:?}");
}

/// The emulation tables of a plan that emulates.
fn emulation(state: &ConvExecPlan) -> &Emulation {
    match &state.rows {
        Rows::Emulated(em) => em,
        Rows::Dense(_) => panic!("a window-dense plan emulates nothing"),
    }
}

fn with_encodings(mut desc: ConvDesc, w_enc: Encoding, x_enc: Encoding) -> ConvDesc {
    desc.w_enc = w_enc;
    desc.x_enc = x_enc;
    desc
}

/// 2×2/stride-2 pooling of NHWC `y` written out by hand.
fn pooled_by_hand(y: &[i32], desc: &ConvDesc, kind: Pool2) -> Vec<i32> {
    let (oh, ow, c) = (desc.out_h(), desc.out_w(), desc.cout);
    let mut v = Vec::new();
    for b in 0..desc.batch {
        for py in 0..oh / 2 {
            for px in 0..ow / 2 {
                for co in 0..c {
                    let at = |dy, dx| y[((b * oh + 2 * py + dy) * ow + 2 * px + dx) * c + co];
                    let quad = [at(0, 0), at(0, 1), at(1, 0), at(1, 1)];
                    v.push(match kind {
                        Pool2::Max => *quad.iter().max().unwrap(),
                        Pool2::Avg => quad.iter().sum::<i32>().div_euclid(4),
                    });
                }
            }
        }
    }
    v
}

/// Drive the one driver through every conv emulation case and window
/// geometry × `tiles` × `arms` × {full, partial, zero-image} shard,
/// reusing one scratch as shapes shrink and grow, and compare each
/// result with the naive i32 oracle. Each emulated shape has a
/// window-dense twin of under a word's channels per column, which runs
/// the dense producer through the same grid.
fn check_every_case(tiles: &[MicroTile], arms: &[PopcntArm]) {
    use Encoding::{PlusMinusOne as Pm, ZeroOne as Zo};
    let descs = [
        // Stride 1 with padding: a ragged last pixel block (7 columns)
        // and a ragged last row group (9 channels).
        ConvDesc::unsigned(2, 5, 7, 9, 3, 1, 1, 2, 2),
        ConvDesc::unsigned(2, 23, 7, 9, 3, 1, 1, 2, 2),
        // Stride 2, wide kernel, wide channels.
        ConvDesc::unsigned(1, 4, 9, 5, 5, 2, 2, 1, 2),
        ConvDesc::unsigned(1, 13, 9, 5, 5, 2, 2, 1, 2),
        ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3),
        // ±1/±1 (pad-1 + counter correction) and the two Case III forms.
        with_encodings(ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1), Pm, Pm),
        with_encodings(ConvDesc::unsigned(1, 22, 6, 4, 3, 1, 1, 1, 1), Pm, Pm),
        with_encodings(ConvDesc::unsigned(2, 6, 5, 7, 3, 1, 1, 1, 3), Pm, Zo),
        with_encodings(ConvDesc::unsigned(2, 24, 5, 7, 3, 1, 1, 1, 3), Pm, Zo),
        with_encodings(ConvDesc::unsigned(2, 5, 5, 3, 3, 1, 1, 2, 1), Zo, Pm),
        with_encodings(ConvDesc::unsigned(2, 22, 5, 3, 3, 1, 1, 2, 1), Zo, Pm),
    ];
    let (mut cases, mut dense) = (Vec::new(), 0);
    let mut scratch = ConvScratch::default();
    let mut out = Vec::new();
    for (i, desc) in descs.iter().enumerate() {
        let (input, weights, want) = operands_and_oracle(desc, 300 + i as u64);
        let per_image = desc.out_h() * desc.out_w() * desc.cout;
        for (&micro, &arm) in tiles.iter().flat_map(|t| arms.iter().map(move |a| (t, a))) {
            let prepared = ApConv::new(*desc)
                .prepare(weights.clone())
                .with_micro(micro)
                .with_arm(arm);
            match &prepared.exec_plan.rows {
                Rows::Emulated(em) if !cases.contains(&em.eplan.case) => cases.push(em.eplan.case),
                Rows::Emulated(_) => {}
                Rows::Dense(_) => dense += 1,
            }
            for images in [desc.batch, desc.batch - 1, 0] {
                prepared.execute_into(&input.batch_slice(0, images), &mut scratch, &mut out);
                assert_eq!(
                    out,
                    want[..images * per_image],
                    "{micro:?} {arm:?} shard {images} desc {desc:?}"
                );
            }
        }
    }
    assert_eq!(cases.len(), 4, "all four conv emulation cases");
    assert_eq!(
        dense,
        5 * tiles.len() * arms.len(),
        "the window-dense twins"
    );
}

#[test]
fn case1_unsigned_various_shapes() {
    check_against_reference(&ConvDesc::unsigned(1, 3, 5, 4, 3, 1, 1, 1, 2), 1);
    check_against_reference(&ConvDesc::unsigned(2, 7, 8, 5, 3, 1, 1, 2, 2), 2);
    check_against_reference(&ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3), 3);
    check_against_reference(&ConvDesc::unsigned(1, 4, 9, 2, 5, 2, 2, 2, 1), 4);
    check_against_reference(&ConvDesc::unsigned(1, 3, 6, 2, 1, 1, 0, 3, 3), 5);
    // Stride 2 with no padding over a batch: every window in frame, and
    // the last input row and column read by no window.
    check_against_reference(&ConvDesc::unsigned(2, 6, 8, 3, 3, 2, 0, 2, 3), 6);
}

#[test]
fn case2_signed_binary_with_oob_padding() {
    // ±1 weights and activations with pad=1 exercises the counter
    // correction on every border pixel.
    let mut desc = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
    desc.w_enc = Encoding::PlusMinusOne;
    desc.x_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 7);
    // Bigger pad → windows fully outside rows exist.
    let mut desc = ConvDesc::unsigned(2, 3, 4, 3, 3, 1, 2, 1, 1);
    desc.w_enc = Encoding::PlusMinusOne;
    desc.x_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 8);
}

#[test]
fn case3_signed_weights_unsigned_activations() {
    let mut desc = ConvDesc::unsigned(1, 6, 6, 4, 3, 1, 1, 1, 2);
    desc.w_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 9);
    let mut desc = ConvDesc::unsigned(2, 9, 5, 3, 3, 2, 1, 1, 4);
    desc.w_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 10);
    // An odd map: the 7-wide output row ends in a ragged pixel block.
    let mut desc = ConvDesc::unsigned(1, 6, 7, 4, 3, 1, 1, 1, 2);
    desc.w_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 12);
}

#[test]
fn case3_mirrored_unsigned_weights_signed_activations() {
    let mut desc = ConvDesc::unsigned(1, 5, 5, 3, 3, 1, 1, 2, 1);
    desc.x_enc = Encoding::PlusMinusOne;
    check_against_reference(&desc, 11);
}

#[test]
fn fused_pool_and_quantize() {
    // Oracle: reference conv → hand-written pool → quantize, through the
    // fused entry with one packed slot reused across pool shapes.
    let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
    let (input, weights, y) = operands_and_oracle(&desc, 13);
    let epi = Epilogue::quantize(4.0, 0.0, 2);
    let steps = Steps::build(&epi, desc.cout).unwrap();
    let prepared = ApConv::new(desc).prepare(weights);
    let mut scratch = ConvScratch::default();
    let mut slot = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
    for pool in [None, Some(Pool2::Max), Some(Pool2::Avg)] {
        let (want, side) = match pool {
            None => (y.clone(), 8),
            Some(kind) => (pooled_by_hand(&y, &desc, kind), 4),
        };
        prepared.execute_fused_into(
            &input,
            Residual::None,
            pool,
            &steps,
            &mut scratch,
            &mut slot,
        );
        assert_eq!(slot.shape(), (2, side, side, 3));
        for (idx, &acc) in want.iter().enumerate() {
            let (co, px) = (idx % 3, idx / 3);
            let (b, py, px) = (px / (side * side), px / side % side, px % side);
            let code = epi.apply_to_code(acc, co);
            assert_eq!(slot.get_code(b, py, px, co), code, "pool {pool:?}");
        }
    }
}

#[test]
fn every_micro_tile_is_bit_identical_for_conv() {
    let tiles = [1usize, 2, 4, 8].map(|jb| MicroTile { jb });
    check_every_case(&tiles, &[PopcntArm::detect()]);
}

#[test]
fn every_available_arm_is_bit_identical_for_conv() {
    // Unavailable arms sanitize to the detected best — still exact, so
    // asserting on the full set is safe on any host.
    check_every_case(&[MicroTile { jb: 4 }], &PopcntArm::ALL);
}

#[test]
fn ad_hoc_conv_entry_binds_the_closed_form_tile() {
    // Tile selection is a closed form of the output-row width: two
    // `prepare`s of one kernel bind the same tile, never wider than
    // `out_w` rounds up to, and give equal output.
    let desc = ConvDesc::unsigned(1, 37, 5, 13, 3, 1, 1, 2, 2);
    let (input, weights, _) = operands_and_oracle(&desc, 41);
    let conv = ApConv::new(desc);

    let first = conv.prepare(weights.clone());
    let second = conv.prepare(weights);
    assert_eq!(first.micro(), second.micro());
    assert_eq!(first.execute(&input), second.execute(&input));
    assert_eq!(first.micro(), select_micro(desc.out_w()));
    assert!(first.micro().jb <= desc.out_w().next_power_of_two());
}

/// Every window of every strip, read the way the kernel reads it (the
/// strip's [`Affine`] streams), against a tap-by-tap, channel-by-channel
/// gather of the same window — K bit `kx·col_pitch + ky·cin + c` is channel
/// `c` of tap `(ky, kx)`, the fill where the tap misses the frame, and
/// every other bit (a column's pad bits) is zero — plus the in-frame
/// ranges against a per-tap coordinate test and the folded activation
/// sides against a recount, plane by plane, for every output pixel. Only
/// emulated layers build strips: a window-dense one has none to check.
fn check_strip_against_tap_gather(desc: &ConvDesc, fill: PadFill, seed: u64) {
    let mut seed = seed;
    let (input, _) = make_input(desc, &mut seed);
    let (weights, _) = make_weights(desc, &mut seed);
    let state = ConvExecPlan::new(desc, &weights);
    let mut em = emulation(&state).clone();
    let fill = fill_words(fill, desc.cin, desc.live_words());
    em.fill_pattern = fill.clone();
    let corr = em.eplan.case.correction();
    assert!(
        corr.needs_col_sums(),
        "the case must build activation sides"
    );
    let (kh, kw, cin, pitch) = (desc.kh, desc.kw, desc.cin, desc.col_pitch());
    let (p, q, k_words) = (desc.w_bits as usize, desc.x_bits as usize, desc.k_words());
    let mut strip = Strip::default();
    for b in 0..desc.batch {
        for oy in 0..desc.out_h() {
            strip.build(desc, &input, &em, b, oy);
            let mut planes = [&[][..]; MAX_PLANES];
            let step = strip.streams(desc, &mut planes);
            let rows_in = in_frame(oy, desc.stride, desc.pad, desc.h, kh);
            for ox in 0..desc.out_w() {
                let cols_in = in_frame(ox, desc.stride, desc.pad, desc.w, kw);
                let mut plane_ones = Vec::new();
                for (t, plane) in planes[..q].iter().enumerate() {
                    let window = &plane[ox * step..][..k_words];
                    let mut ones = 0;
                    for (kx, ky) in (0..kw).flat_map(|kx| (0..kh).map(move |ky| (kx, ky))) {
                        let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
                        let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
                        let inside = (0..desc.h as isize).contains(&iy)
                            && (0..desc.w as isize).contains(&ix);
                        assert_eq!(
                            rows_in.contains(&ky) && cols_in.contains(&kx),
                            inside,
                            "frame test at ({oy},{ox}) tap ({ky},{kx}) of {desc:?}"
                        );
                        let tap = if inside {
                            input.pixel_words(b, t as u32, iy as usize, ix as usize)
                        } else {
                            &fill
                        };
                        for c in 0..cin {
                            let at = kx * pitch + ky * cin + c;
                            let want = tap[c / 64] >> (c % 64) & 1;
                            assert_eq!(
                                window[at / 64] >> (at % 64) & 1,
                                want,
                                "window ({oy},{ox}) plane {t} tap ({ky},{kx}) channel {c} of {desc:?}"
                            );
                            ones += want as u32;
                        }
                    }
                    assert_eq!(
                        apnn_bitpack::word::popcount(window),
                        ones,
                        "pad bits of window ({oy},{ox}) plane {t} of {desc:?}"
                    );
                    plane_ones.push(ones as i32);
                }
                assert_eq!(
                    strip.x_sides[ox],
                    fold_planes(q, p, |t| corr.offset(0, 0, plane_ones[t])),
                    "activation side ({oy},{ox}) of {desc:?}"
                );
            }
        }
    }
}

/// A `q`-plane strip-test layer over `cin` channels: ±1 weights, so the
/// case consumes the activation sides.
fn strip_desc(
    batch: usize,
    (h, w): (usize, usize),
    cin: usize,
    (kh, kw): (usize, usize),
    (stride, pad): (usize, usize),
    q: u32,
) -> ConvDesc {
    let mut desc = ConvDesc::unsigned(batch, cin, h, 1, kh, stride, pad, 1, q);
    (desc.w, desc.kw, desc.w_enc) = (w, kw, Encoding::PlusMinusOne);
    desc
}

#[test]
fn shifted_window_gather_matches_full_gather() {
    // Every window equals a tap-by-tap gather: both strides, pads up to
    // windows wholly outside the frame (pad 2 under a 3×3 kernel), square
    // and oblong kernels, channel counts that fill a fraction of a word
    // (1, 3, 7 under one-wide kernels, 16), straddle word boundaries
    // mid-column (21, 65, 130) and fill whole words (64), both fill
    // patterns, 1–3 planes. The window-dense draws are skipped: they build
    // no strip.
    let mut seed = 23;
    let mut emulated = 0;
    for (stride, pad) in [1usize, 2]
        .into_iter()
        .flat_map(|s| [0, 1, 2].map(|p| (s, p)))
    {
        for k in [(1usize, 1usize), (3, 3), (5, 5), (3, 5), (2, 4)] {
            for cin in [1usize, 3, 7, 16, 21, 64, 65, 130] {
                for q in 1u32..=3 {
                    let desc = strip_desc(2, (6, 7), cin, k, (stride, pad), q);
                    if desc.window_dense() {
                        continue;
                    }
                    emulated += 1;
                    for fill in [PadFill::Zeros, PadFill::OnesValidChannels] {
                        seed += 1;
                        check_strip_against_tap_gather(&desc, fill, seed);
                    }
                }
            }
        }
    }
    assert!(emulated > 200, "{emulated} emulated layers");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The grid above at random geometry (the nightly deep run drives
    /// this at 2048 cases).
    #[test]
    fn strip_slices_equal_tap_gather(
        h in 1usize..9, w in 1usize..9, kh in 1usize..6, kw in 1usize..6,
        stride in 1usize..4, pad in 0usize..4, cin in 1usize..200, q in 1u32..4,
        ones in proptest::prelude::any::<bool>(), seed in proptest::prelude::any::<u64>(),
    ) {
        proptest::prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        let desc = strip_desc(1, (h, w), cin, (kh, kw), (stride, pad), q);
        proptest::prop_assume!(!desc.window_dense());
        let fill = if ones { PadFill::OnesValidChannels } else { PadFill::Zeros };
        check_strip_against_tap_gather(&desc, fill, seed);
    }
}

#[test]
fn window_class_table_equals_per_pixel_weight_sides() {
    // The plan's `[row class][group][column class]` table of folded
    // sides, looked up the way `conv_row` and the kernel do, against
    // `weight_sides` summed for every output pixel from its own
    // coordinates — and that against the fold of the per-plane §3.2
    // offsets written out tap by tap: strides 1–3, pads up to
    // windows wholly outside the frame, oblong kernels, a ragged last
    // group, every encoding pair (the two with ±1 activations are the
    // ones whose weight side depends on the window).
    use Encoding::{PlusMinusOne as Pm, ZeroOne as Zo};
    let mut seed = 71;
    for (w_enc, x_enc, p) in [(Pm, Pm, 1u32), (Zo, Pm, 2), (Pm, Zo, 1), (Zo, Zo, 3)] {
        for (stride, pad) in [1usize, 2, 3]
            .into_iter()
            .flat_map(|s| [0, 1, 2, 3].map(|p| (s, p)))
        {
            for (kh, kw, cout) in [(3usize, 3usize, 11usize), (2, 5, 8), (5, 3, 3), (1, 1, 17)] {
                // 65 channels: two-word columns, so the layer emulates.
                let mut desc = ConvDesc::unsigned(1, 65, 7, cout, kh, stride, pad, p, 1);
                (desc.w, desc.kw) = (6, kw);
                let desc = with_encodings(desc, w_enc, x_enc);
                let (weights, _) = make_weights(&desc, &mut seed);
                let state = ConvExecPlan::new(&desc, &weights);
                let state = emulation(&state);
                let (eplan, fill) = (state.eplan, pad_fill(w_enc, x_enc));
                let corr = eplan.case.correction();
                let groups = cout.div_ceil(LANES);
                for (oy, ox, g) in (0..desc.out_h()).flat_map(|oy| {
                    (0..desc.out_w()).flat_map(move |ox| (0..groups).map(move |g| (oy, ox, g)))
                }) {
                    let want = weight_sides(&desc, weights.popc(), eplan, fill, g, |ky, kx| {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        !(0..desc.h as isize).contains(&iy) || !(0..desc.w as isize).contains(&ix)
                    });
                    let sides = state.class_sides(state.row_class[oy], g, groups);
                    assert_eq!(
                        sides[state.col_side[ox] as usize], want,
                        "pixel ({oy},{ox}) group {g} of {desc:?}"
                    );
                    let by_hand: [i32; LANES] = std::array::from_fn(|l| {
                        fold_planes(p as usize, 1, |s| {
                            let (mut oob_w, mut oob_taps) = (0, 0);
                            for (ky, kx) in (0..kh).flat_map(|ky| (0..kw).map(move |kx| (ky, kx))) {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if !(0..desc.h as isize).contains(&iy)
                                    || !(0..desc.w as isize).contains(&ix)
                                {
                                    oob_taps += 1;
                                    oob_w += weights.popc().seg_lanes(s, ky * kw + kx, g)[l];
                                }
                            }
                            let valid_taps = (kh * kw) as i32 - oob_taps;
                            corr.offset(
                                correct_xor_window(0, desc.cin as i32, valid_taps, oob_w, oob_taps),
                                valid_row_popc(weights.popc().row_lanes(s, g)[l], oob_w),
                                0,
                            )
                        })
                    });
                    assert_eq!(want, by_hand, "fold at ({oy},{ox}) group {g} of {desc:?}");
                }
                let classes = state.w_sides.len() / groups;
                assert!(
                    classes <= (2 * pad + 1).pow(2).min(desc.out_h() * desc.out_w()),
                    "{classes} window classes for {desc:?}"
                );
            }
        }
    }
}

#[test]
fn residual_adds_into_raw_accumulators_before_the_epilogue() {
    let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
    let (input, weights, raw) = operands_and_oracle(&desc, 29);
    let epi = Epilogue::quantize(4.0, 0.0, 2);
    let res: Vec<i32> = (0..raw.len()).map(|i| (i as i32 % 11) - 5).collect();

    let mut scratch = ConvScratch::default();
    let mut packed = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
    let steps = Steps::build(&epi, desc.cout).unwrap();
    ApConv::new(desc).prepare(weights).execute_fused_into(
        &input,
        Residual::Accs(&res),
        None,
        &steps,
        &mut scratch,
        &mut packed,
    );

    // Oracle: raw accumulators + residual, then the epilogue.
    for b in 0..desc.batch {
        for y in 0..desc.out_h() {
            for x in 0..desc.out_w() {
                for co in 0..desc.cout {
                    let idx = ((b * desc.out_h() + y) * desc.out_w() + x) * desc.cout + co;
                    let want = epi.apply_to_code(raw[idx] + res[idx], co);
                    assert_eq!(packed.get_code(b, y, x, co), want, "at {idx}");
                }
            }
        }
    }
}

#[test]
fn avg_pool_floors_toward_neg_infinity() {
    // ±1 weights give negative window sums, so flooring the mean toward
    // −∞ (not toward zero) is observable.
    let desc = with_encodings(
        ConvDesc::unsigned(2, 3, 6, 4, 3, 1, 1, 1, 2),
        Encoding::PlusMinusOne,
        Encoding::ZeroOne,
    );
    let (input, weights, y) = operands_and_oracle(&desc, 17);
    let pooled = pooled_by_hand(&y, &desc, Pool2::Avg);
    assert!(pooled.iter().any(|&v| v < 0), "negative means exercised");
    let accs = ApConv::new(desc).prepare(weights).execute(&input);
    let (n, oh, ow) = (desc.batch, desc.out_h(), desc.out_w());
    assert_eq!(pool2_i32(&accs, n, oh, ow, desc.cout, Pool2::Avg), pooled);
}

/// One fused call against the scalar spec of its tail over the naive i32
/// oracle's accumulators — oracle (+ residual) → [`pool2_i32`] →
/// [`Epilogue::apply_to_code`] → [`BitTensor4::pack_row`] — on every arm,
/// through the chain's step table. `residual`: 0 none, 1 a projection's
/// accumulators, 2 an identity branch of `rbits`-wide codes (checked
/// against its decoded values added as integers).
fn check_tail(
    desc: &ConvDesc,
    pool: Option<Pool2>,
    (residual, rbits): (u32, u32),
    bits: u32,
    seed: u64,
) {
    let (input, weights, mut y) = operands_and_oracle(desc, seed);
    let mut seed = seed ^ 0x9E37_79B9_7F4A_7C15;
    let prepared = ApConv::new(*desc).prepare(weights);
    let (n, oh, ow, cout) = (desc.batch, desc.out_h(), desc.out_w(), desc.cout);

    let accs: Vec<i32> = (0..y.len())
        .map(|_| (lcg(&mut seed) % 41) as i32 - 20)
        .collect();
    let codes = Tensor4::<u32>::from_fn(n, cout, oh, ow, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % (1 << rbits)
    });
    let branch = BitTensor4::from_tensor(&codes, rbits, Encoding::ZeroOne);
    let (residual, kind, added) = match residual {
        0 => (Residual::None, "none", vec![0; y.len()]),
        1 => (Residual::Accs(&accs), "projection", accs.clone()),
        _ => {
            let mut decoded = vec![0i32; y.len()];
            branch.unpack(&mut decoded);
            (Residual::Codes(&branch), "identity", decoded)
        }
    };
    for (a, r) in y.iter_mut().zip(&added) {
        *a += r;
    }
    let (ph, pw) = match pool {
        None => (oh, ow),
        Some(kind) => {
            y = pool2_i32(&y, n, oh, ow, cout, kind);
            (oh / 2, ow / 2)
        }
    };

    // BatchNorm with `γ` of both signs (and an exact zero), an optional
    // ReLU, and a quantization spread over the accumulators' range.
    let (lo, hi) = y.iter().fold((0, 1), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let mut unit = |scale: f32| (lcg(&mut seed) % 2001) as f32 / 1000.0 * scale - scale;
    let gamma: Vec<f32> = (0..cout)
        .map(|c| if c % 7 == 3 { 0.0 } else { unit(1.5) })
        .collect();
    let mut epi = Epilogue::none().then(EpilogueOp::BatchNorm {
        gamma,
        beta: (0..cout).map(|_| unit(2.0)).collect(),
        mean: (0..cout)
            .map(|_| (lo + hi) as f32 / 2.0 + unit(3.0))
            .collect(),
        var: (0..cout).map(|_| 2.5 + unit(2.0)).collect(),
        eps: 1e-5,
    });
    if unit(1.0) < 0.0 {
        epi = epi.then(EpilogueOp::Relu);
    }
    let epi = epi.then(EpilogueOp::Quantize {
        scale: ((hi - lo) as f32 / (1u32 << bits) as f32 / 2.0).max(0.05),
        zero_point: unit(1.0),
        bits,
    });

    let mut want = BitTensor4::zeros(n, ph, pw, cout, bits, Encoding::ZeroOne);
    for (i, row) in y.chunks_exact((pw * cout).max(1)).enumerate() {
        let codes: Vec<u32> = row
            .iter()
            .enumerate()
            .map(|(j, &acc)| epi.apply_to_code(acc, j % cout))
            .collect();
        want.pack_row(i / ph, i % ph, &codes);
    }

    let steps = Steps::build(&epi, cout).expect("finite chains have a table");
    let mut scratch = ConvScratch::default();
    // A slot whose stale contents must not survive.
    let mut got = BitTensor4::from_tensor(&codes, rbits, Encoding::ZeroOne);
    for arm in PopcntArm::ALL {
        let prepared = prepared.clone().with_arm(arm);
        prepared.execute_fused_into(&input, residual, pool, &steps, &mut scratch, &mut got);
        assert_eq!(
            got, want,
            "{arm:?} pool {pool:?} residual {kind} of {desc:?}"
        );
    }
}

#[test]
fn fused_tail_matches_the_scalar_spec_on_the_zoo_corner_shapes() {
    // Ragged and multi-word channel counts, every residual kind under
    // every pool, every code width.
    let mut seed = 5;
    for cout in [1usize, 16, 24, 65, 130] {
        for pool in [None, Some(Pool2::Max), Some(Pool2::Avg)] {
            for residual in 0..3 {
                for bits in 1u32..=8 {
                    seed += 1;
                    let desc = ConvDesc::unsigned(2, 5, 5, cout, 3, 1, 1, 1, 2);
                    check_tail(&desc, pool, (residual, 1 + bits % 3), bits, seed);
                }
            }
        }
    }
}

#[test]
fn fused_identity_join_is_exact_either_side_of_every_word_boundary() {
    // Input and output maps of 63–129 channels: a pixel's last word
    // ragged, full, or one channel into the next word — in the strip's
    // pixel reads, the branch's `Residual::Codes` reads and the tail's
    // stores — against the oracle, unpooled and pooled.
    let mut seed = 90;
    for cin in [63usize, 64, 65, 128, 129] {
        for cout in [63usize, 64, 65, 128, 129] {
            seed += 1;
            let desc = ConvDesc::unsigned(1, cin, 4, cout, 3, 1, 1, 1, 2);
            let pool = [None, Some(Pool2::Max)][seed as usize % 2];
            check_tail(&desc, pool, (2, 2), 2, seed);
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The grid above at random geometry (the nightly deep run drives this
    /// at 2048 cases).
    #[test]
    fn tail_equals_pool_epilogue_pack(
        h in 1usize..8, w in 1usize..8, k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        cin in 1usize..20, cout in 1usize..80, p in 1u32..3, q in 1u32..3,
        pool in 0u32..3, residual in 0u32..3, rbits in 1u32..4, bits in 1u32..9,
        seed in proptest::prelude::any::<u64>(),
    ) {
        proptest::prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut desc = ConvDesc::unsigned(2, cin, h, cout, k, stride, pad, p, q);
        desc.w = w;
        let pool = [None, Some(Pool2::Max), Some(Pool2::Avg)][pool as usize];
        check_tail(&desc, pool, (residual, rbits), bits, seed);
    }
}

/// One layer through the driver under every emulation plan its encodings
/// have (the Ampere plan and the XOR-only one), each with the encodings'
/// fill, × every arm × a full and a partial shard, against the naive i32
/// oracle; returns the cases it ran. A window-dense layer ignores the plan
/// and runs its dense rows under both.
fn check_every_plan(desc: &ConvDesc, seed: u64) -> Vec<crate::select::EmulationCase> {
    let (input, weights, want) = operands_and_oracle(desc, seed);
    let per_image = desc.out_h() * desc.out_w() * desc.cout;
    let (mut scratch, mut out, mut cases) = (ConvScratch::default(), Vec::new(), Vec::new());
    let plans = [
        plan(desc.w_enc, desc.x_enc),
        plan_xor_only(desc.w_enc, desc.x_enc),
    ];
    for eplan in plans {
        cases.push(eplan.case);
        let state = ConvExecPlan::for_plan(desc, &weights, eplan);
        for arm in PopcntArm::ALL {
            let state = state.clone().with_arm(arm);
            for images in [desc.batch, desc.batch - 1] {
                let input = input.batch_slice(0, images);
                conv_exec_store(desc, &input, &state, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    want[..images * per_image],
                    "{:?} {arm:?} shard {images} of {desc:?}",
                    eplan.case
                );
            }
        }
    }
    cases
}

/// A 2-image layer of the window-dense differential grid: `(w_enc, x_enc)`
/// pair `enc` of the four, at `p` weight and `q` activation bits where the
/// encoding allows more than one.
fn grid_desc(
    (h, w): (usize, usize),
    cin: usize,
    (kh, kw): (usize, usize),
    (stride, pad): (usize, usize),
    enc: usize,
    (p, q): (u32, u32),
    cout: usize,
) -> ConvDesc {
    use Encoding::{PlusMinusOne as Pm, ZeroOne as Zo};
    let (w_enc, x_enc) = [(Zo, Zo), (Pm, Pm), (Pm, Zo), (Zo, Pm)][enc];
    let p = if w_enc == Pm { 1 } else { p };
    let q = if x_enc == Pm { 1 } else { q };
    let mut desc = ConvDesc::unsigned(2, cin, h, cout, kh, stride, pad, p, q);
    (desc.w, desc.kw) = (w, kw);
    with_encodings(desc, w_enc, x_enc)
}

#[test]
fn every_plan_and_fill_is_exact_on_emulated_convs() {
    // Column-dense shapes at the stems' 8 planes — one-word columns
    // (3×3×16), two-word ones that straddle a word (5×5×13, 3×3×24) and
    // stride 2 (4×4×17) — under all seven cases and both fills (the ones
    // fill is the ±1/±1 pair's).
    let mut cases = Vec::new();
    for (k, cin, stride, pad) in [(3, 16, 1, 1), (5, 13, 1, 2), (4, 17, 2, 1), (3, 24, 1, 1)] {
        for enc in 0..4 {
            let desc = grid_desc((6, 9), cin, (k, k), (stride, pad), enc, (2, 8), 9);
            assert!(!desc.window_dense(), "{desc:?}");
            for case in check_every_plan(&desc, 97 + enc as u64) {
                if !cases.contains(&case) {
                    cases.push(case);
                }
            }
        }
    }
    assert_eq!(cases.len(), 7, "all seven emulation cases");
}

/// The dense rows of a window-dense layer against the naive oracle on
/// every arm and tile width, for shards `batch`, `batch − 1` and 0 through
/// one scratch.
fn check_dense(desc: &ConvDesc, (input, weights, want): (BitTensor4, ConvWeights, Vec<i32>)) {
    assert!(desc.window_dense(), "{desc:?}");
    let per_image = desc.out_h() * desc.out_w() * desc.cout;
    let (mut scratch, mut out) = (ConvScratch::default(), Vec::new());
    let prepared = ApConv::new(*desc).prepare(weights);
    assert!(
        prepared.is_dense() && prepared.weights().is_none(),
        "{desc:?}"
    );
    for arm in PopcntArm::ALL {
        for jb in [1, 2, 4, 8] {
            let prepared = prepared.clone().with_arm(arm).with_micro(MicroTile { jb });
            for images in [desc.batch, desc.batch - 1, 0] {
                prepared.execute_into(&input.batch_slice(0, images), &mut scratch, &mut out);
                assert_eq!(
                    out,
                    want[..images * per_image],
                    "{arm:?} jb {jb} shard {images} of {desc:?}"
                );
            }
        }
    }
}

#[test]
fn dense_conv_equals_oracle() {
    // Every window-dense geometry in use — the 3×3×3 → 16 and 5×5×3 → 24
    // stems, Tiny-Conv's 4×4×3 stride 4 → 8 and the 5×5 kernel over a 3×3
    // map at pad 2 (every window mostly out of frame) — under all four
    // encoding pairs at p ∈ {1, 2, 3}, q ∈ {1, 2, 8} where the encoding
    // allows more than one bit, then at all-max codes and weights.
    let geometries = [
        ((9, 7), 3, (3, 3), (1, 1), 16),
        ((8, 9), 3, (5, 5), (1, 2), 24),
        ((8, 8), 3, (4, 4), (4, 0), 8),
        ((3, 3), 2, (5, 5), (1, 2), 2),
    ];
    let mut seed = 131;
    for (hw, cin, k, sp, cout) in geometries {
        for enc in 0..4 {
            for (p, q) in [1u32, 2, 3]
                .into_iter()
                .flat_map(|p| [1u32, 2, 8].map(|q| (p, q)))
            {
                let desc = grid_desc(hw, cin, k, sp, enc, (p, q), cout);
                seed += 1;
                check_dense(&desc, operands_and_oracle(&desc, seed));
            }
        }
        // The widest values: every code and weight at its maximum (the
        // ±1 pairs' +1), so no product or sum may overflow a lane.
        for enc in 0..4 {
            let desc = grid_desc(hw, cin, k, sp, enc, (8, 8), cout);
            let top = |bits: u32| (1u32 << bits) - 1;
            let codes =
                Tensor4::<u32>::from_fn(desc.batch, cin, hw.0, hw.1, Layout::Nhwc, |_, _, _, _| {
                    top(desc.x_bits)
                });
            let w_codes = vec![top(desc.w_bits); cout * k.0 * k.1 * cin];
            let x_vals =
                vec![desc.x_enc.code_value(top(desc.x_bits), desc.x_bits); codes.data().len()];
            let w_vals = vec![desc.w_enc.code_value(top(desc.w_bits), desc.w_bits); w_codes.len()];
            let want = conv2d_i32(
                &x_vals,
                &w_vals,
                desc.batch,
                desc.h,
                desc.w,
                cin,
                cout,
                desc.kh,
                desc.kw,
                desc.stride,
                desc.pad,
            );
            let input = BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc);
            check_dense(
                &desc,
                (input, ConvWeights::from_codes(&desc, &w_codes), want),
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The dense rows against the naive oracle over the grid the
    /// window-dense rule matters on — `kh, kw ∈ 1..=5`, short channel
    /// vectors, strides up to 4, pads up to 2, 1, 2 and 8 planes — for all
    /// four encoding pairs, every arm and a partial shard; the column-dense
    /// draws of the same grid emulate, under both plans (all seven cases),
    /// each with its encodings' fill (so both fills) (the nightly deep run
    /// drives this at 2048 cases).
    #[test]
    fn window_dense_conv_equals_oracle(
        kh in 1usize..6, kw in 1usize..6, cin in 0usize..6, stride in 0usize..3,
        pad in 0usize..3, q in 0usize..3, p in 1u32..3, h in 1usize..8, w in 1usize..12,
        cout in 1usize..12, seed in proptest::prelude::any::<u64>(),
    ) {
        proptest::prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        let (cin, stride) = ([1, 2, 3, 5, 7, 21][cin], [1, 2, 4][stride]);
        let q = [1, 2, 8][q];
        for enc in 0..4 {
            let desc = grid_desc((h, w), cin, (kh, kw), (stride, pad), enc, (p, q), cout);
            check_every_plan(&desc, seed ^ enc as u64);
        }
    }
}
