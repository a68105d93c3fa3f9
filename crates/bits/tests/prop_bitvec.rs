//! Property-based tests for the `BitVec` wire format.

use bdclique_bits::BitVec;
use proptest::prelude::*;

/// Lengths on both sides of the inline / heap boundary (one 64-bit block)
/// and of the second block.
const EDGE_LENS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

/// Applies one mutation, chosen by `kind`, to `v` and to its `Vec<bool>`
/// model. `raw` supplies positions and values, `payload` the operand bits.
fn apply_op(v: &mut BitVec, model: &mut Vec<bool>, kind: u8, raw: u64, payload: &[bool]) {
    let r = raw as usize;
    match kind {
        0 => {
            v.push(raw & 1 == 1);
            model.push(raw & 1 == 1);
        }
        1 => {
            let width = (raw % 65) as u32;
            let value = if width == 0 {
                0
            } else {
                (raw >> 7) & (u64::MAX >> (64 - width))
            };
            v.push_uint(width, value);
            model.extend((0..width).map(|i| value >> i & 1 == 1));
        }
        2 => {
            let width = (raw % 16) as u32 + 1;
            let values: Vec<u16> = payload
                .chunks(3)
                .map(|c| (raw >> c.len()) as u16 ^ c[0] as u16)
                .collect();
            v.push_uints(width, &values);
            for x in values {
                model.extend((0..width).map(|i| x >> i & 1 == 1));
            }
        }
        3 => {
            v.extend_bits(&BitVec::from_bools(payload));
            model.extend_from_slice(payload);
        }
        4 => {
            let src = &payload[..payload.len().min(model.len())];
            let pos = r % (model.len() - src.len() + 1);
            v.write_bits(pos, &BitVec::from_bools(src));
            model[pos..pos + src.len()].copy_from_slice(src);
        }
        5 => {
            let to = EDGE_LENS[r % EDGE_LENS.len()] + payload.len() % 3;
            v.pad_to(to);
            if model.len() < to {
                model.resize(to, false);
            }
        }
        6 => {
            // Half the time land exactly on an edge length.
            let to = if raw & 1 == 0 {
                EDGE_LENS[(r >> 1) % EDGE_LENS.len()]
            } else {
                (r >> 1) % (model.len() + 1)
            };
            v.truncate(to);
            model.truncate(to);
        }
        7 => {
            let start = r % (model.len() + 1);
            let end = start + (r >> 20) % (model.len() - start + 1);
            *v = v.slice(start, end);
            *model = model[start..end].to_vec();
        }
        8 => {
            let other = BitVec::from_bools(payload);
            *v = BitVec::concat([&other, &*v, &other]);
            *model = [payload, model, payload].concat();
        }
        9 => {
            let mask: Vec<bool> = (0..model.len())
                .map(|i| !payload.is_empty() && payload[i % payload.len()])
                .collect();
            v.xor_assign(&BitVec::from_bools(&mask));
            for (m, x) in model.iter_mut().zip(mask) {
                *m ^= x;
            }
        }
        _ => {
            if !model.is_empty() {
                let i = r % model.len();
                v.flip(i);
                model[i] = !model[i];
            }
        }
    }
}

proptest! {
    /// Random op sequences against a `Vec<bool>` model, started at and
    /// steered across the inline / heap boundary. After every step the
    /// value reads back as the model, equals the model built fresh (so a
    /// spilled store compares equal to an inline one), and has no stray bit
    /// in its block padding: `count_ones` sums whole blocks, and zero
    /// padding past the end must stay zero once `pad_to` exposes it.
    #[test]
    fn op_sequences_match_the_bool_model(
        start in 0usize..EDGE_LENS.len(),
        seed_bits in prop::collection::vec(any::<bool>(), 128),
        ops in prop::collection::vec(
            (0u8..11, any::<u64>(), prop::collection::vec(any::<bool>(), 0..70)),
            1..24,
        ),
    ) {
        let mut model = seed_bits[..EDGE_LENS[start]].to_vec();
        let mut v = BitVec::from_bools(&model);
        for (kind, raw, payload) in ops {
            apply_op(&mut v, &mut model, kind, raw, &payload);
            let ones = model.iter().filter(|&&b| b).count();
            prop_assert_eq!(v.len(), model.len(), "op {}", kind);
            prop_assert_eq!(v.iter().collect::<Vec<_>>(), model.clone(), "op {}", kind);
            prop_assert_eq!(&v, &BitVec::from_bools(&model), "op {}", kind);
            prop_assert_eq!(v.count_ones(), ones, "op {}", kind);
            let mut padded = v.clone();
            padded.pad_to(model.len() + 130);
            prop_assert_eq!(padded.count_ones(), ones, "padding after op {}", kind);
        }
    }


    #[test]
    fn bools_roundtrip(bools in prop::collection::vec(any::<bool>(), 0..512)) {
        let v = BitVec::from_bools(&bools);
        prop_assert_eq!(v.len(), bools.len());
        let back: Vec<bool> = v.iter().collect();
        prop_assert_eq!(back, bools);
    }

    #[test]
    fn bytes_roundtrip(bools in prop::collection::vec(any::<bool>(), 0..512)) {
        let v = BitVec::from_bools(&bools);
        let bytes = v.to_bytes();
        prop_assert_eq!(BitVec::from_bytes(&bytes, v.len()), v);
    }

    #[test]
    fn symbols_roundtrip(
        bools in prop::collection::vec(any::<bool>(), 0..256),
        sym_bits in 1u32..=16,
    ) {
        let v = BitVec::from_bools(&bools);
        let syms = v.to_symbols(sym_bits);
        prop_assert_eq!(BitVec::from_symbols(&syms, sym_bits, v.len()), v);
    }

    #[test]
    fn hamming_is_metric(
        a in prop::collection::vec(any::<bool>(), 64),
        b in prop::collection::vec(any::<bool>(), 64),
        c in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (a, b, c) = (BitVec::from_bools(&a), BitVec::from_bools(&b), BitVec::from_bools(&c));
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn xor_distance_equals_ones(
        a in prop::collection::vec(any::<bool>(), 128),
        b in prop::collection::vec(any::<bool>(), 128),
    ) {
        let a = BitVec::from_bools(&a);
        let b = BitVec::from_bools(&b);
        let mut x = a.clone();
        x.xor_assign(&b);
        prop_assert_eq!(x.count_ones(), a.hamming(&b));
    }

    #[test]
    fn slice_concat_identity(
        bools in prop::collection::vec(any::<bool>(), 1..256),
        cut in any::<prop::sample::Index>(),
    ) {
        let v = BitVec::from_bools(&bools);
        let cut = cut.index(v.len() + 1);
        let joined = BitVec::concat([&v.slice(0, cut), &v.slice(cut, v.len())]);
        prop_assert_eq!(joined, v);
    }

    #[test]
    fn uint_roundtrip(width in 1u32..=64, raw in any::<u64>()) {
        let value = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
        let mut v = BitVec::new();
        v.push_uint(width, value);
        prop_assert_eq!(v.read_uint(0, width), value);
    }

    /// The batch symbol pack (`push_uints`) is the per-symbol `push_uint`
    /// loop, masking included: any high bits beyond `width` are dropped
    /// exactly as the scalar path drops them.
    #[test]
    fn push_uints_matches_per_symbol_loop(
        prefix in prop::collection::vec(any::<bool>(), 0..70),
        values in prop::collection::vec(any::<u16>(), 0..40),
        width in 1u32..=16,
    ) {
        let mut batch = BitVec::from_bools(&prefix);
        batch.push_uints(width, &values);
        let mut scalar = BitVec::from_bools(&prefix);
        for &v in &values {
            scalar.push_uint(width, u64::from(v) & ((1u64 << width) - 1));
        }
        prop_assert_eq!(batch, scalar);
    }

    /// The batch symbol unpack (`read_uints`) is the per-symbol `read_uint`
    /// loop, with positions past the end reading as zero (the padding
    /// semantics `encode_bits` relies on).
    #[test]
    fn read_uints_matches_per_symbol_loop(
        bools in prop::collection::vec(any::<bool>(), 0..200),
        start in any::<prop::sample::Index>(),
        count in 0usize..40,
        width in 1u32..=16,
    ) {
        let v = BitVec::from_bools(&bools);
        let start = start.index(v.len() + 1);
        let batch = v.read_uints(start, width, count);
        let scalar: Vec<u16> = (0..count)
            .map(|i| {
                let pos = start + i * width as usize;
                let mut sym = 0u16;
                for b in 0..width as usize {
                    if v.try_get(pos + b).unwrap_or(false) {
                        sym |= 1 << b;
                    }
                }
                sym
            })
            .collect();
        prop_assert_eq!(batch, scalar);
    }

    /// `from_symbols` writes only `len` bits: at most 64 of them never
    /// spill, whatever the last symbol's overshoot, and every length gives
    /// what the pack-then-truncate construction gave.
    #[test]
    fn from_symbols_stays_inline_and_matches_pack_then_truncate(
        symbols in prop::collection::vec(any::<u16>(), 130),
    ) {
        for width in 1u32..=16 {
            for len in 0..=130usize {
                let got = BitVec::from_symbols(&symbols, width, len);
                let mut packed = BitVec::new();
                packed.push_uints(width, &symbols[..len.div_ceil(width as usize)]);
                packed.truncate(len);
                prop_assert_eq!(&got, &packed, "width {}, len {}", width, len);
                if len <= 64 {
                    prop_assert_eq!(got.heap_bytes(), 0, "width {}, len {}", width, len);
                }
            }
        }
    }

    /// Batch pack then unpack is the identity on masked symbols.
    #[test]
    fn uints_pack_unpack_roundtrip(
        values in prop::collection::vec(any::<u16>(), 0..48),
        width in 1u32..=16,
    ) {
        let mask = if width == 16 { u16::MAX } else { (1u16 << width) - 1 };
        let masked: Vec<u16> = values.iter().map(|&v| v & mask).collect();
        let mut v = BitVec::new();
        v.push_uints(width, &values);
        prop_assert_eq!(v.len(), values.len() * width as usize);
        prop_assert_eq!(v.read_uints(0, width, values.len()), masked);
    }
}
