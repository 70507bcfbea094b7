//! Model-based property test for [`ProbDist`]'s flat layout.
//!
//! Random sequences of `add`/`set`/`truncate` run on a `ProbDist` and on a
//! `HashMap<BitString, f64>` model with the textbook semantics. Afterwards
//! every observable must agree: sorted entries, point lookups, support size,
//! order-free equality (exact zeros and `-0.0 == 0.0` included), the serde
//! form and its round trip, marginals, and the `SupportIndex` round trip.

use proptest::prelude::*;
use qufem_types::{BitString, ProbDist, QubitSet, SupportIndex};
use std::collections::HashMap;

/// Widths covering the empty key, one partial word, one full word, and
/// multi-word keys with a partial tail.
const WIDTHS: [usize; 6] = [0, 3, 27, 64, 67, 130];

/// Keys come from a small pool so operations collide on the same entries.
const POOL: u64 = 24;

/// Values drawn from a palette (duplicates, exact and signed zeros,
/// cancelling pairs, inexact sums) or uniformly from `[-1, 1)`.
const PALETTE: [f64; 8] = [0.0, -0.0, 0.25, -0.25, 0.1, 0.2, -3.5, 1e-9];

/// Truncation thresholds: below every palette magnitude, between, above.
const THRESHOLDS: [f64; 3] = [1e-12, 0.15, 1.0];

#[derive(Debug, Clone)]
enum Op {
    Add(BitString, f64),
    Set(BitString, f64),
    Truncate(f64),
}

/// Pool key `i` at `width`: SplitMix64 words masked to the width.
fn pool_key(width: usize, i: u64) -> BitString {
    let words = (0..BitString::words_for_width(width))
        .map(|w| {
            let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(w as u64 + 1);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let bits = (width - w * 64).min(64);
            if bits == 64 {
                z
            } else {
                z & ((1u64 << bits) - 1)
            }
        })
        .collect();
    BitString::from_words(width, words).unwrap()
}

fn decode_ops(width: usize, raw: &[(u32, u64, usize, f64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, key, pick, uniform)| {
            let value = PALETTE.get(pick).copied().unwrap_or(uniform * 2.0 - 1.0);
            match kind {
                0..=4 => Op::Add(pool_key(width, key), value),
                5..=8 => Op::Set(pool_key(width, key), value),
                _ => Op::Truncate(THRESHOLDS[pick % THRESHOLDS.len()]),
            }
        })
        .collect()
}

fn bits(pairs: &[(BitString, f64)]) -> Vec<(BitString, u64)> {
    pairs.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
}

fn model_sorted(model: &HashMap<BitString, f64>) -> Vec<(BitString, f64)> {
    let mut pairs: Vec<_> = model.iter().map(|(k, &v)| (k.clone(), v)).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// Applies `ops` to both sides, checking `truncate`'s return value on the
/// way.
fn run(width: usize, ops: &[Op]) -> (ProbDist, HashMap<BitString, f64>) {
    let mut dist = ProbDist::new(width);
    let mut model: HashMap<BitString, f64> = HashMap::new();
    for op in ops {
        match op {
            Op::Add(k, v) => {
                dist.add(k.clone(), *v);
                *model.entry(k.clone()).or_insert(0.0) += v;
            }
            Op::Set(k, v) => {
                dist.set(k.clone(), *v);
                model.insert(k.clone(), *v);
            }
            Op::Truncate(t) => {
                let before = model.len();
                model.retain(|_, v| v.abs() >= *t);
                assert_eq!(dist.truncate(*t), before - model.len(), "truncate count");
            }
        }
    }
    (dist, model)
}

fn op_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u64, usize, f64)>)> {
    (0..WIDTHS.len(), collection::vec((0u32..10, 0..POOL, 0usize..12, any::<f64>()), 0..80))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn entries_lookups_and_iteration_match_the_model(case in op_strategy()) {
        let width = WIDTHS[case.0];
        let (dist, model) = run(width, &decode_ops(width, &case.1));
        let expected = model_sorted(&model);

        prop_assert_eq!(dist.width(), width);
        prop_assert_eq!(dist.support_len(), model.len());
        prop_assert_eq!(dist.is_empty(), model.is_empty());
        prop_assert_eq!(bits(&dist.sorted_pairs()), bits(&expected));
        for i in 0..POOL {
            let key = pool_key(width, i);
            let want = model.get(&key).copied().unwrap_or(0.0);
            prop_assert_eq!(dist.prob(&key).to_bits(), want.to_bits(), "prob({})", key);
        }
        let mut iterated: Vec<_> = dist.iter().collect();
        iterated.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(bits(&iterated), bits(&expected));

        // argmax: the largest value, ties to the smallest key.
        let want_max = expected.iter().fold(None::<&(BitString, f64)>, |best, e| match best {
            Some(b) if b.1 >= e.1 => Some(b),
            _ => Some(e),
        });
        let got_max = dist.argmax();
        prop_assert_eq!(got_max.is_some(), want_max.is_some());
        if let (Some((gk, gv)), Some((wk, wv))) = (got_max, want_max) {
            prop_assert_eq!(gv.to_bits(), wv.to_bits());
            prop_assert_eq!(&gk, wk);
        }
    }

    #[test]
    fn equality_is_order_free_and_follows_f64_eq(case in op_strategy()) {
        let width = WIDTHS[case.0];
        let (dist, model) = run(width, &decode_ops(width, &case.1));

        // Same entries inserted in reverse canonical order, every zero with
        // its sign flipped: still equal, as `HashMap`'s `==` would say.
        let mut flipped = ProbDist::new(width);
        for (k, v) in model_sorted(&model).into_iter().rev() {
            flipped.set(k, if v == 0.0 { -v } else { v });
        }
        prop_assert!(dist == flipped);
        prop_assert!(flipped == dist);

        // One value changed, one entry dropped, one extra entry, or another
        // width: unequal.
        if let Some((k, v)) = model_sorted(&model).into_iter().next() {
            let mut changed = dist.clone();
            changed.set(k.clone(), v + 1.0);
            prop_assert!(dist != changed);
            let mut dropped = ProbDist::new(width);
            for (k2, v2) in dist.sorted_pairs().into_iter().filter(|(k2, _)| *k2 != k) {
                dropped.set(k2, v2);
            }
            prop_assert!(dist != dropped);
        }
        let absent = (0..POOL).map(|i| pool_key(width, i)).find(|k| !model.contains_key(k));
        if let Some(extra_key) = absent {
            let mut extra = dist.clone();
            extra.set(extra_key, 0.0);
            prop_assert!(dist != extra);
        }
        prop_assert!(dist != ProbDist::new(width + 1));
    }

    #[test]
    fn serde_form_and_round_trip_match_the_model(case in op_strategy()) {
        let width = WIDTHS[case.0];
        let (dist, model) = run(width, &decode_ops(width, &case.1));

        // The serialized form is `[width, [bitstring, value], ...]` in key
        // order, with each key in `BitString`'s own serde form.
        let mut expected = vec![serde_json::to_string(&width).unwrap()];
        for pair in model_sorted(&model) {
            expected.push(serde_json::to_string(&pair).unwrap());
        }
        let json = serde_json::to_string(&dist).unwrap();
        prop_assert_eq!(&json, &format!("[{}]", expected.join(",")));

        // Deserializing accumulates with `add`, so a stored `-0.0` comes
        // back as `0.0 + -0.0 = 0.0`; every other value is bit-exact.
        let back: ProbDist = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.width(), width);
        prop_assert!(back == dist);
        let added: Vec<_> = dist.sorted_pairs().into_iter().map(|(k, v)| (k, 0.0 + v)).collect();
        prop_assert_eq!(bits(&back.sorted_pairs()), bits(&added));
    }

    #[test]
    fn marginals_match_the_model(case in op_strategy()) {
        let width = WIDTHS[case.0];
        let (dist, model) = run(width, &decode_ops(width, &case.1));
        // Every other qubit, plus the last one (crossing word boundaries
        // on the wide widths).
        let keep: QubitSet = (0..width).filter(|q| q % 2 == 0 || *q + 1 == width).collect();
        let positions: Vec<usize> = keep.iter().collect();
        let marginal = dist.marginal(&keep);

        let mut want: HashMap<BitString, f64> = HashMap::new();
        for (k, v) in model_sorted(&model) {
            *want.entry(k.extract(&positions)).or_insert(0.0) += v;
        }
        prop_assert_eq!(marginal.width(), positions.len());
        prop_assert_eq!(marginal.support_len(), want.len());
        let scale = 1.0 + model.values().map(|v| v.abs()).sum::<f64>();
        for (k, v) in &want {
            let got = marginal.prob(k);
            prop_assert!((got - v).abs() <= 1e-12 * scale, "marginal {}: {} vs {}", k, got, v);
        }
    }

    #[test]
    fn support_index_round_trip_is_lossless(case in op_strategy()) {
        let width = WIDTHS[case.0];
        let (dist, _) = run(width, &decode_ops(width, &case.1));
        let sorted = dist.sorted_pairs();

        let index = SupportIndex::from_dist(&dist);
        prop_assert_eq!(index.len(), sorted.len());
        for (id, (k, v)) in sorted.iter().enumerate() {
            prop_assert_eq!(&index.key(id as u32), k, "from_dist ids are sorted ranks");
            prop_assert_eq!(index.value(id as u32).to_bits(), v.to_bits());
        }
        let back = index.to_dist();
        prop_assert!(back == dist);
        prop_assert_eq!(bits(&back.sorted_pairs()), bits(&sorted));
        let owned = SupportIndex::from_dist(&dist).into_dist();
        prop_assert_eq!(bits(&owned.sorted_pairs()), bits(&sorted));
        prop_assert_eq!(dist.as_index().len(), dist.support_len());
    }
}
