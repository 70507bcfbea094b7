//! Property-based tests on the workspace's core data structures and the
//! calibration invariants.

use proptest::prelude::*;
use qufem::linalg::Matrix;
use qufem::{BitString, ProbDist, QubitSet, SupportIndex};
use std::collections::HashSet;

fn arb_bitstring(width: usize) -> impl Strategy<Value = BitString> {
    proptest::collection::vec(any::<bool>(), width).prop_map(|bits| BitString::from_bits(&bits))
}

/// A quasi-probability distribution: negative amplitudes and exact zeros
/// included, the way calibration outputs look before projection.
fn arb_quasi_dist(width: usize, max_support: usize) -> impl Strategy<Value = ProbDist> {
    proptest::collection::vec((arb_bitstring(width), -1.0f64..1.0, 0i32..8), 1..=max_support)
        .prop_map(move |entries| {
            let mut p = ProbDist::new(width);
            for (k, v, sel) in entries {
                // Mix in exact and negative zeros alongside ordinary values.
                let v = match sel {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                };
                p.set(k, v);
            }
            p
        })
}

fn arb_dist(width: usize, max_support: usize) -> impl Strategy<Value = ProbDist> {
    proptest::collection::vec((arb_bitstring(width), 0.01f64..1.0), 1..=max_support).prop_map(
        move |pairs| {
            let mut p: ProbDist = ProbDist::new(width);
            for (k, v) in pairs {
                p.add(k, v);
            }
            p.normalize().expect("positive mass by construction");
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitstring_display_parse_roundtrip(s in arb_bitstring(24)) {
        let text = s.to_string();
        let back = BitString::from_binary_str(&text).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn bitstring_flip_is_involution(s in arb_bitstring(40), i in 0usize..40) {
        let twice = s.with_flipped(i).with_flipped(i);
        prop_assert_eq!(s, twice);
    }

    #[test]
    fn hamming_distance_is_a_metric(
        a in arb_bitstring(20),
        b in arb_bitstring(20),
        c in arb_bitstring(20),
    ) {
        let ab = a.hamming_distance(&b).unwrap();
        let ba = b.hamming_distance(&a).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(a.hamming_distance(&a).unwrap(), 0);
        let ac = a.hamming_distance(&c).unwrap();
        let cb = c.hamming_distance(&b).unwrap();
        prop_assert!(ab <= ac + cb, "triangle inequality: {} > {} + {}", ab, ac, cb);
    }

    #[test]
    fn extract_scatter_roundtrip(
        s in arb_bitstring(30),
        positions in proptest::collection::hash_set(0usize..30, 1..10),
    ) {
        let pos: Vec<usize> = {
            let mut v: Vec<usize> = positions.into_iter().collect();
            v.sort_unstable();
            v
        };
        let sub = s.extract(&pos);
        let mut rebuilt = s.clone();
        rebuilt.scatter(&pos, &sub);
        prop_assert_eq!(s, rebuilt);
    }

    #[test]
    fn normalized_distribution_has_unit_mass(p in arb_dist(12, 16)) {
        prop_assert!((p.total_mass() - 1.0).abs() < 1e-9);
        let clipped = p.clip_to_probabilities();
        prop_assert!((clipped.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marginal_preserves_mass(p in arb_dist(10, 12), keep_bits in proptest::collection::hash_set(0usize..10, 1..5)) {
        let keep: QubitSet = keep_bits.into_iter().collect();
        let m = p.marginal(&keep);
        prop_assert!((m.total_mass() - p.total_mass()).abs() < 1e-9);
    }

    #[test]
    fn hellinger_fidelity_bounds(p in arb_dist(8, 10), q in arb_dist(8, 10)) {
        let f = qufem::metrics::hellinger_fidelity(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f), "fidelity {} out of range", f);
        let self_f = qufem::metrics::hellinger_fidelity(&p, &p);
        prop_assert!((self_f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tvd_is_symmetric_and_bounded(p in arb_dist(8, 10), q in arb_dist(8, 10)) {
        let d1 = qufem::metrics::total_variation_distance(&p, &q);
        let d2 = qufem::metrics::total_variation_distance(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d1));
    }

    #[test]
    fn support_index_roundtrip_is_exact(p in arb_quasi_dist(70, 24)) {
        // Indexing must be lossless across the word boundary (70 bits =
        // 2 key words): same support, same width, every f64 bit pattern —
        // exact zeros and negative amplitudes included.
        let idx = SupportIndex::from_dist(&p);
        prop_assert_eq!(idx.len(), p.support_len());
        let back = idx.to_dist();
        prop_assert_eq!(back.width(), p.width());
        prop_assert_eq!(back.support_len(), p.support_len());
        for (k, v) in p.iter() {
            prop_assert_eq!(back.prob(&k).to_bits(), v.to_bits(), "entry {} not bit-preserved", k);
        }
    }

    #[test]
    fn support_index_sort_restores_canonical_ids(p in arb_quasi_dist(20, 16)) {
        // Interning in arbitrary (here: the distribution's insertion) order
        // followed by sort() must be id-for-id identical to from_dist.
        let mut idx = p.as_index().clone();
        idx.sort();
        let canonical = SupportIndex::from_dist(&p);
        prop_assert_eq!(idx.len(), canonical.len());
        for id in 0..canonical.len() as u32 {
            prop_assert_eq!(idx.key_words(id), canonical.key_words(id));
            prop_assert_eq!(idx.value(id).to_bits(), canonical.value(id).to_bits());
        }
    }

    #[test]
    fn stochastic_matrix_inverse_roundtrips(
        eps in proptest::collection::vec(0.001f64..0.3, 2..=3),
    ) {
        // Tensor-structured stochastic matrix from per-qubit flip rates.
        let k = eps.len();
        let dim = 1usize << k;
        let mut m = Matrix::zeros(dim, dim);
        for x in 0..dim {
            for y in 0..dim {
                let mut p = 1.0;
                for (q, e) in eps.iter().enumerate() {
                    let flip = ((x >> q) & 1) != ((y >> q) & 1);
                    p *= if flip { *e } else { 1.0 - *e };
                }
                m.set(x, y, p);
            }
        }
        let inv = m.inverse().unwrap();
        let prod = m.matmul(&inv).unwrap();
        for i in 0..dim {
            for j in 0..dim {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod.get(i, j) - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn partition_always_valid(
        n in 2usize..12,
        k in 1usize..5,
        weights in proptest::collection::vec(0.0f64..1.0, 144),
    ) {
        let w = move |a: usize, b: usize| weights[(a * 12 + b).min(143)].max(weights[(b * 12 + a).min(143)]);
        let grouping = qufem::partition::partition_weighted(n, &w, k, &HashSet::new(), 1.0);
        prop_assert!(qufem::partition::is_valid_partition(&grouping, n, k));
    }

    #[test]
    fn qubit_set_algebra_laws(
        a_bits in proptest::collection::hash_set(0usize..20, 0..10),
        b_bits in proptest::collection::hash_set(0usize..20, 0..10),
    ) {
        let a: QubitSet = a_bits.into_iter().collect();
        let b: QubitSet = b_bits.into_iter().collect();
        let inter = a.intersection(&b);
        let union = a.union(&b);
        let diff = a.difference(&b);
        // |A| = |A∩B| + |A\B|, |A∪B| = |A| + |B| − |A∩B|.
        prop_assert_eq!(a.len(), inter.len() + diff.len());
        prop_assert_eq!(union.len(), a.len() + b.len() - inter.len());
        for q in inter.iter() {
            prop_assert!(a.contains(q) && b.contains(q));
        }
    }
}
