//! Locality-maximizing qubit partitioning (paper §3.3).
//!
//! QuFEM groups qubits so that the strongest interactions fall *inside*
//! groups: the grouping objective is to maximize the total intra-group edge
//! weight of the interaction graph (Eq. 9) under a group-size cap `K`. The
//! paper uses a randomized MAX-CUT-style heuristic; we implement the same
//! idea as greedy agglomeration followed by move/swap local search, which is
//! deterministic given the weights.

use qufem_types::QubitSet;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// A grouping scheme `G_i = {g_{i,1}, …, g_{i,K}}`: disjoint qubit groups
/// covering the whole device.
pub type Grouping = Vec<QubitSet>;

/// Returns every unordered qubit pair that shares a group.
pub fn grouped_pairs(grouping: &Grouping) -> HashSet<(usize, usize)> {
    let mut pairs = HashSet::new();
    for group in grouping {
        let members: Vec<usize> = group.iter().collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
    }
    pairs
}

/// Total intra-group weight of a grouping under a weight function.
pub fn intra_group_weight<W: Fn(usize, usize) -> f64>(grouping: &Grouping, weight: &W) -> f64 {
    grouped_pairs(grouping).iter().map(|&(a, b)| weight(a, b)).sum()
}

/// Partitions `n` qubits into groups of at most `max_size`, maximizing the
/// intra-group weight.
///
/// `penalized_pairs` (with multiplier `penalty ∈ [0, 1]`) implements the
/// paper's mesh adaption: pairs already grouped in earlier iterations have
/// their effective weight reduced so later iterations cover *different*
/// interactions.
///
/// The algorithm is greedy agglomerative merging on effective edge weights
/// followed by hill-climbing (single-qubit moves and pairwise swaps) on the
/// true weights. Deterministic for fixed inputs.
///
/// # Panics
///
/// Panics if `max_size == 0`.
pub fn partition_weighted<W: Fn(usize, usize) -> f64>(
    n: usize,
    weight: &W,
    max_size: usize,
    penalized_pairs: &HashSet<(usize, usize)>,
    penalty: f64,
) -> Grouping {
    assert!(max_size > 0, "groups must allow at least one qubit");
    if n == 0 {
        return Vec::new();
    }
    // Every ordered pair's effective weight, evaluated once: the local
    // search below reads each pair many times.
    let mut effective_table = vec![0.0; n * n];
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            let w = weight(a, b);
            effective_table[a * n + b] =
                if penalized_pairs.contains(&(a.min(b), a.max(b))) { w * penalty } else { w };
        }
    }
    let effective = |a: usize, b: usize| -> f64 { effective_table[a * n + b] };

    // --- Greedy agglomeration --------------------------------------------
    let mut group_of: Vec<usize> = (0..n).collect();
    let mut group_size: Vec<usize> = vec![1; n];
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let w = effective(a, b);
            if w > 0.0 {
                edges.push((w, a, b));
            }
        }
    }
    edges.sort_by(|x, y| {
        y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal).then((x.1, x.2).cmp(&(y.1, y.2)))
    });

    fn find(group_of: &mut [usize], mut q: usize) -> usize {
        while group_of[q] != q {
            group_of[q] = group_of[group_of[q]];
            q = group_of[q];
        }
        q
    }

    for &(_, a, b) in &edges {
        let ra = find(&mut group_of, a);
        let rb = find(&mut group_of, b);
        if ra == rb {
            continue;
        }
        if group_size[ra] + group_size[rb] <= max_size {
            group_of[rb] = ra;
            group_size[ra] += group_size[rb];
        }
    }

    let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for q in 0..n {
        let r = find(&mut group_of, q);
        by_root.entry(r).or_default().push(q);
    }
    let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
    groups.sort();

    // --- Local search ------------------------------------------------------
    // Hill-climb on the *effective* weights with single-qubit moves and
    // pairwise swaps until a fixed point (bounded passes).
    let gain_of_move = |groups: &[Vec<usize>], q: usize, from: usize, to: usize| -> f64 {
        let lost: f64 = groups[from].iter().filter(|&&m| m != q).map(|&m| effective(q, m)).sum();
        let gained: f64 = groups[to].iter().map(|&m| effective(q, m)).sum();
        gained - lost
    };

    let mut local_moves = 0u64;
    for _pass in 0..4 {
        let mut improved = false;
        // Moves into groups with spare capacity.
        for gi in 0..groups.len() {
            let members = groups[gi].clone();
            for q in members {
                let mut best: Option<(f64, usize)> = None;
                for gj in 0..groups.len() {
                    if gj == gi || groups[gj].len() >= max_size {
                        continue;
                    }
                    let gain = gain_of_move(&groups, q, gi, gj);
                    if gain > 1e-15 && best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, gj));
                    }
                }
                if let Some((_, gj)) = best {
                    groups[gi].retain(|&m| m != q);
                    groups[gj].push(q);
                    improved = true;
                    local_moves += 1;
                }
            }
        }
        // Swaps between full groups. After a successful swap the member
        // snapshots are stale, so restart the pair ('swapped' breaks out and
        // the outer pass loop revisits it).
        for gi in 0..groups.len() {
            for gj in (gi + 1)..groups.len() {
                'pair: loop {
                    let (mi, mj) = (groups[gi].clone(), groups[gj].clone());
                    for &a in &mi {
                        for &b in &mj {
                            let gain = gain_of_move(&groups, a, gi, gj)
                                + gain_of_move(&groups, b, gj, gi)
                                - 2.0 * effective(a, b);
                            if gain > 1e-15 {
                                groups[gi].retain(|&m| m != a);
                                groups[gj].retain(|&m| m != b);
                                groups[gi].push(b);
                                groups[gj].push(a);
                                improved = true;
                                local_moves += 1;
                                continue 'pair;
                            }
                        }
                    }
                    break 'pair;
                }
            }
        }
        if !improved {
            break;
        }
    }

    groups.retain(|g| !g.is_empty());
    let mut grouping: Grouping = groups.into_iter().map(|g| g.into_iter().collect()).collect();
    grouping.sort();
    qufem_telemetry::counter_add("partition.local_search_moves", local_moves);
    qufem_telemetry::counter_add("partition.groups_formed", grouping.len() as u64);
    grouping
}

/// Random partition into groups of at most `max_size` — the ablation
/// baseline of paper Figure 13(b).
///
/// # Panics
///
/// Panics if `max_size == 0`.
pub fn partition_random<R: Rng + ?Sized>(n: usize, max_size: usize, rng: &mut R) -> Grouping {
    assert!(max_size > 0, "groups must allow at least one qubit");
    let mut qubits: Vec<usize> = (0..n).collect();
    qubits.shuffle(rng);
    let mut grouping: Grouping =
        qubits.chunks(max_size).map(|chunk| chunk.iter().copied().collect()).collect();
    grouping.sort();
    grouping
}

/// Verifies that a grouping is a partition of `{0, …, n-1}` with groups of
/// at most `max_size` qubits.
pub fn is_valid_partition(grouping: &Grouping, n: usize, max_size: usize) -> bool {
    let mut seen = vec![false; n];
    for group in grouping {
        if group.is_empty() || group.len() > max_size {
            return false;
        }
        for q in group.iter() {
            if q >= n || seen[q] {
                return false;
            }
            seen[q] = true;
        }
    }
    seen.into_iter().all(|s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Weight function with two strongly-bound pairs: (0,1) and (2,3).
    fn paired_weight(a: usize, b: usize) -> f64 {
        match (a.min(b), a.max(b)) {
            (0, 1) | (2, 3) => 1.0,
            _ => 0.01,
        }
    }

    #[test]
    fn greedy_groups_strong_pairs() {
        let grouping = partition_weighted(4, &paired_weight, 2, &HashSet::new(), 1.0);
        assert!(is_valid_partition(&grouping, 4, 2));
        let pairs = grouped_pairs(&grouping);
        assert!(pairs.contains(&(0, 1)), "strong pair (0,1) should share a group: {grouping:?}");
        assert!(pairs.contains(&(2, 3)), "strong pair (2,3) should share a group: {grouping:?}");
    }

    #[test]
    fn respects_size_cap() {
        // All-equal weights: any grouping works but sizes must be ≤ cap.
        let grouping = partition_weighted(7, &|_, _| 1.0, 3, &HashSet::new(), 1.0);
        assert!(is_valid_partition(&grouping, 7, 3));
    }

    #[test]
    fn cap_one_gives_singletons() {
        let grouping = partition_weighted(5, &paired_weight, 1, &HashSet::new(), 1.0);
        assert_eq!(grouping.len(), 5);
        assert!(is_valid_partition(&grouping, 5, 1));
    }

    #[test]
    fn penalty_pushes_different_grouping() {
        let first = partition_weighted(4, &paired_weight, 2, &HashSet::new(), 1.0);
        let penalized = grouped_pairs(&first);
        // Full penalty (0.0): previously grouped pairs lose all weight, so
        // the second iteration groups across the old boundaries.
        let second = partition_weighted(4, &paired_weight, 2, &penalized, 0.0);
        let second_pairs = grouped_pairs(&second);
        assert!(
            second_pairs.is_disjoint(&penalized),
            "mesh adaption should avoid repeating pairs: {second:?}"
        );
    }

    #[test]
    fn heuristic_reaches_at_least_greedy_matching_quality() {
        // Triangle trap: greedy grabs the single heaviest edge (0,1) first,
        // although the optimum pairs 0 with 2 and 1 with 3 (weight 1.8).
        // Escaping needs two coordinated swaps, which plain hill climbing
        // cannot take — the heuristic must still deliver at least the greedy
        // matching guarantee (½ of optimum) and a valid partition.
        let w = |a: usize, b: usize| -> f64 {
            match (a.min(b), a.max(b)) {
                (0, 1) => 1.0,
                (0, 2) | (1, 3) => 0.9,
                _ => 0.0,
            }
        };
        let grouping = partition_weighted(4, &w, 2, &HashSet::new(), 1.0);
        assert!(is_valid_partition(&grouping, 4, 2));
        let total = intra_group_weight(&grouping, &w);
        assert!(total >= 1.0 - 1e-12, "below greedy guarantee: {total}: {grouping:?}");
    }

    #[test]
    fn local_search_moves_nodes_toward_heavy_groups() {
        // Greedy (max-weight-first with union capacity) pairs (0,1) and then
        // cannot place 2 next to 1; with K = 3 the move pass must pull 2
        // into the {0,1} group where it gains 0.8.
        let w = |a: usize, b: usize| -> f64 {
            match (a.min(b), a.max(b)) {
                (0, 1) => 1.0,
                (1, 2) => 0.8,
                _ => 0.0,
            }
        };
        let grouping = partition_weighted(4, &w, 3, &HashSet::new(), 1.0);
        let total = intra_group_weight(&grouping, &w);
        assert!((total - 1.8).abs() < 1e-12, "expected 1.8, got {total}: {grouping:?}");
    }

    #[test]
    fn random_partition_is_valid_and_seed_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = partition_random(10, 3, &mut rng);
        assert!(is_valid_partition(&a, 10, 3));
        let mut rng2 = ChaCha8Rng::seed_from_u64(3);
        let b = partition_random(10, 3, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_cases() {
        assert!(partition_weighted(0, &|_, _| 0.0, 2, &HashSet::new(), 1.0).is_empty());
        let one = partition_weighted(1, &|_, _| 0.0, 2, &HashSet::new(), 1.0);
        assert_eq!(one.len(), 1);
        assert!(is_valid_partition(&one, 1, 2));
    }

    #[test]
    fn validity_checker_catches_problems() {
        let n = 3;
        // Missing qubit.
        let missing: Grouping =
            vec![[0usize].into_iter().collect(), [1usize].into_iter().collect()];
        assert!(!is_valid_partition(&missing, n, 2));
        // Duplicate qubit.
        let dup: Grouping =
            vec![[0usize, 1].into_iter().collect(), [1usize, 2].into_iter().collect()];
        assert!(!is_valid_partition(&dup, n, 2));
        // Oversized group.
        let big: Grouping = vec![[0usize, 1, 2].into_iter().collect()];
        assert!(!is_valid_partition(&big, n, 2));
        assert!(is_valid_partition(&big, n, 3));
    }

    #[test]
    fn intra_weight_counts_only_within_groups() {
        let grouping: Grouping =
            vec![[0usize, 1].into_iter().collect(), [2usize, 3].into_iter().collect()];
        let total = intra_group_weight(&grouping, &paired_weight);
        assert!((total - 2.0).abs() < 1e-12);
    }
}
