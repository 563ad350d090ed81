//! Support counting over the block tree.
//!
//! The quorum conditions of the GA protocols all have the shape
//! "output (Λ, g) if 2·|V_Λ| > |S|", where `V_Λ` counts validators whose
//! recorded log *extends* Λ. Because support is monotone non-increasing
//! along extensions, the set of logs passing the threshold is a prefix
//! chain, and — since two conflicting logs have disjoint supporter sets
//! while each would need more than half of `S ⊇ V` — at most one maximal
//! log passes. [`highest_supported`] finds it.
//!
//! The count map is built by walking each recorded tip up to the
//! *iterated LCA* of all tips: every block at or below the LCA is
//! supported by all entries, so only the (usually shallow) region above
//! the LCA needs per-block counting. This keeps output phases cheap even
//! after thousands of decided blocks. Both the LCA and the count walk
//! run once per *distinct* tip, adding the tip's multiplicity: honest
//! votes share one to three tips, so the work does not grow with the
//! committee either.

use std::collections::{BTreeMap, BTreeSet};

use tobsvd_types::{BlockId, BlockStore, Log, ValidatorId};

/// Finds the longest log Λ with `2·|{(v, Λ') ∈ entries : Λ' ⪰ Λ}| > s_len`.
///
/// Returns `None` when no log passes (including when `entries` is empty).
/// All prefixes of the returned log also pass the threshold, so "the set
/// of grade-g outputs" is exactly the prefix chain of the result.
///
/// # Panics
///
/// Panics if an entry's tip is not in `store` (callers only record logs
/// whose blocks they have stored).
pub fn highest_supported(
    entries: &[(ValidatorId, Log)],
    s_len: usize,
    store: &BlockStore,
) -> Option<Log> {
    let total = entries.len();
    if total == 0 || 2 * total <= s_len {
        // Even unanimous support cannot pass the threshold.
        return None;
    }

    // Distinct tips with their multiplicities, in tip order: the output
    // is a function of the multiset of tips alone.
    let mut logs: Vec<Log> = entries.iter().map(|(_, log)| *log).collect();
    logs.sort_unstable_by_key(|log| log.tip());
    let mut tips: Vec<(Log, usize)> = Vec::new();
    for log in logs {
        match tips.last_mut() {
            Some((last, count)) if last.tip() == log.tip() => *count += 1,
            _ => tips.push((log, 1)),
        }
    }

    // Iterated LCA of all recorded tips: every entry extends it. A
    // missing tip degrades to the genesis base (sound: genesis is a
    // prefix of everything, the walk below just covers more blocks).
    let mut base = tips[0].0;
    for (log, _) in tips.iter().skip(1) {
        base = store
            .lca(base.tip(), log.tip())
            .and_then(|lca| Log::at_tip(store, lca))
            .unwrap_or_else(|| Log::genesis(store));
    }

    // Count support for blocks strictly above the base. BTreeMap keeps
    // the scan below in block-id order — the output must not depend on
    // hash-iteration order.
    let mut counts: BTreeMap<BlockId, usize> = BTreeMap::new();
    for (log, multiplicity) in &tips {
        let mut cur = log.tip();
        while cur != base.tip() {
            *counts.entry(cur).or_insert(0) += multiplicity;
            let block = store.get(cur).expect("chain block stored");
            cur = block.parent();
        }
    }

    // The maximal passing block above the base, if any. Two conflicting
    // blocks cannot both pass (their supporter sets are disjoint subsets
    // of `entries` and 2·c > s_len ≥ total forces overlap), so picking
    // the highest passing block is unambiguous.
    // Deterministic tie-break: greater height wins, then smaller block
    // id (heights can only tie for conflicting blocks, which cannot both
    // pass — the id clause is defensive, so the answer never depends on
    // iteration order even if that argument rots).
    let mut best: Option<(u64, BlockId)> = None;
    for (id, count) in &counts {
        if 2 * count > s_len {
            let h = store.height(*id).expect("counted block stored");
            if best.map(|(bh, bid)| h > bh || (h == bh && *id < bid)).unwrap_or(true) {
                best = Some((h, *id));
            }
        }
    }
    match best {
        Some((_, id)) => Log::at_tip(store, id),
        None => Some(base),
    }
}

/// Counts, for every block reachable from the given logs, the number of
/// *distinct validators* with at least one log extending that block.
///
/// This is the `X_Λ` set of the Momose–Ren background GA (§4): a
/// validator counts toward every prefix of *any* of its (up to two)
/// accepted logs, equivocations included.
pub fn distinct_supporter_counts(
    entries: &[(ValidatorId, Log)],
    store: &BlockStore,
) -> BTreeMap<BlockId, usize> {
    let mut counts: BTreeMap<BlockId, usize> = BTreeMap::new();
    // Group logs by validator so each validator is counted at most once
    // per block even when its two logs share a prefix. Ordered maps keep
    // the whole computation independent of hash-iteration order.
    let mut by_validator: BTreeMap<ValidatorId, Vec<Log>> = BTreeMap::new();
    for (v, log) in entries {
        by_validator.entry(*v).or_default().push(*log);
    }
    for logs in by_validator.values() {
        let mut marked: BTreeSet<BlockId> = BTreeSet::new();
        for log in logs {
            let mut cur = log.tip();
            loop {
                if !marked.insert(cur) {
                    break; // already marked by this validator's other log
                }
                let block = store.get(cur).expect("chain block stored");
                if block.is_genesis() {
                    break;
                }
                cur = block.parent();
            }
        }
        for id in marked {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    counts
}

/// The *maximal* blocks whose count passes `2·count > s_len`, given a
/// pre-computed count map. Unlike [`highest_supported`], multiple
/// conflicting maxima are possible (this is exactly the §4 grade-0
/// Uniqueness gap), so a list is returned, sorted by block id for
/// determinism.
pub fn maximal_passing(
    counts: &BTreeMap<BlockId, usize>,
    s_len: usize,
    store: &BlockStore,
) -> Vec<Log> {
    let passing: Vec<BlockId> = counts
        .iter()
        .filter(|(_, c)| 2 * **c > s_len)
        .map(|(id, _)| *id)
        .collect();
    let mut maximal: Vec<Log> = Vec::new();
    'outer: for id in &passing {
        for other in &passing {
            if other != id && store.is_ancestor(*id, *other) {
                continue 'outer; // a passing descendant exists
            }
        }
        if let Some(log) = Log::at_tip(store, *id) {
            maximal.push(log);
        }
    }
    maximal.sort_by_key(|l| l.tip().0);
    maximal
}

/// Brute-force reference for [`highest_supported`], used by property
/// tests: enumerates every prefix of every entry and checks the
/// threshold directly.
pub fn highest_supported_bruteforce(
    entries: &[(ValidatorId, Log)],
    s_len: usize,
    store: &BlockStore,
) -> Option<Log> {
    let mut best: Option<Log> = None;
    for (_, log) in entries {
        for len in 1..=log.len() {
            let candidate = log.prefix(len, store).expect("prefix in range");
            let support = entries
                .iter()
                .filter(|(_, l)| l.extends(&candidate, store))
                .count();
            if 2 * support > s_len && best.map(|b| candidate.len() > b.len()).unwrap_or(true) {
                best = Some(candidate);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::View;

    fn v(i: u32) -> ValidatorId {
        ValidatorId::new(i)
    }

    /// genesis -> a1 -> a2
    ///        \-> b1
    fn fixtures() -> (BlockStore, Log, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a1 = g.extend_empty(&store, v(0), View::new(1));
        let a2 = a1.extend_empty(&store, v(1), View::new(2));
        let b1 = g.extend_empty(&store, v(2), View::new(1));
        (store, g, a1, a2, b1)
    }

    #[test]
    fn unanimous_support_returns_longest() {
        let (store, _, _, a2, _) = fixtures();
        let entries = vec![(v(0), a2), (v(1), a2), (v(2), a2)];
        assert_eq!(highest_supported(&entries, 3, &store), Some(a2));
    }

    #[test]
    fn majority_on_prefix() {
        let (store, _, a1, a2, b1) = fixtures();
        // 2 of 3 on the a-branch, 1 on b: a1 has 2 > 3/2, a2 only 1.
        let entries = vec![(v(0), a1), (v(1), a2), (v(2), b1)];
        assert_eq!(highest_supported(&entries, 3, &store), Some(a1));
    }

    #[test]
    fn split_support_returns_common_prefix() {
        let (store, g, a1, _, b1) = fixtures();
        // 2 vs 2 split: only genesis passes (4 > 4/2).
        let entries = vec![(v(0), a1), (v(1), a1), (v(2), b1), (v(3), b1)];
        assert_eq!(highest_supported(&entries, 4, &store), Some(g));
    }

    #[test]
    fn insufficient_entries_return_none() {
        let (store, g, _, _, _) = fixtures();
        // 2 entries but s_len 5: 2·2 ≤ 5.
        let entries = vec![(v(0), g), (v(1), g)];
        assert_eq!(highest_supported(&entries, 5, &store), None);
        assert_eq!(highest_supported(&[], 0, &store), None);
    }

    #[test]
    fn s_len_larger_than_entries_shifts_threshold() {
        let (store, _, a1, _, b1) = fixtures();
        // 3 entries, but 5 senders total (2 equivocators dropped from V):
        // a1 has support 2, needs > 2.5 — fails; genesis has 3 > 2.5.
        let g = Log::genesis(&store);
        let entries = vec![(v(0), a1), (v(1), a1), (v(2), b1)];
        assert_eq!(highest_supported(&entries, 5, &store), Some(g));
    }

    #[test]
    fn matches_bruteforce_on_fork_shapes() {
        let (store, g, a1, a2, b1) = fixtures();
        let b2 = b1.extend_empty(&store, v(3), View::new(2));
        let shapes: Vec<Vec<(ValidatorId, Log)>> = vec![
            vec![(v(0), a2), (v(1), a2), (v(2), b2)],
            vec![(v(0), a1), (v(1), b1)],
            vec![(v(0), g)],
            vec![(v(0), a2), (v(1), b2), (v(2), b2), (v(3), b1)],
        ];
        for entries in shapes {
            for s_len in entries.len()..entries.len() + 3 {
                assert_eq!(
                    highest_supported(&entries, s_len, &store),
                    highest_supported_bruteforce(&entries, s_len, &store),
                    "entries={entries:?} s_len={s_len}"
                );
            }
        }
    }

    #[test]
    fn distinct_supporters_dedup_equivocating_validator() {
        let (store, g, a1, _, b1) = fixtures();
        // v0 "supports" both branches (equivocation): counts once for
        // genesis, once per branch.
        let entries = vec![(v(0), a1), (v(0), b1), (v(1), a1)];
        let counts = distinct_supporter_counts(&entries, &store);
        assert_eq!(counts[&g.tip()], 2);
        assert_eq!(counts[&a1.tip()], 2);
        assert_eq!(counts[&b1.tip()], 1);
    }

    #[test]
    fn outputs_independent_of_entry_order() {
        // Regression for the ordered-iteration audit findings: every
        // public output must be a pure function of the entry *set*. A
        // hash-ordered counts map with a first-wins tie-break would make
        // this flake across processes; BTree containers plus the
        // explicit (height, id) tie-break make it exact.
        let (store, _, a1, a2, b1) = fixtures();
        let b2 = b1.extend_empty(&store, v(3), View::new(2));
        let base = vec![(v(0), a2), (v(0), b2), (v(1), a1), (v(2), b1), (v(3), b2)];
        let reference_highest = highest_supported(&base, 5, &store);
        let reference_counts = distinct_supporter_counts(&base, &store);
        let reference_maxima = maximal_passing(&reference_counts, 4, &store);
        for rot in 1..base.len() {
            let mut perm = base.clone();
            perm.rotate_left(rot);
            perm.reverse();
            assert_eq!(highest_supported(&perm, 5, &store), reference_highest);
            let counts = distinct_supporter_counts(&perm, &store);
            assert_eq!(counts, reference_counts);
            assert_eq!(maximal_passing(&counts, 4, &store), reference_maxima);
        }
        // Conflicting maxima come out id-sorted, not discovery-ordered.
        for pair in reference_maxima.windows(2) {
            assert!(pair[0].tip().0 < pair[1].tip().0);
        }
    }

    #[test]
    fn maximal_passing_can_return_conflicting_logs() {
        let (store, _, a1, _, b1) = fixtures();
        // 3 validators; v0 equivocates across both branches. X-counts:
        // a1: {v0, v1} = 2, b1: {v0, v2} = 2, both pass 2·2 > 3.
        let entries = vec![(v(0), a1), (v(0), b1), (v(1), a1), (v(2), b1)];
        let counts = distinct_supporter_counts(&entries, &store);
        let maxima = maximal_passing(&counts, 3, &store);
        assert_eq!(maxima.len(), 2, "conflicting maxima expected: {maxima:?}");
        assert!(maxima[0].conflicts(&maxima[1], &store));
    }
}
