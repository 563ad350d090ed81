//! Property tests of the support-counting machinery against the
//! brute-force transcription of the quorum condition.

use proptest::prelude::*;
use tobsvd_ga::support::{
    distinct_supporter_counts, highest_supported, highest_supported_bruteforce, maximal_passing,
};
use tobsvd_types::{BlockStore, Log, ValidatorId, View};

#[derive(Clone, Debug)]
struct SupportCase {
    builds: Vec<(usize, u32)>,
    /// (validator, log index) entries — duplicates per validator allowed
    /// for the X-count tests.
    entries: Vec<(u32, usize)>,
    extra_senders: usize,
}

fn support_case() -> impl Strategy<Value = SupportCase> {
    (
        proptest::collection::vec((0usize..6, 0u32..4), 0..10),
        proptest::collection::vec((0u32..8, 0usize..10), 1..12),
        0usize..4,
    )
        .prop_map(|(builds, entries, extra_senders)| SupportCase { builds, entries, extra_senders })
}

fn build(case: &SupportCase) -> (BlockStore, Vec<(ValidatorId, Log)>, usize) {
    let store = BlockStore::new();
    let mut logs = vec![Log::genesis(&store)];
    for (i, (parent, proposer)) in case.builds.iter().enumerate() {
        let parent_log = logs[parent % logs.len()];
        logs.push(parent_log.extend_empty(
            &store,
            ValidatorId::new(*proposer),
            View::new(i as u64 + 1),
        ));
    }
    // One log per validator for V-style entries (first pick wins).
    let mut seen = std::collections::BTreeSet::new();
    let mut entries = Vec::new();
    for (v, li) in &case.entries {
        if seen.insert(*v) {
            entries.push((ValidatorId::new(*v), logs[li % logs.len()]));
        }
    }
    let s_len = entries.len() + case.extra_senders;
    (store, entries, s_len)
}

/// A committee-sized vote set: up to 256 entries over at most four
/// distinct tips of a random fork tree, as honest votes look (one to
/// three shared tips) plus a stray.
#[derive(Clone, Debug)]
struct WideCase {
    builds: Vec<(usize, u32)>,
    tips: Vec<usize>,
    /// Index into `tips` per entry.
    picks: Vec<usize>,
    extra_senders: usize,
}

fn wide_case() -> impl Strategy<Value = WideCase> {
    (
        proptest::collection::vec((0usize..8, 0u32..4), 0..12),
        proptest::collection::vec(0usize..16, 1..=4),
        proptest::collection::vec(0usize..4, 1..=256),
        0usize..64,
    )
        .prop_map(|(builds, tips, picks, extra_senders)| WideCase {
            builds,
            tips,
            picks,
            extra_senders,
        })
}

fn build_wide(case: &WideCase) -> (BlockStore, Vec<(ValidatorId, Log)>, usize) {
    let store = BlockStore::new();
    let mut logs = vec![Log::genesis(&store)];
    for (i, (parent, proposer)) in case.builds.iter().enumerate() {
        let parent_log = logs[parent % logs.len()];
        logs.push(parent_log.extend_empty(
            &store,
            ValidatorId::new(*proposer),
            View::new(i as u64 + 1),
        ));
    }
    let tips: Vec<Log> = case.tips.iter().map(|t| logs[t % logs.len()]).collect();
    let entries: Vec<(ValidatorId, Log)> = case
        .picks
        .iter()
        .enumerate()
        .map(|(v, pick)| (ValidatorId::new(v as u32), tips[pick % tips.len()]))
        .collect();
    let s_len = entries.len() + case.extra_senders;
    (store, entries, s_len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Tip grouping: committee-sized entry sets over few distinct tips
    /// give the brute force's answer.
    #[test]
    fn wide_votes_over_few_tips_match_bruteforce(case in wide_case()) {
        let (store, entries, s_len) = build_wide(&case);
        prop_assert_eq!(
            highest_supported(&entries, s_len, &store),
            highest_supported_bruteforce(&entries, s_len, &store),
            "tips {:?} s_len {}", case.tips, s_len
        );
    }

    /// The answer is a function of the multiset of logs: any permutation
    /// of the entries (and of which validator carries which log) gives
    /// the same output.
    #[test]
    fn output_is_permutation_invariant(case in wide_case(), seed in any::<u64>()) {
        let (store, entries, s_len) = build_wide(&case);
        // Seeded Fisher–Yates (splitmix64 steps) over the logs.
        let mut logs: Vec<Log> = entries.iter().map(|(_, log)| *log).collect();
        let mut state = seed;
        for i in (1..logs.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            logs.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        let permuted: Vec<(ValidatorId, Log)> =
            logs.into_iter().enumerate().map(|(v, log)| (ValidatorId::new(v as u32), log)).collect();
        prop_assert_eq!(
            highest_supported(&permuted, s_len, &store),
            highest_supported(&entries, s_len, &store)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The LCA-optimized implementation equals the brute force on every
    /// random tree/entry/threshold combination.
    #[test]
    fn highest_supported_matches_bruteforce(case in support_case()) {
        let (store, entries, s_len) = build(&case);
        prop_assert_eq!(
            highest_supported(&entries, s_len, &store),
            highest_supported_bruteforce(&entries, s_len, &store),
            "entries {:?} s_len {}", entries, s_len
        );
    }

    /// The result, when present, genuinely passes the threshold, and no
    /// strictly longer log does.
    #[test]
    fn result_is_maximal_and_passing(case in support_case()) {
        let (store, entries, s_len) = build(&case);
        if let Some(best) = highest_supported(&entries, s_len, &store) {
            let support = entries.iter().filter(|(_, l)| l.extends(&best, &store)).count();
            prop_assert!(2 * support > s_len, "result must pass: {support} of {s_len}");
            // No entry's longer prefix passes.
            for (_, log) in &entries {
                for len in best.len() + 1..=log.len() {
                    if let Some(candidate) = log.prefix(len, &store) {
                        let sup = entries
                            .iter()
                            .filter(|(_, l)| l.extends(&candidate, &store))
                            .count();
                        prop_assert!(
                            2 * sup <= s_len,
                            "longer candidate {candidate} passes too"
                        );
                    }
                }
            }
        }
    }

    /// All prefixes of the result also pass (the "output set is a prefix
    /// chain" fact the GA output semantics rely on).
    #[test]
    fn prefixes_of_result_pass(case in support_case()) {
        let (store, entries, s_len) = build(&case);
        if let Some(best) = highest_supported(&entries, s_len, &store) {
            for len in 1..=best.len() {
                let p = best.prefix(len, &store).expect("in range");
                let sup = entries.iter().filter(|(_, l)| l.extends(&p, &store)).count();
                prop_assert!(2 * sup > s_len);
            }
        }
    }

    /// X-style counting: `distinct_supporter_counts` counts each
    /// validator at most once per block, even with multiple logs.
    #[test]
    fn distinct_counts_bounded_by_validators(case in support_case()) {
        let store = BlockStore::new();
        let mut logs = vec![Log::genesis(&store)];
        for (i, (parent, proposer)) in case.builds.iter().enumerate() {
            let parent_log = logs[parent % logs.len()];
            logs.push(parent_log.extend_empty(
                &store,
                ValidatorId::new(*proposer),
                View::new(i as u64 + 1),
            ));
        }
        // Multi-log entries (equivocators) allowed here.
        let entries: Vec<(ValidatorId, Log)> = case
            .entries
            .iter()
            .map(|(v, li)| (ValidatorId::new(*v), logs[li % logs.len()]))
            .collect();
        let distinct_validators = entries
            .iter()
            .map(|(v, _)| v)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let counts = distinct_supporter_counts(&entries, &store);
        for (block, count) in &counts {
            prop_assert!(
                *count <= distinct_validators,
                "block {block} counted {count} > {distinct_validators}"
            );
            // Direct recount.
            let direct = entries
                .iter()
                .filter(|(_, l)| {
                    store.is_ancestor(*block, l.tip())
                })
                .map(|(v, _)| *v)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            prop_assert_eq!(*count, direct, "block {}", block);
        }
        // Maximal passing logs are pairwise non-nested.
        let maxima = maximal_passing(&counts, distinct_validators, &store);
        for x in &maxima {
            for y in &maxima {
                if x != y {
                    prop_assert!(!x.is_prefix_of(y, &store));
                }
            }
        }
    }
}
