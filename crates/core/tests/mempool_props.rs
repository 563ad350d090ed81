//! Property tests for the mempool's pruning and inclusion filtering
//! under arbitrary churn:
//!
//! * transactions confirmed in a pruned decided prefix never reappear
//!   in any later pending batch (not even after resubmission);
//! * a pending batch for any log, on the pruned chain or on a fork
//!   above or below it, is exactly the pending records that log does
//!   not include (checked against the brute-force [`Log::contains_tx`]);
//! * admission churn and bounded capacity leave both properties intact.

use proptest::prelude::*;
use tobsvd_core::{Admission, AdmissionPolicy, Mempool};
use tobsvd_types::{BlockStore, Log, Time, Transaction, TxId, ValidatorId, View};

/// Deterministically builds a chain of `blocks` blocks on top of `base`,
/// each carrying a batch of freshly-submitted transactions (batch sizes
/// 0..=2 driven by `shape`). Returns the tip log and the included txs.
fn grow_chain(
    store: &BlockStore,
    pool: &Mempool,
    base: Log,
    blocks: usize,
    shape: u64,
    tag: u64,
) -> (Log, Vec<Transaction>) {
    let mut log = base;
    let mut included = Vec::new();
    let mut nonce = 0u64;
    for i in 0..blocks {
        let batch = ((shape >> (i % 32)) & 0b11) as usize % 3;
        let txs: Vec<Transaction> = (0..batch)
            .map(|j| {
                let tx = Transaction::new(
                    format!("t{tag}:{i}:{j}:{nonce}").into_bytes(),
                );
                nonce += 1;
                pool.submit(tx.clone(), Time::new(i as u64));
                tx
            })
            .collect();
        included.extend(txs.iter().cloned());
        log = log.extend(
            store,
            ValidatorId::new((i % 4) as u32),
            View::new(log.len() + i as u64),
            txs,
        );
    }
    (log, included)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Confirmed (pruned) records never reappear: after pruning at a
    /// decided prefix, no pending batch for any later tip contains a
    /// confirmed tx — and resubmitting confirmed txs is suppressed.
    #[test]
    fn confirmed_records_never_reappear(
        decided_blocks in 1usize..8,
        extra_blocks in 0usize..6,
        fork_blocks in 0usize..4,
        shape in any::<u64>(),
        resubmit in any::<bool>(),
    ) {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let genesis = Log::genesis(&store);
        let (decided, confirmed) =
            grow_chain(&store, &pool, genesis, decided_blocks, shape | 1, 1);
        let before = pool.pending_len();
        pool.prune_confirmed(&decided, &store);
        prop_assert_eq!(pool.pending_len(), before - confirmed.len());

        if resubmit {
            // Resubmission of a pruned tx must be ignored: ids are
            // remembered forever, and the pool does not regrow.
            for tx in &confirmed {
                pool.submit(tx.clone(), Time::new(9999));
                prop_assert!(pool.submitted_at(tx.id()).is_some());
            }
            prop_assert_eq!(pool.pending_len(), before - confirmed.len());
        }

        // Grow further on top of the decided prefix, and fork below it
        // with a block that includes some of the still-pending fresh
        // transactions: no pending batch, at the prune base, at the new
        // tip or on the fork, may contain a confirmed record, and each
        // must be exactly the pending records its log does not include.
        let (tip, fresh) =
            grow_chain(&store, &pool, decided, extra_blocks, shape.rotate_left(7), 2);
        let cut = 1 + shape % (decided.len() - 1);
        let below = decided.prefix(cut, &store).expect("a strict prefix of the decided log");
        let taken = fresh.len() / 2;
        let fork_base =
            below.extend(&store, ValidatorId::new(3), View::new(1_000), fresh[..taken].to_vec());
        let (fork, _) =
            grow_chain(&store, &pool, fork_base, fork_blocks, shape.rotate_left(13), 5);
        let confirmed_ids: Vec<TxId> = confirmed.iter().map(Transaction::id).collect();
        let all_pending = pool.pending_for(&Log::genesis(&store), &store);
        for log in [decided, tip, fork] {
            let batch = pool.pending_for(&log, &store);
            for tx in &batch {
                prop_assert!(
                    !confirmed_ids.contains(&tx.id()),
                    "confirmed tx resurfaced in a pending batch"
                );
            }
            let expected: Vec<Transaction> = all_pending
                .iter()
                .filter(|tx| !log.contains_tx(tx.id(), &store))
                .cloned()
                .collect();
            prop_assert_eq!(batch, expected, "pending batch differs from the brute force");
        }
    }

    /// After a prune, any amount of chain growth above the pruned log
    /// leaves it the base of every later query: a fresh branch off it
    /// filters only its own blocks, and the pruned tx never resurfaces.
    #[test]
    fn pruned_base_survives_chain_churn(
        churn_blocks in 0usize..80,
        shape in any::<u64>(),
    ) {
        let store = BlockStore::new();
        let pool = Mempool::new();
        let pruned_tx = Transaction::new(b"pruned".to_vec());
        pool.submit(pruned_tx.clone(), Time::ZERO);
        let base = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![pruned_tx.clone()],
        );
        pool.prune_confirmed(&base, &store);

        let side_tx = Transaction::new(b"side".to_vec());
        pool.submit(side_tx.clone(), Time::ZERO);
        let mut log = base;
        for i in 0..128 + churn_blocks {
            log = log.extend_empty(&store, ValidatorId::new(1), View::new(2 + i as u64));
            if shape >> (i % 64) & 1 == 1 {
                prop_assert_eq!(pool.pending_for(&log, &store), vec![side_tx.clone()]);
            }
        }

        // A fresh branch off the base filters its own block.
        let side = base.extend(
            &store,
            ValidatorId::new(2),
            View::new(10_000),
            vec![side_tx.clone()],
        );
        prop_assert!(pool.pending_for(&side, &store).is_empty());
        // And the pruned tx is not proposable anywhere.
        for tip in [base, log] {
            prop_assert_eq!(pool.pending_for(&tip, &store), vec![side_tx.clone()]);
        }
    }

    /// Bounded admission under arbitrary fee sequences: the pool never
    /// exceeds its hard capacity, and the whole verdict sequence —
    /// including *which* transaction each acceptance evicts under fee
    /// ties — is a pure function of the submission sequence (replaying
    /// it yields identical verdicts and stats).
    #[test]
    fn bounded_admission_is_capacity_safe_and_deterministic(
        capacity in 1usize..24,
        fees in proptest::collection::vec(0u64..6, 1..160),
    ) {
        let policy = AdmissionPolicy { capacity, rate_cap: 0, rate_window: 64 };
        let mut replays = Vec::new();
        for _ in 0..2 {
            let pool = Mempool::bounded(policy);
            let mut verdicts = Vec::new();
            for (i, &fee) in fees.iter().enumerate() {
                let tx = Transaction::new(format!("adm{i}").into_bytes());
                let verdict = pool.admit(tx, Time::new(i as u64), fee, Some(i as u64 % 5));
                prop_assert!(
                    pool.pending_len() <= capacity,
                    "capacity breached: {} > {}",
                    pool.pending_len(),
                    capacity
                );
                verdicts.push(verdict);
            }
            prop_assert!(pool.admission_stats().pending_peak as usize <= capacity);
            replays.push((verdicts, pool.admission_stats()));
        }
        prop_assert_eq!(&replays[0], &replays[1], "admission verdicts must be deterministic");
    }

    /// Admission-pressure eviction never touches what pruning keeps:
    /// with a tiny capacity forcing constant eviction, a pruned
    /// (confirmed) transaction stays suppressed as a duplicate and never
    /// resurfaces in a pending batch — eviction frees the *pending*
    /// record, not the confirmed-id memory.
    #[test]
    fn admission_churn_preserves_pruned_base(
        churn in 1usize..160,
        shape in any::<u64>(),
    ) {
        let store = BlockStore::new();
        let pool = Mempool::bounded(AdmissionPolicy { capacity: 4, rate_cap: 0, rate_window: 64 });
        let pruned_tx = Transaction::new(b"pruned-bounded".to_vec());
        prop_assert!(pool.admit(pruned_tx.clone(), Time::ZERO, 1, None).is_accepted());
        let base = Log::genesis(&store).extend(
            &store,
            ValidatorId::new(0),
            View::new(1),
            vec![pruned_tx.clone()],
        );
        pool.prune_confirmed(&base, &store);

        for i in 0..churn {
            let tx = Transaction::new(format!("churn{i}").into_bytes());
            let _ = pool.admit(
                tx,
                Time::new(1 + i as u64),
                (shape >> (i % 56)) & 7,
                Some(i as u64),
            );
            prop_assert!(pool.pending_len() <= 4);
        }

        // Still remembered as confirmed, churn notwithstanding.
        prop_assert_eq!(
            pool.admit(pruned_tx.clone(), Time::new(9_999), u64::MAX, None),
            Admission::Duplicate
        );
        prop_assert!(pool
            .pending_for(&base, &store)
            .iter()
            .all(|t| t.id() != pruned_tx.id()));

        // Evicted (not pruned) records, by contrast, may be resubmitted:
        // find one eviction and replay it.
        let stats = pool.admission_stats();
        prop_assert_eq!(
            stats.accepted + stats.duplicates + stats.busy + stats.rate_limited,
            1 + churn as u64 + 1
        );
    }

    /// Growing a chain from a bounded pool, pruning at every tip, keeps
    /// the pending set under `capacity`, and no pending batch ever
    /// offers an already-included transaction.
    #[test]
    fn capacity_bounds_pending_as_the_chain_grows(
        capacity in 1usize..16,
        blocks in 1usize..40,
        shape in any::<u64>(),
    ) {
        let store = BlockStore::new();
        let pool =
            Mempool::bounded(AdmissionPolicy { capacity, rate_cap: 0, rate_window: 64 });
        let mut log = Log::genesis(&store);
        let mut nonce = 0u64;
        for i in 0..blocks {
            // Over-submit relative to capacity, then include whatever
            // the pool currently proposes for the tip.
            for j in 0..(1 + (shape >> (i % 48)) % 4) {
                let tx = Transaction::new(format!("m{i}:{j}:{nonce}").into_bytes());
                nonce += 1;
                let _ = pool.admit(tx, Time::new(i as u64), j, Some(j));
                prop_assert!(pool.pending_len() <= capacity);
            }
            let batch = pool.pending_for(&log, &store);
            for tx in &batch {
                prop_assert!(
                    !log.contains_tx(tx.id(), &store),
                    "pending batch offered an included tx"
                );
            }
            log = log.extend(
                &store,
                ValidatorId::new((i % 4) as u32),
                View::new(1 + i as u64),
                batch,
            );
            pool.prune_confirmed(&log, &store);
            prop_assert!(pool.pending_len() <= capacity);
        }
    }

    /// Per-client rate caps: within any window, no client gets more
    /// than `rate_cap` acceptances, regardless of fees or interleaving
    /// with other clients.
    #[test]
    fn rate_cap_bounds_acceptances_per_client_window(
        rate_cap in 1u32..6,
        submissions in proptest::collection::vec((0u64..4, 0u64..8), 1..200),
    ) {
        let window = 16u64;
        let pool = Mempool::bounded(AdmissionPolicy {
            capacity: 10_000,
            rate_cap,
            rate_window: window,
        });
        let mut accepted_in_window: std::collections::BTreeMap<(u64, u64), u32> =
            std::collections::BTreeMap::new();
        for (i, &(client, fee)) in submissions.iter().enumerate() {
            let now = Time::new(i as u64);
            let tx = Transaction::new(format!("r{i}").into_bytes());
            if pool.admit(tx, now, fee, Some(client)).is_accepted() {
                let k = (client, now.ticks() / window);
                let c = accepted_in_window.entry(k).or_insert(0);
                *c += 1;
                prop_assert!(
                    *c <= rate_cap,
                    "client {client} got {c} acceptances in one window (cap {rate_cap})"
                );
            }
        }
    }
}
