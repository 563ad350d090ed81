//! VRF-based leader election (paper §3.3).
//!
//! "Whenever a proposal has to be made to extend the current log,
//! validators broadcast one together with their VRF value for the
//! current view, and priority is given to proposals with a higher VRF
//! value."
//!
//! A *good leader* for view v starting at `t_v` is a validator in
//! `H_{t_v} \ B_{t_v+Δ}` holding the highest VRF value among
//! `H_{t_v} ∪ B_{t_v+Δ}` (all validators a proposal might be received
//! from by `t_v + Δ`). Lemma 2 shows a good leader exists with
//! probability > ½; [`good_leader`] computes the ground truth for a
//! concrete schedule so experiments can verify both the probability and
//! the consequences (Lemmas 3–4).

use tobsvd_crypto::{KeyCache, Vrf, VrfOutput, VrfProof};
use tobsvd_types::{BlockStore, Log, ValidatorId, View};

/// Evaluates validator `v`'s VRF for `view` using the conventional
/// deterministic key derivation (cached per process — evaluation costs
/// one keyed hash, not a key derivation plus a hash).
pub fn vrf_for(v: ValidatorId, view: View) -> (VrfOutput, VrfProof) {
    Vrf::new(KeyCache::keypair(v.key_seed())).eval(view.number())
}

/// Verifies a claimed VRF pair for `(sender, view)` against the cached
/// public key.
pub fn verify_vrf(sender: ValidatorId, view: View, out: &VrfOutput, proof: &VrfProof) -> bool {
    let public = KeyCache::public(sender.key_seed());
    Vrf::verify(&public, view.number(), out, proof)
}

/// The *good leader* of `view`, if one exists: the highest-VRF validator
/// among `awake ∪ byzantine_by_tv_plus_delta` must lie in
/// `awake \ byzantine_by_tv_plus_delta`.
///
/// `awake` is `H_{t_v}` (honest validators awake at `t_v`);
/// `byz` is `B_{t_v+Δ}`.
///
/// Returns `None` — never panics — when the candidate set is empty
/// (every validator asleep and none Byzantine: a view nobody can lead)
/// or when the maximum lies outside `awake \ byz`. Callers treat both
/// the same way: the view has no good leader and liveness for it is not
/// guaranteed.
pub fn good_leader(view: View, awake: &[ValidatorId], byz: &[ValidatorId]) -> Option<ValidatorId> {
    let candidates: std::collections::BTreeSet<ValidatorId> =
        awake.iter().chain(byz.iter()).copied().collect();
    // An empty candidate pool (all validators asleep, none corrupted)
    // falls out of `max_by_key` as None: no proposal can even be
    // received by t_v + Δ, so the view trivially has no good leader.
    let best = candidates
        .into_iter()
        .max_by_key(|v| vrf_for(*v, view).0)?;
    let is_good = awake.contains(&best) && !byz.contains(&best);
    is_good.then_some(best)
}

/// Per-view proposal bookkeeping with equivocation discarding.
///
/// "After discarding equivocating proposals, input to GA_v the proposal
/// with the highest VRF value extending L_{v−1}" (Figure 4, Vote phase).
#[derive(Clone, Debug, Default)]
pub struct ProposalTracker {
    /// `Some((log, vrf))` = unique proposal; `None` = equivocated.
    proposals: std::collections::BTreeMap<ValidatorId, Option<(Log, VrfOutput)>>,
    /// VRF `(output, proof)` pairs that passed verification for this
    /// view, per sender. Both halves are unique per `(sender, view)`
    /// (the proof is the deterministic signature over the view), so a
    /// later proposal claiming the identical pair needs no
    /// re-verification — this is what makes an equivocation burst cost
    /// one VRF check, not one per distinct proposal. Matching on the
    /// *pair* (not the output alone) keeps honest validators uniform: a
    /// proposal with a correct output but garbage proof fails
    /// verification at a cold validator, so it must also miss the memo
    /// at a warm one.
    verified_vrfs: std::collections::BTreeMap<ValidatorId, (VrfOutput, VrfProof)>,
}

impl ProposalTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the claimed `(output, proof)` pair has already been
    /// verified for `sender` in this view (memo hit ⇒ the claim is
    /// authentic and verification can be skipped; any mismatching claim
    /// must still be verified, and uniqueness makes it fail).
    pub fn vrf_verified(&self, sender: ValidatorId, out: &VrfOutput, proof: &VrfProof) -> bool {
        self.verified_vrfs.get(&sender).is_some_and(|(o, p)| o == out && p == proof)
    }

    /// Memoizes a `(output, proof)` pair that passed [`verify_vrf`] for
    /// `sender` in this view.
    pub fn note_vrf_verified(&mut self, sender: ValidatorId, out: VrfOutput, proof: VrfProof) {
        self.verified_vrfs.entry(sender).or_insert((out, proof));
    }

    /// Records a (VRF-verified) proposal from `sender`. A second,
    /// different proposal from the same sender discards both.
    pub fn record(&mut self, sender: ValidatorId, log: Log, vrf: VrfOutput) {
        match self.proposals.get_mut(&sender) {
            None => {
                self.proposals.insert(sender, Some((log, vrf)));
            }
            Some(slot) => match slot {
                Some((existing, _)) if *existing == log => {}
                Some(_) => *slot = None, // equivocation: discard
                None => {}
            },
        }
    }

    /// The proposal with the highest VRF value whose log extends `lock`,
    /// among non-equivocating proposers.
    pub fn best_extending(&self, lock: &Log, store: &BlockStore) -> Option<(ValidatorId, Log)> {
        self.proposals
            .iter()
            .filter_map(|(v, slot)| slot.map(|(log, vrf)| (*v, log, vrf)))
            .filter(|(_, log, _)| log.extends(lock, store))
            .max_by_key(|(v, _, vrf)| (*vrf, std::cmp::Reverse(*v)))
            .map(|(v, log, _)| (v, log))
    }

    /// Whether `v` is a known proposal equivocator for this view.
    pub fn is_equivocator(&self, v: ValidatorId) -> bool {
        matches!(self.proposals.get(&v), Some(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::View;

    fn v(i: u32) -> ValidatorId {
        ValidatorId::new(i)
    }

    #[test]
    fn vrf_verification_roundtrip() {
        let (out, proof) = vrf_for(v(3), View::new(9));
        assert!(verify_vrf(v(3), View::new(9), &out, &proof));
        assert!(!verify_vrf(v(4), View::new(9), &out, &proof));
        assert!(!verify_vrf(v(3), View::new(10), &out, &proof));
    }

    #[test]
    fn good_leader_requires_honest_max() {
        let all: Vec<ValidatorId> = (0..6).map(v).collect();
        // No Byzantine: the max-VRF awake validator is always good.
        for view in (0..20).map(View::new) {
            let leader = good_leader(view, &all, &[]).expect("always good");
            let max = all.iter().copied().max_by_key(|x| vrf_for(*x, view).0).unwrap();
            assert_eq!(leader, max);
        }
    }

    #[test]
    fn corrupting_the_max_kills_the_good_leader() {
        let all: Vec<ValidatorId> = (0..6).map(v).collect();
        let view = View::new(3);
        let max = all.iter().copied().max_by_key(|x| vrf_for(*x, view).0).unwrap();
        assert!(good_leader(view, &all, &[max]).is_none());
        // Corrupting someone else leaves the good leader in place.
        let other = all.iter().copied().find(|x| *x != max).unwrap();
        assert_eq!(good_leader(view, &all, &[other]), Some(max));
    }

    #[test]
    fn empty_candidate_set_has_no_leader_and_does_not_panic() {
        // All validators asleep, none Byzantine — the Lemma 2 candidate
        // pool `H_{t_v} ∪ B_{t_v+Δ}` is empty.
        for view in (0..8).map(View::new) {
            assert_eq!(good_leader(view, &[], &[]), None);
        }
    }

    #[test]
    fn all_asleep_with_byzantine_awake_has_no_good_leader() {
        // Every honest validator asleep: whatever the VRF maximum is, it
        // lies in the Byzantine set, so the view has no good leader.
        let byz: Vec<ValidatorId> = (0..3).map(v).collect();
        assert_eq!(good_leader(View::new(2), &[], &byz), None);
    }

    #[test]
    fn asleep_max_is_not_a_leader_but_second_best_can_be() {
        let all: Vec<ValidatorId> = (0..6).map(v).collect();
        let view = View::new(5);
        let mut sorted = all.clone();
        sorted.sort_by_key(|x| std::cmp::Reverse(vrf_for(*x, view).0));
        let (max, second) = (sorted[0], sorted[1]);
        // max asleep: the candidate pool is awake ∪ byz; second-best wins.
        let awake: Vec<ValidatorId> = all.iter().copied().filter(|x| *x != max).collect();
        assert_eq!(good_leader(view, &awake, &[]), Some(second));
    }

    #[test]
    fn proposal_tracker_picks_highest_extending() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let lock = g.extend_empty(&store, v(0), View::new(1));
        let ext1 = lock.extend_empty(&store, v(1), View::new(2));
        let ext2 = lock.extend_empty(&store, v(2), View::new(2));
        let off_lock = g.extend_empty(&store, v(3), View::new(2));

        let mut tr = ProposalTracker::new();
        let vrf1 = vrf_for(v(1), View::new(2)).0;
        let vrf2 = vrf_for(v(2), View::new(2)).0;
        let vrf3 = vrf_for(v(3), View::new(2)).0;
        tr.record(v(1), ext1, vrf1);
        tr.record(v(2), ext2, vrf2);
        tr.record(v(3), off_lock, vrf3); // does not extend the lock
        let (winner, log) = tr.best_extending(&lock, &store).expect("one extends");
        let expect = if vrf1 > vrf2 { (v(1), ext1) } else { (v(2), ext2) };
        assert_eq!((winner, log), expect);
    }

    #[test]
    fn vrf_memo_covers_only_noted_pairs() {
        let mut tr = ProposalTracker::new();
        let (vrf, proof) = vrf_for(v(1), View::new(1));
        assert!(!tr.vrf_verified(v(1), &vrf, &proof), "empty tracker memoizes nothing");
        tr.note_vrf_verified(v(1), vrf, proof);
        assert!(tr.vrf_verified(v(1), &vrf, &proof));
        // A different claimed value — even another validator's genuine
        // one — is not covered and must go through verification.
        let (other, other_proof) = vrf_for(v(2), View::new(1));
        assert!(!tr.vrf_verified(v(1), &other, &other_proof));
        assert!(!tr.vrf_verified(v(2), &other, &other_proof));
        // The memo matches the full (output, proof) pair: a correct
        // output with a tampered proof must miss, so warm and cold
        // validators treat the same frame identically.
        let garbage = VrfProof(tobsvd_crypto::Digest::from_bytes([0xab; 32]));
        assert!(!tr.vrf_verified(v(1), &vrf, &garbage));
    }

    #[test]
    fn proposal_equivocation_discards() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, v(1), View::new(1));
        let b = g.extend_empty(&store, v(2), View::new(1));
        let mut tr = ProposalTracker::new();
        let vrf = vrf_for(v(1), View::new(1)).0;
        tr.record(v(1), a, vrf);
        tr.record(v(1), b, vrf);
        assert!(tr.is_equivocator(v(1)));
        assert_eq!(tr.best_extending(&g, &store), None);
        // Duplicate of the same proposal is not equivocation.
        let mut tr = ProposalTracker::new();
        tr.record(v(1), a, vrf);
        tr.record(v(1), a, vrf);
        assert!(!tr.is_equivocator(v(1)));
        assert_eq!(tr.best_extending(&g, &store), Some((v(1), a)));
    }
}
