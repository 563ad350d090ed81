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

use std::cmp::Reverse;
use std::collections::{btree_map::Entry, BTreeMap, BinaryHeap};

use tobsvd_crypto::{KeyCache, Vrf, VrfOutput, VrfProof};
use tobsvd_sim::CryptoOps;
use tobsvd_types::{BlockStore, Log, Payload, SignedMessage, ValidatorId, View};

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

/// The order proposals are ranked in within a view: higher VRF output
/// first, ties to the lower validator id. The vote input, the relay
/// choice and the relay coverage all use this one order.
pub type Priority = (VrfOutput, Reverse<ValidatorId>);

/// What is known about one claim's VRF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Unchecked,
    Valid,
    Forged,
}

/// One proposal as received: the log and the VRF pair it *claims*.
#[derive(Clone, Copy, Debug)]
struct Claim {
    log: Log,
    vrf: VrfOutput,
    proof: VrfProof,
    verdict: Verdict,
}

impl Claim {
    fn is(&self, log: &Log, vrf: &VrfOutput, proof: &VrfProof) -> bool {
        self.log == *log && self.vrf == *vrf && self.proof == *proof
    }
}

/// A sender's claims for one view. The gossip cap lets at most two
/// distinct proposals per `(sender, view)` reach the tracker, and a
/// second one is rare (an equivocator or a forger), so it lives behind
/// a pointer and the common case is one inline claim.
#[derive(Clone, Debug)]
struct Claims {
    first: Claim,
    second: Option<Box<Claim>>,
}

impl Claims {
    fn slot(&self, log: &Log, vrf: &VrfOutput, proof: &VrfProof) -> Option<usize> {
        if self.first.is(log, vrf, proof) {
            return Some(0);
        }
        self.second.as_ref().filter(|c| c.is(log, vrf, proof)).map(|_| 1)
    }

    fn get(&self, slot: usize) -> Option<&Claim> {
        match slot {
            0 => Some(&self.first),
            _ => self.second.as_deref(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Claim)> {
        std::iter::once(&self.first).chain(self.second.as_deref()).enumerate()
    }

    /// The VRF verdict of the claim in `slot`: one [`verify_vrf`] the
    /// first time its pair is asked about, the memoized verdict after
    /// that. A check never looks at the log, so a sibling claiming the
    /// same pair takes the same verdict: an equivocation burst costs one
    /// check, as a memo keyed by the pair would.
    fn check(&mut self, slot: usize, sender: ValidatorId, view: View, ops: &mut CryptoOps) -> bool {
        let Some(claim) = self.get(slot).copied() else {
            return false;
        };
        if claim.verdict != Verdict::Unchecked {
            ops.vrf_verify_skips += 1;
            return claim.verdict == Verdict::Valid;
        }
        ops.vrf_verifies += 1;
        let verdict = if verify_vrf(sender, view, &claim.vrf, &claim.proof) {
            Verdict::Valid
        } else {
            Verdict::Forged
        };
        let same_pair = |c: &&mut Claim| c.vrf == claim.vrf && c.proof == claim.proof;
        for c in std::iter::once(&mut self.first).chain(self.second.as_deref_mut()).filter(same_pair) {
            c.verdict = verdict;
        }
        verdict == Verdict::Valid
    }

    /// Two distinct VRF-valid logs. Checks only a sender that sent two
    /// different logs.
    fn equivocate(&mut self, sender: ValidatorId, view: View, ops: &mut CryptoOps) -> bool {
        self.second.as_ref().is_some_and(|second| second.log != self.first.log)
            && self.check(0, sender, view, ops)
            && self.check(1, sender, view, ops)
    }
}

/// Per-view proposal bookkeeping with equivocation discarding and VRFs
/// verified on demand.
///
/// "After discarding equivocating proposals, input to GA_v the proposal
/// with the highest VRF value extending L_{v−1}" (Figure 4, Vote phase).
/// Only the winner's VRF matters, so proposals are recorded as
/// unverified *claims*, and a VRF is verified only where a priority is
/// used: the vote input ([`ProposalTracker::best_extending`]), the
/// boundary relay ([`ProposalTracker::relays`]) and recovery serving
/// (`ProposalTracker::verify`). Each walks claims in descending
/// *claimed* priority and verifies only a claim that could win, and
/// every claim keeps its verdict — about n checks per view across the
/// committee instead of n², and a forged high claim costs its forger
/// one check. The answers are those of verifying every claim on
/// receipt and dropping the forged ones: a sender is an equivocator iff
/// it has two distinct VRF-valid logs, and only VRF-valid claims are
/// ever picked or relayed.
#[derive(Clone, Debug)]
pub struct ProposalTracker {
    view: View,
    claims: BTreeMap<ValidatorId, Claims>,
}

impl ProposalTracker {
    /// Creates an empty tracker for `view` (the view the VRFs are
    /// verified against).
    pub fn new(view: View) -> Self {
        ProposalTracker { view, claims: BTreeMap::new() }
    }

    /// Records `sender`'s proposal of `log` with its claimed VRF pair,
    /// unverified. Returns whether the claim is new: a claim already
    /// held, or a third distinct one from the sender (the gossip cap
    /// lets neither through), is not recorded.
    pub fn record(&mut self, sender: ValidatorId, log: Log, vrf: VrfOutput, proof: VrfProof) -> bool {
        let claim = Claim { log, vrf, proof, verdict: Verdict::Unchecked };
        match self.claims.entry(sender) {
            Entry::Vacant(e) => {
                e.insert(Claims { first: claim, second: None });
                true
            }
            Entry::Occupied(mut e) => {
                let held = e.get_mut();
                if held.second.is_some() || held.slot(&log, &vrf, &proof).is_some() {
                    return false;
                }
                // Same pair as the first claim: same verdict (see `check`).
                let verdict = if (held.first.vrf, held.first.proof) == (vrf, proof) {
                    held.first.verdict
                } else {
                    Verdict::Unchecked
                };
                held.second = Some(Box::new(Claim { verdict, ..claim }));
                true
            }
        }
    }

    /// Whether `sender`'s recorded claim of `(log, vrf, proof)` carries
    /// a valid VRF (checked at most once per claim). An unrecorded claim
    /// is not valid.
    pub(crate) fn verify(
        &mut self,
        sender: ValidatorId,
        log: &Log,
        vrf: &VrfOutput,
        proof: &VrfProof,
        ops: &mut CryptoOps,
    ) -> bool {
        let view = self.view;
        let Some(held) = self.claims.get_mut(&sender) else {
            return false;
        };
        held.slot(log, vrf, proof).is_some_and(|slot| held.check(slot, sender, view, ops))
    }

    /// Whether `v` is a proposal equivocator for this view: two distinct
    /// VRF-valid logs.
    pub fn is_equivocator(&mut self, v: ValidatorId, ops: &mut CryptoOps) -> bool {
        let view = self.view;
        self.claims.get_mut(&v).is_some_and(|held| held.equivocate(v, view, ops))
    }

    /// The valid proposal with the highest VRF value whose log extends
    /// `lock`, among non-equivocating proposers. Claims are tried
    /// top-first out of a heap (no full sort), so the usual cost is the
    /// top claim's one check.
    pub fn best_extending(
        &mut self,
        lock: &Log,
        store: &BlockStore,
        ops: &mut CryptoOps,
    ) -> Option<(ValidatorId, Log)> {
        let mut ranked: BinaryHeap<(Priority, Reverse<usize>)> = self
            .claims
            .iter()
            .flat_map(|(v, held)| held.iter().map(move |(slot, c)| (*v, slot, c)))
            .filter(|(_, _, c)| c.verdict != Verdict::Forged && c.log.extends(lock, store))
            .map(|(v, slot, c)| ((c.vrf, Reverse(v)), Reverse(slot)))
            .collect();
        let view = self.view;
        while let Some(((_, Reverse(v)), Reverse(slot))) = ranked.pop() {
            let Some(held) = self.claims.get_mut(&v) else { continue };
            if held.check(slot, v, view, ops) && !held.equivocate(v, view, ops) {
                return held.get(slot).map(|claim| (v, claim.log));
            }
        }
        None
    }

    /// The proposal relays of a boundary flush over `pending` (the
    /// view's proposal receptions since the last flush, in arrival
    /// order), in forwarding order: every pending copy from an
    /// equivocator (the evidence peers need to discard it too), then
    /// the highest-priority valid pending proposal from a
    /// non-equivocator if it outranks `best_relayed`, which it then
    /// becomes. Candidates at or below `best_relayed` are never checked,
    /// and the rest are tried top-first. Copies that are not recorded
    /// claims are never relayed.
    pub fn relays(
        &mut self,
        pending: &[SignedMessage],
        best_relayed: &mut Option<Priority>,
        ops: &mut CryptoOps,
    ) -> Vec<SignedMessage> {
        let view = self.view;
        let mut out = Vec::new();
        let mut ranked: BinaryHeap<(Priority, Reverse<usize>, usize)> = BinaryHeap::new();
        for (i, msg) in pending.iter().enumerate() {
            let Payload::Proposal { log, vrf, proof, .. } = msg.payload() else { continue };
            let sender = msg.sender();
            let Some(held) = self.claims.get_mut(&sender) else { continue };
            let Some(slot) = held.slot(log, vrf, proof) else { continue };
            if held.equivocate(sender, view, ops) {
                out.push(*msg); // both of an equivocator's claims are valid
                continue;
            }
            let prio = (*vrf, Reverse(sender));
            if best_relayed.map_or(true, |best| prio > best) {
                ranked.push((prio, Reverse(i), slot));
            }
        }
        while let Some((prio, Reverse(i), slot)) = ranked.pop() {
            let sender = prio.1 .0;
            let held = self.claims.get_mut(&sender);
            if held.is_some_and(|held| held.check(slot, sender, view, ops)) {
                out.extend(pending.get(i).copied());
                *best_relayed = Some(prio);
                break;
            }
        }
        out
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

    fn proposal(sender: ValidatorId, view: View, log: Log, vrf: VrfOutput, proof: VrfProof) -> SignedMessage {
        let kp = tobsvd_crypto::Keypair::from_seed(sender.key_seed());
        SignedMessage::sign(&kp, sender, Payload::Proposal { view, log, vrf, proof })
    }

    /// A claim above every genuine output, with a proof that cannot verify.
    fn forged_top() -> (VrfOutput, VrfProof) {
        let garbage = tobsvd_crypto::Digest::from_bytes([0xab; 32]);
        (VrfOutput(tobsvd_crypto::Digest::from_bytes([0xff; 32])), VrfProof(garbage))
    }

    #[test]
    fn proposal_tracker_picks_highest_extending_with_one_check() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let view = View::new(2);
        let lock = g.extend_empty(&store, v(0), View::new(1));
        let mut tr = ProposalTracker::new(view);
        let mut genuine = Vec::new();
        for i in 1..6 {
            let log = lock.extend_empty(&store, v(i), view);
            let (vrf, proof) = vrf_for(v(i), view);
            assert!(tr.record(v(i), log, vrf, proof));
            genuine.push((vrf, v(i), log));
        }
        // Off the lock and claiming the top priority: never checked.
        let (vrf, proof) = forged_top();
        tr.record(v(9), g.extend_empty(&store, v(9), view), vrf, proof);
        let mut ops = CryptoOps::default();
        let (_, winner, log) = genuine.iter().copied().max_by_key(|(vrf, ..)| *vrf).unwrap();
        assert_eq!(tr.best_extending(&lock, &store, &mut ops), Some((winner, log)));
        assert_eq!(ops.vrf_verifies, 1, "only the winning claim is checked");
        assert_eq!(tr.best_extending(&lock, &store, &mut ops), Some((winner, log)));
        assert_eq!((ops.vrf_verifies, ops.vrf_verify_skips), (1, 1), "its verdict is kept");
    }

    #[test]
    fn forged_top_claim_loses_and_costs_its_forger_one_check() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let view = View::new(1);
        let mut tr = ProposalTracker::new(view);
        let mut pending = Vec::new();
        let (vrf, proof) = forged_top();
        let forged = proposal(v(7), view, g.extend_empty(&store, v(7), view), vrf, proof);
        for i in 1..4 {
            let (vrf, proof) = vrf_for(v(i), view);
            pending.push(proposal(v(i), view, g.extend_empty(&store, v(i), view), vrf, proof));
        }
        pending.insert(1, forged);
        for m in &pending {
            let Payload::Proposal { log, vrf, proof, .. } = m.payload() else { unreachable!() };
            assert!(tr.record(m.sender(), *log, *vrf, *proof));
        }
        let best = pending
            .iter()
            .filter(|m| m.sender() != v(7))
            .max_by_key(|m| vrf_for(m.sender(), view).0)
            .copied()
            .unwrap();
        let mut ops = CryptoOps::default();
        let mut best_relayed = None;
        let relays = tr.relays(&pending, &mut best_relayed, &mut ops);
        assert_eq!(relays, vec![best], "the forged claim is never relayed");
        assert_eq!(ops.vrf_verifies, 2, "one check for the forger, one for the winner");
        let picked = tr.best_extending(&g, &store, &mut ops);
        assert_eq!(picked, best.payload().log().map(|log| (best.sender(), log)));
        assert!(tr.relays(&pending, &mut best_relayed, &mut ops).is_empty(), "already relayed");
        assert_eq!(ops.vrf_verifies, 2, "a second vote and flush in the view cost nothing");
    }

    #[test]
    fn genuine_copy_plus_forged_copy_with_another_log_is_not_equivocation() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let view = View::new(1);
        let (a, b) = (g.extend_empty(&store, v(1), view), g.extend_empty(&store, v(2), view));
        let (vrf, proof) = vrf_for(v(1), view);
        let garbage = VrfProof(tobsvd_crypto::Digest::from_bytes([0xab; 32]));
        let mut tr = ProposalTracker::new(view);
        assert!(tr.record(v(1), a, vrf, proof));
        assert!(tr.record(v(1), b, vrf, garbage), "a second distinct claim is held");
        let mut ops = CryptoOps::default();
        assert!(!tr.is_equivocator(v(1), &mut ops));
        assert_eq!(ops.vrf_verifies, 2, "both logs are checked once");
        assert_eq!(tr.best_extending(&g, &store, &mut ops), Some((v(1), a)));
        assert_eq!(ops.vrf_verifies, 2);
        assert!(!tr.verify(v(1), &b, &vrf, &garbage, &mut ops), "the forged copy stays forged");
        assert!(!tr.record(v(1), g, vrf, proof), "a third distinct claim is dropped");
    }

    #[test]
    fn proposal_equivocation_discards() {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let view = View::new(1);
        let a = g.extend_empty(&store, v(1), view);
        let b = g.extend_empty(&store, v(2), view);
        let (vrf, proof) = vrf_for(v(1), view);
        let mut ops = CryptoOps::default();
        let mut tr = ProposalTracker::new(view);
        tr.record(v(1), a, vrf, proof);
        tr.record(v(1), b, vrf, proof);
        assert!(tr.is_equivocator(v(1), &mut ops));
        assert_eq!(tr.best_extending(&g, &store, &mut ops), None);
        // Both copies are relayed as evidence, never as a best pick.
        let pending = [proposal(v(1), view, a, vrf, proof), proposal(v(1), view, b, vrf, proof)];
        let mut best_relayed = None;
        assert_eq!(tr.relays(&pending, &mut best_relayed, &mut ops), pending.to_vec());
        assert_eq!((best_relayed, ops.vrf_verifies), (None, 1), "one pair, one check");
        // A duplicate of the same proposal is not equivocation.
        let mut tr = ProposalTracker::new(view);
        assert!(tr.record(v(1), a, vrf, proof));
        assert!(!tr.record(v(1), a, vrf, proof), "already held");
        assert!(!tr.is_equivocator(v(1), &mut ops));
        assert_eq!(tr.best_extending(&g, &store, &mut ops), Some((v(1), a)));
    }
}
