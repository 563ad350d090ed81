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
//!
//! [`ProposalTracker`] keeps every proposal of a view until the vote, as
//! the vote input must be the highest-VRF non-equivocating one. Each of
//! its claims is the delivered message's handle (`Arc<SignedMessage>`)
//! plus a VRF verdict: a committee of n holds n² claims per live view,
//! and they share the view's n messages instead of copying one each. A
//! relay or a recovery serve hands out the recorded handle, so what is
//! sent is the received message itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tobsvd_crypto::{KeyCache, Vrf, VrfOutput, VrfProof};
use tobsvd_types::{BlockStore, Log, Payload, SignedMessage, SignerSet, ValidatorId, View};

use crate::CryptoOps;

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

/// One proposal as received: the handle it was delivered under, shared
/// with every other holder of the message, and what is known of its VRF.
/// The log and the VRF pair it *claims* are read from the message, and a
/// relay or a recovery serve hands out the handle itself.
#[derive(Clone, Debug)]
struct Claim {
    msg: Arc<SignedMessage>,
    verdict: Verdict,
}

impl Claim {
    /// The claimed `(log, vrf, proof)`.
    // `ProposalTracker::record` keeps proposals only, so the other arm
    // cannot be reached.
    #[allow(clippy::unreachable)]
    fn parts(&self) -> (&Log, &VrfOutput, &VrfProof) {
        match self.msg.payload() {
            Payload::Proposal { log, vrf, proof, .. } => (log, vrf, proof),
            _ => unreachable!("a claim is recorded from a proposal"),
        }
    }

    fn is(&self, log: &Log, vrf: &VrfOutput, proof: &VrfProof) -> bool {
        self.parts() == (log, vrf, proof)
    }

    fn log(&self) -> &Log {
        self.parts().0
    }

    fn pair(&self) -> (&VrfOutput, &VrfProof) {
        let (_, vrf, proof) = self.parts();
        (vrf, proof)
    }
}

/// A sender's claims for one view. The gossip cap lets at most two
/// distinct proposals per `(sender, view)` reach the tracker.
#[derive(Clone, Debug)]
struct Claims {
    first: Claim,
    second: Option<Claim>,
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
            _ => self.second.as_ref(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Claim)> {
        std::iter::once(&self.first).chain(self.second.as_ref()).enumerate()
    }

    /// The VRF verdict of the claim in `slot`: one [`verify_vrf`] the
    /// first time its pair is asked about, the memoized verdict after
    /// that. A check never looks at the log, so a sibling claiming the
    /// same pair takes the same verdict: an equivocation burst costs one
    /// check, as a memo keyed by the pair would.
    fn check(&mut self, slot: usize, sender: ValidatorId, view: View, ops: &mut CryptoOps) -> bool {
        let Some(claim) = self.get(slot) else {
            return false;
        };
        if claim.verdict != Verdict::Unchecked {
            ops.vrf_verify_skips += 1;
            return claim.verdict == Verdict::Valid;
        }
        let (&vrf, &proof) = claim.pair();
        ops.vrf_verifies += 1;
        let verdict = if verify_vrf(sender, view, &vrf, &proof) { Verdict::Valid } else { Verdict::Forged };
        let same_pair = |c: &&mut Claim| c.pair() == (&vrf, &proof);
        for c in std::iter::once(&mut self.first).chain(self.second.as_mut()).filter(same_pair) {
            c.verdict = verdict;
        }
        verdict == Verdict::Valid
    }

    /// Two distinct VRF-valid logs. Checks only a sender that sent two
    /// different logs.
    fn equivocate(&mut self, sender: ValidatorId, view: View, ops: &mut CryptoOps) -> bool {
        self.second.as_ref().is_some_and(|second| second.log() != self.first.log())
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
///
/// Claims sit in a seat table indexed by validator, like
/// `tobsvd_ga::LogTracker`'s, and with its precondition: a sender is
/// below [`SignerSet::CAPACITY`] (the gossip gate admits committee
/// members only). A claim is addressed by `(sender, slot)` (slot 0 or 1,
/// in arrival order), which is all the relay buffer keeps.
#[derive(Clone, Debug)]
pub struct ProposalTracker {
    view: View,
    /// `seats[i]`: validator `i`'s claims; grows to the highest index
    /// heard from.
    seats: Vec<Option<Claims>>,
}

impl ProposalTracker {
    /// Creates an empty tracker for `view` (the view the VRFs are
    /// verified against).
    pub fn new(view: View) -> Self {
        ProposalTracker { view, seats: Vec::new() }
    }

    fn held_mut(&mut self, v: ValidatorId) -> Option<&mut Claims> {
        self.seats.get_mut(v.index())?.as_mut()
    }

    /// Records `msg`, a proposal for this tracker's view, as an
    /// unverified claim that keeps a clone of its handle. Returns the
    /// claim's slot if it is new: a claim already held, a third distinct
    /// one from the sender (the gossip cap lets neither through), or a
    /// message that is not a proposal for this view is not recorded.
    pub fn record(&mut self, msg: &Arc<SignedMessage>) -> Option<usize> {
        let Payload::Proposal { view, log, vrf, proof } = msg.payload() else { return None };
        if *view != self.view {
            return None;
        }
        let claim = |verdict| Claim { msg: Arc::clone(msg), verdict };
        let i = msg.sender().index();
        debug_assert!(i < SignerSet::CAPACITY, "{} is outside every committee", msg.sender());
        if self.seats.len() <= i {
            self.seats.resize_with(i + 1, || None);
        }
        let held = match self.seats.get_mut(i)? {
            Some(held) => held,
            vacant @ None => {
                *vacant = Some(Claims { first: claim(Verdict::Unchecked), second: None });
                return Some(0);
            }
        };
        if held.second.is_some() || held.slot(log, vrf, proof).is_some() {
            return None;
        }
        // Same pair as the first claim: same verdict (see `check`).
        let verdict = if held.first.pair() == (vrf, proof) { held.first.verdict } else { Verdict::Unchecked };
        held.second = Some(claim(verdict));
        Some(1)
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
        let Some(held) = self.held_mut(sender) else {
            return false;
        };
        held.slot(log, vrf, proof).is_some_and(|slot| held.check(slot, sender, view, ops))
    }

    /// Whether `v` is a proposal equivocator for this view: two distinct
    /// VRF-valid logs.
    pub fn is_equivocator(&mut self, v: ValidatorId, ops: &mut CryptoOps) -> bool {
        let view = self.view;
        self.held_mut(v).is_some_and(|held| held.equivocate(v, view, ops))
    }

    /// The valid proposal with the highest VRF value whose log extends
    /// `lock`, among non-equivocating proposers. Claims are tried
    /// top-first out of a heap (no full sort), and both the `extends`
    /// walk and the VRF check are paid only for a claim that is tried:
    /// the usual cost is the top claim's one walk and one check.
    pub fn best_extending(
        &mut self,
        lock: &Log,
        store: &BlockStore,
        ops: &mut CryptoOps,
    ) -> Option<(ValidatorId, Log)> {
        let seats = self.seats.iter().enumerate();
        let mut ranked: BinaryHeap<(Priority, Reverse<usize>)> = seats
            .filter_map(|(i, seat)| Some((ValidatorId::new(i as u32), seat.as_ref()?)))
            .flat_map(|(v, held)| held.iter().map(move |(slot, c)| (v, slot, c)))
            .filter(|(_, _, c)| c.verdict != Verdict::Forged)
            .map(|(v, slot, c)| ((*c.pair().0, Reverse(v)), Reverse(slot)))
            .collect();
        let view = self.view;
        while let Some(((_, Reverse(v)), Reverse(slot))) = ranked.pop() {
            let Some(held) = self.held_mut(v) else { continue };
            // Off the lock: skipped before its VRF is checked, exactly
            // as a claim the eager `extends` filter dropped.
            if !held.get(slot).is_some_and(|claim| claim.log().extends(lock, store)) {
                continue;
            }
            if held.check(slot, v, view, ops) && !held.equivocate(v, view, ops) {
                return held.get(slot).map(|claim| (v, *claim.log()));
            }
        }
        None
    }

    /// The proposal relays of a boundary flush over `pending` (the
    /// view's claims recorded since the last flush, as `(sender, slot)`
    /// in arrival order), in forwarding order: every pending claim from
    /// an equivocator (the evidence peers need to discard it too), then
    /// the highest-priority valid pending claim from a non-equivocator
    /// if it outranks `best_relayed`, which it then becomes. Candidates
    /// at or below `best_relayed` are never checked, and the rest are
    /// tried top-first. A relay is the handle its claim recorded; a
    /// reference to no claim is never relayed.
    pub fn relays(
        &mut self,
        pending: &[(ValidatorId, usize)],
        best_relayed: &mut Option<Priority>,
        ops: &mut CryptoOps,
    ) -> Vec<Arc<SignedMessage>> {
        let view = self.view;
        let mut out = Vec::new();
        let mut ranked: BinaryHeap<(Priority, Reverse<usize>, usize)> = BinaryHeap::new();
        for (i, &(sender, slot)) in pending.iter().enumerate() {
            let Some(held) = self.held_mut(sender) else { continue };
            let Some(vrf) = held.get(slot).map(|claim| *claim.pair().0) else { continue };
            if held.equivocate(sender, view, ops) {
                // Both of an equivocator's claims are valid.
                out.extend(held.get(slot).map(|claim| Arc::clone(&claim.msg)));
                continue;
            }
            let prio = (vrf, Reverse(sender));
            if best_relayed.map_or(true, |best| prio > best) {
                ranked.push((prio, Reverse(i), slot));
            }
        }
        while let Some((prio, _, slot)) = ranked.pop() {
            let sender = prio.1 .0;
            let Some(held) = self.held_mut(sender) else { continue };
            if held.check(slot, sender, view, ops) {
                out.extend(held.get(slot).map(|claim| Arc::clone(&claim.msg)));
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

    /// Records a signed proposal of `log` for the tracker's view.
    fn record(tr: &mut ProposalTracker, sender: ValidatorId, log: Log, vrf: VrfOutput, proof: VrfProof) -> Option<usize> {
        tr.record(&Arc::new(proposal(sender, tr.view, log, vrf, proof)))
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
            assert_eq!(record(&mut tr, v(i), log, vrf, proof), Some(0));
            genuine.push((vrf, v(i), log));
        }
        // Off the lock and claiming the top priority: never checked.
        let (vrf, proof) = forged_top();
        record(&mut tr, v(9), g.extend_empty(&store, v(9), view), vrf, proof);
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
        let mut received = Vec::new();
        let (vrf, proof) = forged_top();
        let forged = Arc::new(proposal(v(7), view, g.extend_empty(&store, v(7), view), vrf, proof));
        for i in 1..4 {
            let (vrf, proof) = vrf_for(v(i), view);
            received.push(Arc::new(proposal(v(i), view, g.extend_empty(&store, v(i), view), vrf, proof)));
        }
        received.insert(1, forged);
        let pending: Vec<_> = received.iter().map(|m| (m.sender(), tr.record(m).unwrap())).collect();
        let best = received
            .iter()
            .filter(|m| m.sender() != v(7))
            .max_by_key(|m| vrf_for(m.sender(), view).0)
            .cloned()
            .unwrap();
        let mut ops = CryptoOps::default();
        let mut best_relayed = None;
        let relays = tr.relays(&pending, &mut best_relayed, &mut ops);
        assert_eq!(relays, vec![best.clone()], "the forged claim is never relayed");
        assert!(Arc::ptr_eq(&relays[0], &best), "the winner is the received handle");
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
        assert_eq!(record(&mut tr, v(1), a, vrf, proof), Some(0));
        assert_eq!(record(&mut tr, v(1), b, vrf, garbage), Some(1), "a second distinct claim is held");
        let mut ops = CryptoOps::default();
        assert!(!tr.is_equivocator(v(1), &mut ops));
        assert_eq!(ops.vrf_verifies, 2, "both logs are checked once");
        assert_eq!(tr.best_extending(&g, &store, &mut ops), Some((v(1), a)));
        assert_eq!(ops.vrf_verifies, 2);
        assert!(!tr.verify(v(1), &b, &vrf, &garbage, &mut ops), "the forged copy stays forged");
        assert_eq!(record(&mut tr, v(1), g, vrf, proof), None, "a third distinct claim is dropped");
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
        let received = [proposal(v(1), view, a, vrf, proof), proposal(v(1), view, b, vrf, proof)].map(Arc::new);
        let pending: Vec<_> = received.iter().map(|m| (m.sender(), tr.record(m).unwrap())).collect();
        assert!(tr.is_equivocator(v(1), &mut ops));
        assert_eq!(tr.best_extending(&g, &store, &mut ops), None);
        // Both copies are relayed as evidence, never as a best pick.
        let mut best_relayed = None;
        assert_eq!(tr.relays(&pending, &mut best_relayed, &mut ops), received.to_vec());
        assert_eq!((best_relayed, ops.vrf_verifies), (None, 1), "one pair, one check");
        // A duplicate of the same proposal is not equivocation.
        let mut tr = ProposalTracker::new(view);
        assert_eq!(tr.record(&received[0]), Some(0));
        assert_eq!(tr.record(&received[0]), None, "already held");
        assert!(!tr.is_equivocator(v(1), &mut ops));
        assert_eq!(tr.best_extending(&g, &store, &mut ops), Some((v(1), a)));
    }

    #[test]
    fn a_proposal_for_another_view_is_not_recorded() {
        let store = BlockStore::new();
        let log = Log::genesis(&store).extend_empty(&store, v(1), View::new(4));
        let (vrf, proof) = vrf_for(v(1), View::new(4));
        let mut tr = ProposalTracker::new(View::new(5));
        assert_eq!(tr.record(&Arc::new(proposal(v(1), View::new(4), log, vrf, proof))), None);
        let kp = tobsvd_crypto::Keypair::from_seed(v(1).key_seed());
        let vote = SignedMessage::sign(&kp, v(1), Payload::Log { instance: tobsvd_types::InstanceId(5), log });
        assert_eq!(tr.record(&Arc::new(vote)), None);
        assert!(tr.seats.is_empty());
    }

    /// The retained bytes per sender: a claim is a handle and a verdict,
    /// and a seat holds two claims inline.
    #[test]
    fn a_seat_is_two_handles_wide() {
        assert!(std::mem::size_of::<Option<Claims>>() <= 2 * std::mem::size_of::<(Arc<SignedMessage>, usize)>());
    }
}
