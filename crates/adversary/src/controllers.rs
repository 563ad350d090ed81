//! Reactive adversary controllers.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use tobsvd_core::leader::verify_vrf;
use tobsvd_sim::{AdversaryCommand, AdversaryController, TickView};
use tobsvd_types::{Delta, Payload, Time, ValidatorId, View};

/// The Lemma 2 adversary: watches proposal traffic, and the instant a
/// view's highest-VRF proposer reveals itself, schedules its corruption.
///
/// Because the adversary is only *mildly* adaptive, the corruption lands
/// Δ later — after the proposal has reached every honest validator — so
/// the view still succeeds. The experiment shows (a) the good-leader
/// fraction stays above ½ despite the adversary burning its entire
/// budget on leaders, and (b) with the Δ delay removed the same strategy
/// would break the common-vote argument (see the leader-election test).
pub struct AdaptiveLeaderCorruptor {
    delta: Delta,
    budget: usize,
    corrupted: BTreeSet<ValidatorId>,
    handled_views: BTreeSet<View>,
}

impl AdaptiveLeaderCorruptor {
    /// Creates the controller with a corruption budget (keep it below
    /// the Condition-(1) bound for the run's n).
    pub fn new(delta: Delta, budget: usize) -> Self {
        AdaptiveLeaderCorruptor {
            delta,
            budget,
            corrupted: BTreeSet::new(),
            handled_views: BTreeSet::new(),
        }
    }

    /// Validators corrupted so far.
    pub fn corrupted(&self) -> &BTreeSet<ValidatorId> {
        &self.corrupted
    }
}

impl AdversaryController for AdaptiveLeaderCorruptor {
    fn on_tick(&mut self, view: &TickView<'_>) -> Vec<AdversaryCommand> {
        if self.corrupted.len() >= self.budget {
            return Vec::new();
        }
        // Proposals are broadcast at view starts and observed by the
        // network adversary the same tick. Only unhandled views count,
        // and only the highest valid claim: walk claims in descending
        // claimed VRF (a stable sort, so equal claims keep their order
        // and the first valid maximum wins) and verify until one passes.
        let mut claims: Vec<_> = view
            .sent
            .iter()
            .filter_map(|msg| match msg.payload() {
                Payload::Proposal { view: v, vrf, proof, .. } if !self.handled_views.contains(v) => {
                    Some((*v, msg.sender(), vrf, proof))
                }
                _ => None,
            })
            .collect();
        claims.sort_by_key(|(_, _, vrf, _)| Reverse(**vrf));
        let best = claims.into_iter().find(|(v, sender, vrf, proof)| verify_vrf(*sender, *v, vrf, proof));
        let _ = self.delta;
        if let Some((v, winner, ..)) = best {
            self.handled_views.insert(v);
            if self.corrupted.insert(winner) {
                return vec![AdversaryCommand::Corrupt(winner)];
            }
        }
        Vec::new()
    }

    /// Purely traffic-driven: quiet ticks carry no proposals, so the
    /// event-driven engine may skip them without consulting us.
    fn next_wakeup(&mut self, _from: Time) -> Option<Time> {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use tobsvd_core::leader::vrf_for;
    use tobsvd_crypto::Keypair;
    use tobsvd_types::{BlockStore, Delivered, Log, SignedMessage, Time};

    fn proposal(sender: ValidatorId, view: View) -> Arc<Delivered> {
        let store = BlockStore::new();
        let kp = Keypair::from_seed(sender.key_seed());
        let (vrf, proof) = vrf_for(sender, view);
        SignedMessage::sign(&kp, sender, Payload::Proposal { view, log: Log::genesis(&store), vrf, proof }).into()
    }

    #[test]
    fn corrupts_the_highest_vrf_proposer_once() {
        let mut ctl = AdaptiveLeaderCorruptor::new(Delta::new(8), 2);
        let view = View::new(1);
        let msgs = vec![
            proposal(ValidatorId::new(0), view),
            proposal(ValidatorId::new(1), view),
            proposal(ValidatorId::new(2), view),
        ];
        let winner = (0..3)
            .map(ValidatorId::new)
            .max_by_key(|v| vrf_for(*v, view).0)
            .unwrap();
        let cmds = ctl.on_tick(&TickView { time: Time::new(32), sent: &msgs });
        assert_eq!(cmds, vec![AdversaryCommand::Corrupt(winner)]);
        // Same view again: nothing more (view handled).
        let cmds = ctl.on_tick(&TickView { time: Time::new(33), sent: &msgs });
        assert!(cmds.is_empty());
    }

    #[test]
    fn respects_budget() {
        let mut ctl = AdaptiveLeaderCorruptor::new(Delta::new(8), 1);
        let m1 = vec![proposal(ValidatorId::new(0), View::new(1))];
        let m2 = vec![proposal(ValidatorId::new(1), View::new(2))];
        assert_eq!(ctl.on_tick(&TickView { time: Time::new(32), sent: &m1 }).len(), 1);
        assert!(ctl.on_tick(&TickView { time: Time::new(64), sent: &m2 }).is_empty());
        assert_eq!(ctl.corrupted().len(), 1);
    }

    #[test]
    fn ignores_forged_vrf() {
        let mut ctl = AdaptiveLeaderCorruptor::new(Delta::new(8), 5);
        let store = BlockStore::new();
        let sender = ValidatorId::new(0);
        let kp = Keypair::from_seed(sender.key_seed());
        // Claim v9's VRF: verification fails, no corruption issued.
        let (vrf, proof) = vrf_for(ValidatorId::new(9), View::new(1));
        let forged = SignedMessage::sign(
            &kp,
            sender,
            Payload::Proposal { view: View::new(1), log: Log::genesis(&store), vrf, proof },
        );
        let cmds = ctl.on_tick(&TickView { time: Time::new(32), sent: &[forged.into()] });
        assert!(cmds.is_empty());
    }

    #[test]
    fn forged_top_claim_is_skipped_for_the_genuine_runner_up() {
        let mut ctl = AdaptiveLeaderCorruptor::new(Delta::new(8), 5);
        let store = BlockStore::new();
        let view = View::new(1);
        let genuine: Vec<_> = (0..3).map(|i| proposal(ValidatorId::new(i), view)).collect();
        let winner = (0..3).map(ValidatorId::new).max_by_key(|v| vrf_for(*v, view).0).unwrap();
        // v7 claims an output above every genuine one with a proof that
        // cannot verify, and arrives first.
        let sender = ValidatorId::new(7);
        let (vrf, proof) = (
            tobsvd_crypto::VrfOutput(tobsvd_crypto::Digest::from_bytes([0xff; 32])),
            tobsvd_crypto::VrfProof(tobsvd_crypto::Digest::from_bytes([0xab; 32])),
        );
        let forged = SignedMessage::sign(
            &Keypair::from_seed(sender.key_seed()),
            sender,
            Payload::Proposal { view, log: Log::genesis(&store), vrf, proof },
        );
        let msgs: Vec<_> = std::iter::once(forged.into()).chain(genuine).collect();
        let cmds = ctl.on_tick(&TickView { time: Time::new(32), sent: &msgs });
        assert_eq!(cmds, vec![AdversaryCommand::Corrupt(winner)]);
    }
}
