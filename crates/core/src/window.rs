//! The per-view window: everything a validator keeps about one view, in
//! one map with one retention step ([`retire`]). An entry is made on
//! first use and lives while its view is in [`View::live_range`] of the
//! last Propose boundary. Gossip's dedup tables stay outside it.

use std::collections::BTreeMap;
use std::sync::Arc;

use tobsvd_ga::Ga3;
use tobsvd_types::{Delivered, Payload, View};

use crate::aggregation::{ProposalRelay, VoteGroup};
use crate::leader::ProposalTracker;
use crate::CryptoOps;

/// A validator's per-view state, by view, boxed: only 2–3 views are live,
/// so the map's first leaf holds pointers, not eleven 640-byte states.
pub(crate) type Window = BTreeMap<View, Box<ViewState>>;

/// What a validator keeps about one view.
#[derive(Default)]
pub(crate) struct ViewState {
    /// `GA_v`, once voted in or fed an in-window `LOG` or certificate.
    pub(crate) ga: Option<Ga3>,
    /// `GA_v`'s grade-2 output is not decided. Two causes set it: a
    /// phase boundary executed late
    /// ([`crate::Validator::note_late_boundary`]), and a wake with §2
    /// recovery on while `GA_v` is held from before the sleep
    /// (`Validator::on_wake`).
    pub(crate) late: bool,
    /// The proposal side, once an in-window proposal arrived.
    pub(crate) proposals: Option<ProposalSide>,
    /// The aggregation plane's vote groups, in arrival order (empty in
    /// per-vote mode).
    pub(crate) groups: Vec<VoteGroup>,
    /// The §2 recovery archive's votes: every `LOG` taken in, in
    /// arrival order, each allocated once (empty without
    /// `cfg.recovery`). A serve hands out clones of the handles.
    pub(crate) archive: Vec<Arc<Delivered>>,
}

/// A view's proposal tracking, the aggregation plane's relay buffer of
/// references into it and the §2 archive of its proposals, which the
/// tracker vets: one lifetime, so no reference outlives its claim.
pub(crate) struct ProposalSide {
    pub(crate) tracker: ProposalTracker,
    pub(crate) relay: ProposalRelay,
    /// The proposals taken in, in arrival order (empty without
    /// `cfg.recovery`). The first `vetted` have had their VRFs checked,
    /// forged ones removed.
    pub(crate) archive: Vec<Arc<Delivered>>,
    vetted: usize,
}

impl ProposalSide {
    pub(crate) fn new(view: View) -> Self {
        ProposalSide {
            tracker: ProposalTracker::new(view),
            relay: ProposalRelay::default(),
            archive: Vec::new(),
            vetted: 0,
        }
    }

    /// The archived proposals with a valid VRF, in arrival order. Those
    /// archived since the last call are vetted first through the
    /// tracker's verdicts (checked at most once per claim) and the
    /// forged ones dropped, so a forged VRF is never served.
    pub(crate) fn vetted(&mut self, ops: &mut CryptoOps) -> &[Arc<Delivered>] {
        if self.vetted < self.archive.len() {
            let fresh = self.archive.split_off(self.vetted);
            let tracker = &mut self.tracker;
            self.archive.extend(fresh.into_iter().filter(|msg| match msg.payload() {
                Payload::Proposal { log, vrf, proof, .. } => tracker.verify(msg.sender(), log, vrf, proof, ops),
                _ => false,
            }));
            self.vetted = self.archive.len();
        }
        &self.archive
    }
}

/// The retention step, run at the Propose boundary of view `v`: views
/// behind [`View::live_range`] leave whole, and a proposal side, with
/// its archive, leaves once behind [`View::proposal_range`].
pub(crate) fn retire(window: &mut Window, v: View) {
    let (live, proposals) = (v.live_range(), v.proposal_range());
    window.retain(|w, state| {
        if w < proposals.start() {
            state.proposals = None;
        }
        w >= live.start()
    });
}
