//! The per-view window: everything a validator keeps about one view, in
//! one map with one retention step ([`retire`]). An entry is made on
//! first use and lives while its view is in [`View::live_range`] of the
//! last Propose boundary. Gossip's dedup tables stay outside it.

use std::collections::BTreeMap;
use std::sync::Arc;

use tobsvd_ga::Ga3;
use tobsvd_types::{SignedMessage, View};

use crate::aggregation::{ProposalRelay, VoteGroup};
use crate::leader::ProposalTracker;

/// A validator's per-view state, by view.
pub(crate) type Window = BTreeMap<View, ViewState>;

/// What a validator keeps about one view.
#[derive(Default)]
pub(crate) struct ViewState {
    /// `GA_v`, once voted in or fed an in-window `LOG` or certificate.
    pub(crate) ga: Option<Ga3>,
    /// Set by [`crate::Validator::note_late_boundary`]: `GA_v`'s grade-2
    /// output is not decided.
    pub(crate) late: bool,
    /// The proposal side, once an in-window proposal arrived.
    pub(crate) proposals: Option<ProposalSide>,
    /// The aggregation plane's vote groups, in arrival order (empty in
    /// per-vote mode).
    pub(crate) groups: Vec<VoteGroup>,
    /// The §2 recovery archive (empty without `cfg.recovery`).
    pub(crate) archive: ArchivedView,
}

/// A view's proposal tracking and the aggregation plane's relay buffer
/// of references into it: one lifetime, so no reference outlives its claim.
pub(crate) struct ProposalSide {
    pub(crate) tracker: ProposalTracker,
    pub(crate) relay: ProposalRelay,
}

impl ProposalSide {
    pub(crate) fn new(view: View) -> Self {
        ProposalSide { tracker: ProposalTracker::new(view), relay: ProposalRelay::default() }
    }
}

/// One view's recovery archive, in arrival order. The first `vetted`
/// messages have had their proposals' VRFs checked, forged ones removed.
/// Each message is allocated once, when archived; a serve hands out
/// clones of the handles.
#[derive(Default)]
pub(crate) struct ArchivedView {
    pub(crate) msgs: Vec<Arc<SignedMessage>>,
    pub(crate) vetted: usize,
}

/// The retention step, run at the Propose boundary of view `v`: views
/// behind [`View::live_range`] leave whole. The proposal side leaves at
/// [`View::proposal_range`] instead, unless `recovery` is on: then the
/// archive's vetting reads the tracker until the archive entry leaves.
pub(crate) fn retire(window: &mut Window, v: View, recovery: bool) {
    let (live, proposals) = (v.live_range(), v.proposal_range());
    window.retain(|w, state| {
        if !recovery && w < proposals.start() {
            state.proposals = None;
        }
        w >= live.start()
    });
}
