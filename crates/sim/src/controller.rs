//! Live adversary controller.
//!
//! The sleepy-model adversary is *fully adaptive* for sleep/wake and
//! *mildly adaptive* for corruption (paper §3.1). Pre-computed schedules
//! cover most experiments, but reactive strategies — corrupt whoever
//! broadcast the highest VRF value this view (the Lemma 2 scenario) —
//! need to observe the execution. An [`AdversaryController`] is called at
//! the end of every tick with the messages sent during that tick and may
//! issue [`AdversaryCommand`]s. The engine enforces the model's rules:
//! corruptions take effect Δ later and the Byzantine set stays monotone;
//! sleep changes apply from the next tick and never affect Byzantine
//! validators (which are always awake).

use std::sync::Arc;

use tobsvd_types::{SignedMessage, Time, ValidatorId};

/// What the adversary saw happen during one tick.
#[derive(Debug)]
pub struct TickView<'a> {
    /// The tick that just completed.
    pub time: Time,
    /// Messages sent (originals and forwards) during this tick, in send
    /// order. The network adversary observes all traffic. Entries are
    /// the engine's shared per-broadcast handles — the same allocation
    /// every delivery event of that broadcast points at.
    pub sent: &'a [Arc<SignedMessage>],
}

/// Commands an adversary controller may issue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdversaryCommand {
    /// Schedule corruption of a validator; effective at `now + Δ`.
    Corrupt(ValidatorId),
    /// Put an honest validator to sleep starting next tick.
    Sleep(ValidatorId),
    /// Wake an honest validator starting next tick.
    Wake(ValidatorId),
}

/// A reactive adversary observing the execution tick by tick.
pub trait AdversaryController: Send {
    /// Called after all events of a tick have been processed.
    ///
    /// Under the event-driven engine this runs at every *executed* tick —
    /// every tick that had a scheduled event or delivery, fell on a
    /// phase boundary, or was requested via
    /// [`AdversaryController::next_wakeup`]. Ticks where
    /// nothing happens (so `view.sent` would be empty) may be skipped
    /// entirely unless `next_wakeup` claims them.
    fn on_tick(&mut self, view: &TickView<'_>) -> Vec<AdversaryCommand>;

    /// The earliest tick `>= from` at which this controller needs
    /// [`AdversaryController::on_tick`] called even if no event or phase
    /// fires there, or `None` if it only cares about ticks with traffic.
    ///
    /// The default — `Some(from)`, i.e. "wake me every tick" — preserves
    /// the reference tick-loop semantics for controllers that predate the
    /// event-driven engine. Controllers that are purely traffic-driven
    /// (they return no commands when `view.sent` is empty) should return
    /// `None` so quiet stretches of the execution can be skipped in one
    /// jump; time-triggered controllers should return their next
    /// scheduled action time. The engine may call this repeatedly with
    /// non-decreasing `from`, so implementations must be side-effect-free
    /// apart from cheap internal bookkeeping.
    fn next_wakeup(&mut self, from: Time) -> Option<Time> {
        Some(from)
    }
}

/// A controller that never does anything.
///
/// It observes nothing and asks for no wakeups, so under the
/// event-driven engine it costs O(1) instead of O(horizon).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullController;

impl AdversaryController for NullController {
    fn on_tick(&mut self, _view: &TickView<'_>) -> Vec<AdversaryCommand> {
        Vec::new()
    }

    fn next_wakeup(&mut self, _from: Time) -> Option<Time> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_controller_is_inert() {
        let mut c = NullController;
        let view = TickView { time: Time::ZERO, sent: &[] };
        assert!(c.on_tick(&view).is_empty());
        assert_eq!(c.next_wakeup(Time::new(17)), None);
    }

    #[test]
    fn default_next_wakeup_is_every_tick() {
        struct Legacy;
        impl AdversaryController for Legacy {
            fn on_tick(&mut self, _view: &TickView<'_>) -> Vec<AdversaryCommand> {
                Vec::new()
            }
        }
        assert_eq!(Legacy.next_wakeup(Time::new(5)), Some(Time::new(5)));
    }
}
