//! Spans recorded from outside the library: a [`Node`] wrapper that
//! times the three protocol callbacks of the validator it wraps.
//!
//! Spans are aggregated in memory per (callback, validator, view) —
//! count, total nanoseconds and a log₂ duration histogram — and merged
//! into a shared [`TraceSink`] when the wrapper is dropped (end of run,
//! or the engine discarding a crashed process). The parent span is the
//! bench's own timer around `Simulation::run_until`; engine self time is
//! that parent minus every callback span. The wrapper also keeps the
//! original broadcasts it sees leave the validator: unique by
//! construction, they are the inputs of the layer probes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tob_svd::sim::{Context, Node, Outgoing, StateFault};
use tob_svd::types::{SignedMessage, ValidatorId};

pub const SPAN_NAMES: [&str; 3] = ["core.on_message", "core.on_phase", "core.on_wake"];
pub const ON_MESSAGE: usize = 0;
pub const ON_PHASE: usize = 1;
pub const ON_WAKE: usize = 2;

/// Durations land in bucket `⌊log₂ ns⌋`; 2⁴⁰ ns ≈ 18 min is plenty.
pub const HIST_BUCKETS: usize = 40;

/// Most captured broadcasts kept per validator: enough for every probe,
/// small enough that n = 256 validators stay within a few MiB.
const CAPTURE_CAP: usize = 64;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram(pub [u64; HIST_BUCKETS]);

impl Default for Histogram {
    fn default() -> Self {
        Histogram([0; HIST_BUCKETS])
    }
}

impl Histogram {
    fn record(&mut self, ns: u64) {
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.0[bucket] += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// One validator incarnation's spans: `views[view][callback]`.
struct NodeTrace {
    validator: ValidatorId,
    views: Vec<[SpanAgg; 3]>,
    hist: [Histogram; 3],
    captured: Vec<SignedMessage>,
}

/// Everything the traced run recorded, merged across validators.
#[derive(Default)]
pub struct TraceSink {
    /// `(callback, validator, view, aggregate)`, non-empty cells only.
    pub cells: Vec<(usize, u32, u64, SpanAgg)>,
    pub hist: [Histogram; 3],
    pub captured: Vec<SignedMessage>,
}

impl TraceSink {
    pub fn total(&self, callback: usize) -> SpanAgg {
        let mut sum = SpanAgg::default();
        for (cb, _, _, agg) in &self.cells {
            if *cb == callback {
                sum.count += agg.count;
                sum.total_ns += agg.total_ns;
            }
        }
        sum
    }

    pub fn children_ns(&self) -> u64 {
        self.cells.iter().map(|(_, _, _, agg)| agg.total_ns).sum()
    }
}

/// Self time of a parent span given the total its children cover.
/// Saturating: clock granularity can push a child sum a hair over.
pub fn self_time_ns(parent_ns: u64, children_ns: u64) -> u64 {
    parent_ns.saturating_sub(children_ns)
}

pub type SharedSink = Arc<Mutex<TraceSink>>;

pub struct TracedNode {
    inner: Box<dyn Node>,
    view_ticks: u64,
    trace: NodeTrace,
    sink: SharedSink,
}

impl TracedNode {
    pub fn wrap(
        inner: Box<dyn Node>,
        validator: ValidatorId,
        view_ticks: u64,
        sink: &SharedSink,
    ) -> Box<dyn Node> {
        Box::new(TracedNode {
            inner,
            view_ticks: view_ticks.max(1),
            trace: NodeTrace {
                validator,
                views: Vec::new(),
                hist: Default::default(),
                captured: Vec::new(),
            },
            sink: Arc::clone(sink),
        })
    }

    fn timed(
        &mut self,
        callback: usize,
        ctx: &mut Context,
        f: impl FnOnce(&mut dyn Node, &mut Context),
    ) {
        let sent_before = ctx.outbox().len();
        let t0 = Instant::now();
        f(self.inner.as_mut(), ctx);
        let ns = t0.elapsed().as_nanos() as u64;

        let view = (ctx.time.ticks() / self.view_ticks) as usize;
        if self.trace.views.len() <= view {
            self.trace.views.resize(view + 1, [SpanAgg::default(); 3]);
        }
        let cell = &mut self.trace.views[view][callback];
        cell.count += 1;
        cell.total_ns += ns;
        self.trace.hist[callback].record(ns);

        if self.trace.captured.len() < CAPTURE_CAP {
            for out in &ctx.outbox()[sent_before..] {
                if let Outgoing::Broadcast(msg) = out {
                    if self.trace.captured.len() < CAPTURE_CAP {
                        self.trace.captured.push(*msg);
                    }
                }
            }
        }
    }
}

impl Node for TracedNode {
    fn on_wake(&mut self, ctx: &mut Context) {
        self.timed(ON_WAKE, ctx, |node, ctx| node.on_wake(ctx));
    }

    fn on_phase(&mut self, ctx: &mut Context) {
        self.timed(ON_PHASE, ctx, |node, ctx| node.on_phase(ctx));
    }

    fn on_message(&mut self, msg: &SignedMessage, ctx: &mut Context) {
        self.timed(ON_MESSAGE, ctx, |node, ctx| node.on_message(msg, ctx));
    }

    fn on_state_fault(&mut self, fault: &StateFault, ctx: &mut Context) {
        self.inner.on_state_fault(fault, ctx);
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    // Forwarded, so harness code still downcasts to the `Validator`.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

impl Drop for TracedNode {
    fn drop(&mut self) {
        // A poisoned sink means the run already failed; never panic here.
        let Ok(mut sink) = self.sink.lock() else {
            return;
        };
        let validator = self.trace.validator.raw();
        for (view, cells) in self.trace.views.iter().enumerate() {
            for (callback, agg) in cells.iter().enumerate() {
                if agg.count > 0 {
                    sink.cells.push((callback, validator, view as u64, *agg));
                }
            }
        }
        for (merged, mine) in sink.hist.iter_mut().zip(&self.trace.hist) {
            merged.merge(mine);
        }
        sink.captured.append(&mut self.trace.captured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children_and_saturates() {
        assert_eq!(self_time_ns(1_000, 760), 240);
        assert_eq!(self_time_ns(1_000, 1_000), 0);
        assert_eq!(self_time_ns(1_000, 1_001), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for ns in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(ns);
        }
        assert_eq!(h.0[0], 2, "0 and 1 ns");
        assert_eq!(h.0[1], 2, "2 and 3 ns");
        assert_eq!(h.0[2], 1);
        assert_eq!(h.0[9], 1, "1023 ns");
        assert_eq!(h.0[10], 1, "1024 ns");
        assert_eq!(
            h.0[HIST_BUCKETS - 1],
            1,
            "overflow clamps into the last bucket"
        );
    }

    #[test]
    fn sink_totals_sum_cells_per_callback() {
        let sink = TraceSink {
            cells: vec![
                (
                    ON_MESSAGE,
                    0,
                    0,
                    SpanAgg {
                        count: 2,
                        total_ns: 100,
                    },
                ),
                (
                    ON_MESSAGE,
                    1,
                    3,
                    SpanAgg {
                        count: 1,
                        total_ns: 50,
                    },
                ),
                (
                    ON_PHASE,
                    0,
                    0,
                    SpanAgg {
                        count: 4,
                        total_ns: 400,
                    },
                ),
            ],
            ..TraceSink::default()
        };
        assert_eq!(
            sink.total(ON_MESSAGE),
            SpanAgg {
                count: 3,
                total_ns: 150
            }
        );
        assert_eq!(sink.total(ON_WAKE), SpanAgg::default());
        assert_eq!(sink.children_ns(), 550);
    }
}
