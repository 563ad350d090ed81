//! Memory pin for the receive path: a delivered message is one
//! allocation for the whole simulation, and a validator that keeps a
//! proposal keeps the engine's handle to it, not a copy of its own.
//!
//! Every honest validator holds every proposal of a view until its vote
//! (the vote inputs the highest-VRF non-equivocating one, Figure 4), so
//! a committee of n holds n² proposal records per live view. What one
//! record costs is what this file pins: the gossip dedup slot, the
//! tracker seat (a handle and a verdict) and the relay buffer's
//! reference, with each validator's per-view state spread over its
//! senders. A copy of the message per record would not fit.
//!
//! A counting global allocator wraps `System` and keeps the net live
//! heap bytes of the process. This file holds one test, so no other
//! test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::Arc;

use tob_svd::crypto::KeyCache;
use tob_svd::protocol::leader::vrf_for;
use tob_svd::protocol::{TobConfig, Validator};
use tob_svd::sim::{Context, Mempool, Node};
use tob_svd::types::{BlockStore, Delivered, Delta, Log, Payload, SignedMessage, Time, ValidatorId, View};

/// Net heap bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// Site-level exemption from the workspace's `unsafe_code` deny:
// installing a global allocator takes an `unsafe impl GlobalAlloc`.
// SAFETY: each method forwards to `System` with the caller's arguments
// unchanged and only moves an atomic counter besides, so it upholds
// exactly the contract `System` does.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const N: usize = 64;

/// Heap bytes one (validator, proposal) record may grow by, averaged
/// over the 64 × 64. Measured at 127 when the seat holds the handle and
/// the window boxes its per-view state: about 114 at the margin (the
/// 33-byte gossip slot, the 32-byte seat, the 16-byte relay reference,
/// each in a doubling `Vec`) plus about 0.8 KiB of per-view state per
/// validator (a map leaf of eleven 8-byte keys and eleven box pointers,
/// ≈ 0.2 KiB, and the 640-byte `ViewState` box). The box is 712 bytes
/// since the GA keeps one snapshot slot per grade (`Ga<K>`), and the
/// record measures 128. With the state inline the leaf alone is
/// ≈ 7.1 KiB, and the record measured 225; a seat that copies the
/// proposal's fields (152 bytes) measured 345. The bound lies between
/// 128 and 225. The handle's signature memo costs
/// its bytes once per message, made before the measurement, not per
/// record.
const BOUND_PER_RECORD: isize = 170;

/// 64 validators on one store each receive the same 64 signed proposals
/// for view 0, in range at t = 1, through [`Node::on_delivery`]: the
/// heap grows by at most [`BOUND_PER_RECORD`] per (validator, proposal).
#[test]
fn a_kept_proposal_costs_a_handle_not_a_copy() {
    let store = BlockStore::new();
    let genesis = Log::genesis(&store);
    let view = View::ZERO;
    let proposals: Vec<Arc<Delivered>> = ValidatorId::all(N)
        .map(|v| {
            let (vrf, proof) = vrf_for(v, view);
            let log = genesis.extend_empty(&store, v, view);
            let payload = Payload::Proposal { view, log, vrf, proof };
            SignedMessage::sign(&KeyCache::keypair(v.key_seed()), v, payload).into()
        })
        .collect();
    let mut validators: Vec<(Validator, Context)> = ValidatorId::all(N)
        .map(|v| {
            let ctx = Context::new(Time::new(1), v, Delta::default(), store.clone(), Mempool::new());
            (Validator::new(v, TobConfig::new(N), &store), ctx)
        })
        .collect();

    let before = LIVE.load(Relaxed);
    for (validator, ctx) in &mut validators {
        for msg in &proposals {
            validator.on_delivery(msg, ctx);
        }
    }
    let grown = LIVE.load(Relaxed) - before;

    for (validator, ctx) in &validators {
        assert!(ctx.outbox().is_empty(), "proposal relays wait for the boundary");
        assert_eq!(validator.unique_messages_seen(), N, "every proposal was taken in");
    }
    let records = (N * N) as isize;
    let per_record = grown / records;
    println!("{records} kept proposals: {grown} heap bytes, {per_record} per record (bound {BOUND_PER_RECORD})");
    assert!(per_record <= BOUND_PER_RECORD, "{per_record} bytes per kept proposal, bound {BOUND_PER_RECORD}");
}
