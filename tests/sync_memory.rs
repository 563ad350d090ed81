//! Memory pin for a validator's block knowledge (ROADMAP item 17's
//! contract, first instalment): `SyncState` keeps one bit per stored
//! block, not a hashed set of every id it ever learned.
//!
//! A counting global allocator wraps `System` and keeps the net live
//! heap bytes of the process. This file holds one test, so no other
//! test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use tob_svd::protocol::{Resolution, SyncState};
use tob_svd::types::{BlockStore, Log, ValidatorId, View};

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

const CHAIN: u64 = 20_000;
const FORK: u64 = 20_000;

/// Appends `blocks` blocks by `proposer` on top of `from`; returns each
/// log in turn.
fn grow(store: &BlockStore, from: Log, proposer: u32, blocks: u64) -> Vec<Log> {
    let mut log = from;
    (1..=blocks)
        .map(|view| {
            log = log.extend_empty(store, ValidatorId::new(proposer), View::new(view));
            log
        })
        .collect()
}

/// 20 000 chain blocks, learned one announcement at a time through
/// `resolve` (the one-block window), and a 20 000-block fork off
/// genesis, learned through one fetch response: the knowledge set
/// grows by at most one bit per stored block plus 1 KiB.
#[test]
fn knowledge_costs_one_bit_per_stored_block() {
    let store = BlockStore::new();
    let genesis = Log::genesis(&store);
    let chain = grow(&store, genesis, 0, CHAIN);
    let fork = grow(&store, genesis, 1, FORK);
    let (chain_tip, fork_tip) = (chain.last().unwrap(), fork.last().unwrap());
    let mut sync = SyncState::new(&store);

    let before = LIVE.load(Relaxed);
    for log in &chain {
        assert_eq!(sync.resolve(log, &store), Resolution::Resolved);
    }
    assert_eq!(sync.accept_response(fork_tip.tip(), 1, &store), FORK);
    let grown = LIVE.load(Relaxed) - before;

    assert!(sync.knows(chain_tip.tip()) && sync.knows(fork_tip.tip()));
    let bound = 1024 + store.len().div_ceil(8) as isize;
    println!("knowledge of {} stored blocks: {grown} heap bytes (bound {bound})", store.len());
    assert!(grown <= bound, "knowledge grew by {grown} bytes, bound {bound}");
}
