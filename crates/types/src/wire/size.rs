//! Wire lengths computed without encoding: what the simulator charges
//! each delivery. A log-carrying message is measured in its full form
//! (`k = min(len−1, INLINE_WINDOW)`), never the hash-only one: the
//! simulator's engine has no links to keep a record of carried bodies on.

use super::{announcement_windows, signer_word_count, WireError};
use crate::codec;
use crate::message::{Payload, SignedMessage};
use crate::store::BlockStore;

/// Exact length in bytes of [`encode_message`]'s output, computed
/// without allocating — the simulator charges every delivery this
/// amount, so sim byte metrics and real TCP frames agree by
/// construction (pinned by a codec test).
///
/// # Errors
///
/// [`WireError::UnstoredChain`], as [`encode_message`]. A block over
/// the body limits is measured, not refused.
///
/// [`encode_message`]: super::encode_message
pub fn encoded_len(msg: &SignedMessage, store: &BlockStore) -> Result<u64, WireError> {
    measure(msg, store).map(|(len, _)| len)
}

/// [`encoded_len`] and [`inline_equivalent_len`] together, reading a
/// log's tip block from `store` once for both (the simulator charges
/// every copy both amounts).
///
/// # Errors
///
/// As [`encoded_len`].
pub fn encoded_and_inline_len(msg: &SignedMessage, store: &BlockStore) -> Result<(u64, u64), WireError> {
    let (wire_len, tip_size) = measure(msg, store)?;
    let inline_len = msg.payload().log().map_or(0, |log| {
        crate::ENVELOPE_NOMINAL_BYTES + tip_size.unwrap_or_else(|| log.nominal_size(store))
    });
    Ok((wire_len, inline_len))
}

/// [`encoded_len`], plus the tip block's cumulative size when the
/// inline-window walk read that block (a log with `k > 0`).
fn measure(msg: &SignedMessage, store: &BlockStore) -> Result<(u64, Option<u64>), WireError> {
    let mut tip_size = None;
    let header = match msg.payload() {
        Payload::Log { .. }
        | Payload::Vote { .. }
        | Payload::Recovery { .. }
        | Payload::FinalityVote { .. }
        | Payload::Certificate { .. } => 8,
        Payload::Proposal { .. } => 8 + 64,
        Payload::BlockRequest { .. } => 32 + 8,
        Payload::BlockResponse { .. } => 32 + 8 + 8,
    };
    let trailer = match msg.payload() {
        Payload::Certificate { signers, .. } => 1 + 8 * signer_word_count(signers) as u64 + 32,
        _ => 0,
    };
    let body = match msg.payload() {
        Payload::Log { log, .. }
        | Payload::Proposal { log, .. }
        | Payload::Vote { log, .. }
        | Payload::Recovery { log, .. }
        | Payload::FinalityVote { log, .. }
        | Payload::Certificate { log, .. } => {
            let (k, a) = announcement_windows(log.len(), false);
            let mut n = 8 + 32 + 1 + 1 + 32 * a;
            if k > 0 {
                n += 32;
            }
            // The window's blocks, by parent links from the tip.
            let mut cur = log.tip();
            for _ in 0..k {
                let block = store.get(cur).ok_or(WireError::UnstoredChain)?;
                tip_size.get_or_insert(block.cumulative_size());
                n += codec::block_body_len(block.txs());
                cur = block.parent();
            }
            n
        }
        Payload::BlockRequest { .. } => 0,
        Payload::BlockResponse { tip, from_height, .. } => {
            let ids = store
                .chain_range(*tip, *from_height)
                .ok_or(WireError::UnstoredChain)?;
            let mut n = 32;
            for id in &ids {
                let block = store.get(*id).ok_or(WireError::UnstoredChain)?;
                n += codec::block_body_len(block.txs());
            }
            n
        }
    };
    // version + sender + tag + header + body (+ certificate trailer) +
    // signature.
    Ok((1 + 4 + 1 + header + body + trailer + 32, tip_size))
}

/// Nominal wire length of the same message under the pre-delta-sync
/// codec, which shipped the full chain (every block, transactions
/// included) in every log-carrying message; 0 for fetch payloads, which
/// that protocol lacks. O(1), from the store's cumulative nominal
/// sizes; the simulator counts it beside the real wire bytes.
pub fn inline_equivalent_len(msg: &SignedMessage, store: &BlockStore) -> u64 {
    match msg.payload().log() {
        Some(log) => crate::ENVELOPE_NOMINAL_BYTES + log.nominal_size(store),
        None => 0,
    }
}
