//! The canonical decision transcript shared by the determinism suites.

use tob_svd::sim::{SimReport, TobReport};
use tob_svd::types::{BlockStore, Log};

/// Serializes a decided log into a canonical byte transcript: length,
/// then per block (genesis excluded) the content-address digest,
/// proposer, view and every transaction payload. Two logs with equal
/// transcripts decided the same blocks in the same order.
fn log_transcript(out: &mut Vec<u8>, log: &Log, store: &BlockStore) {
    out.extend_from_slice(&log.len().to_be_bytes());
    let ids = store.chain_range(log.tip(), 1).expect("decided chain is stored");
    for id in ids {
        let block = store.get(id).expect("chain block stored");
        out.extend_from_slice(block.id().0.as_bytes());
        out.extend_from_slice(&block.proposer().expect("non-genesis").raw().to_be_bytes());
        out.extend_from_slice(&block.view().number().to_be_bytes());
        for tx in block.txs() {
            out.extend_from_slice(&(tx.payload().len() as u64).to_be_bytes());
            out.extend_from_slice(tx.payload());
        }
    }
}

/// The full determinism transcript of a report: every honest
/// validator's latest decision (id, tick, log bytes) plus the longest
/// decided log.
pub fn report_transcript(report: &TobReport) -> Vec<u8> {
    sim_transcript(&report.report)
}

/// [`report_transcript`] of an engine run built without the facade.
pub fn sim_transcript(report: &SimReport) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in &report.latest_decisions {
        out.extend_from_slice(&rec.validator.raw().to_be_bytes());
        out.extend_from_slice(&rec.at.ticks().to_be_bytes());
        log_transcript(&mut out, &rec.log, &report.store);
    }
    if let Some(longest) = &report.longest_decided {
        log_transcript(&mut out, longest, &report.store);
    }
    out
}
