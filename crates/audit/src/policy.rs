//! Per-crate policy: which determinism class a source file belongs to.
//!
//! The workspace splits into three worlds:
//!
//! * **Deterministic** — protocol, simulation and analysis crates whose
//!   behavior must be a pure function of (config, seed). Transcripts,
//!   checker fingerprints and sweep outputs are byte-compared across
//!   runs and thread counts, so no hash-order iteration, wall clocks or
//!   ambient randomness are allowed here.
//! * **WallClock** — the deployment layer (`runtime`) and benchmark
//!   harness (`bench`), which legitimately read real time and sockets.
//! * **Tooling** — the audit crate itself: held to the determinism
//!   rules (its report ordering must be stable) but outside the
//!   protocol panic-safety scope.
//!
//! Test code (`tests/`, `benches/`, `examples/`, and `#[cfg(test)]`
//! regions, which are detected separately per-file) is exempt from most
//! rules: a test may `unwrap` freely.

/// Determinism class of a source file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyClass {
    /// Protocol/sim/analysis code: full determinism rules apply.
    Deterministic,
    /// Runtime + bench: wall clock and OS entropy are allowed.
    WallClock,
    /// The audit crate itself: determinism rules, no panic-path scope.
    Tooling,
    /// Integration tests, benches, examples, fixtures.
    Test,
    /// Vendored stand-ins and build output: never scanned.
    Skip,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> PolicyClass {
    let p = rel_path;
    if p.starts_with("vendor/") || p.starts_with("target/") || p.starts_with(".git/") {
        return PolicyClass::Skip;
    }
    if p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("benches/")
        || p.contains("/benches/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
    {
        return PolicyClass::Test;
    }
    if p.starts_with("crates/audit/") {
        return PolicyClass::Tooling;
    }
    if p.starts_with("crates/runtime/") || p.starts_with("crates/bench/") {
        return PolicyClass::WallClock;
    }
    if p.starts_with("crates/") || p.starts_with("src/") {
        return PolicyClass::Deterministic;
    }
    PolicyClass::Skip
}

/// True if `rule` applies to a file of the given class and path.
///
/// This is the policy map documented in the README: panic-path and
/// unchecked-index rules bind the protocol core (`core`/`types`/
/// `crypto`/`storage` — a corrupt WAL record must degrade, not
/// abort) and the ingest front door (`runtime`'s `ingest`/`client`/
/// `frame` modules — byte streams from untrusted sockets must never
/// panic a node, even though the rest of the runtime is WallClock
/// territory); the determinism rules bind every deterministic crate
/// and the tooling; wire-tag coverage is a workspace-level rule
/// handled by the engine directly.
pub fn rule_applies(rule: &str, class: PolicyClass, rel_path: &str) -> bool {
    let protocol_core = rel_path.starts_with("crates/core/")
        || rel_path.starts_with("crates/types/")
        || rel_path.starts_with("crates/crypto/")
        || rel_path.starts_with("crates/storage/");
    let ingest_frontdoor = rel_path.starts_with("crates/runtime/src/ingest")
        || rel_path.starts_with("crates/runtime/src/client")
        || rel_path.starts_with("crates/runtime/src/frame");
    match rule {
        "no-nondeterministic-iteration" | "no-ambient-nondeterminism" => {
            matches!(class, PolicyClass::Deterministic | PolicyClass::Tooling)
        }
        "checked-delta-arithmetic" => matches!(class, PolicyClass::Deterministic),
        "no-panic-path" | "no-unchecked-index" => {
            (matches!(class, PolicyClass::Deterministic) && protocol_core)
                || (matches!(class, PolicyClass::WallClock) && ingest_frontdoor)
        }
        // wire-tag-coverage is evaluated once per workspace, not per file.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(classify("crates/core/src/protocol.rs"), PolicyClass::Deterministic);
        assert_eq!(classify("src/lib.rs"), PolicyClass::Deterministic);
        assert_eq!(classify("crates/runtime/src/node.rs"), PolicyClass::WallClock);
        assert_eq!(classify("crates/bench/src/main.rs"), PolicyClass::WallClock);
        assert_eq!(classify("crates/audit/src/lexer.rs"), PolicyClass::Tooling);
        assert_eq!(classify("crates/sim/tests/mempool_props.rs"), PolicyClass::Test);
        assert_eq!(classify("tests/wire_codec.rs"), PolicyClass::Test);
        assert_eq!(classify("crates/core/benches/hotpath.rs"), PolicyClass::Test);
        assert_eq!(classify("examples/real_network.rs"), PolicyClass::Test);
        assert_eq!(classify("vendor/rand/src/lib.rs"), PolicyClass::Skip);
    }

    #[test]
    fn scope_map() {
        assert!(rule_applies("no-panic-path", PolicyClass::Deterministic, "crates/types/src/wire.rs"));
        assert!(rule_applies("no-panic-path", PolicyClass::Deterministic, "crates/storage/src/wal.rs"));
        assert!(rule_applies("no-unchecked-index", PolicyClass::Deterministic, "crates/storage/src/codec.rs"));
        assert!(!rule_applies("no-panic-path", PolicyClass::Deterministic, "crates/sim/src/engine.rs"));
        assert!(!rule_applies("no-panic-path", PolicyClass::Tooling, "crates/audit/src/main.rs"));
        // The ingest front door is panic-scoped even though runtime is
        // WallClock: client sockets feed it untrusted bytes.
        assert!(rule_applies("no-panic-path", PolicyClass::WallClock, "crates/runtime/src/ingest.rs"));
        assert!(rule_applies("no-unchecked-index", PolicyClass::WallClock, "crates/runtime/src/client.rs"));
        // So is the frame parser both of them read sockets through.
        assert!(rule_applies("no-panic-path", PolicyClass::WallClock, "crates/runtime/src/frame.rs"));
        assert!(rule_applies("no-unchecked-index", PolicyClass::WallClock, "crates/runtime/src/frame.rs"));
        assert!(!rule_applies("no-panic-path", PolicyClass::WallClock, "crates/runtime/src/node.rs"));
        assert!(rule_applies("no-nondeterministic-iteration", PolicyClass::Tooling, "crates/audit/src/engine.rs"));
        assert!(rule_applies("checked-delta-arithmetic", PolicyClass::Deterministic, "crates/sweep/src/matrix.rs"));
        assert!(!rule_applies("checked-delta-arithmetic", PolicyClass::WallClock, "crates/runtime/src/node.rs"));
        assert!(rule_applies("no-ambient-nondeterminism", PolicyClass::Deterministic, "crates/check/src/checker.rs"));
        assert!(!rule_applies("no-ambient-nondeterminism", PolicyClass::WallClock, "crates/bench/src/main.rs"));
    }
}
