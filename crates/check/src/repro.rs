//! Replayable reproducer artifacts.
//!
//! A [`Reproducer`] is a shrunk failing schedule plus the invariants it
//! violates, serialized as JSON so it can be checked into the repo,
//! attached to a CI run, or mailed around — and replayed *byte for
//! byte*: the JSON fixes the complete [`CheckScenario`], the scenario
//! fixes the execution, and [`Reproducer::replay`] confirms the same
//! invariants still fail.
//!
//! The workspace has no serialization dependency, so the codec is
//! hand-rolled: a fixed-field-order emitter and a minimal JSON parser
//! (objects, arrays, strings, unsigned integers — the whole schema).
//! Emission is canonical: `parse(emit(x)) == x` and re-emitting a
//! parsed artifact reproduces the input bytes exactly, which the
//! fixture test pins.

use std::fmt::Write as _;

use tobsvd_sim::StateFault;

use crate::scenario::{
    ByzStrategy, CheckScenario, DelayKind, FetchFaultKind, Lever, LeverKind, SyncMode,
};
use json::Value;

/// Current artifact format version.
pub const REPRO_VERSION: u64 = 1;

/// The scenario's JSON section for each lever kind, in
/// [`LeverKind::rank`] order (which is also emission order). Sections
/// from `fetch_faults` on are optional on parse: artifacts that predate
/// the sync, storage and stabilization planes lack them.
const SECTIONS: [&str; LeverKind::COUNT] =
    ["byz", "sleeps", "corruptions", "fetch_faults", "crashes", "state_faults"];
const REQUIRED_SECTIONS: usize = 3;

/// A lever as one entry of its section: `validator`, then the kind's
/// fields in emission order.
fn lever_json(lever: &Lever) -> Value {
    let num = Value::Num;
    let tag = |t: &str| Value::Str(t.to_owned());
    let fields = match lever.kind {
        LeverKind::Byzantine(strategy) => vec![("strategy", tag(strategy.tag()))],
        LeverKind::Sleep { from, until } => vec![("from", num(from)), ("until", num(until))],
        LeverKind::Corrupt { at } => vec![("at", num(at))],
        LeverKind::Fetch { from, until, kind } => {
            vec![("from", num(from)), ("until", num(until)), ("kind", tag(kind.tag()))]
        }
        LeverKind::Crash { at, restart_at } => {
            vec![("at", num(at)), ("restart_at", num(restart_at))]
        }
        LeverKind::State { at, fault } => {
            let (a, b) = fault.params();
            vec![("at", num(at)), ("fault", tag(fault.tag())), ("a", num(a)), ("b", num(b))]
        }
    };
    let validator = ("validator", num(u64::from(lever.validator)));
    Value::Obj(std::iter::once(validator).chain(fields).map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parses one entry of section `SECTIONS[rank]`: the inverse of
/// [`lever_json`].
fn parse_lever(rank: usize, o: json::Obj<'_>) -> Result<Lever, String> {
    let num = |key: &str| o.req(key)?.as_u64(key);
    let tag = |key: &str| o.req(key)?.as_str(key);
    let unknown = |what: &str, tag: &str| format!("unknown {what} {tag:?}");
    let kind = match rank {
        0 => {
            let t = tag("strategy")?;
            LeverKind::Byzantine(
                ByzStrategy::from_tag(t).ok_or_else(|| unknown("byzantine strategy", t))?,
            )
        }
        1 => LeverKind::Sleep { from: num("from")?, until: num("until")? },
        2 => LeverKind::Corrupt { at: num("at")? },
        3 => {
            let t = tag("kind")?;
            let kind = FetchFaultKind::from_tag(t).ok_or_else(|| unknown("fetch fault kind", t))?;
            LeverKind::Fetch { from: num("from")?, until: num("until")?, kind }
        }
        4 => LeverKind::Crash { at: num("at")?, restart_at: num("restart_at")? },
        _ => {
            let t = tag("fault")?;
            let fault = StateFault::from_parts(t, num("a")?, num("b")?)
                .ok_or_else(|| unknown("state fault", t))?;
            LeverKind::State { at: num("at")?, fault }
        }
    };
    Ok(Lever { validator: o.req("validator")?.as_u32("validator")?, kind })
}

/// A serialized-failure artifact: the minimal scenario and what it
/// breaks.
#[derive(Clone, Debug, PartialEq)]
pub struct Reproducer {
    /// The (shrunk) failing schedule.
    pub scenario: CheckScenario,
    /// Names of the invariants the scenario violates.
    pub invariants: Vec<String>,
}

impl Reproducer {
    /// Re-runs the scenario and returns whether every recorded entry of
    /// the failure signature still fails. An artifact recording *no*
    /// invariants reproduces nothing and always returns `false`.
    pub fn replay(&self) -> bool {
        if self.invariants.is_empty() {
            return false;
        }
        let violated = self.scenario.run().failure_signature();
        self.invariants.iter().all(|n| violated.iter().any(|v| v == n))
    }

    /// Serializes the artifact as canonical, human-readable JSON.
    pub fn to_json(&self) -> String {
        let s = &self.scenario;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {REPRO_VERSION},");
        let invariants = self.invariants.iter().map(|i| Value::Str(i.clone())).collect();
        let _ = writeln!(out, "  \"invariants\": {},", Value::Arr(invariants));
        let _ = writeln!(out, "  \"scenario\": {{");
        let _ = writeln!(out, "    \"n\": {},", s.n);
        let _ = writeln!(out, "    \"delta\": {},", s.delta);
        let _ = writeln!(out, "    \"views\": {},", s.views);
        let _ = writeln!(out, "    \"seed\": {},", s.seed);
        let _ = writeln!(out, "    \"delay\": \"{}\",", s.delay.tag());
        let _ = writeln!(out, "    \"sync\": \"{}\",", s.sync.tag());
        let _ = writeln!(out, "    \"txs_per_view\": {},", s.txs_per_view);
        for (rank, section) in SECTIONS.iter().enumerate() {
            let levers = s.levers.iter().filter(|l| l.kind.rank() == rank).map(lever_json);
            let comma = if rank + 1 < SECTIONS.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{section}\": {}{comma}", Value::Arr(levers.collect()));
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses an artifact produced by [`Reproducer::to_json`] (or any
    /// JSON with the same schema).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or schema problem,
    /// or of the scenario not being valid ([`CheckScenario::is_valid`]):
    /// an artifact is outside input, and an invalid scenario would
    /// panic on replay.
    pub fn from_json(input: &str) -> Result<Reproducer, String> {
        let value = json::parse(input)?;
        let root = value.as_obj("top level")?;
        let version = root.req("version")?.as_u64("version")?;
        if version != REPRO_VERSION {
            return Err(format!("unsupported reproducer version {version}"));
        }
        let invariants = root
            .req("invariants")?
            .as_arr("invariants")?
            .iter()
            .map(|v| v.as_str("invariant name").map(str::to_owned))
            .collect::<Result<Vec<_>, _>>()?;
        let s = root.req("scenario")?.as_obj("scenario")?;

        let delay_tag = s.req("delay")?.as_str("delay")?;
        let delay = DelayKind::from_tag(delay_tag)
            .ok_or_else(|| format!("unknown delay kind {delay_tag:?}"))?;
        // The sync mode is optional too (artifacts predating the sync
        // plane run the buffered model).
        let sync = match s.opt("sync") {
            None => SyncMode::Buffered,
            Some(v) => {
                let tag = v.as_str("sync")?;
                SyncMode::from_tag(tag).ok_or_else(|| format!("unknown sync mode {tag:?}"))?
            }
        };
        let mut levers = Vec::new();
        for (rank, section) in SECTIONS.iter().enumerate() {
            let items = match s.opt(section) {
                Some(items) => items.as_arr(section)?,
                None if rank < REQUIRED_SECTIONS => {
                    return Err(format!("missing field {section:?}"))
                }
                None => continue,
            };
            for item in items {
                let lever = parse_lever(rank, item.as_obj(section)?);
                levers.push(lever.map_err(|e| format!("{section}: {e}"))?);
            }
        }

        let scenario = CheckScenario {
            n: s.req("n")?.as_u32("n")?,
            delta: s.req("delta")?.as_u64("delta")?,
            views: s.req("views")?.as_u64("views")?,
            seed: s.req("seed")?.as_u64("seed")?,
            delay,
            txs_per_view: s.req("txs_per_view")?.as_u32("txs_per_view")?,
            levers,
            sync,
        };
        if !scenario.is_valid() {
            return Err(format!("invalid scenario: {scenario:?}"));
        }
        Ok(Reproducer { scenario, invariants })
    }
}

mod json {
    //! A minimal JSON subset parser: objects, arrays, strings (no
    //! escapes beyond `\"` and `\\`), and unsigned integers — exactly
    //! the reproducer schema.

    /// Escapes `"` and `\` for embedding in a JSON string literal (the
    /// only escapes the parser supports, keeping emit∘parse and
    /// parse∘emit both identities).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                other => out.push(other),
            }
        }
        out
    }

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// Unsigned integer.
        Num(u64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object (insertion-ordered).
        Obj(Vec<(String, Value)>),
    }

    /// Compact one-line JSON: `", "` between items, `": "` after keys —
    /// the reproducer's canonical form for lists and their entries.
    impl std::fmt::Display for Value {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Value::Num(n) => write!(f, "{n}"),
                Value::Str(s) => write!(f, "\"{}\"", escape(s)),
                Value::Arr(items) => {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                    }
                    write!(f, "]")
                }
                Value::Obj(fields) => {
                    write!(f, "{{")?;
                    for (i, (key, value)) in fields.iter().enumerate() {
                        let sep = if i > 0 { ", " } else { "" };
                        write!(f, "{sep}\"{}\": {value}", escape(key))?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    impl Value {
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        pub fn as_u32(&self, what: &str) -> Result<u32, String> {
            u32::try_from(self.as_u64(what)?).map_err(|_| format!("{what}: exceeds u32"))
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub fn as_obj(&self, what: &str) -> Result<Obj<'_>, String> {
            match self {
                Value::Obj(fields) => Ok(Obj(fields)),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }
    }

    /// Field-lookup view over an object's entries.
    #[derive(Clone, Copy)]
    pub struct Obj<'a>(&'a [(String, Value)]);

    impl<'a> Obj<'a> {
        pub fn req(&self, key: &str) -> Result<&'a Value, String> {
            self.opt(key).ok_or_else(|| format!("missing field {key:?}"))
        }

        pub fn opt(&self, key: &str) -> Option<&'a Value> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parses one JSON value and requires end-of-input after it.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            let got = self.peek()?;
            if got != b {
                return Err(format!(
                    "expected {:?} at byte {}, got {:?}",
                    b as char, self.pos, got as char
                ));
            }
            self.pos += 1;
            Ok(())
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b'0'..=b'9' => self.number(),
                other => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string_after_ws()?;
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, got {:?}",
                            self.pos, other as char
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, got {:?}",
                            self.pos, other as char
                        ))
                    }
                }
            }
        }

        fn string_after_ws(&mut self) -> Result<String, String> {
            self.skip_ws();
            self.string()
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        match self.bytes.get(self.pos + 1) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            other => {
                                return Err(format!("unsupported escape {other:?}"));
                            }
                        }
                        self.pos += 2;
                    }
                    Some(&b) if b.is_ascii() => {
                        out.push(b as char);
                        self.pos += 1;
                    }
                    Some(&b) => {
                        // Rejecting non-ASCII outright beats silently
                        // mojibaking multi-byte UTF-8 into Latin-1.
                        return Err(format!(
                            "non-ASCII byte 0x{b:02x} in string at byte {}",
                            self.pos
                        ));
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
            text.parse::<u64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ScenarioSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lever(validator: u32, kind: LeverKind) -> Lever {
        Lever { validator, kind }
    }

    fn sample() -> Reproducer {
        Reproducer {
            scenario: CheckScenario {
                n: 5,
                delta: 2,
                views: 3,
                seed: 17,
                delay: DelayKind::WorstCase,
                txs_per_view: 1,
                levers: vec![
                    lever(3, LeverKind::Byzantine(ByzStrategy::SplitBrain)),
                    lever(4, LeverKind::Byzantine(ByzStrategy::Silent)),
                    lever(1, LeverKind::Sleep { from: 4, until: 9 }),
                    lever(2, LeverKind::Corrupt { at: 6 }),
                    lever(1, LeverKind::Fetch { from: 9, until: 14, kind: FetchFaultKind::Drop }),
                    lever(0, LeverKind::Crash { at: 6, restart_at: 11 }),
                    lever(
                        2,
                        LeverKind::State { at: 7, fault: StateFault::CounterSkew { skew: 12 } },
                    ),
                ],
                sync: SyncMode::DropRecover,
            },
            invariants: vec!["prefix-agreement".into(), "no-conflicting-anchor".into()],
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let repro = sample();
        let json = repro.to_json();
        let parsed = Reproducer::from_json(&json).expect("parses");
        assert_eq!(parsed, repro);
        assert_eq!(parsed.to_json(), json, "re-emission must reproduce the bytes");
    }

    /// Every scenario the explorer can sample survives the codec: parse
    /// of emit is the identity and re-emission reproduces the bytes.
    /// Both spaces together must exercise every lever kind, so no
    /// section of the codec goes untested.
    #[test]
    fn every_sampled_scenario_round_trips() {
        let mut per_kind = [0usize; LeverKind::COUNT];
        for (seed, space) in [(3, ScenarioSpace::default()), (4, ScenarioSpace::hostile())] {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2000 {
                let scenario = space.sample(&mut rng);
                for l in &scenario.levers {
                    per_kind[l.kind.rank()] += 1;
                }
                let repro = Reproducer { scenario, invariants: vec!["chain-growth".into()] };
                let json = repro.to_json();
                let parsed = Reproducer::from_json(&json).expect("sampled scenario parses");
                assert_eq!(parsed, repro);
                assert_eq!(parsed.to_json(), json);
            }
        }
        assert!(per_kind.iter().all(|&c| c > 0), "lever kind never sampled: {per_kind:?}");
    }

    #[test]
    fn empty_lists_round_trip_but_never_replay() {
        let repro = Reproducer {
            scenario: CheckScenario::fault_free(4, 4, 5, 0),
            invariants: vec![],
        };
        let json = repro.to_json();
        let parsed = Reproducer::from_json(&json).expect("parses");
        assert_eq!(parsed, repro);
        assert_eq!(parsed.to_json(), json);
        // An artifact recording no invariants reproduces nothing — it
        // must not vacuously count as a successful replay.
        assert!(!parsed.replay());
    }

    #[test]
    fn quotes_and_backslashes_in_names_round_trip() {
        let repro = Reproducer {
            scenario: CheckScenario::fault_free(4, 4, 5, 0),
            invariants: vec!["has \"quotes\"".into(), "back\\slash".into()],
        };
        let json = repro.to_json();
        let parsed = Reproducer::from_json(&json).expect("escaped names parse");
        assert_eq!(parsed, repro);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn pre_delta_sync_artifacts_still_parse() {
        // An artifact emitted before the sync and storage fields
        // existed: the optional fields default to the buffered model
        // with no faults and no crashes, and re-emission upgrades it to
        // the canonical new form.
        let json = sample().to_json();
        let legacy = json
            .replace("    \"sync\": \"drop-recover\",\n", "")
            .replace(
                ",\n    \"fetch_faults\": [{\"validator\": 1, \"from\": 9, \"until\": 14, \"kind\": \"drop\"}]",
                "",
            )
            .replace(
                ",\n    \"crashes\": [{\"validator\": 0, \"at\": 6, \"restart_at\": 11}]",
                "",
            )
            .replace(
                ",\n    \"state_faults\": [{\"validator\": 2, \"at\": 7, \"fault\": \"counter-skew\", \"a\": 12, \"b\": 0}]",
                "",
            );
        assert_ne!(legacy, json, "test must actually strip the new fields");
        let parsed = Reproducer::from_json(&legacy).expect("legacy artifact parses");
        assert_eq!(parsed.scenario.sync, SyncMode::Buffered);
        assert_eq!(parsed.scenario.levers, sample().scenario.levers[..4]);
        assert!(parsed.to_json().contains("\"sync\": \"buffered\""));
    }

    #[test]
    fn every_state_fault_kind_round_trips_through_json() {
        for kind in 0..StateFault::KINDS {
            let repro = Reproducer {
                scenario: CheckScenario {
                    levers: vec![lever(
                        1,
                        LeverKind::State {
                            at: 9,
                            fault: StateFault::from_draws(kind, 0x5eed_f00d),
                        },
                    )],
                    ..CheckScenario::fault_free(4, 4, 5, 0)
                },
                invariants: vec!["state-reconvergence".into()],
            };
            let json = repro.to_json();
            let parsed = Reproducer::from_json(&json).expect("parses");
            assert_eq!(parsed, repro, "kind {kind}");
            assert_eq!(parsed.to_json(), json, "kind {kind}");
        }
        let bad = sample().to_json().replace("counter-skew", "psychic-skew");
        assert!(Reproducer::from_json(&bad).unwrap_err().contains("state fault"));
    }

    /// Each vocabulary enum's one tag table round-trips every member,
    /// and an unknown tag parses to nothing.
    #[test]
    fn every_vocabulary_tag_round_trips() {
        for s in ByzStrategy::ALL {
            assert_eq!(ByzStrategy::from_tag(s.tag()), Some(s));
        }
        for k in DelayKind::ALL {
            assert_eq!(DelayKind::from_tag(k.tag()), Some(k));
        }
        for m in SyncMode::ALL {
            assert_eq!(SyncMode::from_tag(m.tag()), Some(m));
        }
        for k in FetchFaultKind::ALL {
            assert_eq!(FetchFaultKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ByzStrategy::from_tag("psychic"), None);
        assert_eq!(DelayKind::from_tag("psychic"), None);
        assert_eq!(SyncMode::from_tag("psychic"), None);
        assert_eq!(FetchFaultKind::from_tag("psychic"), None);
    }

    #[test]
    fn parse_rejects_garbage_and_schema_violations() {
        assert!(Reproducer::from_json("").is_err());
        assert!(Reproducer::from_json("{").is_err());
        assert!(Reproducer::from_json("42").is_err());
        assert!(Reproducer::from_json("{\"version\": 1}").is_err());
        let wrong_version = sample().to_json().replace("\"version\": 1", "\"version\": 9");
        assert!(Reproducer::from_json(&wrong_version)
            .unwrap_err()
            .contains("version"));
        let bad_delay = sample().to_json().replace("\"worst\"", "\"psychic\"");
        assert!(Reproducer::from_json(&bad_delay).unwrap_err().contains("delay"));
        let trailing = format!("{} x", sample().to_json());
        assert!(Reproducer::from_json(&trailing).unwrap_err().contains("trailing"));
        // Non-ASCII in a string is rejected at parse time, not
        // silently mojibaked (e.g. a Unicode dash pasted into a name).
        let unicode = sample().to_json().replace("prefix-agreement", "prefix\u{2013}agreement");
        assert!(Reproducer::from_json(&unicode).unwrap_err().contains("non-ASCII"));
    }

    /// An artifact is outside input: a well-formed one whose scenario
    /// could not run (n past the signer bitmap, a validator out of
    /// range, an empty window) is an error, not a replay-time panic.
    #[test]
    fn parse_rejects_scenarios_that_cannot_run() {
        let json = sample().to_json();
        for (from, to) in [
            ("\"n\": 5,", "\"n\": 513,"),
            ("{\"validator\": 4, \"strategy\"", "{\"validator\": 5, \"strategy\""),
            ("\"from\": 4, \"until\": 9", "\"from\": 9, \"until\": 9"),
            ("\"at\": 6, \"restart_at\": 11", "\"at\": 11, \"restart_at\": 6"),
        ] {
            let bad = json.replace(from, to);
            assert_ne!(bad, json, "test must actually edit {from:?}");
            let err = Reproducer::from_json(&bad).expect_err(to);
            assert!(err.contains("invalid scenario"), "{to}: {err}");
        }
    }
}
