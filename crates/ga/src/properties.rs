//! The five GA properties of §3.2 (crate docs) as predicates over what
//! the honest validators of one instance output.
//!
//! Each predicate returns the first violation it finds as an `Err`
//! naming the validators and grades involved. They read only outputs,
//! so a standalone `GaHarness` run and a validator's embedded [`Ga3`]
//! (through [`Ga::output`] and [`Ga::participated`]) are judged alike.
//!
//! [`Ga`]: crate::Ga
//! [`Ga::output`]: crate::Ga::output
//! [`Ga::participated`]: crate::Ga::participated
//! [`Ga3`]: crate::Ga3

use tobsvd_types::{BlockStore, Log, ValidatorId};

/// What one honest validator output in one GA instance, grade by grade.
#[derive(Clone, Copy, Debug)]
pub struct Outcome<'a> {
    /// The validator.
    pub validator: ValidatorId,
    /// `outputs[g]`: its highest grade-`g` output, if any. Every prefix
    /// of it is a grade-`g` output too.
    pub outputs: &'a [Option<Log>],
    /// `participated[g]`: whether it executed the grade-`g` output phase.
    pub participated: &'a [bool],
}

impl Outcome<'_> {
    /// `(g, highest output)` for every grade it output at.
    fn graded(&self) -> impl Iterator<Item = (usize, Log)> + '_ {
        self.outputs.iter().enumerate().filter_map(|(g, out)| Some((g, (*out)?)))
    }
}

/// Consistency: no two honest outputs of the same grade `g ≥ 1`
/// conflict.
pub fn consistency(honest: &[Outcome<'_>], store: &BlockStore) -> Result<(), String> {
    for a in honest {
        for (g, x) in a.graded().filter(|(g, _)| *g >= 1) {
            for b in honest {
                if let Some(y) = b.outputs.get(g).copied().flatten() {
                    if !x.compatible(&y, store) {
                        return Err(format!(
                            "grade {g}: {} output {x} conflicts with {} output {y}",
                            a.validator, b.validator
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Graded Delivery: an honest output (Λ, g) with `g ≥ 1` makes every
/// honest participant of the grade-`g−1` output phase output (Λ, g−1),
/// that is, its highest grade-`g−1` output extends Λ.
pub fn graded_delivery(honest: &[Outcome<'_>], store: &BlockStore) -> Result<(), String> {
    for a in honest {
        for (g, hi) in a.graded().filter(|(g, _)| *g >= 1) {
            for b in honest.iter().filter(|b| b.participated.get(g - 1) == Some(&true)) {
                let lo = b.outputs.get(g - 1).copied().flatten();
                if !matches!(lo, Some(lo) if hi.is_prefix_of(&lo, store)) {
                    return Err(format!(
                        "{} output {hi} at grade {g}, but {}'s grade-{} output is {lo:?}",
                        a.validator,
                        b.validator,
                        g - 1
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Uniqueness: the maximal logs one honest validator output at one
/// grade never conflict. A [`crate::Ga`] keeps one highest output per
/// grade, so it holds there by construction; [`crate::MrGa`]'s grade 0
/// can keep several, and does conflict under equivocation (§4).
pub fn uniqueness(maxima: &[Log], store: &BlockStore) -> Result<(), String> {
    for (i, x) in maxima.iter().enumerate() {
        if let Some(y) = maxima.iter().skip(i + 1).find(|y| x.conflicts(y, store)) {
            return Err(format!("conflicting outputs {x} and {y} at one validator and grade"));
        }
    }
    Ok(())
}

/// Integrity: every honest output is a prefix of one of the honest
/// `inputs`.
pub fn integrity(honest: &[Outcome<'_>], inputs: &[Log], store: &BlockStore) -> Result<(), String> {
    for a in honest {
        for (g, out) in a.graded() {
            if !inputs.iter().any(|input| out.is_prefix_of(input, store)) {
                return Err(format!("{} output {out} at grade {g} extends no honest input", a.validator));
            }
        }
    }
    Ok(())
}

/// Validity's conclusion: every honest participant of every output
/// phase outputs (`base`, g). Its premise — every honest validator awake
/// at the input phase input an extension of `base` — is the caller's to
/// establish.
pub fn validity(honest: &[Outcome<'_>], base: Log, store: &BlockStore) -> Result<(), String> {
    for a in honest {
        for (g, _) in a.participated.iter().enumerate().filter(|(_, p)| **p) {
            let out = a.outputs.get(g).copied().flatten();
            if !matches!(out, Some(out) if base.is_prefix_of(&out, store)) {
                return Err(format!(
                    "{} participated at grade {g} but output {out:?}, which does not extend {base}",
                    a.validator
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tobsvd_types::View;

    /// genesis → a, genesis → b.
    fn fork() -> (BlockStore, Log, Log, Log) {
        let store = BlockStore::new();
        let g = Log::genesis(&store);
        let a = g.extend_empty(&store, ValidatorId::new(8), View::new(1));
        let b = g.extend_empty(&store, ValidatorId::new(9), View::new(1));
        (store, g, a, b)
    }

    fn outcome<'a>(v: u32, outputs: &'a [Option<Log>], participated: &'a [bool]) -> Outcome<'a> {
        Outcome { validator: ValidatorId::new(v), outputs, participated }
    }

    #[test]
    fn each_predicate_reports_its_violation() {
        let (store, g, a, b) = fork();
        let all = [true, true];
        let (at_a, at_b) = ([Some(a), Some(a)], [Some(b), Some(b)]);
        let split = [outcome(0, &at_a, &all), outcome(1, &at_b, &all)];
        assert!(consistency(&split, &store).is_err());
        assert!(graded_delivery(&split, &store).is_err());
        assert!(integrity(&split, &[a], &store).is_err());
        assert!(integrity(&split, &[a, b], &store).is_ok());
        assert!(validity(&split, a, &store).is_err());
        assert!(validity(&split, g, &store).is_ok());
        assert!(uniqueness(&[a, b], &store).is_err());
        assert!(uniqueness(&[g, a], &store).is_ok());

        // Grade-0 disagreement is not a Consistency violation; a grade-1
        // output that a grade-0 participant missed is a Graded Delivery
        // one, unless it did not participate.
        let (lo_a, lo_b) = ([Some(a), Some(a)], [Some(b), None]);
        let pair = [outcome(0, &lo_a, &all), outcome(1, &lo_b, &all)];
        assert!(consistency(&pair, &store).is_ok());
        assert!(graded_delivery(&pair, &store).is_err());
        let (asleep_at_grade0, grade1_only) = ([None, None], [false, true]);
        let pair = [outcome(0, &lo_a, &all), outcome(1, &asleep_at_grade0, &grade1_only)];
        assert!(graded_delivery(&pair, &store).is_ok());
    }
}
