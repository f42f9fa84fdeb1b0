//! Replayable schedule identities over the machine's named choice points
//! ([`Choice`], [`ChanId`] — defined beside the state machine in
//! `mvc_whips::machine`).
//!
//! A schedule is the exact sequence of scheduler choices the explorer (or
//! a replay) makes: inject the next workload transaction, or deliver the
//! head message of one named channel. Serializing the sequence as a
//! [`ScheduleId`] turns any explored interleaving — in particular a
//! violating one — into a deterministic regression test: same id, same
//! history, same oracle verdict.

use mvc_core::ViewId;
pub use mvc_whips::{ChanId, Choice};
use std::fmt;
use std::str::FromStr;

/// A serialized schedule: `.`-joined choice tokens, e.g.
/// `I.I.S.v1.a1.m0.W0.C0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ScheduleId(pub Vec<Choice>);

impl ScheduleId {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Typed parse failure for a serialized schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// Zero-based token index of the offending token.
    pub position: usize,
    pub token: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecognized schedule token {:?} at position {}",
            self.token, self.position
        )
    }
}

impl std::error::Error for ScheduleParseError {}

impl FromStr for ScheduleId {
    type Err = ScheduleParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Ok(ScheduleId(Vec::new()));
        }
        let mut choices = Vec::new();
        for (position, token) in s.split('.').enumerate() {
            let err = || ScheduleParseError {
                position,
                token: token.to_string(),
            };
            let choice = match token {
                "I" => Choice::Inject,
                "S" => Choice::Deliver(ChanId::SrcToInt),
                _ => {
                    if token.len() < 2 || !token.is_ascii() {
                        return Err(err());
                    }
                    let (kind, num) = token.split_at(1);
                    let n: u32 = num.parse().map_err(|_| err())?;
                    match kind {
                        "v" => Choice::Deliver(ChanId::IntToVm(ViewId(n))),
                        "m" => Choice::Deliver(ChanId::IntToMp(n as usize)),
                        "a" => Choice::Deliver(ChanId::VmToMp(ViewId(n))),
                        "q" => Choice::Deliver(ChanId::VmToQs(ViewId(n))),
                        "W" => Choice::Deliver(ChanId::MpToWh(n as usize)),
                        "C" => Choice::Deliver(ChanId::WhToMp(n as usize)),
                        _ => return Err(err()),
                    }
                }
            };
            choices.push(choice);
        }
        Ok(ScheduleId(choices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_tokens() {
        let id = ScheduleId(vec![
            Choice::Inject,
            Choice::Deliver(ChanId::SrcToInt),
            Choice::Deliver(ChanId::IntToVm(ViewId(2))),
            Choice::Deliver(ChanId::IntToMp(0)),
            Choice::Deliver(ChanId::VmToMp(ViewId(2))),
            Choice::Deliver(ChanId::VmToQs(ViewId(13))),
            Choice::Deliver(ChanId::MpToWh(1)),
            Choice::Deliver(ChanId::WhToMp(1)),
        ]);
        let text = id.to_string();
        assert_eq!(text, "I.S.v2.m0.a2.q13.W1.C1");
        assert_eq!(text.parse::<ScheduleId>().unwrap(), id);
        assert_eq!("".parse::<ScheduleId>().unwrap(), ScheduleId(Vec::new()));
    }

    #[test]
    fn parse_errors_are_positional() {
        let err = "I.S.x7".parse::<ScheduleId>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.token, "x7");
        assert!("v".parse::<ScheduleId>().is_err());
        assert!("vxy".parse::<ScheduleId>().is_err());
    }
}
