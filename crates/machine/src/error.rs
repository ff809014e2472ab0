//! Typed failures of the simulated machine.
//!
//! The paper's two-level model assumes a perfect network and immortal
//! processors; this module is what the simulator reports when those
//! assumptions are deliberately broken (fault injection, see
//! [`crate::FaultPlan`]) or when an SPMD program misbehaves. Every failure mode
//! that used to hang or panic deep inside a processor thread is converted
//! into a [`MachineError`] naming the processor (and, where it exists, the
//! peer/tag) at fault, and [`crate::Machine::try_run`] returns it as a
//! structured `Err` after aborting all peers via a poison broadcast.

use std::fmt;

/// A structured machine-level failure, as returned by
/// [`crate::Machine::try_run`].
///
/// Every variant names, in its `proc` field, the processor where the
/// failure originated.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The SPMD program closure panicked on one processor.
    ProcPanicked {
        /// The panicking processor.
        proc: usize,
        /// The panic payload rendered as text.
        msg: String,
    },
    /// A fault plan crashed this processor at a scheduled send or receive
    /// step (see [`crate::fault::FaultPlan::with_crash`] and
    /// [`crate::fault::FaultPlan::with_crash_at_recv`]).
    ProcCrashed {
        /// The crashed processor.
        proc: usize,
        /// The 1-based send or receive count at which the crash fired.
        step: u64,
    },
    /// A receive posted by `proc` can never complete: every live processor
    /// is parked, nothing is left to retransmit, and nothing matching from
    /// `src` has arrived — a deadlocked or mismatched program, or a peer
    /// that finished without sending. Reported by the lowest-id parked
    /// processor, at the instant the machine went quiescent.
    Deadlock {
        /// The waiting processor.
        proc: usize,
        /// The expected source processor.
        src: usize,
        /// The expected tag.
        tag: u64,
        /// Who was waiting on whom at that instant, read from the
        /// scheduler: `src` first, then the processor `src` was itself
        /// parked awaiting, and so on. The chain ends at a processor that
        /// was not blocked in a receive (finished, or parked on a pool
        /// slot) or at the first one named twice — a cycle.
        waiting_on: Vec<usize>,
    },
    /// `proc` waited for its pooled send buffer — or its loan — towards
    /// `dst` to come back and it never can: every live processor is parked.
    /// A slot carries one message at a time, so one message per (plan,
    /// destination) is in flight: the receiver stalled, never read a loan,
    /// kept the previous message undecoded while waiting for the next, or
    /// the plan was executed unevenly.
    PoolStall {
        /// The processor waiting for its buffer or its loan.
        proc: usize,
        /// The destination that holds the buffer or the loan.
        dst: usize,
    },
    /// The reliable transport exhausted its retries for one message: the
    /// destination never acknowledged despite repeated retransmission.
    Unreachable {
        /// The sending processor.
        proc: usize,
        /// The unresponsive destination.
        dst: usize,
        /// The sequence number of the undeliverable message.
        seq: u64,
        /// Transmission attempts made (including the original send).
        attempts: u32,
    },
    /// A processor finished with unconsumed messages in its mailbox,
    /// indicating mismatched send/recv structure.
    LeftoverMessages {
        /// The processor with leftover traffic.
        proc: usize,
        /// Number of unconsumed messages.
        count: usize,
    },
    /// This processor was aborted because a peer failed first; `cause` is
    /// the originating failure.
    Poisoned {
        /// The aborted (innocent) processor.
        proc: usize,
        /// The root failure on the originating processor.
        cause: Box<MachineError>,
    },
}

impl MachineError {
    /// Follow [`MachineError::Poisoned`] links to the originating failure.
    pub fn root_cause(&self) -> &MachineError {
        match self {
            MachineError::Poisoned { cause, .. } => cause.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::ProcPanicked { proc, msg } => {
                write!(f, "proc {proc} panicked: {msg}")
            }
            MachineError::ProcCrashed { proc, step } => {
                write!(f, "proc {proc} crashed (fault-injected) at step {step}")
            }
            MachineError::Deadlock {
                proc,
                src,
                tag,
                waiting_on,
            } => {
                write!(
                    f,
                    "proc {proc}: receive from {src} tag {tag} can never complete (every \
                     processor is parked) — deadlock, or a peer finished without sending. \
                     waiting on: {proc}"
                )?;
                for p in waiting_on {
                    write!(f, " → {p}")?;
                }
                Ok(())
            }
            MachineError::PoolStall { proc, dst } => write!(
                f,
                "proc {proc}: pool slot to {dst} can never come back (every processor is \
                 parked; one message per slot is in flight) — receiver {dst} stalled, never \
                 read a loan, kept the previous message undecoded, or plan executed unevenly"
            ),
            MachineError::Unreachable {
                proc,
                dst,
                seq,
                attempts,
            } => write!(
                f,
                "proc {proc}: message seq {seq} to {dst} unacknowledged after {attempts} \
                 attempts — peer unreachable"
            ),
            MachineError::LeftoverMessages { proc, count } => write!(
                f,
                "proc {proc} finished with {count} unconsumed message(s) — mismatched send/recv"
            ),
            MachineError::Poisoned { proc, cause } => {
                write!(f, "proc {proc} aborted by peer failure: {cause}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cause_unwraps_poison_chains() {
        let origin = MachineError::Deadlock {
            proc: 3,
            src: 1,
            tag: 7,
            waiting_on: vec![1],
        };
        let poisoned = MachineError::Poisoned {
            proc: 0,
            cause: Box::new(origin.clone()),
        };
        assert_eq!(poisoned.root_cause(), &origin);
        assert_eq!(origin.root_cause(), &origin);
    }

    #[test]
    fn displays_name_the_failing_parties() {
        let e = MachineError::Deadlock {
            proc: 2,
            src: 5,
            tag: 9,
            waiting_on: vec![5, 7, 5],
        };
        let s = e.to_string();
        assert!(
            s.contains("proc 2") && s.contains("from 5") && s.contains("tag 9"),
            "{s}"
        );
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.ends_with("waiting on: 2 → 5 → 7 → 5"), "{s}");
        let u = MachineError::Unreachable {
            proc: 1,
            dst: 4,
            seq: 17,
            attempts: 30,
        }
        .to_string();
        assert!(u.contains("seq 17") && u.contains("unreachable"), "{u}");
        let s = MachineError::PoolStall { proc: 1, dst: 4 }.to_string();
        assert!(
            s.contains("proc 1") && s.contains("slot to 4") && s.contains("receiver 4"),
            "{s}"
        );
        let l = MachineError::LeftoverMessages { proc: 0, count: 2 }.to_string();
        assert!(l.contains("unconsumed"), "{l}");
    }
}
