//! Pooled message wrappers whose *shape* survives the pool's `reset`.
//!
//! The stock pooled buffer, `Vec<T>`, clears on [`Reusable::reset`], so
//! every execute rebuilds its messages element by element. But a plan's
//! routes are fixed: the message a plan sends to a given destination has
//! the same ranks and the same length on every execute — only the values
//! change. These wrappers keep the full buffer across `put_back`, turning
//! the steady-state refill into a pure positional overwrite driven by the
//! plan's lowered copy program (no clears, no pushes, no rank writes).
//!
//! Wire accounting is unchanged: each wrapper reports exactly the words of
//! the `Vec` it replaces, so pool and payload memory charges — and every
//! simulated metric derived from them — are bit-identical to the cleared
//! buffers they supersede.

use hpf_machine::{Lendable, Payload, Reusable, Wire, Words};

use super::{PackPlan, UnpackPlan};

/// A pair-scheme message: `(global rank, value)` entries, `1 + T::WORDS`
/// words each (Section 6.4.1's `2·E_i` for 1-word elements). Replaces the
/// bare `Vec<(u32, T)>` in the pooled PACK exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairMsg<T> {
    /// The `(rank, value)` entries. Ranks form the plan-constant skeleton;
    /// the steady-state refill overwrites only the values.
    pub pairs: Vec<(u32, T)>,
}

impl<T> Default for PairMsg<T> {
    fn default() -> Self {
        PairMsg { pairs: Vec::new() }
    }
}

impl<T: Wire> Payload for PairMsg<T> {
    fn wire_words(&self) -> Words {
        self.pairs.len() * <(u32, T)>::WORDS
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

impl<T: Wire> Reusable for PairMsg<T> {
    /// Keep the rank skeleton and the value slots: the next refill for the
    /// same destination overwrites values in place.
    fn reset(&mut self) {}
}

/// A lent pair message is the sender's `a_local` under its plan's gather
/// row, with the plan's rank row beside it.
impl<T: Wire> Lendable for PairMsg<T> {
    type Elem = T;
    type Recipe = PackPlan;
}

/// A flat value-only message for the UNPACK reply round, replacing the
/// bare `Vec<T>`: same `len · T::WORDS` wire words, but the buffer keeps
/// its length across `put_back` so the serve kernel refills it
/// positionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatMsg<T> {
    /// The served values, one per requested rank, in request order.
    pub vals: Vec<T>,
}

impl<T> Default for FlatMsg<T> {
    fn default() -> Self {
        FlatMsg { vals: Vec::new() }
    }
}

impl<T: Wire> Payload for FlatMsg<T> {
    fn wire_words(&self) -> Words {
        self.vals.len() * T::WORDS
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

impl<T: Wire> Reusable for FlatMsg<T> {
    /// Keep the shaped value array for the next positional refill.
    fn reset(&mut self) {}
}

/// A lent reply is the owner's `v_local` under its plan's serve row.
impl<T: Wire> Lendable for FlatMsg<T> {
    type Elem = T;
    type Recipe = UnpackPlan;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_words_match_the_vectors_they_replace() {
        let pm = PairMsg::<i64> {
            pairs: vec![(0, 1), (5, 2), (9, 3)],
        };
        assert_eq!(pm.wire_words(), vec![(0u32, 1i64); 3].wire_words());
        let fm = FlatMsg::<i32> {
            vals: vec![7, 8, 9, 10],
        };
        assert_eq!(fm.wire_words(), vec![0i32; 4].wire_words());
    }

    #[test]
    fn reset_preserves_shape_and_contents() {
        let mut pm = PairMsg::<i32> {
            pairs: vec![(3, 30)],
        };
        pm.reset();
        assert_eq!(pm.pairs, vec![(3, 30)]);
        let mut fm = FlatMsg::<i32> { vals: vec![1, 2] };
        fm.reset();
        assert_eq!(fm.vals, vec![1, 2]);
    }
}
