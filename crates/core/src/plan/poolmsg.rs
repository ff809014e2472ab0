//! The one pooled message type, for both directions.
//!
//! A plan's routes are fixed: the message a plan sends to a given
//! destination has the same ranks and the same length on every execute —
//! only the values change. So a pooled buffer is the row's values and
//! nothing else, plus a shared handle on its sender's row: a PACK message's
//! rank part (the `(rank, value)` pairs' ranks of Sections 6.1 / 6.4.1, the
//! CMS segment headers of Section 6.4.2) is that route row — the very row a
//! lent message reads —, and an UNPACK reply's row is a serve row, which
//! carries no ranks. The buffer keeps its length across `put_back`, so the
//! steady-state refill is a pure positional overwrite driven by the
//! sender's lowered copy program: no clears, no pushes, no rank writes.
//!
//! Wire accounting is the paper's message format, computed from the row
//! ([`Routes::rank_words`]): pool and payload memory charges — and every
//! simulated metric derived from them — are those of the materialised
//! message. A buffer's host bytes are its values; its ranks are charged
//! once, to the `plan` account, with the routes.

use std::sync::Arc;

use hpf_machine::{Lendable, Payload, Reusable, Wire, Words};

use super::composer::Routes;
use super::Sender;

/// A pooled message: the values of one row of its sender's routes, in row
/// order, and the sender's routes with the row's index — where the ranks
/// are, if the row has any. With no values it is UNPACK's rank request
/// (Section 4.2), the row's ranks alone. The default (no row yet) occupies
/// no wire words and is not transmitted.
#[derive(Debug, Clone)]
pub(crate) struct RowMsg<T> {
    /// The row's values, one per slot.
    pub vals: Vec<T>,
    /// The sender's routes and the row this message is; set by the first
    /// fill of the pool slot and kept across `put_back`.
    pub route: Option<(Arc<Routes>, usize)>,
}

impl<T> Default for RowMsg<T> {
    fn default() -> Self {
        RowMsg {
            vals: Vec::new(),
            route: None,
        }
    }
}

impl<T: Wire> Payload for RowMsg<T> {
    /// `len·(1 + T::WORDS)` for an explicit-rank row, `2·G + len·T::WORDS`
    /// for a row of `G` runs, `len·T::WORDS` for a row without ranks.
    fn wire_words(&self) -> Words {
        let ranks = self.route.as_ref().map_or(0, |(r, k)| r.rank_words(*k));
        ranks + self.vals.len() * T::WORDS
    }
}

impl<T: Wire> Reusable for RowMsg<T> {
    /// Keep the row handle and the shaped values for the next refill.
    fn reset(&mut self) {}
}

/// A lent message is the sender's source under its send programs' row, with
/// the sender's route row beside it.
impl<T: Wire> Lendable for RowMsg<T> {
    type Elem = T;
    type Recipe = Sender;
}

impl<T: Wire + Default> RowMsg<T> {
    /// Make this buffer row `k`'s message of `sender`: point it at the row
    /// and size its values to the row's length (in place from the second
    /// execute on). Returns the values for the fill to overwrite.
    pub(crate) fn shape(&mut self, sender: &Sender, k: usize) -> &mut [T] {
        let routes = &sender.routes;
        if !matches!(&self.route, Some((r, row)) if Arc::ptr_eq(r, routes) && *row == k) {
            self.route = Some((Arc::clone(routes), k));
        }
        let len = routes.slots.len(k);
        if self.vals.len() != len {
            self.vals.clear();
            self.vals.resize(len, T::default());
        }
        &mut self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::composer::{PeerCsr, RankList};

    /// Two rows of 3 and 0 elements; the first row's ranks in two runs,
    /// explicit, or not carried.
    fn routes(ranks: RankList) -> Arc<Routes> {
        let slots = PeerCsr {
            peers: vec![1, 3],
            offs: vec![0, 3, 3],
        };
        Arc::new(Routes { slots, ranks })
    }

    fn msg<T: Wire + Default>(routes: &Arc<Routes>, k: usize) -> RowMsg<T> {
        let len = routes.slots.len(k);
        RowMsg {
            vals: vec![T::default(); len],
            route: Some((Arc::clone(routes), k)),
        }
    }

    /// Section 6.4's formats: `len·(1 + W)` words for pairs, `2·G + len·W`
    /// for segments, `len·W` for a reply, `W` the element's words; the
    /// default occupies none, so the exchange does not transmit it. A
    /// message with no values is UNPACK's request (Section 4.2): `len` words
    /// for explicit ranks, `2·G` for runs, over the same ranks.
    #[test]
    fn wire_words_are_the_paper_formats() {
        let pairs = routes(RankList::Explicit(vec![4, 5, 9]));
        let segments = routes(RankList::Runs {
            offs: vec![0, 2, 2],
            runs: vec![(4, 2), (9, 1)],
        });
        let replies = routes(RankList::Implicit);
        for (routes, words) in [(&pairs, 3), (&segments, 2 * 2)] {
            let mut request = msg::<f64>(routes, 0);
            request.vals.clear();
            assert_eq!(request.wire_words(), words);
            let ranks = routes.rank_runs(0).flat_map(|(base, n)| base..base + n);
            assert_eq!(ranks.collect::<Vec<_>>(), [4, 5, 9]);
        }
        assert_eq!(msg::<i32>(&pairs, 0).wire_words(), 3 * (1 + 1));
        assert_eq!(msg::<f64>(&pairs, 0).wire_words(), 3 * (1 + 2));
        assert_eq!(msg::<i32>(&segments, 0).wire_words(), 2 * 2 + 3);
        assert_eq!(msg::<f64>(&segments, 0).wire_words(), 2 * 2 + 3 * 2);
        assert_eq!(msg::<i32>(&replies, 0).wire_words(), 3);
        assert_eq!(msg::<f64>(&replies, 0).wire_words(), 3 * 2);
        assert_eq!(replies.rank_runs(0).count(), 0);
        for routes in [&pairs, &segments, &replies] {
            assert_eq!(msg::<i32>(routes, 1).wire_words(), 0);
        }
        assert_eq!(RowMsg::<i32>::default().wire_words(), 0);
        assert_eq!(RowMsg::<f64>::default().wire_words(), 0);
        // A row without ranks costs its slot rows and nothing more.
        assert_eq!(replies.mem_bytes(), replies.slots.mem_bytes());
    }

    #[test]
    fn reset_keeps_the_row_and_the_values() {
        for ranks in [
            RankList::Runs {
                offs: vec![0, 2, 2],
                runs: vec![(4, 2), (9, 1)],
            },
            RankList::Implicit,
        ] {
            let routes = routes(ranks);
            let mut m = msg::<i32>(&routes, 0);
            m.vals.copy_from_slice(&[3, 4, 5]);
            m.reset();
            assert_eq!(m.vals, [3, 4, 5]);
            assert!(m
                .route
                .is_some_and(|(r, k)| Arc::ptr_eq(&r, &routes) && k == 0));
        }
    }
}
