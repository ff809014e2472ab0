//! Pooled messages that hold values only.
//!
//! A plan's routes are fixed: the message a plan sends to a given
//! destination has the same ranks and the same length on every execute —
//! only the values change. So a pooled buffer is the row's values and
//! nothing else: a PACK message's rank part (the `(rank, value)` pairs' ranks
//! of Sections 6.1 / 6.4.1, the CMS segment headers of Section 6.4.2) is a
//! shared handle on the sender's route row — the very row a lent message
//! reads — and an UNPACK reply has none. The buffer keeps its length across
//! `put_back`, so the steady-state refill is a pure positional overwrite
//! driven by the plan's lowered copy program: no clears, no pushes, no rank
//! writes.
//!
//! Wire accounting is the paper's message format, computed from the row
//! ([`Routes::rank_words`]): pool and payload memory charges — and every
//! simulated metric derived from them — are those of the materialised
//! message. A PACK buffer's host bytes are its values; its ranks are charged
//! once, to the `plan` account, with the routes.

use std::sync::Arc;

use hpf_machine::{Lendable, Payload, Reusable, Wire, Words};

use super::composer::Routes;
use super::{PackPlan, UnpackPlan};

/// A pooled message the shared send round fills: its values, and whatever
/// else it keeps of its sender's plan.
pub(crate) trait ValueMsg: Lendable {
    /// Make this buffer row `k`'s message of `plan`: point it at the row and
    /// size its values to the row's length (in place from the second execute
    /// on). Returns the values for the fill to overwrite.
    fn shape(&mut self, plan: &Self::Recipe, k: usize) -> &mut [Self::Elem];

    /// Wire words of row `k`'s message, materialised or lent.
    fn words(plan: &Self::Recipe, k: usize) -> Words;
}

/// Size `vals` to `len`, leaving a right-sized buffer untouched.
fn size_to<T: Default + Clone>(vals: &mut Vec<T>, len: usize) -> &mut [T] {
    if vals.len() != len {
        vals.clear();
        vals.resize(len, T::default());
    }
    vals
}

/// A PACK message: the values of one route row, in rank order, and the
/// sender's routes with the row's index — where the ranks are. With no
/// values it is UNPACK's rank request (Section 4.2), the row's ranks alone.
/// The default (no row yet) occupies no wire words and is not transmitted.
#[derive(Debug, Clone)]
pub(crate) struct PackMsg<T> {
    /// The row's values, one per rank.
    pub vals: Vec<T>,
    /// The sender's routes and the row this message is; set by the first
    /// fill of the pool slot and kept across `put_back`.
    pub route: Option<(Arc<Routes>, usize)>,
}

impl<T> Default for PackMsg<T> {
    fn default() -> Self {
        PackMsg {
            vals: Vec::new(),
            route: None,
        }
    }
}

impl<T: Wire> Payload for PackMsg<T> {
    /// `len·(1 + T::WORDS)` for an explicit-rank row, `2·G + len·T::WORDS`
    /// for a row of `G` runs.
    fn wire_words(&self) -> Words {
        let ranks = self.route.as_ref().map_or(0, |(r, k)| r.rank_words(*k));
        ranks + self.vals.len() * T::WORDS
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

impl<T: Wire> Reusable for PackMsg<T> {
    /// Keep the row handle and the shaped values for the next refill.
    fn reset(&mut self) {}
}

/// A lent PACK message is the sender's `a_local` under its plan's gather
/// row, with the plan's route row beside it.
impl<T: Wire> Lendable for PackMsg<T> {
    type Elem = T;
    type Recipe = PackPlan;
}

impl<T: Wire + Default> ValueMsg for PackMsg<T> {
    fn shape(&mut self, plan: &PackPlan, k: usize) -> &mut [T] {
        let routes = &plan.routes;
        if !matches!(&self.route, Some((r, row)) if Arc::ptr_eq(r, routes) && *row == k) {
            self.route = Some((Arc::clone(routes), k));
        }
        size_to(&mut self.vals, routes.slots.len(k))
    }

    fn words(plan: &PackPlan, k: usize) -> Words {
        plan.routes.rank_words(k) + plan.routes.slots.len(k) * T::WORDS
    }
}

/// An UNPACK reply: the served values, one per requested rank, in request
/// order, `len · T::WORDS` wire words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatMsg<T> {
    /// The served values.
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

impl<T: Wire + Default> ValueMsg for FlatMsg<T> {
    fn shape(&mut self, plan: &UnpackPlan, k: usize) -> &mut [T] {
        size_to(&mut self.vals, plan.serve.len(k))
    }

    fn words(plan: &UnpackPlan, k: usize) -> Words {
        plan.serve.len(k) * T::WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::composer::{PeerCsr, RankList};

    /// Two rows of 3 and 0 elements; the first row's ranks in two runs.
    fn routes(runs: bool) -> Arc<Routes> {
        let ranks = if runs {
            RankList::Runs {
                offs: vec![0, 2, 2],
                runs: vec![(4, 2), (9, 1)],
            }
        } else {
            RankList::Explicit(vec![4, 5, 9])
        };
        let slots = PeerCsr {
            peers: vec![1, 3],
            offs: vec![0, 3, 3],
        };
        Arc::new(Routes { slots, ranks })
    }

    fn msg<T: Wire + Default>(routes: &Arc<Routes>, k: usize) -> PackMsg<T> {
        let len = routes.slots.len(k);
        PackMsg {
            vals: vec![T::default(); len],
            route: Some((Arc::clone(routes), k)),
        }
    }

    /// Section 6.4's formats: `len·(1 + W)` words for pairs, `2·G + len·W`
    /// for segments, `W` the element's words; the default occupies none, so
    /// the exchange does not transmit it. A message with no values is
    /// UNPACK's request (Section 4.2): `len` words for explicit ranks, `2·G`
    /// for runs, over the same ranks.
    #[test]
    fn wire_words_are_the_paper_formats() {
        let (pairs, segments) = (routes(false), routes(true));
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
        for routes in [&pairs, &segments] {
            assert_eq!(msg::<i32>(routes, 1).wire_words(), 0);
        }
        assert_eq!(PackMsg::<i32>::default().wire_words(), 0);
        assert_eq!(PackMsg::<f64>::default().wire_words(), 0);
        assert_eq!(
            FlatMsg {
                vals: vec![0f64; 3]
            }
            .wire_words(),
            3 * 2
        );
    }

    #[test]
    fn reset_keeps_the_row_and_the_values() {
        let routes = routes(true);
        let mut pm = msg::<i32>(&routes, 0);
        pm.vals.copy_from_slice(&[3, 4, 5]);
        pm.reset();
        assert_eq!(pm.vals, [3, 4, 5]);
        assert!(pm
            .route
            .is_some_and(|(r, k)| Arc::ptr_eq(&r, &routes) && k == 0));
        let mut fm = FlatMsg::<i32> { vals: vec![1, 2] };
        fm.reset();
        assert_eq!(fm.vals, vec![1, 2]);
    }
}
