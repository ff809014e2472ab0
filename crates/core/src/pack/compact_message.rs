//! The compact message scheme (CMS) — Sections 6.2 / 6.4.2.
//!
//! Storage works exactly as in the compact storage scheme; the message
//! format changes. Because the global ranks of the `n` selected elements of
//! a slice are consecutive (`r_0, r_0+1, …, r_0+n-1`), each destination run
//! needs only its first rank and its length on the wire:
//!
//! ```text
//! message = segment*      segment = (base-rank, count, value, …, value)
//! ```
//!
//! so a message of `E` values in `G` segments costs `E + 2G` words instead
//! of `2E`. With one segment of minimum length 1, a segment costs 3 words —
//! hence the paper's observation that CMS cannot pay off at cyclic
//! distribution (slice size 1) or when slices hold single elements, and
//! that shrinking the result vector's block size `W'` inflates the segment
//! count.
//!
//! The in-memory layout is structure-of-arrays: segment headers in
//! [`CmsMessage::heads`], all values flattened into [`CmsMessage::vals`].
//! The flat value array is what lets the execute hot path fill and decode
//! a message with bulk `copy_from_slice` runs (see
//! [`crate::plan::copyprog`]) — wire accounting is unchanged, since
//! `Σ (2 + len)` and `2·G + Σ len` are the same sum.
//!
//! Under the plan/execute split, the scans and the run composition
//! (`2/run` segment headers) are plan-time; the value gather (`1/value`)
//! and the segment decode (`2/segment + 1/value`) are execute-time.

use hpf_distarray::DimLayout;
use hpf_machine::{Payload, Reusable, Wire, Words};

use crate::plan::composer::{CompactComposer, ComposeCost, Composer, RankEmit};
use crate::schemes::ScanMethod;

/// A compact-message-scheme message: `(base rank, len)` segment headers
/// over a flat value array. Wire size is `Σ (2 + |values|)` words, exactly
/// the paper's `E_i + 2·Gs_i` accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmsMessage<T> {
    /// `(base rank, run length)` headers, one per segment; segment `g`'s
    /// values start at `Σ len` of the headers before it.
    pub heads: Vec<(u32, u32)>,
    /// All segment values, concatenated in header order.
    pub vals: Vec<T>,
}

impl<T> Default for CmsMessage<T> {
    fn default() -> Self {
        CmsMessage {
            heads: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<T> CmsMessage<T> {
    /// Total number of values across all segments.
    pub(crate) fn value_count(&self) -> usize {
        self.vals.len()
    }
}

impl<T: Wire> Payload for CmsMessage<T> {
    fn wire_words(&self) -> Words {
        2 * self.heads.len() + self.vals.len() * T::WORDS
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

impl<T: Wire> Reusable for CmsMessage<T> {
    /// Keep both the header skeleton and the shaped value array: a plan's
    /// routes are fixed, so the next [`ensure_shape`] for the same
    /// destination finds everything in place and the refill is a pure
    /// positional overwrite.
    fn reset(&mut self) {}
}

/// Shape a pooled message to a route's run list: headers equal to `runs`,
/// value array sized to the route's element count. From the second execute
/// of a plan this finds everything already in place and is a comparison
/// plus a length check — no writes, no allocation.
pub(crate) fn ensure_shape<T: Wire + Default>(
    msg: &mut CmsMessage<T>,
    runs: &[(u32, u32)],
    value_count: usize,
) {
    if msg.heads != runs {
        msg.heads.clear();
        msg.heads.extend_from_slice(runs);
    }
    if msg.vals.len() != value_count {
        msg.vals.clear();
        msg.vals.resize(value_count, T::default());
    }
    debug_assert_eq!(
        msg.heads.iter().map(|&(_, l)| l as usize).sum::<usize>(),
        value_count,
        "run lengths disagree with the slot count"
    );
}

/// The CMS plan-time composer: counter-array storage, run-compressed
/// ranks, two operations per destination run (the segment header); the
/// per-value work is all execute-time.
pub(crate) fn composer(scan_method: ScanMethod) -> Box<dyn Composer> {
    Box::new(CompactComposer::new(
        RankEmit::Runs,
        ComposeCost {
            per_run: 2,
            per_elem: 0,
        },
        scan_method,
    ))
}

/// Place one received segment message into the local portion of `V`
/// (Section 6.4.2: decomposition costs `E_a + 2·Gr_i` — two operations per
/// segment plus one per value). Returns the operation count for the caller
/// to charge once per decode pass.
///
/// Every segment was split at result-block boundaries by the sender's
/// composer, so its ranks map to **contiguous** local indices on this
/// owner (`local_of(base + j) == local_of(base) + j` within one block) —
/// one `local_of` division and one `copy_from_slice` per segment instead
/// of one of each per value.
pub(crate) fn place_segments<T: Wire + Default>(
    layout: &DimLayout,
    me: usize,
    msg: &CmsMessage<T>,
    out: &mut [T],
) -> usize {
    let mut ops = 0usize;
    let mut off = 0usize;
    for &(base, len) in &msg.heads {
        let (base, len) = (base as usize, len as usize);
        ops += 2 + len;
        let vals = &msg.vals[off..off + len];
        off += len;
        debug_assert_eq!(layout.owner(base), me, "misrouted segment");
        debug_assert_eq!(layout.owner(base + len - 1), me, "segment crosses owners");
        let lo = layout.local_of(base);
        debug_assert_eq!(
            layout.local_of(base + len - 1),
            lo + len - 1,
            "segment is not locally contiguous"
        );
        out[lo..lo + len].copy_from_slice(vals);
    }
    debug_assert_eq!(off, msg.vals.len(), "headers disagree with value count");
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_words_match_paper_formula() {
        // E values in G segments -> E + 2G words (1-word elements).
        let msg = CmsMessage::<i32> {
            heads: vec![(0, 3), (10, 1), (20, 2)],
            vals: vec![1, 2, 3, 4, 5, 6],
        };
        assert_eq!(msg.value_count(), 6);
        assert_eq!(msg.wire_words(), 6 + 2 * 3);
        assert_eq!(CmsMessage::<i32>::default().wire_words(), 0);
    }

    #[test]
    fn single_element_segment_costs_three_words() {
        // The paper: "the size of each segment is at least 3" — why CMS
        // cannot win at cyclic distribution.
        let msg = CmsMessage::<i32> {
            heads: vec![(5, 1)],
            vals: vec![9],
        };
        assert_eq!(msg.wire_words(), 3);
    }

    #[test]
    fn ensure_shape_reuses_the_skeleton_in_place() {
        let runs = [(4u32, 2u32), (9, 1)];
        let mut msg = CmsMessage::<i32>::default();
        ensure_shape(&mut msg, &runs, 3);
        assert_eq!(msg.heads, runs);
        msg.vals.copy_from_slice(&[10, 30, 40]);
        let heads_ptr = msg.heads.as_ptr();
        let vals_ptr = msg.vals.as_ptr();
        msg.reset();
        ensure_shape(&mut msg, &runs, 3);
        assert_eq!(msg.vals, vec![10, 30, 40], "reset keeps the shaped values");
        assert_eq!(msg.heads.as_ptr(), heads_ptr, "skeleton survives reset");
        assert_eq!(msg.vals.as_ptr(), vals_ptr, "values refill in place");
    }

    #[test]
    fn place_segments_bulk_matches_scalar() {
        // W' = 4 over 2 procs: proc 0 owns ranks 0..4 and 8..12.
        let layout = DimLayout::new_general(16, 2, 4).unwrap();
        let msg = CmsMessage::<i32> {
            heads: vec![(0, 4), (9, 2)],
            vals: vec![1, 2, 3, 4, 5, 6],
        };
        let mut out = vec![0i32; layout.local_len(0)];
        let ops = place_segments(&layout, 0, &msg, &mut out);
        assert_eq!(ops, (2 + 4) + (2 + 2));
        let mut want = vec![0i32; out.len()];
        let mut off = 0;
        for &(base, len) in &msg.heads {
            for j in 0..len as usize {
                want[layout.local_of(base as usize + j)] = msg.vals[off + j];
            }
            off += len as usize;
        }
        assert_eq!(out, want);
    }

    proptest::proptest! {
        /// The per-segment `copy_from_slice` equals the per-value
        /// `out[local_of(base + j)] = v` loop on block (`t == 1`), cyclic
        /// (`w == 1`) and block-cyclic layouts, for any sorted rank list of
        /// one owner cut into segments the way the composer cuts them: at
        /// every gap and at every result-block boundary.
        #[test]
        fn place_segments_matches_the_per_value_loop(
            shape in (1usize..5, 1usize..6, 1usize..5),
            me in 0usize..4,
            keep in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 100),
        ) {
            let (p, w, t) = shape;
            let layout = DimLayout::new_general(p * w * t, p, w).unwrap();
            let me = me % p;
            let mut msg = CmsMessage::<i32>::default();
            for r in (0..layout.n()).filter(|&r| layout.owner(r) == me && keep[r]) {
                match msg.heads.last_mut() {
                    Some((base, len)) if (*base + *len) as usize == r && r % w != 0 => *len += 1,
                    _ => msg.heads.push((r as u32, 1)),
                }
                msg.vals.push(r as i32 * 7 + 1);
            }
            let mut out = vec![0; layout.local_len(me)];
            let ops = place_segments(&layout, me, &msg, &mut out);
            proptest::prop_assert_eq!(ops, 2 * msg.heads.len() + msg.vals.len());
            let mut want = vec![0; out.len()];
            let mut vals = msg.vals.iter();
            for &(base, len) in &msg.heads {
                for j in 0..len as usize {
                    want[layout.local_of(base as usize + j)] = *vals.next().unwrap();
                }
            }
            proptest::prop_assert_eq!(out, want);
        }
    }
}
