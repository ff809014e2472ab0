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
//! A staged message holds its values only, flat in rank order; its segment
//! headers are the sender's route row, shared rather than copied (the
//! `plan` module's `poolmsg`). The flat value array is what lets the
//! execute hot path fill and decode a message with bulk `copy_from_slice`
//! runs (see [`crate::plan::copyprog`]) — wire accounting is unchanged,
//! since `Σ (2 + len)` and `2·G + Σ len` are the same sum. The scheme's
//! plan-time composer and its Section 6.4 costs are on
//! [`crate::PackScheme::CompactMessage`].

use hpf_distarray::DimLayout;

use crate::plan::copyprog::{join, CopyOp, Phase, Source};

/// Place one staged segment message — the values `vals` of the sender's
/// run row `runs` — into the local portion of `V` (Section 6.4.2:
/// decomposition costs `E_a + 2·Gr_i`, two operations per segment plus one
/// per value, which the caller charges from the row). Returns the values
/// placed.
///
/// Every segment was split at result-block boundaries by the sender's
/// composer, so its ranks map to **contiguous** local indices on this
/// owner (`local_of(base + j) == local_of(base) + j` within one block) —
/// one `local_of` division and one `copy_from_slice` per segment instead
/// of one of each per value.
pub(crate) fn place_segments<T: Copy>(
    layout: &DimLayout,
    me: usize,
    runs: &[(u32, u32)],
    vals: &[T],
    out: &mut [T],
) -> usize {
    let mut off = 0usize;
    for &(base, len) in runs {
        let (base, len) = (base as usize, len as usize);
        debug_assert_eq!(layout.owner(base), me, "misrouted segment");
        debug_assert_eq!(layout.owner(base + len - 1), me, "segment crosses owners");
        let lo = layout.local_of(base);
        debug_assert_eq!(
            layout.local_of(base + len - 1),
            lo + len - 1,
            "segment is not locally contiguous"
        );
        out[lo..lo + len].copy_from_slice(&vals[off..off + len]);
        off += len;
    }
    debug_assert_eq!(off, vals.len(), "the runs disagree with the value count");
    off
}

/// Place a lent segment message into the local portion of `V`, for the
/// requested phase: the sender's values `src` land at each segment's local
/// run through the fused kernel ([`join`]), each segment one `Contig` op of
/// the placement. The caller charges the decomposition as for a staged
/// message, from the sender's run row `runs`.
pub(crate) fn join_segments<T: Copy>(
    layout: &DimLayout,
    me: usize,
    runs: &[(u32, u32)],
    src: Source<'_, T>,
    out: &mut [T],
    phase: Phase,
) -> usize {
    if phase == Phase::Scatter && !src.scatters() {
        // Segments are bulk, and so is every op of this row.
        return 0;
    }
    let placement = runs.iter().scan(0u32, |pos, &(base, len)| {
        let at = layout.local_of(base as usize);
        debug_assert_eq!(layout.owner(base as usize), me, "misrouted segment");
        let op = CopyOp::Contig {
            pos: *pos,
            at: at as u32,
            len,
        };
        *pos += len;
        Some(op)
    });
    join(src, placement, &[], out, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::copyprog::CopyPrograms;

    #[test]
    fn place_segments_bulk_matches_scalar() {
        // W' = 4 over 2 procs: proc 0 owns ranks 0..4 and 8..12.
        let layout = DimLayout::new_general(16, 2, 4).unwrap();
        let (runs, vals) = ([(0, 4), (9, 2)], [1, 2, 3, 4, 5, 6]);
        let mut out = vec![0i32; layout.local_len(0)];
        assert_eq!(place_segments(&layout, 0, &runs, &vals, &mut out), 6);
        let mut want = vec![0i32; out.len()];
        let mut off = 0;
        for &(base, len) in &runs {
            for j in 0..len as usize {
                want[layout.local_of(base as usize + j)] = vals[off + j];
            }
            off += len as usize;
        }
        assert_eq!(out, want);
    }

    proptest::proptest! {
        /// The per-segment placement equals the per-value
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
            let (mut runs, mut vals) = (Vec::<(u32, u32)>::new(), Vec::new());
            for r in (0..layout.n()).filter(|&r| layout.owner(r) == me && keep[r]) {
                match runs.last_mut() {
                    Some((base, len)) if (*base + *len) as usize == r && r % w != 0 => *len += 1,
                    _ => runs.push((r as u32, 1)),
                }
                vals.push(r as i32 * 7 + 1);
            }
            let mut out = vec![0; layout.local_len(me)];
            let placed = place_segments(&layout, me, &runs, &vals, &mut out);
            proptest::prop_assert_eq!(placed, vals.len());
            let mut want = vec![0; out.len()];
            let mut next_val = vals.iter();
            for &(base, len) in &runs {
                for j in 0..len as usize {
                    want[layout.local_of(base as usize + j)] = *next_val.next().unwrap();
                }
            }
            proptest::prop_assert_eq!(&out, &want);
            // Lent: the same values read in place from a sender's array
            // through its lowered gather row, by the fused kernel — runs of the array where
            // `keep` is set, scattered elements where it is not — in one
            // pass, the two phases in either order.
            let mut list: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for k in 0..vals.len() {
                next += if keep[k % keep.len()] { 1 } else { 5 };
                list.push(next);
            }
            let mut a = vec![0i32; next as usize + 1];
            for (&i, &v) in list.iter().zip(&vals) {
                a[i as usize] = v;
            }
            let progs = CopyPrograms::lower(&list, &[0, list.len() as u32]);
            let mut lent = vec![0; out.len()];
            for phase in [Phase::Scatter, Phase::Bulk] {
                join_segments(&layout, me, &runs, progs.source(0, &a), &mut lent, phase);
            }
            proptest::prop_assert_eq!(lent, want);
        }
    }
}
