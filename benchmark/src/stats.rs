//! Order statistics and the op-time reconstruction the runner reports.

use hpf_analysis::median;

/// The tail percentile a round of `sorted.len()` op times supports: p95 from
/// 200 samples up (ten or more lie beyond it), otherwise the highest
/// percentile with exactly ten samples beyond it, and the median when there
/// are ten samples or fewer. Returns `(percentile in 0..1, value)`.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n >= 200 {
        let idx = (0.95 * n as f64).ceil() as usize - 1;
        (0.95, sorted[idx])
    } else if n > 10 {
        ((n - 10) as f64 / n as f64, sorted[n - 11])
    } else {
        (0.5, median(sorted))
    }
}

/// Op durations from per-processor end-of-op stamps (ns on one shared
/// timeline). `stamps[p][0]` is processor `p`'s stamp at the start of the
/// timed window and `stamps[p][k]` its stamp at the end of op `k`; an op ends
/// when its slowest processor ends, so op `k` lasted
/// `max_p stamps[p][k] - max_p stamps[p][k-1]`.
pub fn op_durations<S: AsRef<[u64]>>(stamps: &[S]) -> Vec<u64> {
    let ops = stamps.iter().map(|s| s.as_ref().len()).min().unwrap_or(0);
    let ends: Vec<u64> = (0..ops)
        .map(|k| stamps.iter().map(|s| s.as_ref()[k]).max().unwrap_or(0))
        .collect();
    ends.windows(2).map(|w| w[1].saturating_sub(w[0])).collect()
}

/// How long a block of consecutive ops must last for its median to be
/// trusted, µs.
pub const QUIET_SPAN_US: f64 = 100_000.0;

/// `(median, mean)` op time of the quietest block of a round. The round is
/// cut into blocks of as many consecutive ops as span `span_us` at the
/// round's median op time (at least one), and the lowest block median and
/// the lowest block mean are reported (not necessarily of the same block).
/// Ops left over at the end join no block, unless they are all there is.
///
/// Why: on a shared host co-tenant load only ever adds time, in regimes that
/// last from milliseconds to seconds, so the quietest block repeats where
/// the median of a whole round does not (measured over ten 10-second runs per
/// workload while neighbours were busy: medians of all ops spread 13-28 %,
/// the quietest 100 ms 2-8 %). The block must not be short either: after a
/// 20-30 ms stall of the virtual CPU the next ~25 ms of `exec_small` ops ran
/// 1.6x *faster* than ever otherwise (a clock boost), and the lowest 20-op
/// median caught those; 100 ms dilutes them. It is counted in ops, not
/// timed, so that such a stall does not use the block up.
pub fn quietest_block(op_us: &[f64], span_us: f64) -> (f64, f64) {
    let mean = |b: &[f64]| b.iter().sum::<f64>() / b.len().max(1) as f64;
    let typical = median(op_us);
    let block = if typical > 0.0 {
        (span_us / typical).ceil().max(1.0) as usize
    } else {
        1
    };
    if op_us.len() < block {
        return (typical, mean(op_us));
    }
    let blocks = op_us.chunks_exact(block);
    (
        blocks.clone().map(median).fold(f64::INFINITY, f64::min),
        blocks.map(mean).fold(f64::INFINITY, f64::min),
    )
}

/// Index of the lowest value.
pub fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// `(max - min) / min` of the round medians.
pub fn rounds_spread(round_medians: &[f64]) -> f64 {
    let min = round_medians.iter().copied().fold(f64::INFINITY, f64::min);
    let max = round_medians.iter().copied().fold(0.0, f64::max);
    if round_medians.is_empty() || min <= 0.0 {
        0.0
    } else {
        (max - min) / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 samples: p95 is the 190th value, ten lie beyond it.
        assert_eq!(tail_percentile(&ramp(200)), (0.95, 190.0));
        assert_eq!(tail_percentile(&ramp(1500)), (0.95, 1425.0));
        // 150 samples: the 140th value is the highest with ten beyond it.
        let (p, v) = tail_percentile(&ramp(150));
        assert_eq!(v, 140.0);
        assert!((p - 140.0 / 150.0).abs() < 1e-12);
        // 11 samples: only the smallest has ten beyond it.
        let (p, v) = tail_percentile(&ramp(11));
        assert_eq!(v, 1.0);
        assert!((p - 1.0 / 11.0).abs() < 1e-12);
        // Too few samples for any tail: the median, labelled p50.
        assert_eq!(tail_percentile(&ramp(3)), (0.5, 2.0));
    }

    #[test]
    fn op_durations_follow_the_slowest_processor() {
        // Two processors, two ops. Processor 1 finishes op 1 last (at 130),
        // processor 0 finishes op 2 last (at 200).
        let stamps = vec![vec![10, 100, 200], vec![20, 130, 180]];
        assert_eq!(op_durations(&stamps), vec![110, 70]);
        // A processor with a missing stamp truncates the window.
        let ragged = vec![vec![0, 5, 9], vec![0, 6]];
        assert_eq!(op_durations(&ragged), vec![6]);
        assert!(op_durations::<Vec<u64>>(&[]).is_empty());
    }

    #[test]
    fn quietest_block_is_the_lowest_block_median_and_mean() {
        // The median op lasts 3, so a span of 12 is four ops: noisy, quiet
        // with one outlier, quiet-ish.
        let ops = [
            9.0, 9.0, 9.0, 9.0, // median 9, mean 9
            2.0, 2.0, 2.0, 30.0, // median 2, mean 9
            3.0, 3.0, 3.0, 3.0, // median 3, mean 3
            1.0, // left over: joins no block
        ];
        assert_eq!(quietest_block(&ops, 12.0), (2.0, 3.0));
        // Ops longer than the span are blocks of one: the fastest op.
        assert_eq!(quietest_block(&[40.0, 13.0, 70.0], 12.0), (13.0, 13.0));
        // A round shorter than the span is one block.
        assert_eq!(quietest_block(&[4.0, 1.0, 7.0], 100.0), (4.0, 4.0));
        assert_eq!(quietest_block(&[], 100.0), (0.0, 0.0));
    }

    #[test]
    fn quietest_round_is_the_lowest_median() {
        assert_eq!(argmin(&[910.0, 880.0, 2600.0, 1080.0]), 1);
        assert_eq!(argmin(&[]), 0);
        let spread = rounds_spread(&[910.0, 880.0, 2600.0, 1080.0]);
        assert!((spread - (2600.0 - 880.0) / 880.0).abs() < 1e-12);
        assert_eq!(rounds_spread(&[]), 0.0);
    }
}
