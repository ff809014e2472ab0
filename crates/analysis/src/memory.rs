//! Peak per-processor memory: measured high-water marks from `MemSample`
//! events versus a closed-form predicted model (DESIGN.md §13).
//!
//! The machine charges every word-carrying structure to a named
//! [`MemAccount`] in *simulated* time; `measured_peak` folds those
//! samples into a per-processor running total and reports the machine-wide
//! high-water mark — which processor, at what simulated time, under which
//! enclosing stage, and which account held the most bytes at that instant.
//!
//! The predicted side mirrors [`crate::Conformance`]: the same
//! [`MaskStats`] quantities that drive the Section 6.4 operation model
//! also bound every account's footprint in closed form (see the
//! `predict_*` functions), and [`PeakMemory::evaluate`] gates
//! `predicted >= measured` with a bounded over-estimation ratio
//! ([`MEM_RATIO_GATE`]). Red.2's real cost is exactly this number — the
//! paper's Table II charges its *time*, but whole-array redistribution is
//! only feasible when the peak footprint fits — so the model is the
//! prerequisite for memory-bounded redistribution planning.

use hpf_core::{MaskStats, PackScheme, RedistScheme, UnpackScheme};
use hpf_machine::{Event, EventKind, MemAccount};

/// Maximum allowed over-estimation: `predicted / measured` must not exceed
/// this (and must be at least 1 — the model is an upper bound).
pub const MEM_RATIO_GATE: f64 = 1.25;

/// The machine-wide measured memory high-water mark of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MeasuredPeak {
    /// Peak bytes on the peak processor (all accounts summed).
    pub bytes: u64,
    /// The processor that held the peak.
    pub proc: usize,
    /// Simulated time of the peak, nanoseconds.
    pub ts_ns: f64,
    /// The account holding the most bytes at the peak instant.
    pub account: MemAccount,
    /// Innermost stage span enclosing the peak on the peak processor
    /// (`"-"` when the peak falls outside every span).
    pub stage: String,
}

impl MeasuredPeak {
    fn zero() -> MeasuredPeak {
        MeasuredPeak {
            bytes: 0,
            proc: 0,
            ts_ns: 0.0,
            account: MemAccount::Mailbox,
            stage: "-".to_string(),
        }
    }
}

/// Extract the measured peak from per-processor event logs (a traced run's
/// [`RunOutput::events`]). `MemSample` owners are machine-global — a
/// sender records its destination's replay-log growth — so samples are
/// pooled across all logs, grouped by owner, and integrated in simulated
/// time. Equal-timestamp charges apply before releases (the same
/// pessimistic order the Perfetto counter tracks use), so the reported
/// peak matches what the trace viewer shows.
///
/// [`RunOutput::events`]: hpf_machine::RunOutput
pub(crate) fn measured_peak(events: &[Vec<Event>]) -> MeasuredPeak {
    let nprocs = events.len();
    // (ts, release?, account, delta) per owner; pooled across recorders.
    let mut samples: Vec<Vec<(f64, u8, MemAccount, i64)>> = vec![Vec::new(); nprocs];
    for evs in events {
        for e in evs {
            if let EventKind::MemSample {
                account,
                owner,
                delta_bytes,
            } = &e.kind
            {
                // The mailbox ring is a constant pre-reserve charged once at
                // startup, not workload-driven memory: it would shift every
                // peak by the same additive constant and is gated separately,
                // byte-exactly, by `ring_accounting`.
                if *account == MemAccount::MailboxRing {
                    continue;
                }
                samples[*owner].push((e.ts_ns, u8::from(*delta_bytes < 0), *account, *delta_bytes));
            }
        }
    }
    let mut best = MeasuredPeak::zero();
    for (proc, procsamples) in samples.iter_mut().enumerate() {
        procsamples.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut by_account = [0i64; MemAccount::ALL.len()];
        let mut total = 0i64;
        let (mut peak, mut peak_ts, mut peak_account) = (0i64, 0.0f64, MemAccount::Mailbox);
        for &(ts, _, account, delta) in procsamples.iter() {
            by_account[account as usize] += delta;
            total += delta;
            if total > peak {
                peak = total;
                peak_ts = ts;
                peak_account = MemAccount::ALL[argmax(&by_account)];
            }
        }
        if peak as u64 > best.bytes {
            best = MeasuredPeak {
                bytes: peak as u64,
                proc,
                ts_ns: peak_ts,
                account: peak_account,
                stage: enclosing_stage(&events[proc], peak_ts),
            };
        }
    }
    best
}

/// Mailbox-ring accounting of one traced run: total `MailboxRing` bytes
/// charged across all processors, and whether every processor charged
/// exactly `expected_per_proc` — `capacity × size_of::<Frame>()`, i.e.
/// `hpf_machine::ring_bytes(hpf_machine::default_capacity(p))` on `p`
/// processors. The ring is a constant pre-reserve, so unlike the workload
/// peak (ratio-gated against a closed-form bound) it is asserted
/// byte-exactly. Single-spawn runs only: a crash-recovery respawn charges
/// its ring again.
pub(crate) fn ring_accounting(events: &[Vec<Event>], expected_per_proc: u64) -> (u64, bool) {
    let mut per_proc = vec![0i64; events.len()];
    for evs in events {
        for e in evs {
            if let EventKind::MemSample {
                account: MemAccount::MailboxRing,
                owner,
                delta_bytes,
            } = &e.kind
            {
                per_proc[*owner] += delta_bytes;
            }
        }
    }
    let exact = per_proc
        .iter()
        .all(|&b| b >= 0 && b as u64 == expected_per_proc);
    let total: i64 = per_proc.iter().map(|&b| b.max(0)).sum();
    (total as u64, exact)
}

fn argmax(xs: &[i64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// The innermost stage span open at `ts_ns` in one processor's log.
/// Spans beginning at or before the peak instant enclose it; spans ending
/// exactly at it have already closed (releases recorded at a span
/// boundary belong to the span that did the work).
fn enclosing_stage(events: &[Event], ts_ns: f64) -> String {
    let mut stack: Vec<&'static str> = Vec::new();
    for e in events {
        if e.ts_ns > ts_ns {
            break;
        }
        match e.kind {
            EventKind::SpanBegin { name } => stack.push(name),
            EventKind::SpanEnd { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack
        .last()
        .map_or_else(|| "-".to_string(), |s| s.to_string())
}

// ---------------------------------------------------------------------------
// Predicted model (bytes per processor, closed-form from MaskStats).
//
// Accounts at the execute-phase peak (just before the exchange decode, when
// staged pool buffers, the plan, and the user arrays coexist):
//
//   user     what the workload registers: 4L data + L mask words→bytes
//   plan     the retained peer-indexed rows (peer ids, row offsets, ranks
//            or runs), the exchange's two peer lists, the lowered copy
//            programs with their `Scatter` walks and, for UNPACK, the
//            field spans at 8 bytes each (PackPlan/UnpackPlan mem_bytes,
//            byte for byte; the peer counts and program bytes come exact
//            from MaskStats, which walks the same routes and runs the same
//            lowering and the same span derivation)
//   pool     staged wire bytes (self-destined slot included: an upper
//            bound — the executor never stages the self share, but that
//            share has no closed form on block-cyclic layouts)
//   transport  a two-message in-flight allowance; the alltoallv schedules
//            are permutations and the decode loop consumes each inbound
//            message as it arrives, so the mailbox never holds the full
//            inbound volume — at most one message being consumed plus one
//            delivered early by schedule skew (verified against traced
//            runs; see DESIGN.md §13)
//
// Plan-phase collective transients (scan/ranking PRS, the flag or request
// round) are strictly dominated by the execute-phase terms for any mask
// dense enough to communicate, so they need no term of their own.
// ---------------------------------------------------------------------------

const W: u64 = 4; // simulated word size, bytes

/// Messages the transport holds per processor beyond steady state: one
/// being consumed plus one delivered early by schedule skew.
const INFLIGHT_MSGS: u64 = 2;

/// Transport allowance in bytes for an exchange moving `volume_words`
/// split across `p` peers: [`INFLIGHT_MSGS`] average-size messages.
fn allowance(volume_words: u64, p: u64) -> u64 {
    INFLIGHT_MSGS * W * volume_words.div_ceil(p)
}

/// Bytes of a peer-indexed CSR with `peers` rows: one id per peer,
/// `peers + 1` row offsets. The rows' indices are their copy programs'.
fn csr_bytes(peers: u64) -> u64 {
    W * (peers + (peers + 1))
}

/// The plan term of PACK under `scheme` on processor `i` —
/// `PackPlan::mem_bytes`, byte for byte: slot rows by destination, the
/// `to` / `from` peer lists, the programs, and the ranks — 4 bytes per
/// explicit rank (sharing the slot rows' offsets) for pair messages, 8 bytes
/// per run under their own row offsets for compact messages.
fn pack_plan_bytes(stats: &MaskStats, scheme: PackScheme, i: usize) -> u64 {
    let (ds, dr) = (stats.send_peers[i] as u64, stats.recv_peers[i] as u64);
    let rows = csr_bytes(ds) + W * (ds + dr) + stats.pack_prog_bytes[i];
    match scheme {
        PackScheme::Simple | PackScheme::CompactStorage => rows + W * stats.e[i] as u64,
        PackScheme::CompactMessage => rows + W * (ds + 1) + 2 * W * stats.gs[i] as u64,
    }
}

/// The plan term of UNPACK on processor `i` — `UnpackPlan::mem_bytes`, byte
/// for byte: the peer ids and offsets of its target and serve rows, the
/// reply peer lists, and the copy programs and field spans of
/// `unpack_prog_bytes`.
fn unpack_plan_bytes(stats: &MaskStats, i: usize) -> u64 {
    let (ds, dr) = (stats.send_peers[i] as u64, stats.recv_peers[i] as u64);
    csr_bytes(ds) + csr_bytes(dr) + W * (ds + dr) + stats.unpack_prog_bytes[i]
}

/// Predicted peak bytes per processor for PACK under `scheme` (no
/// preliminary redistribution). The workload is assumed to register its
/// data and mask arrays (`TrackArray`), 4 bytes per element plus 1 mask
/// byte.
pub fn predict_pack_peak(stats: &MaskStats, scheme: PackScheme) -> Vec<u64> {
    let p = stats.e.len() as u64;
    (0..stats.e.len())
        .map(|i| {
            let user = 5 * stats.l as u64;
            user + pack_exchange_bytes(stats, scheme, i, p, 0)
        })
        .collect()
}

/// The non-user PACK terms (plan + pool + transport) — shared with the
/// redistribution models, which run the same exchange on a block layout
/// where `overlap` ranks are already resident on their owner and never
/// staged (zero on block-cyclic layouts, where the self share has no
/// closed form and the full volume is the bound).
fn pack_exchange_bytes(
    stats: &MaskStats,
    scheme: PackScheme,
    i: usize,
    p: u64,
    overlap: u64,
) -> u64 {
    let (e, r, gs, gr) = (
        stats.e[i] as u64,
        stats.r[i] as u64,
        stats.gs[i] as u64,
        stats.gr[i] as u64,
    );
    let plan = pack_plan_bytes(stats, scheme, i);
    match scheme {
        // Pair messages: (u32 rank, value) = 2 words per element.
        PackScheme::Simple | PackScheme::CompactStorage => {
            plan + 2 * W * (e - overlap) + allowance(2 * r, p)
        }
        // Compact messages: E values + 2-word header per segment.
        PackScheme::CompactMessage => {
            plan + W * (e - overlap) + 2 * W * gs + allowance(r + 2 * gr, p)
        }
    }
}

/// Predicted peak bytes per processor for UNPACK under `scheme`. The
/// workload registers field (4L), mask (L), and its local vector slice
/// (4R_i); the plan is `unpack_plan_bytes`; replies stage 4R_i out and
/// deliver 4E_i back in. Both schemes retain the same execute-phase
/// structures — they differ only in the plan-time request encoding, a
/// transient the peak never sees.
pub fn predict_unpack_peak(stats: &MaskStats, _scheme: UnpackScheme) -> Vec<u64> {
    let p = stats.e.len() as u64;
    (0..stats.e.len())
        .map(|i| {
            let (e, r) = (stats.e[i] as u64, stats.r[i] as u64);
            let user = 5 * stats.l as u64 + W * r;
            let pool = W * r;
            user + unpack_plan_bytes(stats, i) + pool + allowance(e, p)
        })
        .collect()
}

/// Predicted peak bytes per processor for PACK with a preliminary
/// redistribution. `src` describes the mask on the original (cyclic)
/// layout, `blk` the same mask on the block layout the data moves to; the
/// peak is whichever phase holds more on top of the registered arrays —
/// the redistribution's in-flight traffic or the block-layout PACK
/// exchange:
///
/// * **Red.1** moves only selected elements as 2-word pairs — in-flight
///   payload on the `2W·E_src_i` outbound plus mailbox on the
///   `2W·E_blk_i` inbound.
/// * **Red.2** moves both whole arrays with value-only messages, one
///   array at a time — in-flight payload plus mailbox on `W·L` each way.
///
/// On the block layout the selected ranks of processor `i` are the
/// contiguous run `[ΣE_j<i, ΣE_j<i + E_i)` while it owns ranks
/// `[i·W', (i+1)·W')`; the intersection stays home, so only the boundary
/// spill is ever staged — the term that makes Red.2's footprint (and the
/// Table II trade-off) honest.
pub fn predict_pack_redist_peak(
    src: &MaskStats,
    blk: &MaskStats,
    scheme: PackScheme,
    redist: RedistScheme,
) -> Vec<u64> {
    let p = blk.e.len() as u64;
    let mut scan = 0u64; // ranks before processor i on the block layout
    (0..blk.e.len())
        .map(|i| {
            let user = 5 * src.l as u64;
            let redist_phase = match redist {
                RedistScheme::SelectedData => {
                    allowance(2 * src.e[i] as u64, p) + allowance(2 * blk.e[i] as u64, p)
                }
                RedistScheme::WholeArrays => 2 * allowance(src.l as u64, p),
            };
            let owned_lo = (i * blk.w_prime) as u64;
            let owned_hi = owned_lo + blk.r[i] as u64;
            let e = blk.e[i] as u64;
            let overlap = (scan + e).min(owned_hi).saturating_sub(scan.max(owned_lo));
            scan += e;
            let pack_phase = pack_exchange_bytes(blk, scheme, i, p, overlap);
            user + redist_phase.max(pack_phase)
        })
        .collect()
}

/// Outcome of checking one workload's measured peak memory against the
/// closed-form prediction — the memory analogue of [`crate::Conformance`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeakMemory {
    /// Scheme label, e.g. `"pack.cms"`.
    pub scheme: String,
    /// Predicted machine-wide peak bytes (max over processors).
    pub predicted_bytes: u64,
    /// Measured machine-wide peak bytes.
    pub measured_bytes: u64,
    /// `predicted / measured` (measured floored at one byte).
    pub ratio: f64,
    /// Processor holding the measured peak.
    pub peak_proc: usize,
    /// Account holding the most bytes at the measured peak.
    pub peak_account: String,
    /// Innermost stage enclosing the measured peak.
    pub peak_stage: String,
    /// Total mailbox-ring bytes charged across all processors (excluded
    /// from the workload peak above; see `ring_accounting`).
    pub ring_bytes: u64,
    /// Every processor charged its ring byte-exactly.
    pub ring_exact: bool,
    /// `predicted >= measured && ratio <= MEM_RATIO_GATE && ring_exact`.
    pub pass: bool,
}

impl PeakMemory {
    /// Gate a traced run's measured peak against per-processor predictions,
    /// and the constant mailbox-ring pre-reserve against its byte-exact
    /// expectation (`ring_bytes_per_proc`, from
    /// `hpf_machine::ring_bytes(hpf_machine::default_capacity(p))` on `p`
    /// processors).
    pub fn evaluate(
        scheme: &str,
        predicted: &[u64],
        events: &[Vec<Event>],
        ring_bytes_per_proc: u64,
    ) -> PeakMemory {
        let peak = measured_peak(events);
        let (ring_bytes, ring_exact) = ring_accounting(events, ring_bytes_per_proc);
        let predicted_bytes = predicted.iter().copied().max().unwrap_or(0);
        let ratio = predicted_bytes as f64 / peak.bytes.max(1) as f64;
        PeakMemory {
            scheme: scheme.to_string(),
            predicted_bytes,
            measured_bytes: peak.bytes,
            ratio,
            peak_proc: peak.proc,
            peak_account: peak.account.name().to_string(),
            peak_stage: peak.stage,
            ring_bytes,
            ring_exact,
            pass: predicted_bytes >= peak.bytes && ratio <= MEM_RATIO_GATE && ring_exact,
        }
    }

    /// One-line report, e.g.
    /// `pack.cms: peak 1234 B on proc 2 (mailbox, pack.execute), predicted 1300 B, ratio 1.05, ring 8192 B exact [pass]`.
    pub fn summary(&self) -> String {
        format!(
            "{}: peak {} B on proc {} ({}, {}), predicted {} B, ratio {:.2}, ring {} B {} [{}]",
            self.scheme,
            self.measured_bytes,
            self.peak_proc,
            self.peak_account,
            self.peak_stage,
            self.predicted_bytes,
            self.ratio,
            self.ring_bytes,
            if self.ring_exact { "exact" } else { "INEXACT" },
            if self.pass { "pass" } else { "FAIL" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: f64, kind: EventKind) -> Event {
        Event { ts_ns, kind }
    }

    fn sample(ts_ns: f64, account: MemAccount, owner: usize, delta_bytes: i64) -> Event {
        ev(
            ts_ns,
            EventKind::MemSample {
                account,
                owner,
                delta_bytes,
            },
        )
    }

    #[test]
    fn peak_integrates_across_accounts_and_recorders() {
        // Proc 0 charges its own mailbox; proc 1 charges proc 0's replay
        // log from its own (earlier) clock. Owner pooling must combine
        // them; proc 1's own small charge must not win.
        let events = vec![
            vec![
                ev(0.0, EventKind::SpanBegin { name: "outer" }),
                ev(5.0, EventKind::SpanBegin { name: "inner" }),
                sample(10.0, MemAccount::Mailbox, 0, 100),
                sample(20.0, MemAccount::Mailbox, 0, -100),
                ev(30.0, EventKind::SpanEnd { name: "inner" }),
                ev(31.0, EventKind::SpanEnd { name: "outer" }),
            ],
            vec![
                sample(8.0, MemAccount::ReplayLog, 0, 60),
                sample(9.0, MemAccount::Pool, 1, 50),
            ],
        ];
        let peak = measured_peak(&events);
        assert_eq!(peak.bytes, 160, "mailbox 100 + replay log 60");
        assert_eq!(peak.proc, 0);
        assert_eq!(peak.ts_ns, 10.0);
        assert_eq!(peak.account, MemAccount::Mailbox);
        assert_eq!(peak.stage, "inner");
    }

    #[test]
    fn equal_timestamp_charges_apply_before_releases() {
        // At t=10 a release and a charge coincide; counting the charge
        // first (like the counter tracks) makes the peak 150, not 100.
        let events = vec![vec![
            sample(0.0, MemAccount::Pool, 0, 100),
            sample(10.0, MemAccount::Pool, 0, -100),
            sample(10.0, MemAccount::Mailbox, 0, 50),
        ]];
        assert_eq!(measured_peak(&events).bytes, 150);
    }

    #[test]
    fn no_samples_is_a_zero_peak() {
        let peak = measured_peak(&[vec![], vec![]]);
        assert_eq!(peak.bytes, 0);
        assert_eq!(peak.stage, "-");
    }

    #[test]
    fn mailbox_ring_is_excluded_from_the_workload_peak() {
        // The constant startup pre-reserve must not shift the peak; it is
        // summed (and byte-checked) by ring_accounting instead.
        let events = vec![
            vec![
                sample(0.0, MemAccount::MailboxRing, 0, 4096),
                sample(10.0, MemAccount::Mailbox, 0, 100),
            ],
            vec![sample(0.0, MemAccount::MailboxRing, 1, 4096)],
        ];
        let peak = measured_peak(&events);
        assert_eq!(peak.bytes, 100);
        assert_eq!(peak.account, MemAccount::Mailbox);
        assert_eq!(ring_accounting(&events, 4096), (8192, true));
        assert_eq!(
            ring_accounting(&events, 2048),
            (8192, false),
            "per-proc mismatch must flag inexact"
        );
        // A processor that never charged its ring is inexact too.
        assert_eq!(ring_accounting(&events[..1], 4096), (4096, true));
        let missing = vec![events[0].clone(), vec![]];
        assert_eq!(ring_accounting(&missing, 4096), (4096, false));
    }

    #[test]
    fn predictions_scale_with_selection() {
        let dense: Vec<bool> = (0..64).map(|g| g % 2 == 0).collect();
        let sparse: Vec<bool> = (0..64).map(|g| g % 8 == 0).collect();
        let sd = MaskStats::from_mask(&dense, 4, 4, None);
        let ss = MaskStats::from_mask(&sparse, 4, 4, None);
        for scheme in [
            PackScheme::Simple,
            PackScheme::CompactStorage,
            PackScheme::CompactMessage,
        ] {
            let d = predict_pack_peak(&sd, scheme);
            let s = predict_pack_peak(&ss, scheme);
            assert_eq!(d.len(), 4);
            assert!(
                d.iter().max() > s.iter().max(),
                "{scheme:?}: denser masks need more memory"
            );
            // Every processor at least holds its registered arrays.
            assert!(d.iter().all(|&b| b > 5 * sd.l as u64));
        }
        let u = predict_unpack_peak(&sd, UnpackScheme::Simple);
        assert_eq!(u, predict_unpack_peak(&sd, UnpackScheme::CompactStorage));
        assert!(u.iter().all(|&b| b > 5 * sd.l as u64));

        // A full mask's plans are bulk rows, which keep no index list: the
        // plan term of compact-message PACK and of UNPACK is the same at
        // L = 256 and at L = 4096 (four slices per processor at both), while
        // pair messages keep one explicit rank per element.
        let full = |l: usize| MaskStats::from_mask(&vec![true; 4 * l], 4, l / 4, None);
        let (small, large) = (full(256), full(4096));
        for i in 0..4 {
            let cms = |s: &MaskStats| pack_plan_bytes(s, PackScheme::CompactMessage, i);
            assert_eq!(cms(&small), cms(&large), "processor {i}");
            assert_eq!(unpack_plan_bytes(&small, i), unpack_plan_bytes(&large, i));
            let css = |s: &MaskStats| pack_plan_bytes(s, PackScheme::CompactStorage, i);
            assert_eq!(css(&large) - css(&small), W * (4096 - 256));
        }
    }

    #[test]
    fn redist_prediction_covers_both_phases() {
        let mask: Vec<bool> = (0..64).map(|g| g % 2 == 0).collect();
        let src = MaskStats::from_mask(&mask, 4, 1, None); // cyclic
        let blk = MaskStats::from_mask(&mask, 4, 16, None); // block
        let r1 = predict_pack_redist_peak(
            &src,
            &blk,
            PackScheme::CompactMessage,
            RedistScheme::SelectedData,
        );
        let r2 = predict_pack_redist_peak(
            &src,
            &blk,
            PackScheme::CompactMessage,
            RedistScheme::WholeArrays,
        );
        // Every processor at least holds its registered arrays, and Red.2
        // carries its mask-independent in-flight floor (two messages each
        // way of L/P words) on top.
        let user = 5 * src.l as u64;
        assert!(r1.iter().all(|&b| b > user));
        let floor = user + 2 * 2 * W * (src.l as u64).div_ceil(4);
        assert!(r2.iter().all(|&b| b >= floor));
        // On the block layout a dense mask's ranks mostly stay home, so
        // the redistribution peak sits below the plain block-cyclic-style
        // full-volume PACK bound — the saving the overlap term models.
        let plain = predict_pack_peak(&blk, PackScheme::CompactMessage);
        assert!(r1.iter().max() < plain.iter().max());
        // Sparser masks can only shrink either phase.
        let sparse: Vec<bool> = (0..64).map(|g| g % 16 == 0).collect();
        let ssrc = MaskStats::from_mask(&sparse, 4, 1, None);
        let sblk = MaskStats::from_mask(&sparse, 4, 16, None);
        let r1s = predict_pack_redist_peak(
            &ssrc,
            &sblk,
            PackScheme::CompactMessage,
            RedistScheme::SelectedData,
        );
        let r2s = predict_pack_redist_peak(
            &ssrc,
            &sblk,
            PackScheme::CompactMessage,
            RedistScheme::WholeArrays,
        );
        assert!(r1s.iter().max() <= r1.iter().max());
        assert!(r2s.iter().max() <= r2.iter().max());
    }

    #[test]
    fn evaluate_gates_ratio_and_direction() {
        let events = vec![vec![
            sample(0.0, MemAccount::MailboxRing, 0, 4096),
            sample(1.0, MemAccount::User, 0, 1000),
        ]];
        let good = PeakMemory::evaluate("pack.sss", &[1100], &events, 4096);
        assert!(good.pass, "{}", good.summary());
        assert!((good.ratio - 1.1).abs() < 1e-9);
        assert_eq!(good.ring_bytes, 4096);
        assert!(good.ring_exact);
        let under = PeakMemory::evaluate("pack.sss", &[900], &events, 4096);
        assert!(!under.pass, "under-prediction must fail");
        let over = PeakMemory::evaluate("pack.sss", &[2000], &events, 4096);
        assert!(!over.pass, "sloppy over-prediction must fail");
        assert!(over.summary().contains("FAIL"));
        let wrong_ring = PeakMemory::evaluate("pack.sss", &[1100], &events, 8192);
        assert!(!wrong_ring.pass, "inexact ring must fail the gate");
        assert!(wrong_ring.summary().contains("INEXACT"));
    }
}
