//! The sparse many-to-many as the paper's algorithms see it: silent pairs
//! put no frame on any ring, and the message formats of PACK/UNPACK obey
//! the delivered contract of `alltoallv` — a slot with zero wire words is
//! not transmitted and arrives as `Default::default()`.

use hpf_core::{
    pack, unpack, CmsMessage, MaskPattern, PackOptions, PackScheme, RankRequest, UnpackOptions,
    UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, Dist};
use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{CostModel, Machine, ProcGrid};

#[test]
fn zero_word_requests_and_segment_streams_arrive_as_default() {
    const P: usize = 4;
    let out = Machine::new(ProcGrid::line(P), CostModel::cm5()).run(|proc| {
        let g = proc.world();
        let me = proc.id();
        // Every request is empty except `me → me + 1`; the empty ones are
        // `Runs`, the default is `Explicit` — arrival as the default is
        // observable.
        let mut requests = vec![RankRequest::Runs(Vec::new()); P];
        requests[(me + 1) % P] = RankRequest::Runs(vec![(me as u32, 2)]);
        let requests = alltoallv(proc, &g, requests, A2aSchedule::LinearPermutation);
        let mut streams: Vec<CmsMessage<i32>> = vec![CmsMessage::default(); P];
        streams[(me + P - 1) % P] = CmsMessage {
            heads: vec![(7, 1)],
            vals: vec![me as i32],
        };
        let streams = alltoallv(proc, &g, streams, A2aSchedule::PairwiseExchange);
        (requests, streams)
    });
    for (me, (requests, streams)) in out.results.iter().enumerate() {
        for src in 0..P {
            let want = if (src + 1) % P == me {
                RankRequest::Runs(vec![(src as u32, 2)])
            } else if src == me {
                RankRequest::Runs(Vec::new()) // the self slot is moved, not sent
            } else {
                RankRequest::default()
            };
            assert_eq!(requests[src], want, "request {src} -> {me}");
            let want = if (src + P - 1) % P == me {
                CmsMessage {
                    heads: vec![(7, 1)],
                    vals: vec![src as i32],
                }
            } else {
                CmsMessage::default()
            };
            assert_eq!(streams[src], want, "stream {src} -> {me}");
        }
    }
    // One 2-word request and one 3-word stream per processor, nothing else.
    assert_eq!(out.total_startups(), 2 * P as u64);
    assert_eq!(out.total_words_sent(), 5 * P as u64);
}

/// `msg.frames` counts what `msg.sent` cannot see. A P = 64 SSS/SSS
/// PACK → UNPACK roundtrip with 8 elements per processor charges 1 866
/// messages (ranking collectives included); the only other frames are the
/// two flag transpositions — PACK's plan exchange and UNPACK's request
/// round — of 2(P − 1) frames each: 252, inside P·log₂P = 384. When silent
/// pairs were padded, those two exchanges put 2·P·(P − 1) = 8 064
/// zero-word frames on the rings.
#[test]
fn uncharged_frames_of_a_roundtrip_are_the_two_transpositions() {
    const P: usize = 64;
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[8 * P], &grid, &[Dist::BlockCyclic(2)]).unwrap();
    let mut pack_opts = PackOptions::new(PackScheme::Simple);
    pack_opts.schedule = A2aSchedule::NaivePush;
    let mut unpack_opts = UnpackOptions::new(UnpackScheme::Simple);
    unpack_opts.schedule = A2aSchedule::NaivePush;
    let out = Machine::new(grid.clone(), CostModel::cm5())
        .with_metrics(true)
        .run(|proc| {
            let m = MaskPattern::Random {
                density: 0.5,
                seed: 11,
            }
            .local(&desc, proc.id());
            let a = local_from_fn(&desc, proc.id(), |g| g[0] as i32);
            let packed = pack(proc, &desc, &a, &m, &pack_opts).unwrap();
            let vl = packed.v_layout.expect("mask selects elements");
            let back = unpack(proc, &desc, &m, &a, &packed.local_v, &vl, &unpack_opts).unwrap();
            assert_eq!(back, a);
        });
    let m = out.merged_metrics();
    let (frames, sent) = (m.counter("msg.frames"), m.counter("msg.sent"));
    assert_eq!(sent, out.total_startups());
    assert_eq!(frames - sent, 2 * 2 * (P as u64 - 1));
    assert!(frames - sent <= (P * P.ilog2() as usize) as u64);
}
