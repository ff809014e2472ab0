//! Crash recovery: scheduled processor crashes under
//! `Machine::run_recoverable` must be survived, and the recovered run must
//! be bit-identical — results *and* simulated clocks — to the same program
//! run without the crash.

use std::sync::Arc;

use hpf_machine::{
    tags, Category, CostModel, EventKind, FaultPlan, Machine, MemAccount, PoolSlot, Proc, ProcGrid,
    RunOutput,
};

const P: usize = 4;

/// Two-epoch SPMD program: each epoch shifts the accumulated state around a
/// ring and folds the received values in. Deterministic per-processor
/// result that depends on traffic from both epochs.
fn two_epoch_ring(p: &mut Proc) -> Vec<i64> {
    let mut st: Vec<i64> = vec![p.id() as i64 + 1];
    for round in 0..2u64 {
        p.epoch(&mut st, |p, st| {
            p.with_category(Category::LocalComp, |p| p.charge_ops(10));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(next, tags::USER + round, st.clone());
            let got: Vec<i64> = p.recv(prev, tags::USER + round);
            st.extend(got);
            st.push(st.iter().sum());
        });
    }
    st
}

fn machine(faults: FaultPlan) -> Machine {
    Machine::new(ProcGrid::line(P), CostModel::cm5())
        .with_tracing(true)
        .with_metrics(true)
        .with_faults(faults)
}

/// Clocks must agree exactly: same final time, same per-category split,
/// same charged ops/words/startups. The transport counters (retransmits,
/// dup drops) are excluded: a respawned victim re-sends, and its peers drop
/// the repeats, so a crash adds to them — see
/// `transport_counters_have_one_owner_across_a_respawn`.
fn assert_clocks_identical<R>(a: &RunOutput<R>, b: &RunOutput<R>) {
    for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "final clock differs");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "category {cat:?} differs");
        }
        assert_eq!(ca.ops, cb.ops);
        assert_eq!(ca.words_sent, cb.words_sent);
        assert_eq!(ca.startups, cb.startups);
    }
    let matrix = |out: &RunOutput<R>| out.comm_matrix().expect("a traced run");
    assert_eq!(matrix(a), matrix(b));
}

#[test]
fn send_crash_mid_epoch_recovers_bit_identically() {
    // Proc 1's second send fires in epoch 1, after a checkpoint exists.
    let clean = machine(FaultPlan::new(7))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    assert_eq!(
        clean.results,
        Machine::new(ProcGrid::line(P), CostModel::cm5())
            .run(two_epoch_ring)
            .results
    );
    assert_eq!(clean.recovery.as_ref().unwrap().epochs, 2 * P as u64);

    // How many frames the respawn replays depends on how far peers got
    // before the driver cloned the log — legitimately zero when the crash
    // is detected before any peer has sent into the interrupted epoch (the
    // frames then arrive through the surviving channel instead), and under
    // the cooperative scheduler the victim reports the crash before parked
    // peers advance, so zero is the common deterministic case here. The
    // recovery must be bit-identical either way; the dedicated test below
    // forces a non-empty replay by construction.
    let crashed = machine(FaultPlan::new(7).with_crash(1, 2))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    let rec = crashed.recovery.as_ref().expect("recoverable run");
    assert_eq!(rec.replays, 1, "exactly one recovery: {rec:?}");
    assert!(rec.log_high_water_words > 0, "{rec:?}");
    assert!(rec.replay_ms > 0.0, "{rec:?}");
    // Both runs checkpoint identically: two epochs on each processor.
    assert_eq!(rec.epochs, 2 * P as u64);
}

/// Like [`two_epoch_ring`] but with two ring exchanges per epoch, so a
/// crash between them finds traffic the victim already consumed inside the
/// interrupted epoch. Each epoch opens with a token passed *against* the
/// ring: a processor sends its first data frame only once its successor has
/// told it that it is inside the epoch body — past its previous boundary
/// and the snapshot taken there. Without that, a fast predecessor's frame
/// can land during the successor's boundary flush, where the snapshot's
/// mailbox keeps it and the truncation rightly drops it from the log.
fn two_epoch_double_ring(p: &mut Proc) -> Vec<i64> {
    const GO: u64 = tags::USER + 100;
    let mut st: Vec<i64> = vec![p.id() as i64 + 1];
    for round in 0..2u64 {
        p.epoch(&mut st, |p, st| {
            p.with_category(Category::LocalComp, |p| p.charge_ops(10));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(prev, GO + round, vec![round as i64]);
            let _: Vec<i64> = p.recv(next, GO + round);
            for half in 0..2u64 {
                p.send(next, tags::USER + round * 2 + half, st.clone());
                let got: Vec<i64> = p.recv(prev, tags::USER + round * 2 + half);
                st.extend(got);
                st.push(st.iter().sum());
            }
        });
    }
    st
}

#[test]
fn mid_epoch_crash_replays_consumed_frames() {
    // Three program-level receives per epoch (token, exchange, exchange):
    // proc 1's sixth is the second exchange of epoch 1. By then it has
    // consumed proc 0's first epoch-1 frame, which proc 0 sent — and logged,
    // strictly before it hit the wire — only after proc 1's token told it
    // that proc 1's epoch-0 snapshot was taken. That frame is therefore in
    // the cloned replay log with a sequence number at or above the restored
    // snapshot's expectation: a non-empty replay on every schedule.
    let clean = machine(FaultPlan::new(7))
        .run_recoverable(two_epoch_double_ring)
        .expect("run");
    let crashed = machine(FaultPlan::new(7).with_crash_at_recv(1, 6))
        .run_recoverable(two_epoch_double_ring)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    let rec = crashed.recovery.as_ref().expect("recoverable run");
    assert_eq!(rec.replays, 1, "exactly one recovery: {rec:?}");
    assert!(
        rec.replayed_frames >= 1,
        "replay must be non-empty: {rec:?}"
    );
    assert!(rec.replayed_words > 0, "{rec:?}");
    assert!(rec.replay_ms > 0.0, "{rec:?}");
}

/// A ring of P − 1 rounds of eight `i64`s in each of four epochs: round
/// `k` sends to `id + k` and receives from `id − k`.
fn four_epoch_ring(p: &mut Proc) -> Vec<i64> {
    let n = p.nprocs();
    let mut st = vec![p.id() as i64 + 1; 8];
    for epoch in 0..4u64 {
        p.epoch(&mut st, |p, st| {
            for k in 1..n {
                let tag = tags::USER + epoch * 8 + k as u64;
                p.send((p.id() + k) % n, tag, st.clone());
                let got: Vec<i64> = p.recv((p.id() + n - k) % n, tag);
                for (s, g) in st.iter_mut().zip(got) {
                    *s = s.wrapping_mul(31).wrapping_add(g);
                }
            }
        });
    }
    st
}

/// Each processor's `ClockReport` and its `transport.*` metrics read one
/// pair of counters. Proc 1 crashes at its ninth send, in epoch 2, and
/// resumes from its epoch-1 checkpoint: the counts it had reached by then
/// must survive the respawn in both reports.
#[test]
fn transport_counters_have_one_owner_across_a_respawn() {
    let plan = || FaultPlan::new(7).with_drop(0.2).with_duplicate(0.1);
    let run = |plan: FaultPlan| {
        machine(plan)
            .with_workers(1)
            .run_recoverable(four_epoch_ring)
            .expect("run")
    };
    let (clean, crashed) = (run(plan()), run(plan().with_crash(1, 9)));
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    for out in [&clean, &crashed] {
        for (pid, (clock, m)) in out.clocks.iter().zip(&out.metrics).enumerate() {
            assert_eq!(
                (clock.retransmits, clock.dup_drops),
                (
                    m.counter("transport.retransmits"),
                    m.counter("transport.dup_drops")
                ),
                "proc {pid}: clock report vs transport.* metrics"
            );
        }
    }
}

/// A crash-only plan drops nothing and holds nothing back, so no link is
/// acknowledged: each processor puts exactly its sequenced frames on the
/// rings — per epoch three data rounds and ⌈log₂ P⌉ = 2 clock-sync frames,
/// then 2 retire-barrier frames — whether or not the crash fires, on any
/// pool size. And although no sender waits for its frames to be consumed,
/// every boundary truncation finds its epoch's frames dispatched: the
/// barrier's frames ride the same FIFO rings behind them, so each
/// processor's replay log ends empty.
#[test]
fn a_crash_only_plan_posts_no_ack_and_truncates_every_log() {
    const EPOCHS: u64 = 4;
    let per_proc = EPOCHS * ((P as u64 - 1) + 2) + 2;
    for workers in [1, 2] {
        for step in [9, 99] {
            let out = machine(FaultPlan::new(7).with_crash(1, step))
                .with_workers(workers)
                .run_recoverable(four_epoch_ring)
                .expect("run");
            let replays = u64::from(step == 9);
            assert_eq!(out.recovery.as_ref().unwrap().replays, replays);
            let what = format!("workers {workers}, crash step {step}");
            assert_eq!(
                out.merged_metrics().counter("msg.frames"),
                P as u64 * per_proc,
                "{what}"
            );
            for (pid, m) in out.metrics.iter().enumerate() {
                assert_eq!(m.gauges["mem.replay_log.cur"].last, 0, "{what}: proc {pid}");
            }
        }
    }
}

#[test]
fn recv_crash_mid_epoch_recovers_bit_identically() {
    // Proc 2's second program-level receive fires in epoch 1.
    let clean = machine(FaultPlan::new(11))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    let crashed = machine(FaultPlan::new(11).with_crash_at_recv(2, 2))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
}

#[test]
fn crash_before_any_checkpoint_replays_from_scratch() {
    // Proc 0's very first send fires in epoch 0 — no snapshot exists yet,
    // so recovery restarts the processor from scratch and replays the
    // never-truncated log.
    let clean = machine(FaultPlan::new(3))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    let crashed = machine(FaultPlan::new(3).with_crash(0, 1))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
}

#[test]
fn epoch_less_program_recovers_by_full_reexecution() {
    // A program that never calls `epoch` is still recoverable: the whole
    // run is one implicit epoch and a crash restarts the victim from
    // scratch, with peers deduplicating its re-sent frames.
    fn exchange(p: &mut Proc) -> i64 {
        let next = (p.id() + 1) % p.nprocs();
        let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
        p.send(next, tags::USER, vec![p.id() as i64 * 10]);
        let got: Vec<i64> = p.recv(prev, tags::USER);
        got[0] + p.id() as i64
    }
    let clean = machine(FaultPlan::new(5))
        .run_recoverable(exchange)
        .expect("run");
    let crashed = machine(FaultPlan::new(5).with_crash(3, 1))
        .run_recoverable(exchange)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
}

#[test]
fn recovery_survives_drop_and_delay_faults() {
    // Fault verdicts and delays are drawn from sequence numbers, and replay
    // re-injects frames with their original delayed arrivals, so clocks stay
    // bit-identical even when the link is lossy and jittery.
    let plan = || FaultPlan::new(42).with_drop(0.2).with_delay(0.3, 50_000.0);
    let clean = machine(plan())
        .run_recoverable(two_epoch_ring)
        .expect("run");
    let crashed = machine(plan().with_crash(1, 2))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    assert_eq!(clean.results, crashed.results);
    assert_clocks_identical(&clean, &crashed);
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
}

#[test]
fn fault_free_recoverable_run_reports_zero_replays() {
    let out = machine(FaultPlan::new(1))
        .run_recoverable(two_epoch_ring)
        .expect("run");
    let rec = out.recovery.as_ref().expect("recoverable run");
    assert_eq!(rec.replays, 0);
    assert_eq!(rec.replayed_frames, 0);
    assert_eq!(rec.replayed_words, 0);
    assert_eq!(rec.replay_ms, 0.0);
    assert_eq!(rec.epochs, 2 * P as u64);
    // A benign plan runs without the reliable transport, so nothing is
    // sequenced and nothing needs logging — the log stays empty.
    assert_eq!(rec.log_high_water_words, 0);
    // Plain runs carry no recovery accounting at all.
    let plain = Machine::new(ProcGrid::line(P), CostModel::cm5()).run(two_epoch_ring);
    assert!(plain.recovery.is_none());
}

#[test]
fn unrecoverable_failures_still_surface_as_errors() {
    // A deadlock (receive with no sender) is not a crash and must come back
    // as the usual typed error even in recoverable mode — the same value on
    // every run and pool size. Proc 0 has nothing to receive and waits at
    // the retire barrier: parked, with the lowest id, so it is the one that
    // reports, and its wait chain leads to proc 1 and back.
    let mut errors = Vec::new();
    for workers in 1..=3 {
        for _ in 0..20 {
            let err = Machine::new(ProcGrid::line(2), CostModel::zero())
                .with_workers(workers)
                .with_faults(FaultPlan::new(0))
                .run_recoverable(|p| {
                    if p.id() == 1 {
                        let _: Vec<i32> = p.recv(0, tags::USER);
                    }
                })
                .expect_err("deadlock must surface");
            errors.push(err);
        }
    }
    match &errors[0] {
        hpf_machine::MachineError::Deadlock {
            proc: 0,
            src: 1,
            waiting_on,
            ..
        } => assert_eq!(waiting_on, &[1, 0]),
        other => panic!("expected a deadlock reported by proc 0, got {other}"),
    }
    assert!(errors.iter().all(|e| e == &errors[0]), "{errors:?}");
}

/// Sends of `pooled_ring` per epoch.
const RING_SENDS: [u64; 2] = [3, 4];

/// A ring over pooled `Vec<i64>` buffers — whose `reset` really clears,
/// unlike the shape-keeping wrappers of `hpf-core` — sent 3× and then 4×
/// through one slot, each inside a single epoch: the slot reused several
/// times while nothing truncates the replay log. The slot is made inside
/// the program, so a respawned processor starts with a fresh one, as a
/// restored plan does. The ring state starts at one value and each send
/// appends one.
///
/// Where a run recovers from a plan whose possible crash victims are
/// `victims`, a send on a link with a victim at either end travels as a
/// frozen copy, so the live slot must be free the moment the send returns;
/// any other send ships the live slot itself, which stays staged until its
/// receiver decodes it. Run on one worker, so no receiver runs before its
/// sender parks.
fn pooled_ring(victims: &'static [usize]) -> impl Fn(&mut Proc) -> Vec<i64> + Sync {
    move |p| {
        let mut st: Vec<i64> = vec![p.id() as i64 + 1];
        let n = p.nprocs();
        let (next, prev) = ((p.id() + 1) % n, (p.id() + n - 1) % n);
        let victim_link = victims.contains(&p.id()) || victims.contains(&next);
        let slot = Arc::new(PoolSlot::<Vec<i64>>::new());
        for sends in RING_SENDS {
            p.epoch(&mut st, |p, st| {
                for i in 0..sends {
                    let mut buf = p.slot_checkout(&slot, next);
                    assert!(buf.is_empty(), "a returned buffer comes back cleared");
                    buf.extend_from_slice(st);
                    slot.stash(buf);
                    p.send_pooled(next, tags::USER + i, Arc::clone(&slot));
                    match slot.try_checkout() {
                        Some(live) => {
                            assert!(victim_link, "{} → {next} shipped no live slot", p.id());
                            assert!(live.is_empty(), "the frozen copy took none of its bytes");
                            slot.put_back(live);
                        }
                        None => assert!(!victim_link, "{} → {next} froze no copy", p.id()),
                    }
                    let inbound = p
                        .recv_packet(prev, tags::USER + i)
                        .data
                        .downcast::<PoolSlot<Vec<i64>>>()
                        .expect("pooled send delivers a slot");
                    let got = inbound.take_staged();
                    st.push(got.iter().sum::<i64>() + i as i64);
                    inbound.put_back(got);
                }
            });
        }
        st
    }
}

#[test]
fn pooled_sends_recover_from_a_crash_at_every_step() {
    let one = |plan| machine(plan).with_workers(1);
    let clean = one(FaultPlan::new(0))
        .run_recoverable(pooled_ring(&[]))
        .expect("fault-free run");
    let gauge = |out: &RunOutput<Vec<i64>>, name: &str| out.merged_metrics().gauges[name];
    assert_eq!(
        gauge(&clean, "mem.payload.cur").max,
        0,
        "unlogged pooled sends ship the live slot: bytes stay on `pool`"
    );

    // A crash step the program never reaches makes proc 1 a possible
    // victim without firing: its two links, 0 → 1 and 1 → 2, sequence and
    // freeze, 0 → 1 logs, and 2 → 3 → 0 ship live slots. The accounting of
    // a frozen pooled send, event side and gauge side.
    let logged = one(FaultPlan::new(0).with_crash(1, 99))
        .with_tracing(true)
        .run_recoverable(pooled_ring(&[1]))
        .expect("crash-free logged run");
    assert_eq!(clean.results, logged.results);
    assert_clocks_identical(&clean, &logged);
    // The last send is the largest message: the state's first value plus
    // one per earlier send, 8 bytes (two wire words) each.
    let largest = 8 * RING_SENDS.iter().sum::<u64>();
    assert_eq!(
        gauge(&logged, "mem.pool.cur").max,
        largest,
        "a processor's one pool slot is charged its largest staging"
    );
    assert!(
        gauge(&logged, "mem.payload.cur").max >= largest,
        "the frozen copy is charged to the sender's payload account"
    );
    assert_eq!(gauge(&logged, "mem.payload.cur").last, 0);
    let replay_log = |pid: usize| logged.metrics[pid].gauges["mem.replay_log.cur"].max;
    assert!(replay_log(1) >= largest);
    assert_eq!(
        [0, 2, 3].map(replay_log),
        [0; 3],
        "only the victim's incoming frames are logged"
    );
    assert_eq!(gauge(&logged, "mem.replay_log.cur").last, 0);
    assert_eq!(
        replay_log_balance(&logged),
        [0; P],
        "replay-log charges and releases balance"
    );

    for recv_side in [false, true] {
        let (mut fired, mut replayed) = (0, 0);
        for k in 1u64..20 {
            let plan = if recv_side {
                FaultPlan::new(0).with_crash_at_recv(1, k)
            } else {
                FaultPlan::new(0).with_crash(1, k)
            };
            let crashed = one(plan)
                .run_recoverable(pooled_ring(&[1]))
                .unwrap_or_else(|e| panic!("step {k} (recv={recv_side}) unrecovered: {e}"));
            if crashed.recovery.as_ref().unwrap().replays == 0 {
                break; // past the last step
            }
            fired += 1;
            replayed += crashed.recovery.as_ref().unwrap().replayed_frames;
            assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
            assert_eq!(clean.results, crashed.results, "step {k} recv={recv_side}");
            assert_clocks_identical(&clean, &crashed);
            assert_eq!(gauge(&crashed, "mem.replay_log.cur").last, 0);
        }
        assert_eq!(fired, 7, "3 + 4 steps of either kind per processor");
        // A crash at a later receive of an epoch finds frames the victim had
        // decoded: its respawn decodes the same frozen slots once more.
        assert!(!recv_side || replayed > 0, "no consumed frame was replayed");
    }
}

/// One plan, two victims: proc 1 crashes at a send and proc 3 at a
/// receive. Each respawns once, and the run is bit-identical to the
/// fault-free one — on the plain ring and on the pooled one, whose links
/// freeze wherever either victim is an end.
#[test]
fn a_send_crash_and_a_recv_crash_on_two_processors_both_recover() {
    let plan = |send, recv| {
        FaultPlan::new(5)
            .with_crash(1, send)
            .with_crash_at_recv(3, recv)
    };
    let clean = machine(FaultPlan::new(5))
        .with_tracing(true)
        .run_recoverable(two_epoch_double_ring)
        .expect("fault-free run");
    let pooled_clean = machine(FaultPlan::new(5))
        .with_workers(1)
        .run_recoverable(pooled_ring(&[]))
        .expect("fault-free run");
    for (send, recv) in [(2, 5), (5, 2), (4, 4), (1, 6)] {
        let what = format!("send crash at {send}, recv crash at {recv}");
        let crashed = machine(plan(send, recv))
            .with_tracing(true)
            .run_recoverable(two_epoch_double_ring)
            .unwrap_or_else(|e| panic!("{what}: unrecovered: {e}"));
        assert_eq!(crashed.recovery.as_ref().unwrap().replays, 2, "{what}");
        assert_eq!(clean.results, crashed.results, "{what}");
        assert_clocks_identical(&clean, &crashed);
        assert_eq!(replay_log_balance(&crashed), [0; P], "{what}");

        let pooled = machine(plan(send, recv))
            .with_workers(1)
            .run_recoverable(pooled_ring(&[1, 3]))
            .unwrap_or_else(|e| panic!("{what} (pooled): unrecovered: {e}"));
        assert_eq!(pooled.recovery.as_ref().unwrap().replays, 2, "{what}");
        assert_eq!(pooled_clean.results, pooled.results, "{what}");
        assert_clocks_identical(&pooled_clean, &pooled);
    }
}

/// The event-side balance of every processor's replay-log account: bytes
/// senders charged minus bytes boundary truncations released.
fn replay_log_balance<R>(out: &RunOutput<R>) -> [i64; P] {
    let mut bytes = [0i64; P];
    for ev in out.events.iter().flatten() {
        if let EventKind::MemSample {
            account: MemAccount::ReplayLog,
            owner,
            delta_bytes,
        } = ev.kind
        {
            bytes[owner] += delta_bytes;
        }
    }
    bytes
}

/// A respawned *sender* re-logs the frames of its interrupted epoch under
/// the sequence numbers its destinations' logs already hold. Proc 1's sixth
/// send is the second exchange of epoch 1: its token to proc 0 (8 B) and
/// its first exchange to proc 2 (56 B) are logged twice. Appending the
/// repeats made the boundary truncations release those bytes twice while
/// the senders' surviving events — the crashed attempt's are rolled back
/// with the snapshot — charge them once: owners 0 and 2 ended at −8 B and
/// −56 B.
#[test]
fn relogged_frames_of_a_respawned_sender_are_charged_once() {
    let run = |step: u64| {
        machine(FaultPlan::new(0).with_crash(1, step))
            .with_tracing(true)
            .run_recoverable(two_epoch_double_ring)
            .expect("run")
    };
    let (clean, crashed) = (run(99), run(6));
    assert_eq!(clean.recovery.as_ref().unwrap().replays, 0);
    assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
    assert_eq!(clean.results, crashed.results);
    assert_eq!(replay_log_balance(&clean), [0; P]);
    assert_eq!(replay_log_balance(&crashed), [0; P]);
}

/// Every crash step of either kind, traced and wall-profiled: the respawn
/// takes over its predecessor's recording truncated to the checkpoint, so
/// each processor's category spans still tile its whole timeline, its wall
/// profile (the last incarnation's spans) nests, the replay-log account
/// balances — the crashed attempt's charges rolled back with the rest — and
/// what the respawn recorded before restoring is not in the log.
#[test]
fn a_traced_profiled_crash_at_every_step_keeps_every_view_whole() {
    for recv_side in [false, true] {
        let mut fired = 0;
        for k in 1u64..20 {
            let plan = if recv_side {
                FaultPlan::new(0).with_crash_at_recv(1, k)
            } else {
                FaultPlan::new(0).with_crash(1, k)
            };
            let what = format!("step {k} recv={recv_side}");
            let out = machine(plan)
                .with_tracing(true)
                .with_wall_profiling(true)
                .run_recoverable(two_epoch_double_ring)
                .unwrap_or_else(|e| panic!("{what}: unrecovered: {e}"));
            if out.recovery.as_ref().unwrap().replays == 0 {
                break; // past the last step
            }
            fired += 1;
            for (p, spans) in out.traces.iter().enumerate() {
                let mut at = 0.0;
                for s in spans {
                    assert_eq!(s.start_ns, at, "{what}: proc {p} gap or overlap");
                    assert!(s.end_ns > s.start_ns, "{what}: proc {p} empty span");
                    at = s.end_ns;
                }
                assert_eq!(at, out.clocks[p].now_ns, "{what}: proc {p} ends early");
            }
            for (p, w) in out.wall_profiles.iter().enumerate() {
                assert_eq!(w.well_formed(), Ok(()), "{what}: proc {p}");
            }
            assert_eq!(replay_log_balance(&out), [0; P], "{what}");
            // The respawn charges a fresh ring before it restores the
            // snapshot, which already holds the first charge: only that one
            // is left.
            for (p, evs) in out.events.iter().enumerate() {
                let ring = MemAccount::MailboxRing;
                let rings = (evs.iter())
                    .filter(|e| matches!(e.kind, EventKind::MemSample { account, .. } if account == ring))
                    .count();
                assert_eq!(rings, 1, "{what}: proc {p} ring charges");
            }
        }
        assert_eq!(
            fired, 6,
            "three sends and three receives per epoch, two epochs"
        );
    }
}
