//! Crash recovery: scheduled processor crashes under
//! `Machine::run_recoverable` must be survived, and the recovered run must
//! be bit-identical — results *and* simulated clocks — to the same program
//! run without the crash.

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
        .with_metrics(true)
        .with_faults(faults)
}

/// Clocks must agree exactly: same final time, same per-category split,
/// same charged ops/words/startups. Wall-clock diagnostics (retransmits,
/// dup drops) are excluded — recovery inevitably perturbs those.
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
    assert_eq!(a.comm_matrix, b.comm_matrix);
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

/// Any key no `fresh_pool_key` of this process reaches; a constant, so a
/// respawned processor finds its checkpointed slot rotation.
const RING_KEY: u64 = 1 << 40;

/// A ring over pooled `Vec<i64>` buffers — whose `reset` really clears,
/// unlike the shape-keeping wrappers of `hpf-core` — sent 3× and then 4×
/// through one `(key, dst)` entry, each inside a single epoch: twice round
/// the entry's two slots while nothing truncates the replay log. When
/// `logged`, the frame travels as a frozen copy, so the live slot must be
/// free the moment the send returns — no checkout can park on it.
fn pooled_ring(logged: bool) -> impl Fn(&mut Proc) -> Vec<i64> + Sync {
    move |p| {
        let mut st: Vec<i64> = vec![p.id() as i64 + 1];
        let n = p.nprocs();
        let (next, prev) = ((p.id() + 1) % n, (p.id() + n - 1) % n);
        for sends in [3u64, 4] {
            p.epoch(&mut st, |p, st| {
                for i in 0..sends {
                    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(RING_KEY, next);
                    assert!(buf.is_empty(), "a returned buffer comes back cleared");
                    buf.extend_from_slice(st);
                    slot.stash(buf);
                    p.send_pooled(next, tags::USER + i, &slot);
                    if logged {
                        let live = slot.try_checkout().expect("a logged send frees the slot");
                        assert!(live.is_empty(), "the frozen copy took none of its bytes");
                        slot.put_back(live);
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
    let clean = machine(FaultPlan::new(0))
        .run_recoverable(pooled_ring(false))
        .expect("fault-free run");
    let gauge = |out: &RunOutput<Vec<i64>>, name: &str| out.merged_metrics().gauges[name];
    assert_eq!(
        gauge(&clean, "mem.payload.cur").max,
        0,
        "unlogged pooled sends ship the live slot: bytes stay on `pool`"
    );

    // A crash step the program never reaches arms the transport, and with
    // it the replay log, without firing: the accounting of a logged pooled
    // send, event side and gauge side.
    let logged = machine(FaultPlan::new(0).with_crash(1, 99))
        .with_tracing(true)
        .run_recoverable(pooled_ring(true))
        .expect("crash-free logged run");
    assert_eq!(clean.results, logged.results);
    assert_clocks_identical(&clean, &logged);
    let largest = 8 * 8; // epoch 1's last message: 8 i64 values
    assert!(gauge(&logged, "mem.pool.cur").max >= largest);
    assert!(
        gauge(&logged, "mem.payload.cur").max >= largest,
        "the frozen copy is charged to the sender's payload account"
    );
    assert_eq!(gauge(&logged, "mem.payload.cur").last, 0);
    assert!(gauge(&logged, "mem.replay_log.cur").max >= largest);
    assert_eq!(gauge(&logged, "mem.replay_log.cur").last, 0);
    // Every byte a boundary truncation releases was charged by a sender.
    let mut log_bytes = [0i64; P];
    for ev in logged.events.iter().flatten() {
        if let EventKind::MemSample {
            account: MemAccount::ReplayLog,
            owner,
            delta_bytes,
        } = ev.kind
        {
            log_bytes[owner] += delta_bytes;
        }
    }
    assert_eq!(log_bytes, [0; P], "replay-log charges and releases balance");

    for recv_side in [false, true] {
        let (mut fired, mut replayed) = (0, 0);
        for k in 1u64..20 {
            let plan = if recv_side {
                FaultPlan::new(0).with_crash_at_recv(1, k)
            } else {
                FaultPlan::new(0).with_crash(1, k)
            };
            let crashed = machine(plan)
                .run_recoverable(pooled_ring(true))
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
