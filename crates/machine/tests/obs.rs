//! Integration coverage for the observability layer: structured events,
//! per-processor metrics, and their agreement with the clock's transport
//! diagnostics under a seeded fault plan.

use hpf_machine::{tags, CostModel, EventKind, FaultPlan, Machine, Proc, ProcGrid};

/// Eight rounds of ring traffic — enough messages that a 30–40 % fault rate
/// is all but guaranteed to force retransmissions and duplicate drops.
fn ring_rounds(p: &mut Proc) {
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    for round in 0..8u64 {
        p.with_stage("test.ring", |p| {
            p.send(next, tags::USER + round, vec![p.id() as i32; 4]);
            let _: Vec<i32> = p.recv(prev, tags::USER + round);
        });
    }
}

fn faulted_machine(seed: u64) -> Machine {
    Machine::new(ProcGrid::line(4), CostModel::cm5())
        .with_tracing(true)
        .with_metrics(true)
        .with_faults(
            FaultPlan::new(seed)
                .with_drop(0.3)
                .with_duplicate(0.3)
                .with_reorder(0.2),
        )
}

/// The metrics and the event log are independent observers of the
/// same transport; both must agree with the clock's fold-in counters for a
/// seeded plan.
#[test]
fn metrics_and_events_match_clock_transport_counters() {
    let out = faulted_machine(42)
        .try_run(ring_rounds)
        .expect("reliable transport recovers from non-crash faults");

    let clock_retx = out.total_retransmits();
    let clock_dups = out.total_dup_drops();
    assert!(
        clock_retx > 0 && clock_dups > 0,
        "seed 42 at 30%/30%/20% over 32 messages must retry and dedup \
         (got {clock_retx} retransmits, {clock_dups} dup-drops)"
    );

    let merged = out.merged_metrics();
    assert_eq!(merged.counter("transport.retransmits"), clock_retx);
    assert_eq!(merged.counter("transport.dup_drops"), clock_dups);

    let event_retx = out
        .events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, EventKind::Retransmit { .. }))
        .count() as u64;
    let event_dups = out
        .events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, EventKind::DupDrop { .. }))
        .count() as u64;
    assert_eq!(event_retx, clock_retx);
    assert_eq!(event_dups, clock_dups);

    // Per-processor agreement, not just in aggregate.
    for (pid, (clock, snap)) in out.clocks.iter().zip(&out.metrics).enumerate() {
        assert_eq!(
            snap.counter("transport.retransmits"),
            clock.retransmits,
            "proc {pid} retransmit counter disagrees with its clock"
        );
        assert_eq!(
            snap.counter("transport.dup_drops"),
            clock.dup_drops,
            "proc {pid} dup-drop counter disagrees with its clock"
        );
    }
}

/// Every charged send must be observed exactly once by the sender and its
/// delivery exactly once by the receiver, faults notwithstanding.
#[test]
fn send_and_recv_events_are_exactly_once_under_faults() {
    let out = faulted_machine(7).try_run(ring_rounds).expect("recovers");
    for (pid, evs) in out.events.iter().enumerate() {
        let sends = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .count();
        let recvs = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Recv { .. }))
            .count();
        assert_eq!(sends, 8, "proc {pid} sent 8 charged messages");
        assert_eq!(
            recvs, 8,
            "proc {pid} must observe each delivery once despite dups/retries"
        );
        // Sequenced traffic carries its transport sequence numbers.
        assert!(evs.iter().all(|e| match e.kind {
            EventKind::Send { seq, .. } | EventKind::Recv { seq, .. } => seq.is_some(),
            _ => true,
        }));
    }
    let merged = out.merged_metrics();
    assert_eq!(merged.counter("msg.sent"), 32);
    assert_eq!(merged.counter("msg.recvd"), 32);
}

/// Every delivery is eventually consumed, and each consume's `arrival_ns`
/// equals some matching send's `arrival_ns` bit-for-bit — the join the
/// critical-path analyzer relies on.
#[test]
fn consume_events_pair_with_sends_on_arrival_time() {
    let out = faulted_machine(42).try_run(ring_rounds).expect("recovers");
    let mut send_arrivals: Vec<(usize, usize, f64)> = Vec::new(); // (src, dst, arrival)
    for (pid, evs) in out.events.iter().enumerate() {
        for e in evs {
            if let EventKind::Send {
                dst, arrival_ns, ..
            } = e.kind
            {
                send_arrivals.push((pid, dst, arrival_ns));
            }
        }
    }
    for (pid, evs) in out.events.iter().enumerate() {
        let consumes: Vec<_> = evs
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Consume {
                    src,
                    arrival_ns,
                    waited_ns,
                    ..
                } => Some((src, arrival_ns, waited_ns, e.ts_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(consumes.len(), 8, "proc {pid} consumed its 8 messages");
        for (src, arrival, waited, ts) in consumes {
            assert!(
                send_arrivals
                    .iter()
                    .any(|&(s, d, a)| s == src && d == pid && a == arrival),
                "proc {pid}: consume from {src} at arrival {arrival} has no matching send"
            );
            assert!(waited >= 0.0 && ts >= arrival);
        }
    }
}

/// Uneven work before a clock sync must record Barrier events on the
/// processors that jumped, owned by the slowest processor.
#[test]
fn clock_sync_records_barrier_owned_by_slowest() {
    let machine = Machine::new(ProcGrid::line(4), CostModel::cm5()).with_tracing(true);
    let out = machine.run(|p| {
        // Proc 3 does the most local work, so it owns the barrier.
        p.charge_ops(100 * (p.id() + 1));
        let world = p.world();
        p.clock_sync_max(&world);
    });
    let t_end = out.max_time_ms();
    for (pid, evs) in out.events.iter().enumerate() {
        let barriers: Vec<_> = evs
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Barrier { owner, waited_ns } => Some((owner, waited_ns, e.ts_ns)),
                _ => None,
            })
            .collect();
        if pid == 3 {
            assert!(barriers.is_empty(), "the slowest proc never waits");
        } else {
            assert_eq!(barriers.len(), 1, "proc {pid} jumped exactly once");
            let (owner, waited, ts) = barriers[0];
            assert_eq!(owner, 3, "proc {pid} waited on the slowest proc");
            assert!(waited > 0.0);
            assert_eq!(ts / 1e6, t_end, "barrier lands at the synced time");
        }
    }
}

/// Stage spans must nest (begin/end balance).
#[test]
fn stage_spans_balance() {
    let out = faulted_machine(3).try_run(ring_rounds).expect("recovers");
    for evs in &out.events {
        let mut depth = 0i64;
        for e in evs {
            match e.kind {
                EventKind::SpanBegin { .. } => depth += 1,
                EventKind::SpanEnd { .. } => {
                    depth -= 1;
                    assert!(depth >= 0, "span end without begin");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced stage spans");
    }
}

/// The faulted-run Chrome export must carry the acceptance-criteria event
/// set (send/recv/retransmit) and be structurally sound.
#[test]
fn chrome_trace_export_contains_fault_annotations() {
    let out = faulted_machine(42).try_run(ring_rounds).expect("recovers");
    let json = out.chrome_trace_json();
    for needle in [
        "\"traceEvents\"",
        "\"name\":\"send\"",
        "\"name\":\"recv\"",
        "\"name\":\"retransmit\"",
        "\"name\":\"dup-drop\"",
        "\"name\":\"fault-verdict\"",
        "\"name\":\"test.ring\"",
        "\"ph\":\"X\"",
    ] {
        assert!(json.contains(needle), "missing {needle}");
    }
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON structure");
}

/// Observability off (the default) must leave no residue in the output.
#[test]
fn disabled_observability_records_nothing() {
    let out = Machine::new(ProcGrid::line(4), CostModel::cm5()).run(ring_rounds);
    assert_eq!(out.total_events(), 0);
    assert!(out.merged_metrics().counters.is_empty());
    // And events/metrics are deterministic across traced runs of the same
    // seeded machine.
    let a = faulted_machine(11).try_run(ring_rounds).expect("recovers");
    let b = faulted_machine(11).try_run(ring_rounds).expect("recovers");
    assert_eq!(
        a.merged_metrics().counter("msg.sent"),
        b.merged_metrics().counter("msg.sent")
    );
    assert_eq!(a.total_words_sent(), b.total_words_sent());
}

/// A two-epoch ring program: checkpointable under `run_recoverable`, and a
/// plain program (the boundary degrades to a barrier) under `run`.
fn two_epoch_ring(p: &mut Proc) -> i32 {
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    let mut st = p.id() as i32;
    for round in 0..2u64 {
        p.epoch(&mut st, |p, st| {
            p.send(next, tags::USER + round, vec![*st]);
            let got: Vec<i32> = p.recv(prev, tags::USER + round);
            *st = st.wrapping_add(got[0]);
        });
    }
    st
}

/// Recovery telemetry is strictly opt-in: plain runs and fault-free
/// recoverable runs must leave no replay spans or markers behind; only an
/// actual crash-and-recover emits them. What recovery did is counted once,
/// run-wide, in `RunOutput::recovery`: no processor's metrics carry a
/// `recovery.*` counter.
#[test]
fn recovery_telemetry_appears_only_when_recovery_happens() {
    let observed = || {
        Machine::new(ProcGrid::line(4), CostModel::cm5())
            .with_tracing(true)
            .with_metrics(true)
    };
    let assert_no_recovery_counter = |out: &hpf_machine::RunOutput<i32>, what: &str| {
        let merged = out.merged_metrics();
        let named: Vec<&String> = (merged.counters.keys())
            .filter(|name| name.starts_with("recovery."))
            .collect();
        assert!(named.is_empty(), "{what}: per-processor {named:?}");
    };
    let assert_no_replay_residue = |out: &hpf_machine::RunOutput<i32>, what: &str| {
        let json = out.chrome_trace_json();
        assert!(
            !json.contains("recovery.replay"),
            "{what}: replay span in trace"
        );
        assert!(
            !json.contains("recovery.resume"),
            "{what}: resume marker in trace"
        );
        assert_no_recovery_counter(out, what);
    };

    // Plain run of the same epoch-structured program: no recovery residue.
    let plain = observed().run(two_epoch_ring);
    assert!(
        plain.recovery.is_none(),
        "plain run must not report recovery stats"
    );
    assert_no_replay_residue(&plain, "plain run");

    // Fault-free recoverable run: epoch checkpoints are counted, but there
    // are no replays and no replay spans.
    let fault_free = observed()
        .with_faults(FaultPlan::new(7))
        .run_recoverable(two_epoch_ring)
        .expect("fault-free recoverable run");
    let rec = fault_free
        .recovery
        .as_ref()
        .expect("recoverable run reports stats");
    assert_eq!((rec.epochs, rec.replays), (2 * 4, 0));
    assert_no_replay_residue(&fault_free, "fault-free recoverable run");

    // A crashed run emits the replay span and the resume marker — while
    // results stay bit-identical to the clean run.
    let crashed = observed()
        .with_faults(FaultPlan::new(7).with_crash(1, 1))
        .run_recoverable(two_epoch_ring)
        .expect("crash must recover");
    let rec = crashed
        .recovery
        .as_ref()
        .expect("recoverable run reports stats");
    assert_eq!((rec.epochs, rec.replays), (2 * 4, 1));
    assert!(rec.replay_ms > 0.0, "{rec:?}");
    assert_no_recovery_counter(&crashed, "crashed run");
    let merged = crashed.merged_metrics();
    let json = crashed.chrome_trace_json();
    assert!(
        json.contains("recovery.replay"),
        "crashed trace lacks replay span"
    );
    assert!(
        json.contains("recovery.resume"),
        "crashed trace lacks resume marker"
    );
    assert_eq!(crashed.results, fault_free.results);

    // Post-recovery the replay-log memory gauge must sit at its truncation
    // floor: the final epoch boundary's checkpoint covers every logged
    // frame, so nothing is retained.
    let replay_log = &merged.gauges["mem.replay_log.cur"];
    assert!(
        replay_log.max > 0,
        "epoch frames were logged, so the replay-log gauge saw a peak"
    );
    assert_eq!(
        replay_log.last, 0,
        "final boundary must truncate the replay log back to zero"
    );
}

/// Like [`two_epoch_ring`] but with a deliberately fat epoch-0 payload: the
/// 64-word message sets a 256-byte mailbox/replay-log high-water mark that
/// the tiny epoch-1 traffic can never reproduce, so peak survival across
/// the epoch-boundary snapshot restore is observable.
fn lopsided_epoch_ring(p: &mut Proc) -> i32 {
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    let mut st = p.id() as i32;
    for round in 0..2u64 {
        p.epoch(&mut st, |p, st| {
            let words = if round == 0 { 64 } else { 1 };
            p.send(next, tags::USER + round, vec![*st; words]);
            let got: Vec<i32> = p.recv(prev, tags::USER + round);
            *st = st.wrapping_add(got[0]);
        });
    }
    st
}

/// Memory-gauge semantics across epochs: the all-run high-water (`max`)
/// must survive both the epoch-boundary snapshot/restore cycle and a
/// crash-recovery replay, while the current value (`last`) must drain back
/// to zero — a replay that re-charged without releasing (double-counting)
/// would leave a residue, and a restore that merged instead of overwrote
/// would inflate the peak.
#[test]
fn mem_gauge_peaks_survive_restore_without_double_counting() {
    let observed = || {
        Machine::new(ProcGrid::line(4), CostModel::cm5())
            .with_tracing(true)
            .with_metrics(true)
    };
    let check = |out: &hpf_machine::RunOutput<i32>, what: &str| {
        let merged = out.merged_metrics();
        let mailbox = &merged.gauges["mem.mailbox.cur"];
        assert!(
            mailbox.max >= 256,
            "{what}: epoch-0's 64-word message must set a >=256-byte \
             mailbox peak (got {})",
            mailbox.max
        );
        assert_eq!(
            mailbox.last, 0,
            "{what}: every delivery was consumed, so the mailbox gauge \
             must drain back to zero"
        );
        let replay = &merged.gauges["mem.replay_log.cur"];
        assert!(
            replay.max >= 256,
            "{what}: the epoch-0 frame stays logged until its boundary, \
             so the replay-log peak covers it (got {})",
            replay.max
        ); // requires sequenced transport — see the fault plans below
        assert_eq!(
            replay.last, 0,
            "{what}: each boundary truncates the frames its checkpoint \
             covers, so the log ends at its zero floor"
        );
    };

    // The crash-free baseline still needs a non-benign plan: under a benign
    // one the transport sends raw and logs nothing. A crash step the
    // program never reaches makes it sequence and log without ever firing.
    let clean = observed()
        .with_faults(FaultPlan::new(5).with_crash(1, 99))
        .run_recoverable(lopsided_epoch_ring)
        .expect("crash-free recoverable run");
    assert_eq!(clean.recovery.as_ref().expect("stats").replays, 0);
    check(&clean, "crash-free run");

    // Crash proc 1 on its second send — inside epoch 1, after the epoch-0
    // checkpoint. The respawn restores epoch-0's metrics snapshot (which
    // already contains the 256-byte peaks) and replays epoch-1 frames.
    let crashed = observed()
        .with_faults(FaultPlan::new(5).with_crash(1, 2))
        .run_recoverable(lopsided_epoch_ring)
        .expect("crash must recover");
    assert_eq!(
        crashed.recovery.as_ref().expect("stats").replays,
        1,
        "the send-step crash must fire exactly once"
    );
    check(&crashed, "crashed run");
    assert_eq!(crashed.results, clean.results);

    // The recovered peak matches the fault-free run's bit-for-bit: restore
    // overwrites rather than merges (a respawned processor's pre-restore
    // re-execution must not stack on top of the snapshot), and the
    // replay's re-charges release symmetrically.
    assert_eq!(
        crashed.merged_metrics().gauges["mem.mailbox.cur"].max,
        clean.merged_metrics().gauges["mem.mailbox.cur"].max,
        "crash recovery must neither inflate (double-count) nor lose the \
         mailbox high-water mark"
    );
}
