//! Failure injection: the machine must fail loudly and informatively on
//! program errors — mismatched payload types, deadlocks, malformed groups —
//! rather than corrupting data or hanging forever.

use std::time::Duration;

use hpf_machine::{tags, CostModel, Group, Machine, MachineError, ProcGrid};

#[test]
#[should_panic(expected = "payload type mismatch")]
fn mismatched_payload_types_panic() {
    let m = Machine::new(ProcGrid::line(2), CostModel::zero());
    m.run(|p| {
        if p.id() == 0 {
            p.send(1, tags::USER, vec![1i32, 2, 3]);
        } else {
            // Receiver expects i64 where i32 was sent.
            let _: Vec<i64> = p.recv(0, tags::USER);
        }
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn receive_with_no_sender_times_out() {
    let m = Machine::new(ProcGrid::line(2), CostModel::zero())
        .with_recv_timeout(Duration::from_millis(50));
    m.run(|p| {
        if p.id() == 1 {
            let _: Vec<i32> = p.recv(0, tags::USER); // nobody sends
        }
    });
}

/// The postmortem of a deadlock names both parties: each processor waits
/// for the other's message before sending its own. One permit makes the
/// order exact — proc 0 parks first, so its timeout fires first, and proc 1
/// is still inside its park (awaiting 0) when the error is built. Proc 1
/// starts its receive 10 ms late: two deadlines microseconds apart fire in
/// either order under timer jitter.
#[test]
fn deadlocked_pair_reports_the_wait_cycle() {
    let err = Machine::new(ProcGrid::line(2), CostModel::zero())
        .with_recv_timeout(Duration::from_millis(50))
        .with_workers(1)
        .try_run(|p| {
            let peer = 1 - p.id();
            std::thread::sleep(Duration::from_millis(10 * p.id() as u64));
            let _: Vec<i32> = p.recv(peer, tags::USER);
            p.send(peer, tags::USER, vec![1i32]);
        })
        .expect_err("neither side ever sends");
    match &err {
        MachineError::RecvTimeout {
            proc,
            src,
            waiting_on,
            ..
        } => {
            assert_eq!((*proc, *src), (0, 1));
            assert_eq!(waiting_on, &[1, 0], "1 awaits 0, which closes the cycle");
        }
        other => panic!("expected RecvTimeout, got {other}"),
    }
    assert!(err.to_string().ends_with("waiting on: 0 → 1 → 0"), "{err}");
}

/// The receive deadline restarts whenever *any* frame arrives, also a
/// frame that did not wake the receiver: proc 0 awaits the slow proc 1 for
/// several timeouts' worth of wall time while proc 2 keeps sending. Its
/// park is only ever ended by its own deadline, and each time the ring is
/// drained — and the deadline restarted — before the timeout is tested.
#[test]
fn frames_from_other_sources_keep_a_filtered_receive_alive() {
    const TIMEOUT: Duration = Duration::from_millis(300);
    const BEATS: u64 = 40;
    let out = Machine::new(ProcGrid::line(3), CostModel::zero())
        .with_recv_timeout(TIMEOUT)
        .with_workers(3)
        .try_run(|p| match p.id() {
            0 => {
                let slow: Vec<i32> = p.recv(1, tags::USER);
                let beats: i32 = (0..BEATS)
                    .map(|i| p.recv::<Vec<i32>>(2, tags::USER + 1 + i)[0])
                    .sum();
                slow[0] + beats
            }
            1 => {
                std::thread::sleep(TIMEOUT * 3);
                p.send(0, tags::USER, vec![1000i32]);
                0
            }
            _ => {
                // One frame every 30 ms for 1.2 s: never a silent TIMEOUT.
                for i in 0..BEATS {
                    p.send(0, tags::USER + 1 + i, vec![1i32]);
                    std::thread::sleep(Duration::from_millis(30));
                }
                0
            }
        })
        .expect("progress from any source must restart the deadline");
    assert_eq!(out.results[0], 1000 + BEATS as i32);
}

#[test]
#[should_panic(expected = "my_rank out of range")]
fn group_with_bad_rank_panics() {
    let _ = Group::new(vec![0, 1, 2], 3);
}

#[test]
fn worker_panic_propagates_to_the_driver() {
    let m = Machine::new(ProcGrid::line(4), CostModel::zero());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(|p| {
            if p.id() == 2 {
                panic!("worker exploded");
            }
        });
    }));
    let err = result.expect_err("driver must propagate the worker panic");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("worker exploded"), "got: {msg}");
}

#[test]
fn tracing_spans_partition_the_timeline() {
    use hpf_machine::Category;
    let m = Machine::new(
        ProcGrid::line(2),
        CostModel {
            delta_ns: 1.0,
            ..CostModel::zero()
        },
    )
    .with_tracing(true);
    let out = m.run(|p| {
        p.with_category(Category::LocalComp, |p| p.charge_ops(100));
        p.with_category(Category::ManyToMany, |p| p.charge_ops(50));
        p.with_category(Category::LocalComp, |p| p.charge_ops(25));
    });
    for trace in &out.traces {
        // Spans are contiguous, start at 0, and end at the clock's final time.
        assert!(!trace.is_empty());
        assert_eq!(trace[0].start_ns, 0.0);
        for pair in trace.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns, "spans must be contiguous");
        }
        let total: f64 = trace.iter().map(|s| s.len_ns()).sum();
        assert_eq!(total, 175.0);
        // Category totals agree with the clock's per-category accounting.
        let local: f64 = trace
            .iter()
            .filter(|s| s.category == Category::LocalComp)
            .map(|s| s.len_ns())
            .sum();
        assert_eq!(local, 125.0);
    }
    // The Gantt renders without panicking and mentions both glyphs.
    let g = out.gantt(40);
    assert!(g.contains('L') && g.contains('M'), "{g}");
}

#[test]
fn tracing_disabled_yields_empty_traces() {
    let m = Machine::new(ProcGrid::line(2), CostModel::cm5());
    let out = m.run(|p| p.charge_ops(10));
    assert!(out.traces.iter().all(Vec::is_empty));
}

#[test]
fn comm_matrix_records_per_pair_traffic() {
    let m = Machine::new(ProcGrid::line(3), CostModel::cm5());
    let out = m.run(|p| {
        // Ring: each proc sends (id + 1) words to its right neighbour.
        let next = (p.id() + 1) % 3;
        let prev = (p.id() + 2) % 3;
        p.send(next, tags::USER, vec![1i32; p.id() + 1]);
        let _: Vec<i32> = p.recv(prev, tags::USER);
        // Plus a free self-message that must not show up.
        p.send(p.id(), tags::USER, vec![0i32; 50]);
        let _: Vec<i32> = p.recv(p.id(), tags::USER);
    });
    assert_eq!(out.comm_matrix[0][1], 1);
    assert_eq!(out.comm_matrix[1][2], 2);
    assert_eq!(out.comm_matrix[2][0], 3);
    for (s, row) in out.comm_matrix.iter().enumerate() {
        assert_eq!(row[s], 0, "self traffic must not be charged");
    }
    assert_eq!(out.heaviest_flow(), Some((2, 0, 3)));
    // Imbalance: totals are [1, 2, 3], max/mean = 3 / 2 = 1.5.
    assert!((out.send_imbalance() - 1.5).abs() < 1e-12);
}
