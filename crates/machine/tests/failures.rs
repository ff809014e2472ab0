//! Failure injection: the machine must fail loudly and informatively on
//! program errors — mismatched payload types, deadlocks, malformed groups —
//! rather than corrupting data or hanging forever.

use hpf_machine::{
    fresh_pool_key, tags, CostModel, FaultPlan, Group, LinkFaults, Machine, MachineError, PoolSlot,
    ProcGrid,
};

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

/// Every hang below is reported at the instant the machine goes quiescent,
/// as the same value on every run: `error(workers)` is asked twenty times
/// at each pool size.
fn assert_always(expected: &MachineError, error: impl Fn(usize) -> MachineError) {
    for workers in 1..=3 {
        for _ in 0..20 {
            assert_eq!(&error(workers), expected, "workers={workers}");
        }
    }
}

#[test]
#[should_panic(expected = "deadlock")]
fn receive_with_no_sender_is_a_deadlock() {
    let m = Machine::new(ProcGrid::line(2), CostModel::zero());
    m.run(|p| {
        if p.id() == 1 {
            let _: Vec<i32> = p.recv(0, tags::USER); // nobody sends
        }
    });
}

/// The postmortem of a deadlock names both parties: each processor waits
/// for the other's message before sending its own. The lowest-id parked
/// processor reports, and its peer is still inside its park (awaiting 0)
/// when the error is built.
#[test]
fn deadlocked_pair_reports_the_wait_cycle() {
    let expected = MachineError::Deadlock {
        proc: 0,
        src: 1,
        tag: tags::USER,
        waiting_on: vec![1, 0], // 1 awaits 0, which closes the cycle
    };
    assert!(
        expected.to_string().ends_with("waiting on: 0 → 1 → 0"),
        "{expected}"
    );
    assert_always(&expected, |workers| {
        Machine::new(ProcGrid::line(2), CostModel::zero())
            .with_workers(workers)
            .try_run(|p| {
                let peer = 1 - p.id();
                let _: Vec<i32> = p.recv(peer, tags::USER);
                p.send(peer, tags::USER, vec![1i32]);
            })
            .expect_err("neither side ever sends")
    });
}

/// Three parties, each awaiting the next, and a fourth that has nothing to
/// do with it and finishes: the cycle comes back whole.
#[test]
fn three_party_cycle_is_named_whole() {
    let expected = MachineError::Deadlock {
        proc: 0,
        src: 1,
        tag: tags::USER,
        waiting_on: vec![1, 2, 0],
    };
    assert_always(&expected, |workers| {
        Machine::new(ProcGrid::line(4), CostModel::zero())
            .with_workers(workers)
            .try_run(|p| {
                if p.id() < 3 {
                    let _: Vec<i32> = p.recv((p.id() + 1) % 3, tags::USER);
                }
            })
            .expect_err("nobody ever sends")
    });
}

/// A link that drops everything: the sender retransmits each time the
/// machine runs dry, thirty transmissions in all, and then says so.
#[test]
fn a_dead_link_is_unreachable_after_thirty_attempts() {
    let dead = LinkFaults {
        drop_p: 1.0,
        ..LinkFaults::default()
    };
    let expected = MachineError::Unreachable {
        proc: 0,
        dst: 1,
        seq: 0,
        attempts: 30,
    };
    assert_always(&expected, |workers| {
        Machine::new(ProcGrid::line(3), CostModel::zero())
            .with_workers(workers)
            .with_faults(FaultPlan::new(1).with_link(0, 1, dead))
            .try_run(|p| {
                let n = p.nprocs();
                p.send((p.id() + 1) % n, tags::USER, vec![p.id() as i32]);
                let _: Vec<i32> = p.recv((p.id() + n - 1) % n, tags::USER);
            })
            .expect_err("0 → 1 never gets through")
    });
}

/// A plan executed unevenly: proc 0 sends three times through one pool
/// entry's two slots, proc 1 takes delivery of one and returns nothing.
/// The third checkout can never be served, and the error names both.
#[test]
fn unevenly_executed_plan_is_a_pool_stall() {
    let key = fresh_pool_key();
    let expected = MachineError::PoolStall {
        proc: 0,
        key,
        dst: 1,
    };
    assert_always(&expected, |workers| {
        Machine::new(ProcGrid::line(2), CostModel::zero())
            .with_workers(workers)
            .try_run(|p| {
                if p.id() == 0 {
                    for i in 0..3u64 {
                        let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, 1);
                        buf.push(i as i64);
                        slot.stash(buf);
                        p.send_pooled(1, tags::USER + i, &slot);
                    }
                } else {
                    let pkt = p.recv_packet(0, tags::USER);
                    assert!(pkt.data.downcast::<PoolSlot<Vec<i64>>>().is_ok());
                }
            })
            .expect_err("the third checkout waits for a buffer nobody returns")
    });
}

/// The one thing only a clock can show: a processor that blocks its OS
/// thread is running, not parked, so the others — all parked, waiting for
/// it — are not stuck, however long it takes.
#[test]
fn a_sleeping_processor_is_not_a_hang() {
    for workers in 1..=3 {
        let out = Machine::new(ProcGrid::line(3), CostModel::zero())
            .with_workers(workers)
            .run(|p| {
                if p.id() == 2 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    p.send(0, tags::USER, vec![7i32]);
                    p.send(1, tags::USER, vec![7i32]);
                    0
                } else {
                    p.recv::<Vec<i32>>(2, tags::USER)[0]
                }
            });
        assert_eq!(out.results, [7, 7, 0], "workers={workers}");
    }
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
