//! Failure injection: the machine must fail loudly and informatively on
//! program errors — mismatched payload types, deadlocks, malformed groups —
//! rather than corrupting data or hanging forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use hpf_machine::{
    fresh_pool_key, tags, CostModel, FaultPlan, Group, Lendable, LinkFaults, Loan, Machine,
    MachineError, Payload, PoolSlot, Proc, ProcGrid, Received, Reusable, Words,
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
/// entry, proc 1 takes delivery of two and returns nothing. The entry's one
/// slot carries one message at a time, so the second checkout already
/// waits for a buffer that can never come back, and the error names both.
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
                        p.send_pooled(1, tags::USER + i, slot);
                    }
                } else {
                    for i in 0..2 {
                        let pkt = p.recv_packet(0, tags::USER + i);
                        assert!(pkt.data.downcast::<PoolSlot<Vec<i64>>>().is_ok());
                    }
                }
            })
            .expect_err("the second checkout waits for a buffer nobody returns")
    });
}

/// One message in flight per (plan, destination): proc 1 keeps send `i`
/// undecoded until send `i + 1` has arrived through the same entry, which
/// a second slot would have carried. With one slot, proc 0's second
/// checkout waits on proc 1 while proc 1 waits for that send — a typed
/// `PoolStall`, not a second buffer.
#[test]
fn a_message_kept_until_the_next_arrives_is_a_pool_stall() {
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
                const SENDS: u64 = 4;
                if p.id() == 0 {
                    for i in 0..SENDS {
                        let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, 1);
                        buf.push(i as i64);
                        slot.stash(buf);
                        p.send_pooled(1, tags::USER + i, slot);
                    }
                } else {
                    let mut held = None;
                    for i in 0..SENDS {
                        let pkt = p.recv_packet(0, tags::USER + i);
                        let slot = pkt.data.downcast::<PoolSlot<Vec<i64>>>().unwrap();
                        if let Some(prev) = held.replace(slot) {
                            let buf = prev.take_staged();
                            prev.put_back(buf);
                        }
                    }
                }
            })
            .expect_err("send i + 1 waits for the slot send i still holds")
    });
}

/// A message that is only ever lent: `row` values of the lender's slice,
/// read through its recipe.
#[derive(Debug, Default, Clone)]
struct Borrowed;

impl Payload for Borrowed {
    fn wire_words(&self) -> Words {
        0
    }
    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(Borrowed)
    }
}

impl Reusable for Borrowed {
    fn reset(&mut self) {}
}

impl Lendable for Borrowed {
    type Elem = i64;
    type Recipe = Vec<usize>;
}

/// Proc 0 lends `src` to proc 1 under `key` and sends it, inside a lending
/// scope, then runs `then`.
fn lend_to_1(
    p: &mut Proc,
    key: u64,
    src: &[i64],
    recipe: &Vec<usize>,
    then: impl FnOnce(&mut Proc),
) {
    p.lending::<Borrowed, _>(key, |p, lender| {
        let row = src.len();
        let slot = p.pool_slot::<Borrowed>(key, 1);
        lender.lend(1, &slot, Loan { src, recipe, row }, 2 * row);
        p.send_pooled(1, tags::USER, slot);
        then(p);
    });
}

/// A loan its receiver takes delivery of but never reads can never come
/// back: the lender's wait is a `PoolStall` that names the lender, the plan
/// key and the receiver, the instant the machine goes quiescent.
#[test]
fn a_loan_nobody_reads_is_a_pool_stall_naming_the_lender() {
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
                    let src = vec![1i64, 2, 3];
                    lend_to_1(p, key, &src, &vec![0, 1, 2], |_| {});
                } else {
                    drop(p.recv_packet(0, tags::USER));
                }
            })
            .expect_err("the lender waits for a loan nobody reads")
    });
}

/// The message of a caught panic.
fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
    match err.downcast::<String>() {
        Ok(msg) => *msg,
        Err(err) => err
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// A lender that panics with a loan outstanding revokes it while it
/// unwinds, before its slice is freed: the run fails with the lender's own
/// typed error, and the receiver, which holds the packet and tries to read
/// only after the lender is gone, gets a panic instead of the slice.
#[test]
fn a_lender_that_panics_revokes_its_loan() {
    for workers in 1..=3 {
        let key = fresh_pool_key();
        let (read, seen) = (AtomicBool::new(false), Mutex::new(String::new()));
        let err = Machine::new(ProcGrid::line(2), CostModel::zero())
            .with_workers(workers)
            .try_run(|p| {
                if p.id() == 0 {
                    let src: Vec<i64> = (0..64).collect();
                    let recipe: Vec<usize> = (0..64).collect();
                    lend_to_1(p, key, &src, &recipe, |p| {
                        let _: Vec<i64> = p.recv(1, tags::USER + 1);
                        panic!("lender boom");
                    });
                } else {
                    let pkt = p.recv_packet(0, tags::USER);
                    p.send(0, tags::USER + 1, vec![0i64]);
                    // Wait for a word the lender never sends: its failure
                    // ends the wait, after it has unwound.
                    let waited = catch_unwind(AssertUnwindSafe(|| {
                        let _: Vec<i64> = p.recv(0, tags::USER + 2);
                    }));
                    assert!(waited.is_err(), "the lender failed");
                    let slot = pkt.data.downcast::<PoolSlot<Borrowed>>().unwrap();
                    let got = catch_unwind(AssertUnwindSafe(|| {
                        slot.receive(|got| {
                            read.store(true, Ordering::SeqCst);
                            match got {
                                Received::Lent(loan) => loan.src.iter().sum::<i64>(),
                                Received::Staged(_) => 0,
                            }
                        })
                    }));
                    *seen.lock().unwrap() = panic_text(got.expect_err("a revoked loan"));
                }
            })
            .expect_err("the lender panicked");
        match err {
            MachineError::ProcPanicked { proc: 0, msg } => assert!(msg.contains("lender boom")),
            other => panic!("workers={workers}: {other}"),
        }
        assert!(
            !read.load(Ordering::SeqCst),
            "workers={workers}: a revoked loan was read"
        );
        let seen = seen.into_inner().unwrap();
        assert!(seen.contains("revoked"), "workers={workers}: {seen}");
    }
}

/// A lender waits for the slots it lent, not for what its pool still
/// lists: one that retires its plan inside the scope still returns only
/// after its receiver has read the loan, so its slice — freed right after —
/// is read while alive, at every pool size.
#[test]
fn a_lender_that_retires_its_plan_still_waits_for_its_loans() {
    for workers in 1..=3 {
        let key = fresh_pool_key();
        let out = Machine::new(ProcGrid::line(2), CostModel::zero())
            .with_workers(workers)
            .run(|p| {
                if p.id() == 0 {
                    let src: Vec<i64> = (1..=16).collect();
                    let recipe: Vec<usize> = (0..16).collect();
                    lend_to_1(p, key, &src, &recipe, |p| p.pool_retire(key));
                    drop(src);
                    0
                } else {
                    let pkt = p.recv_packet(0, tags::USER);
                    let slot = pkt.data.downcast::<PoolSlot<Borrowed>>().unwrap();
                    slot.receive(|got| match got {
                        Received::Lent(loan) => loan.src.iter().sum::<i64>(),
                        Received::Staged(_) => unreachable!("the send was lent"),
                    })
                }
            });
        assert_eq!(out.results, [0, 136], "workers={workers}");
    }
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
