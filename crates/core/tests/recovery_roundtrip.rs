//! Crash-recovery sweep over a planned PACK → UNPACK roundtrip: for every
//! send step k (and every receive step k) at which a processor can crash,
//! the recovered run must be bit-exact — same results, same simulated
//! clocks — as the fault-free run, for every storage scheme: plans built
//! in the epoch that executes them, and plans carried from one epoch to the
//! next in the epoch state.

use hpf_core::{
    plan_pack, plan_unpack, MaskPattern, PackOptions, PackPlan, PackScheme, UnpackOptions,
    UnpackPlan, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::{Category, CostModel, FaultPlan, Machine, Proc, ProcGrid, RunOutput};

const P: usize = 4;

/// Checkpointed state threaded through the two epochs: the packed vector,
/// its replicated size/layout, and the unpacked result.
type St = (Vec<i32>, usize, Option<DimLayout>, Vec<i32>);

fn data_at(gidx: &[usize], salt: i32) -> i32 {
    gidx.iter()
        .fold(salt, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as i32))
}

/// Epoch 0 packs a masked array; epoch 1 unpacks it back over a fresh
/// field. A crash in epoch 0 exercises the from-scratch resume (no
/// checkpoint exists yet); a crash in epoch 1 exercises snapshot restore
/// plus replay. Each plan executes `executes` times inside its epoch, on
/// fresh values each time: from the second execute on, every pool slot is
/// warm and the gathers are the positional refills of the lowered copy
/// programs, with the whole epoch's frames still in the replay log.
fn roundtrip(
    pack_opts: PackOptions,
    unpack_opts: UnpackOptions,
    executes: i32,
) -> impl Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync {
    move |proc: &mut Proc| {
        let grid = ProcGrid::line(P);
        let desc = ArrayDesc::new(&[24], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.55,
            seed: 9,
        };
        let mut st: St = (Vec::new(), 0, None, Vec::new());
        proc.epoch(&mut st, |proc, st| {
            let m = pattern.local(&desc, proc.id());
            let plan = plan_pack(proc, &desc, &m, &pack_opts).unwrap();
            for i in 0..executes {
                let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 17 + i));
                let out = plan.execute(proc, &a).unwrap();
                st.0 = out.local_v;
                st.1 = out.size;
                st.2 = out.v_layout;
            }
        });
        proc.epoch(&mut st, |proc, st| {
            let vl = st.2.expect("mask selects elements");
            let m = pattern.local(&desc, proc.id());
            let plan = plan_unpack(proc, &desc, &m, &vl, &unpack_opts).unwrap();
            for i in 0..executes {
                let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -5 - i));
                st.3 = plan.execute(proc, &f, &st.0).unwrap();
            }
        });
        (st.0.clone(), st.3.clone())
    }
}

/// Checkpointed state of [`carried`]: the plans, the packed vector and the
/// unpacked result.
type Carried = (Option<(PackPlan, UnpackPlan)>, Vec<i32>, Vec<i32>);

/// Epoch 0 builds a PACK and an UNPACK plan and executes each once, so that
/// each holds its pool-slot handles when the boundary snapshots the state;
/// epoch 1 executes the carried plans three times on fresh values. A
/// respawned victim restores a clone of the plans, which holds no handles:
/// its executes take them afresh from its own, empty pool. Were the clone
/// to share the crashed processor's, a crash at a send step would leave a
/// slot staged that the respawn could never check out again.
fn carried(
    pack_opts: PackOptions,
    unpack_opts: UnpackOptions,
) -> impl Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync {
    move |proc: &mut Proc| {
        let grid = ProcGrid::line(P);
        let desc = ArrayDesc::new(&[24], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let m = MaskPattern::Random {
            density: 0.55,
            seed: 9,
        }
        .local(&desc, proc.id());
        let mut st: Carried = (None, Vec::new(), Vec::new());
        proc.epoch(&mut st, |proc, st| {
            let pack = plan_pack(proc, &desc, &m, &pack_opts).unwrap();
            let vl = pack.v_layout().expect("mask selects elements");
            let unpack = plan_unpack(proc, &desc, &m, &vl, &unpack_opts).unwrap();
            let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 3));
            let v = pack.execute(proc, &a).unwrap().local_v;
            let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -3));
            unpack.execute(proc, &f, &v).unwrap();
            assert!(pack.slot_handles() + unpack.slot_handles() > 0);
            st.0 = Some((pack, unpack));
        });
        proc.epoch(&mut st, |proc, st| {
            let (plans, v, out) = (&st.0, &mut st.1, &mut st.2);
            let (pack, unpack) = plans.as_ref().expect("planned in epoch 0");
            for i in 0..3 {
                let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 17 + i));
                *v = pack.execute(proc, &a).unwrap().local_v;
                let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -5 - i));
                *out = unpack.execute(proc, &f, v).unwrap();
            }
        });
        (st.1.clone(), st.2.clone())
    }
}

fn machine(faults: FaultPlan) -> Machine {
    Machine::new(ProcGrid::line(P), CostModel::cm5()).with_faults(faults)
}

fn assert_bit_exact(
    clean: &RunOutput<(Vec<i32>, Vec<i32>)>,
    crashed: &RunOutput<(Vec<i32>, Vec<i32>)>,
    what: &str,
) {
    assert_eq!(clean.results, crashed.results, "{what}: results diverged");
    for (ca, cb) in clean.clocks.iter().zip(&crashed.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: final clock diverged");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "{what}: {cat:?} diverged");
        }
        assert_eq!(ca.ops, cb.ops, "{what}: ops diverged");
        assert_eq!(ca.words_sent, cb.words_sent, "{what}: words diverged");
    }
}

/// Sweep the crash over every send step and every receive step of one
/// victim until the schedule stops firing; each recovered run must match
/// the fault-free run bit-exactly.
fn sweep(pack_scheme: PackScheme, unpack_scheme: UnpackScheme, executes: i32) {
    let program = roundtrip(
        PackOptions::new(pack_scheme),
        UnpackOptions::new(unpack_scheme),
        executes,
    );
    sweep_program(&program, &format!("{executes} executes"));
}

/// [`sweep`] over any program of the two-epoch shape.
fn sweep_program(program: &(impl Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync), label: &str) {
    let clean = machine(FaultPlan::new(0))
        .run_recoverable(program)
        .expect("fault-free run");
    let victim = 1usize;
    for recv_side in [false, true] {
        let mut fired = 0u64;
        for k in 1u64..500 {
            let plan = if recv_side {
                FaultPlan::new(0).with_crash_at_recv(victim, k)
            } else {
                FaultPlan::new(0).with_crash(victim, k)
            };
            let crashed = machine(plan)
                .run_recoverable(program)
                .unwrap_or_else(|e| panic!("step {k} (recv={recv_side}) unrecovered: {e}"));
            let rec = crashed.recovery.as_ref().unwrap();
            if rec.replays == 0 {
                // Past the last send/receive step — the sweep is complete.
                assert!(fired > 0, "crash schedule never fired");
                break;
            }
            fired += 1;
            assert_eq!(rec.replays, 1, "step {k}: one crash, one recovery");
            let what = format!("{label}, step {k} recv={recv_side}");
            assert_bit_exact(&clean, &crashed, &what);
        }
        assert!(fired < 499, "sweep did not terminate");
    }
}

#[test]
fn simple_pack_simple_unpack_survive_any_crash_step() {
    for executes in [1, 3] {
        sweep(PackScheme::Simple, UnpackScheme::Simple, executes);
    }
}

#[test]
fn compact_storage_roundtrip_survives_any_crash_step() {
    for executes in [1, 3] {
        sweep(
            PackScheme::CompactStorage,
            UnpackScheme::CompactStorage,
            executes,
        );
    }
}

#[test]
fn compact_message_pack_survives_any_crash_step() {
    for executes in [1, 3] {
        sweep(
            PackScheme::CompactMessage,
            UnpackScheme::CompactStorage,
            executes,
        );
    }
}

/// Plans carried in the epoch state across every crash step, epoch 1's
/// included, for each PACK scheme with an UNPACK scheme: the respawned
/// victim's plans resolve their slot handles afresh, and the run is
/// bit-exact.
#[test]
fn plans_carried_across_epochs_survive_any_crash_step() {
    for (pack_scheme, unpack_scheme) in [
        (PackScheme::Simple, UnpackScheme::Simple),
        (PackScheme::CompactStorage, UnpackScheme::CompactStorage),
        (PackScheme::CompactMessage, UnpackScheme::Simple),
    ] {
        let program = carried(
            PackOptions::new(pack_scheme),
            UnpackOptions::new(unpack_scheme),
        );
        sweep_program(&program, &format!("carried {pack_scheme:?}"));
    }
}

/// The retire barrier, by exhaustion: a program that calls no `Proc::epoch`
/// on three one-element processors, where most of the 144 (mask × victim ×
/// step × crash kind) cases leave some peer with nothing left to receive
/// long before the victim's crash. Without the barrier such a peer retires,
/// and the respawned victim — which re-sends its whole program — waits for
/// acknowledgements that never come (`Unreachable` after 30 attempts).
#[test]
fn epochless_run_survives_every_crash_whoever_finishes_first() {
    use hpf_core::{pack_redistributed, RedistScheme};
    const P: usize = 3;
    let program = |mask: [bool; P]| {
        move |proc: &mut Proc| {
            let grid = ProcGrid::line(P);
            let desc = ArrayDesc::new(&[P], &grid, &[Dist::BlockCyclic(1)]).unwrap();
            let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 3));
            let m = [mask[proc.id()]];
            let opts = PackOptions::new(PackScheme::Simple);
            let out =
                pack_redistributed(proc, &desc, &a, &m, RedistScheme::SelectedData, &opts).unwrap();
            (out.local_v, out.size)
        }
    };
    let machine =
        |faults: FaultPlan| Machine::new(ProcGrid::line(P), CostModel::cm5()).with_faults(faults);
    for bits in 0..1usize << P {
        let mask: [bool; P] = std::array::from_fn(|i| bits >> i & 1 == 1);
        let clean = machine(FaultPlan::new(0))
            .run_recoverable(program(mask))
            .expect("fault-free run");
        for victim in 0..P {
            for step in 1..=3u64 {
                for recv_side in [false, true] {
                    let plan = if recv_side {
                        FaultPlan::new(0).with_crash_at_recv(victim, step)
                    } else {
                        FaultPlan::new(0).with_crash(victim, step)
                    };
                    let what =
                        format!("mask {mask:?} victim {victim} step {step} recv={recv_side}");
                    let crashed = machine(plan)
                        .run_recoverable(program(mask))
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(clean.results, crashed.results, "{what}");
                    for (ca, cb) in clean.clocks.iter().zip(&crashed.clocks) {
                        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: clock diverged");
                    }
                }
            }
        }
    }
}
