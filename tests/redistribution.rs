//! Integration tests for the redistribution substrate and the Section 6.3
//! preliminary-redistribution PACK schemes.

use hpf_packunpack::core::seq::pack_seq;
use hpf_packunpack::core::{pack, pack_redistributed, MaskPattern, PackOptions, RedistScheme};
use hpf_packunpack::distarray::{redistribute, ArrayDesc, Dist, GlobalArray};
use hpf_packunpack::machine::collectives::A2aSchedule;
use hpf_packunpack::machine::{Category, CostModel, Machine, ProcGrid};

/// Redistribution composes: cyclic -> block-cyclic(4) -> block equals
/// cyclic -> block directly.
#[test]
fn redistribution_composes() {
    let shape = [48usize];
    let grid = ProcGrid::line(4);
    let cyc = ArrayDesc::new(&shape, &grid, &[Dist::Cyclic]).unwrap();
    let mid = ArrayDesc::new(&shape, &grid, &[Dist::BlockCyclic(4)]).unwrap();
    let blk = ArrayDesc::new(&shape, &grid, &[Dist::Block]).unwrap();
    let a = GlobalArray::from_fn(&shape, |g| g[0] as i32 * 3);
    let parts = a.partition(&cyc);
    let machine = Machine::new(grid, CostModel::cm5());
    let (c, m, b, pp) = (&cyc, &mid, &blk, &parts);
    let out = machine.run(move |proc| {
        let local = pp[proc.id()].clone();
        let two_hop = {
            let x = redistribute(proc, c, m, &local, A2aSchedule::LinearPermutation);
            redistribute(proc, m, b, &x, A2aSchedule::LinearPermutation)
        };
        let one_hop = redistribute(proc, c, b, &local, A2aSchedule::LinearPermutation);
        (two_hop, one_hop)
    });
    for (p, (two, one)) in out.results.iter().enumerate() {
        assert_eq!(two, one, "proc {p}");
    }
    assert_eq!(
        GlobalArray::assemble(
            &blk,
            &out.results
                .iter()
                .map(|(t, _)| t.clone())
                .collect::<Vec<_>>()
        ),
        a
    );
}

/// PACK after explicit redistribution equals PACK on the original layout.
#[test]
fn pack_is_layout_invariant() {
    let shape = [16usize, 16];
    let grid = ProcGrid::new(&[2, 2]);
    let cyc = ArrayDesc::new(&shape, &grid, &[Dist::Cyclic, Dist::Cyclic]).unwrap();
    let pattern = MaskPattern::Random {
        density: 0.4,
        seed: 10,
    };
    let a = GlobalArray::from_fn(&shape, |g| (g[0] * 31 + g[1]) as i32);
    let m = pattern.global(&shape);
    let want = pack_seq(&a, &m, None);

    let machine = Machine::new(grid, CostModel::cm5());
    let (ap, mp) = (a.partition(&cyc), m.partition(&cyc));
    let (c, apr, mpr) = (&cyc, &ap, &mp);
    for scheme in [RedistScheme::SelectedData, RedistScheme::WholeArrays] {
        let out = machine.run(move |proc| {
            pack_redistributed(
                proc,
                c,
                &apr[proc.id()],
                &mpr[proc.id()],
                scheme,
                &PackOptions::default(),
            )
            .unwrap()
        });
        let size = out.results[0].size;
        assert_eq!(size, want.len());
        let layout = out.results[0].v_layout.unwrap();
        let mut got = vec![0i32; size];
        for (p, r) in out.results.iter().enumerate() {
            for (l, &x) in r.local_v.iter().enumerate() {
                got[layout.global_of(p, l)] = x;
            }
        }
        assert_eq!(got, want, "{scheme:?}");
    }
}

/// The redistribution categories are charged for Red.1/Red.2 but never for
/// a plain PACK.
#[test]
fn redistribution_categories_are_scoped() {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[256], &grid, &[Dist::Cyclic]).unwrap();
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 2,
    };
    let machine = Machine::new(grid, CostModel::cm5());
    let d = &desc;

    let plain = machine.run(move |proc| {
        let a = hpf_packunpack::distarray::local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = pattern.local(d, proc.id());
        pack(proc, d, &a, &m, &PackOptions::default()).unwrap();
    });
    assert_eq!(plain.max_cat_ms(Category::RedistDetect), 0.0);
    assert_eq!(plain.max_cat_ms(Category::RedistComm), 0.0);

    let red = machine.run(move |proc| {
        let a = hpf_packunpack::distarray::local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = pattern.local(d, proc.id());
        pack_redistributed(
            proc,
            d,
            &a,
            &m,
            RedistScheme::WholeArrays,
            &PackOptions::default(),
        )
        .unwrap();
    });
    assert!(red.max_cat_ms(Category::RedistDetect) > 0.0);
    assert!(red.max_cat_ms(Category::RedistComm) > 0.0);
}

/// Red.2 detection costs are mask-independent; Red.1 traffic is
/// mask-dependent (Table II's qualitative structure).
#[test]
fn red2_is_density_insensitive_red1_is_not() {
    // Zero start-up cost isolates the *volume* term of the redistribution
    // traffic (with CM-5 τ = 86 µs the small messages here are start-up
    // bound and the ratio compresses).
    let cost = CostModel {
        tau_ns: 0.0,
        ..CostModel::cm5()
    };
    let time = |density: f64, scheme: RedistScheme| {
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[1024], &grid, &[Dist::Cyclic]).unwrap();
        let machine = Machine::new(grid, cost);
        let d = &desc;
        let pattern = MaskPattern::Random { density, seed: 3 };
        let out = machine.run(move |proc| {
            let a = hpf_packunpack::distarray::local_from_fn(d, proc.id(), |g| g[0] as i32);
            let m = pattern.local(d, proc.id());
            pack_redistributed(proc, d, &a, &m, scheme, &PackOptions::default()).unwrap();
        });
        out.max_cat_ms(Category::RedistComm)
    };
    let red1_spread = time(0.9, RedistScheme::SelectedData) / time(0.1, RedistScheme::SelectedData);
    let red2_spread = time(0.9, RedistScheme::WholeArrays) / time(0.1, RedistScheme::WholeArrays);
    assert!(
        red1_spread > 2.0,
        "Red.1 traffic should scale with density ({red1_spread})"
    );
    assert!(
        red2_spread < 1.2,
        "Red.2 traffic should be flat ({red2_spread})"
    );
}
