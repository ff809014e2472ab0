//! Timeline view: per-processor Gantt charts of a PACK and an UNPACK run,
//! showing where simulated time goes — the local scan, the per-dimension
//! prefix-reduction-sum wavefront, and the many-to-many exchange — each
//! followed by the ranked table of where the *host's* time went in that
//! same run (wall-clock self time per stage; it varies from run to run).
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin timeline -- [N] [P] [W] [density%] \
//!     [--trace-out FILE]
//! # defaults: N = 16384, P = 8, W = 16, 50%
//! # --trace-out writes the PACK run as Chrome trace_event JSON
//! # (open in Perfetto / chrome://tracing)
//! ```

use hpf_analysis::HotspotReport;
use hpf_core::{pack, unpack, MaskPattern, PackOptions, PackScheme, UnpackOptions, UnpackScheme};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::{CostModel, Machine, ProcGrid};

fn main() {
    let mut trace_out: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace-out" {
            trace_out = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--trace-out requires a path");
                std::process::exit(2);
            }));
            i += 2;
        } else {
            positionals.push(args[i].clone());
            i += 1;
        }
    }
    let n: usize = positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16384);
    let p: usize = positionals.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let w: usize = positionals
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let pct: f64 = positionals
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50.0);
    assert!(n.is_multiple_of(p * w), "need P*W | N");

    let grid = ProcGrid::line(p);
    let machine = Machine::new(grid.clone(), CostModel::cm5())
        .with_tracing(true)
        .with_wall_profiling(true);
    let hotspots = |title: &str, profiles: &[hpf_machine::WallProfile], elements: usize| {
        HotspotReport::from_profiles(profiles).render(title, elements as u64)
    };
    let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
    let pattern = MaskPattern::Random {
        density: pct / 100.0,
        seed: 42,
    };

    println!("PACK (CMS), N = {n}, P = {p}, block-cyclic({w}), density {pct}%:");
    let d = &desc;
    let out = machine.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = local_from_fn(d, proc.id(), |g| pattern.value(g, &[n]));
        pack(
            proc,
            d,
            &a,
            &m,
            &PackOptions::new(PackScheme::CompactMessage),
        )
        .unwrap()
        .size
    });
    print!("{}", out.gantt(100));
    let size = out.results[0];
    print!("{}", hotspots("PACK (CMS)", &out.wall_profiles, size));
    if let Some(path) = &trace_out {
        std::fs::write(path, out.chrome_trace_json()).expect("write trace file");
        println!("(PACK trace written to {path} — load in Perfetto or chrome://tracing)");
    }

    let v_layout = DimLayout::new_general(size, p, size.div_ceil(p)).unwrap();
    println!("\nUNPACK (CSS), same mask (note the doubled M phase — request + reply):");
    let vl = &v_layout;
    let out2 = machine.run(move |proc| {
        let m = local_from_fn(d, proc.id(), |g| pattern.value(g, &[n]));
        let f = vec![0i32; d.local_len(proc.id())];
        let v = vec![1i32; vl.local_len(proc.id())];
        unpack(
            proc,
            d,
            &m,
            &f,
            &v,
            vl,
            &UnpackOptions::new(UnpackScheme::CompactStorage),
        )
        .unwrap()
        .len()
    });
    print!("{}", out2.gantt(100));
    print!("{}", hotspots("UNPACK (CSS)", &out2.wall_profiles, size));
}
