//! The paper artefacts: every table, figure and Section 7 study this
//! repository reproduces, as one registry of named text renderers. `repro`
//! is its command line; `results/<name>.txt` is what each renders, byte for
//! byte, at the commit that holds it.
//!
//! Every number is simulated time (msec on the CM-5 cost model) or a count,
//! so an artefact is a function of the tree. The set-ups of Section 7 are
//! declared once: [`Panel::paper`] is what Figures 3–5 sweep — N = 65 536 on
//! 16 processors and 512 × 512 on 4 × 4 — under [`paper_masks`] at [`SEED`]
//! over [`block_sizes`]; the other artefacts take one of those panels or
//! scale it.

use std::fmt::Write as _;

use hpf_analysis::HotspotReport;
use hpf_core::{
    MaskPattern, PackOptions, PackScheme, RedistScheme, ScanMethod, UnpackOptions, UnpackScheme,
};
use hpf_machine::collectives::{
    alltoallv, alltoallv_two_phase, prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{Category, CostModel, Machine, ProcGrid};

use crate::{
    block_sizes, ms, pack_scheme_opts, paper_masks, run_pack, run_unpack, time_pack,
    time_pack_redist, time_unpack, time_unpack_redist, unpack_scheme_opts, ExpConfig, Measurement,
    Observe, Table,
};

/// Appends an artefact's text.
pub type Render = fn(&mut String);

/// Every artefact as `(name, renderer)`, in the order `repro --all` writes
/// them: `repro <name>` prints it, `results/<name>.txt` is the committed
/// copy, and the renderer's doc comment says what of the paper it is.
pub const ARTEFACTS: [(&str, Render); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("prs", prs),
    ("scaling", scaling),
    ("ablations", ablations),
    ("balance", balance),
    ("timeline", |out| timeline(out, None)),
];

/// `Err` naming the first line at which `rendered` and the `committed` copy
/// of the artefact `name` differ.
pub fn first_difference(name: &str, committed: &str, rendered: &str) -> Result<(), String> {
    if committed == rendered {
        return Ok(());
    }
    let (old, new): (Vec<&str>, Vec<&str>) =
        (committed.lines().collect(), rendered.lines().collect());
    // `lines` forgives a missing final newline; the bytes compared above do not.
    let Some(at) = (0..old.len().max(new.len())).find(|&i| old.get(i) != new.get(i)) else {
        return Err(format!("{name}: {name}.txt differs in its final newline"));
    };
    let show = |l: Option<&&str>| l.map_or("<end of file>".into(), |l| format!("`{l}`"));
    let (old, new) = (show(old.get(at)), show(new.get(at)));
    let line = at + 1;
    Err(format!(
        "{name}: {name}.txt line {line} differs\n  committed: {old}\n  rendered:  {new}"
    ))
}

/// Seed of every random mask in the artefacts.
pub const SEED: u64 = 42;

macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// Append a row of `Display` cells to a table.
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.row(vec![$($cell.to_string()),+])
    };
}

/// An array shape on a processor grid: the unit the paper's experiments
/// are stated in.
struct Panel {
    shape: Vec<usize>,
    grid: Vec<usize>,
}

impl Panel {
    fn new(shape: &[usize], grid: &[usize]) -> Panel {
        let (shape, grid) = (shape.to_vec(), grid.to_vec());
        Panel { shape, grid }
    }

    /// `n` elements on a line of `p` processors.
    fn line(n: usize, p: usize) -> Panel {
        Panel::new(&[n], &[p])
    }

    /// `n × n` elements on `p × p` processors.
    fn square(n: usize, p: usize) -> Panel {
        Panel::new(&[n, n], &[p, p])
    }

    /// The two set-ups of Figures 3–5 (local size 4096 and 128 × 128).
    fn paper() -> [Panel; 2] {
        [Panel::line(65536, 16), Panel::square(512, 4)]
    }

    fn title(&self) -> String {
        match (&self.shape[..], &self.grid[..]) {
            ([n], [p]) => format!("1-D, N = {n}, P = {p}"),
            ([n, m], [p, q]) => format!("2-D, {n} x {m}, P = {p}x{q}"),
            _ => unreachable!("panels are 1-D or 2-D"),
        }
    }

    fn cfg(&self, w: usize, pattern: MaskPattern) -> ExpConfig {
        ExpConfig::new(&self.shape, &self.grid, w, pattern)
    }

    fn block_sizes(&self) -> Vec<usize> {
        block_sizes(&self.shape, &self.grid)
    }
}

fn random(density: f64) -> MaskPattern {
    let seed = SEED;
    MaskPattern::Random { density, seed }
}

fn percent(density: f64) -> String {
    format!("{:.0}%", density * 100.0)
}

/// `[local, prs, m2m]` of a measurement, formatted.
fn stages(m: &Measurement) -> [String; 3] {
    [ms(m.local_ms()), ms(m.prs_ms()), ms(m.m2m_ms())]
}

/// The body shared by Figures 3–5: for both paper panels, at mask densities
/// 10 / 50 / 90 % and the structured mask, one table over the block sizes
/// whose cells after the first come from `cells`.
fn figure(out: &mut String, heads: &str, cells: impl Fn(&ExpConfig) -> Vec<String>) {
    for panel in Panel::paper() {
        let masks = paper_masks(panel.shape.len(), SEED);
        for mask in [masks[0], masks[2], masks[4], masks[5]] {
            say!(out, "\n{}, mask {}:", panel.title(), mask.label());
            let mut t = Table::new(heads);
            for w in panel.block_sizes() {
                let mut row = vec![w.to_string()];
                row.extend(cells(&panel.cfg(w, mask)));
                t.row(row);
            }
            out.push_str(&t.render());
        }
    }
}

/// One panel of Table I: per local size and paper mask, the smallest block
/// size of the sweep at which `better` holds, `inf` if none.
fn beta_panel(
    out: &mut String,
    title: &str,
    local_sizes: [usize; 4],
    panel_of: fn(usize) -> Panel,
    better: &dyn Fn(&ExpConfig) -> bool,
) {
    say!(out, "\n{title}");
    let masks = paper_masks(panel_of(local_sizes[0]).shape.len(), SEED);
    let labels: Vec<String> = masks.iter().map(|m| m.label()).collect();
    let mut t = Table::new(&format!("Local Size|{}", labels.join("|")));
    for ls in local_sizes {
        let panel = panel_of(ls);
        let mut row = vec![ls.to_string()];
        for &mask in &masks {
            let mut sizes = panel.block_sizes().into_iter();
            let beta = sizes.find(|&w| better(&panel.cfg(w, mask)));
            row.push(beta.map_or("inf".into(), |w| w.to_string()));
        }
        t.row(row);
    }
    out.push_str(&t.render());
}

/// Table I — β₁: the smallest block size at which the compact storage
/// scheme's local computation beats the simple storage scheme's, per local
/// array size and mask density; `inf` where CSS never catches up within the
/// sweep (the paper reports `∞` for 10 % density on small 2-D arrays). The
/// companion β₂ is where CMS beats CSS on total time (Section 6.4.2's
/// comparison includes communication). Paper set-up: 1-D local sizes
/// 1024–8192 on 16 processors, 2-D 16–128 per dimension on 4 × 4.
fn table1(out: &mut String) {
    let beta1 = |cfg: &ExpConfig| {
        let sss = time_pack(cfg, &PackOptions::new(PackScheme::Simple));
        let css = time_pack(cfg, &PackOptions::new(PackScheme::CompactStorage));
        css.local_ms() <= sss.local_ms()
    };
    let beta2 = |cfg: &ExpConfig| {
        let css = time_pack(cfg, &PackOptions::new(PackScheme::CompactStorage));
        let cms = time_pack(cfg, &PackOptions::new(PackScheme::CompactMessage));
        cms.total_ms() <= css.total_ms()
    };
    let panels = |out: &mut String, better: &dyn Fn(&ExpConfig) -> bool| {
        let line = |ls| Panel::line(ls * 16, 16);
        beta_panel(
            out,
            "1-D arrays (P = 16):",
            [1024, 2048, 4096, 8192],
            line,
            better,
        );
        let title = "2-D arrays (P = 4x4), local size per dimension:";
        let square = |ls| Panel::square(ls * 4, 4);
        beta_panel(out, title, [16, 32, 64, 128], square, better);
    };
    say!(
        out,
        "Table I: beta_1 — smallest block size where CSS local computation <= SSS"
    );
    say!(
        out,
        "(paper: 16 procs for 1-D, 4x4 for 2-D; densities 10..90% plus the LT mask)"
    );
    panels(out, &beta1);
    say!(
        out,
        "\nCompanion: beta_2 — smallest block size where CMS total time <= CSS"
    );
    panels(out, &beta2);
}

/// Table II — preliminary redistribution for cyclically distributed input:
/// total PACK time for plain SSS on the cyclic layout against Red.1
/// (redistribute selected data) and Red.2 (redistribute whole arrays), each
/// followed by CMS on the block layout. Paper set-up: 16 processors for 1-D
/// (N = 16384, 65536), 4 × 4 for 2-D (256², 512²), densities 10–90 %.
fn table2(out: &mut String) {
    let cases = |out: &mut String, prs: PrsAlgorithm| {
        let [line, square] = Panel::paper();
        for panel in [Panel::line(16384, 16), line, Panel::square(256, 4), square] {
            say!(out, "\n{}:", panel.title());
            let mut t = Table::new("Mask Density|SSS|Red. 1|Red. 2");
            for density in MaskPattern::DENSITIES {
                let cfg = panel.cfg(1, random(density)); // cyclic input
                let opts = |scheme| PackOptions {
                    prs,
                    ..PackOptions::new(scheme)
                };
                let cms = opts(PackScheme::CompactMessage);
                row!(
                    t,
                    percent(density),
                    ms(time_pack(&cfg, &opts(PackScheme::Simple)).total_ms()),
                    ms(time_pack_redist(&cfg, RedistScheme::SelectedData, &cms).total_ms()),
                    ms(time_pack_redist(&cfg, RedistScheme::WholeArrays, &cms).total_ms()),
                );
            }
            out.push_str(&t.render());
        }
    };
    say!(
        out,
        "Table II: execution time (msec) for two redistribution schemes in parallel PACK"
    );
    say!(
        out,
        "(input distributed cyclicly; Red.x = redistribution + CMS pack on block layout)"
    );
    say!(
        out,
        "\n--- software prefix-reduction-sum (data network only) ---"
    );
    cases(out, PrsAlgorithm::Auto);
    say!(
        out,
        "\n--- CM-5-style control-network scans (PrsAlgorithm::Hardware) ---\n\
         On the CM-5 the 1-D experiments used hardware global operations \n\
         (paper, Section 7), making cyclic ranking cheap enough that neither \n\
         redistribution scheme beat plain SSS in 1-D — the shape this panel \n\
         reproduces."
    );
    cases(out, PrsAlgorithm::Hardware);
}

/// Figure 3 — local computation time of the three PACK schemes against the
/// block size: the ranking stage's local work (without the
/// prefix-reduction-sum) plus message composition and decomposition, the
/// paper's measurement. Expected: time grows as blocks shrink (more tiles);
/// SSS is flattest, CSS / CMS win from β₁ / β₂ on, most clearly when dense.
fn fig3(out: &mut String) {
    say!(
        out,
        "Figure 3: local computation time (msec) for three schemes in PACK"
    );
    say!(
        out,
        "(SSS: simple storage, CSS: compact storage, CMS: compact message)"
    );
    figure(out, "Block Size|SSS|CSS|CMS", |cfg| {
        let local = |(_, opts)| ms(time_pack(cfg, &opts).local_ms());
        pack_scheme_opts().into_iter().map(local).collect()
    });
}

/// Figure 4 — total time of the three PACK schemes against the block size,
/// with CMS broken into local computation, prefix-reduction-sum and
/// many-to-many communication. Expected: CMS best overall; PRS dominates the
/// many-to-many term only at the smallest block sizes.
fn fig4(out: &mut String) {
    say!(
        out,
        "Figure 4: total execution time (msec) for three schemes in PACK"
    );
    say!(out, "(totals per scheme, plus the CMS stage breakdown)");
    figure(
        out,
        "Block Size|SSS|CSS|CMS|CMS local|CMS prs|CMS m2m",
        |cfg| {
            let runs = pack_scheme_opts().map(|(_, opts)| time_pack(cfg, &opts));
            let totals = runs.iter().map(|m| ms(m.total_ms()));
            totals.chain(stages(&runs[2])).collect()
        },
    );
}

/// Figure 5 — total time of the two UNPACK schemes against the block size.
/// UNPACK's redistribution is a READ, two communication stages (request +
/// reply), so its many-to-many time runs up to twice PACK's (Section 4.2);
/// CSS compresses the request stage to (base, count) runs.
fn fig5(out: &mut String) {
    say!(
        out,
        "Figure 5: total execution time (msec) for two schemes in UNPACK"
    );
    say!(
        out,
        "(SSS: simple storage, CSS: compact storage; input vector block-distributed)"
    );
    figure(out, "Block Size|SSS|CSS|CSS local|CSS prs|CSS m2m", |cfg| {
        let runs = unpack_scheme_opts().map(|(_, opts)| time_unpack(cfg, &opts));
        let totals = runs.iter().map(|m| ms(m.total_ms()));
        totals.chain(stages(&runs[1])).collect()
    });
}

/// Prefix-reduction-sum study (Section 5.1, Section 7's "Vector
/// Prefix-Reduction-Sum" paragraph, and the comparison the paper defers to
/// [6]): direct against split across processor counts and vector sizes,
/// then the PRS time inside a PACK against the block size — ranking runs
/// PRS on one entry per tile, so halving the block doubles the vector.
fn prs(out: &mut String) {
    let time_prs = |p: usize, m: usize, algo: PrsAlgorithm| {
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let run = machine.run(move |proc| {
            proc.clock().set_category(Category::PrefixReductionSum);
            let world = proc.world();
            let (prefix, total) = prefix_reduction_sum(proc, &world, &vec![1i32; m], algo);
            assert!(total.iter().all(|&t| t as usize == p) && prefix.len() == m);
        });
        ms(run.max_cat_ms(Category::PrefixReductionSum))
    };
    say!(
        out,
        "Vector prefix-reduction-sum: direct vs split algorithm (msec)"
    );
    say!(
        out,
        "(direct ~ (tau + mu*M) log P; split ~ P*tau + mu*M; auto = paper's CM-5 rule)"
    );
    for p in [4usize, 16, 64, 256] {
        say!(out, "\nP = {p}:");
        let mut t = Table::new("Vector M|direct|split|hardware|auto|auto picks");
        for m in [1usize, 16, 128, 1024, 8192, 65536] {
            let picks = match PrsAlgorithm::Auto.resolve(p, m) {
                PrsAlgorithm::Direct => "direct",
                PrsAlgorithm::Split => "split",
                _ => unreachable!("auto resolves to a software algorithm"),
            };
            row!(
                t,
                m,
                time_prs(p, m, PrsAlgorithm::Direct),
                time_prs(p, m, PrsAlgorithm::Split),
                time_prs(p, m, PrsAlgorithm::Hardware),
                time_prs(p, m, PrsAlgorithm::Auto),
                picks,
            );
        }
        out.push_str(&t.render());
    }

    say!(
        out,
        "\nPRS time inside PACK vs block size (1-D, N = 65536, P = 16, density 50%):"
    );
    let [line, _] = Panel::paper();
    let mut t = Table::new("Block Size|PRS ms|m2m ms|local ms");
    for w in line.block_sizes() {
        let cms = PackOptions::new(PackScheme::CompactMessage);
        let m = time_pack(&line.cfg(w, random(0.5)), &cms);
        row!(t, w, ms(m.prs_ms()), ms(m.m2m_ms()), ms(m.local_ms()));
    }
    out.push_str(&t.render());
    say!(
        out,
        "\n(expected: PRS exceeds m2m only at the smallest block sizes, per Section 7)"
    );
}

/// Section 7's scaled experiment: 16× the processors (16 → 256, 4 × 4 →
/// 16 × 16) on 16× the array, so the local size stays fixed, and the time
/// shifts from local computation to communication ("in a large number of
/// processors the most time is spent for communication").
fn scaling(out: &mut String) {
    say!(
        out,
        "Scaled experiment: 16x more processors, 16x larger arrays (fixed local size)"
    );
    say!(out, "(density 50%, block size 16; PACK, all three schemes)");
    let [line, square] = Panel::paper();
    for panel in [
        line,
        Panel::line(1 << 20, 256),
        square,
        Panel::square(2048, 16),
    ] {
        say!(out, "\n{}:", panel.title());
        let mut t = Table::new("Scheme|local|prs|m2m|total");
        for (scheme, opts) in pack_scheme_opts() {
            let m = time_pack(&panel.cfg(16, random(0.5)), &opts);
            let [local, prs, m2m] = stages(&m);
            row!(t, scheme.label(), local, prs, m2m, ms(m.total_ms()));
        }
        out.push_str(&t.render());
    }
    say!(
        out,
        "\n(expected: with fixed local size, local computation stays flat while \
         prefix-reduction-sum and many-to-many communication grow with P)"
    );
}

/// Ablations of the design choices Sections 6.1–6.3 call out, all on the
/// 1-D paper panel: the second-scan method (the paper found scanning a
/// slice only until its elements are collected better, "although the
/// difference was not significantly large"), the many-to-many schedule,
/// the result-vector block size `W'` (CMS segments split at destination
/// block boundaries, so a small `W'` erodes its advantage), preliminary
/// redistribution for UNPACK ("not a feasible option"), and direct against
/// two-phase sparse all-to-many.
fn ablations(out: &mut String) {
    let [line, _] = Panel::paper();
    let widths = [16usize, 256, 4096];

    say!(
        out,
        "Ablation 1: second-scan method (CSS local computation, msec)"
    );
    let mut t = Table::new("Density|W|until-collected|whole-slice");
    for density in [0.1, 0.5, 0.9] {
        for w in widths {
            let cfg = line.cfg(w, random(density));
            let local = |scan_method| {
                let css = PackOptions::new(PackScheme::CompactStorage);
                let opts = PackOptions { scan_method, ..css };
                ms(time_pack(&cfg, &opts).local_ms())
            };
            let (until, whole) = (
                local(ScanMethod::UntilCollected),
                local(ScanMethod::WholeSlice),
            );
            row!(t, percent(density), w, until, whole);
        }
    }
    out.push_str(&t.render());
    say!(
        out,
        "(expected: method 1 <= method 2, larger gap at low density)"
    );

    say!(
        out,
        "\nAblation 2: many-to-many schedule (CMS, density 50%, msec / words / startups)"
    );
    let mut t = Table::new("W|linperm ms|naive ms|linperm words|naive words");
    for w in widths {
        let cfg = line.cfg(w, random(0.5));
        let under = |schedule| {
            let cms = PackOptions::new(PackScheme::CompactMessage);
            time_pack(&cfg, &PackOptions { schedule, ..cms })
        };
        let (lin, naive) = (
            under(A2aSchedule::LinearPermutation),
            under(A2aSchedule::NaivePush),
        );
        row!(
            t,
            w,
            ms(lin.m2m_ms()),
            ms(naive.m2m_ms()),
            lin.words,
            naive.words
        );
    }
    out.push_str(&t.render());
    say!(
        out,
        "(expected: identical volume; near-identical time — the two-level model is \
         contention-free by assumption, which is where the schedules would differ)"
    );

    say!(
        out,
        "\nAblation 3: result-vector block size W' (CMS vs CSS total, density 90%, W=4096)"
    );
    let mut t = Table::new("W'|CMS ms|CSS ms|CMS words|CSS words");
    let cfg = line.cfg(4096, random(0.9));
    for w_prime in [1usize, 4, 16, 64, 256, 2048] {
        let under = |scheme| {
            let result_block_size = Some(w_prime);
            let opts = PackOptions::new(scheme);
            time_pack(
                &cfg,
                &PackOptions {
                    result_block_size,
                    ..opts
                },
            )
        };
        let (cms, css) = (
            under(PackScheme::CompactMessage),
            under(PackScheme::CompactStorage),
        );
        row!(
            t,
            w_prime,
            ms(cms.total_ms()),
            ms(css.total_ms()),
            cms.words,
            css.words
        );
    }
    out.push_str(&t.render());
    say!(
        out,
        "(expected: CMS volume approaches 3x values at W'=1 — every segment holds one \
         element — and approaches 1x values as W' grows; CSS volume is flat at 2x)"
    );

    say!(
        out,
        "\nAblation 4: preliminary redistribution for UNPACK (Section 6.3: \"not a \
         feasible option\")"
    );
    let mut t = Table::new("Density|plain CSS ms|redistributed ms");
    for density in [0.1, 0.5, 0.9] {
        let cfg = line.cfg(1, random(density)); // cyclic: the case that would benefit most
        let opts = UnpackOptions::new(UnpackScheme::CompactStorage);
        let (plain, redist) = (time_unpack(&cfg, &opts), time_unpack_redist(&cfg, &opts));
        row!(
            t,
            percent(density),
            ms(plain.total_ms()),
            ms(redist.total_ms())
        );
    }
    out.push_str(&t.render());
    say!(
        out,
        "(expected: the two forward moves (M, F) plus the backward move of the result \
         outweigh the ranking savings — the paper's reason for ruling this out)"
    );

    say!(
        out,
        "\nAblation 5: sparse all-to-many — direct vs two-phase (row-column) schedule"
    );
    say!(
        out,
        "(P = 64, every processor sends one m-word message to every other)"
    );
    let mut t = Table::new("msg words|direct ms|two-phase ms|direct startups|two-phase startups");
    for m in [1usize, 4, 16, 64, 256, 1024] {
        let run = |two_phase: bool| {
            let p = 64usize;
            let run = Machine::new(ProcGrid::line(p), CostModel::cm5()).run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = (0..p).map(|j| vec![j as i32; m]).collect();
                if two_phase {
                    alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation);
                } else {
                    alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
                }
            });
            (ms(run.max_time_ms()), run.total_startups())
        };
        let ((td, sd), (t2, s2)) = (run(false), run(true));
        row!(t, m, td, t2, sd, s2);
    }
    out.push_str(&t.render());
    say!(
        out,
        "(expected: two-phase wins while messages are start-up bound — it pays ~2x \
         volume for ~sqrt(P) start-ups — and loses once mu*m dominates tau)"
    );
}

/// Communication balance: Section 7 observes that "when an input array is
/// distributed in block, each processor will send most parts of the message
/// to itself" under a random mask, so the remote volume collapses there —
/// and that "if the elements to be packed are not randomly distributed,
/// that will not happen", which the structured mask shows.
fn balance(out: &mut String) {
    let [line, _] = Panel::paper();
    let (n, p) = (line.shape[0], line.grid[0]);
    say!(out, "Communication balance of PACK/CMS, N = {n}, P = {p}");
    say!(
        out,
        "(remote words only — self-messages are free and excluded)\n"
    );
    for pattern in [random(0.5), MaskPattern::FirstHalf] {
        say!(out, "mask {}:", pattern.label());
        let mut t = Table::new("Block Size|remote words|imbalance|heaviest flow");
        for w in line.block_sizes() {
            let cms = PackOptions::new(PackScheme::CompactMessage);
            let (_, run) = run_pack(&line.cfg(w, pattern), None, &cms, Observe::Clocks);
            let flow = run.heaviest_flow();
            let heaviest = flow.map_or("-".into(), |(s, t, w)| format!("{s}->{t}:{w}"));
            let imbalance = format!("{:.2}", run.send_imbalance());
            row!(t, w, run.total_words_sent(), imbalance, heaviest);
        }
        out.push_str(&t.render());
        say!(out, "");
    }
    say!(
        out,
        "(expected: for the random mask, remote volume collapses at full block \
         distribution — ranks align with owners; for the structured first-half mask \
         it does not, and the send imbalance spikes instead: only the first half of \
         the processors hold selected elements)"
    );
}

/// Timeline — per-processor Gantt charts of one PACK (CMS) and one UNPACK
/// (CSS) in simulated time: the local scan, the per-dimension
/// prefix-reduction-sum wavefront, the many-to-many exchange. With
/// `trace_out`, the host is profiled as well: the PACK run goes to that
/// path as Chrome trace_event JSON and the ranked wall-clock self time per
/// stage of both runs to stderr — numbers that differ on every run, which
/// is why they are never part of the artefact.
pub fn timeline(out: &mut String, trace_out: Option<&str>) {
    let (n, p, w, density) = (16384, 8, 16, 0.5);
    let cfg = Panel::line(n, p).cfg(w, random(density));
    let observe = match trace_out {
        Some(_) => Observe::Host,
        None => Observe::Events,
    };
    let host = |title: &str, profiles: &[hpf_machine::WallProfile], size: usize| {
        if trace_out.is_some() {
            let report = HotspotReport::from_profiles(profiles);
            eprint!("{}", report.render(title, size as u64));
        }
    };
    let pct = density * 100.0;
    say!(
        out,
        "PACK (CMS), N = {n}, P = {p}, block-cyclic({w}), density {pct}%:"
    );
    let cms = PackOptions::new(PackScheme::CompactMessage);
    let (m, run) = run_pack(&cfg, None, &cms, observe);
    out.push_str(&run.gantt(100));
    host("PACK (CMS)", &run.wall_profiles, m.size);
    if let Some(path) = trace_out {
        std::fs::write(path, run.chrome_trace_json())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("(PACK trace written to {path} — load in Perfetto or chrome://tracing)");
    }
    say!(
        out,
        "\nUNPACK (CSS), same mask (note the doubled M phase — request + reply):"
    );
    let css = UnpackOptions::new(UnpackScheme::CompactStorage);
    let (m, run) = run_unpack(&cfg, &css, false, observe);
    out.push_str(&run.gantt(100));
    host("UNPACK (CSS)", &run.wall_profiles, m.size);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `results/` holds one file per artefact plus the two `perf` writes,
    /// and nothing else: a stray or a missing artefact fails here.
    #[test]
    fn results_holds_what_the_registry_and_perf_own() {
        let mut owned: Vec<String> = (ARTEFACTS.iter())
            .map(|(name, _)| name.to_string() + ".txt")
            .collect();
        owned.extend(["BENCH.json", "critpath.txt"].map(String::from));
        owned.sort_unstable();
        assert!(owned.windows(2).all(|w| w[0] != w[1]), "names are unique");
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut found: Vec<String> = (std::fs::read_dir(results).expect("results/ exists"))
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        found.sort_unstable();
        assert_eq!(found, owned);
    }

    #[test]
    fn first_difference_names_artefact_and_line() {
        let same = first_difference("fig3", "a\nb\n", "a\nb\n");
        assert_eq!(same, Ok(()));
        let err = first_difference("fig3", "a\nb\nc\n", "a\nB\nc\n").unwrap_err();
        assert!(
            err.contains("fig3.txt line 2") && err.contains("`b`"),
            "{err}"
        );
        let err = first_difference("fig3", "a\n", "a\nb\n").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("<end of file>"),
            "{err}"
        );
        assert!(first_difference("fig3", "a\nb", "a\nb\n").is_err());
    }
}
