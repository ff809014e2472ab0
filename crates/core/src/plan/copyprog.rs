//! Plan-time copy-program lowering: the execute hot path's bulk kernels.
//!
//! A plan's routes pin every index a gather or scatter will ever touch, so
//! the per-element indirection of the generic path (`slots[i]` loads,
//! `layout.local_of(rank)` divisions) can be compiled away **once at plan
//! time**. This module lowers an index list into a tiny program of typed
//! copy ops:
//!
//! ```text
//! program  = op*
//! op       = Contig  { pos, at, len }   list[pos+k] == at + k
//!          | Scatter { pos, at, len }   list[pos..pos+len] == walk(steps[at..at+len+3])
//! walk     = first:u32le step:u8*       first, first + step₁, first + step₁ + step₂, …
//! ```
//!
//! `pos` addresses the *dense* side (the message buffer, tiled front to
//! back); `at` the *indexed* side (the local array slice the indices point
//! into) or, for `Scatter`, where its walk stands in the family's `steps`:
//! its first index in four bytes, then one byte per later index, the step
//! from the index before. A step outside `0..=255` ends the op and starts
//! the next, so a `Scatter` op costs 3 bytes plus one per index. A
//! block-distributed section lowers to a handful of `Contig` ops —
//! `copy_from_slice`, i.e. `memcpy` — and keeps no index; everything else
//! (a random mask, a constant stride other than 1) to one `Scatter` range
//! per row, or a few where a gap is wider than a byte, which is the
//! branch-free index loop `i += steps[k]; dst[k] = src[i]`. That loop is
//! the yardstick: it moves an element in 0.5–0.8 ns, every op costs about
//! one mispredicted branch on top of its elements, and a bulk op is
//! emitted only where the measured break-even says it beats the loop it
//! replaces ([`MIN_CONTIG`], [`MIN_CONTIG_JOINED`]; the table is in
//! EXPERIMENTS.md, "Lower only what beats the index loop"). Lowering is
//! wall-clock-only work: it charges **zero** simulated operations, so the
//! Section 6.4 accounting is bit-identical to the scalar path (the op
//! *counts* were always per value, never per loop shape).
//!
//! The walkers take a [`Phase`]: ops write to disjoint dense positions, so
//! the executor runs the bulk ops under a `copy.contig` wall span and the
//! scatter ranges under `copy.scatter`, making the shift from indexed to
//! bulk movement visible in flamegraphs and the hotspot report.
//!
//! The scalar reference loops the walkers replace live on as the oracles of
//! this module's tests, which check every walker against them over
//! arbitrary index lists.

/// Shortest stride-1 run that becomes a `Contig` op when scattered elements
/// are pending before it: the op ends their `Scatter` range — in the middle
/// of a random stretch it splits the range in two — so it must carry the
/// cost of the ops around it. Each op is a loop of unpredictable length,
/// about one mispredicted branch; measured, `copy_from_slice` over
/// random-mask (geometric) run lengths catches up with the index loop at
/// 24–32 elements and is 0.1–0.2 ns per element ahead from 32 on, and on
/// Bernoulli masks of density 0.5–0.9 every value from 24 up is level with
/// the index loop where 4 was twice as slow (EXPERIMENTS.md, "Lower only
/// what beats the index loop").
const MIN_CONTIG: usize = 32;

/// Shortest stride-1 run that becomes a `Contig` op where it costs no op:
/// between bulk ops or row ends on both sides, it stands where a `Scatter`
/// op of its own would. Rows that are runs back to back — a dense mask on
/// narrow blocks, UNPACK's serve rows over the dense `V` — stay all
/// `memcpy`, which op for op beats the index loop from 8 elements on.
const MIN_CONTIG_JOINED: usize = 8;

/// The shortest run either rule above can lower: what `row` lets through
/// to [`ProgramBuilder::emit_bulk`].
const MIN_BULK: u32 = MIN_CONTIG_JOINED as u32;
const _: () = assert!(MIN_CONTIG_JOINED <= MIN_CONTIG);

/// One lowered copy instruction over the `len` dense positions from `pos`;
/// see the module docs for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyOp {
    /// The indices are the run `at..at + len`: one `copy_from_slice`.
    Contig { pos: u32, at: u32, len: u32 },
    /// No exploitable structure: the index loop over the walk that starts
    /// at the family's `steps[at]`.
    Scatter { pos: u32, at: u32, len: u32 },
}
const _: () = assert!(std::mem::size_of::<CopyOp>() == 16);

/// Which half of a program a walker executes. Ops touch disjoint dense
/// positions, so the two phases compose to the full copy in either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// `Contig` ops (the `copy.contig` wall frame).
    Bulk,
    /// `Scatter` ranges (the `copy.scatter` wall frame).
    Scatter,
}

/// Aggregate shape of one or more lowered programs — exported through the
/// plans into the perf report's `plan_reuse` rows (`copy_ops` breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Number of `Contig` ops.
    pub contig: u64,
    /// Number of `Scatter` ops.
    pub scatter: u64,
    /// Elements moved by `Contig` ops.
    pub bulk_elements: u64,
    /// Total elements covered by the program(s).
    pub total_elements: u64,
}

impl CopyStats {
    /// Fold another program's stats into this one.
    pub fn merge(&mut self, other: &CopyStats) {
        self.contig += other.contig;
        self.scatter += other.scatter;
        self.bulk_elements += other.bulk_elements;
        self.total_elements += other.total_elements;
    }

    /// Fraction of elements moved by bulk (`Contig`) ops;
    /// 1.0 for an empty program.
    pub fn bulk_fraction(&self) -> f64 {
        if self.total_elements == 0 {
            1.0
        } else {
            self.bulk_elements as f64 / self.total_elements as f64
        }
    }
}

/// The lowered copy programs of one plan family: one program per row of a
/// peer-indexed index CSR, all in one flat op array with per-row offsets
/// (only populated peers have a program), and the walks of the `Scatter`
/// ranges in one flat byte stream in op order. Built once at plan time by a
/// [`ProgramBuilder`]; walked on every execute by the kernels below, which
/// take the family and a row number and nothing else. `pos` counts from the start
/// of the row — the dense side is that peer's message buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CopyPrograms {
    ops: Vec<CopyOp>,
    /// `ops[offs[k]..offs[k + 1]]` is row `k`'s program.
    offs: Vec<u32>,
    /// The walks the `Scatter` ops read; no other index is kept.
    steps: Vec<u8>,
    stats: CopyStats,
}

impl Default for CopyPrograms {
    /// A family of no rows.
    fn default() -> Self {
        CopyPrograms {
            ops: Vec::new(),
            offs: vec![0],
            steps: Vec::new(),
            stats: CopyStats::default(),
        }
    }
}

impl CopyPrograms {
    /// Lower every row `idx[offs[k]..offs[k + 1]]` of a finished list (the
    /// memory predictor's, the tests') through the [`ProgramBuilder`] that
    /// planning streams its indices into.
    pub(crate) fn lower(idx: &[u32], offs: &[u32]) -> CopyPrograms {
        let mut b = ProgramBuilder::default();
        for row in offs.windows(2) {
            b.row(&idx[row[0] as usize..row[1] as usize]);
        }
        let progs = b.finish();
        // Debug builds check that every row's program spells it out, a
        // `Scatter` op from its own walk.
        #[cfg(debug_assertions)]
        for (k, row) in offs.windows(2).enumerate() {
            assert_eq!(progs.indices(k), idx[row[0] as usize..row[1] as usize]);
        }
        progs
    }

    /// Row `k`'s program.
    pub(crate) fn row(&self, k: usize) -> &[CopyOp] {
        &self.ops[self.offs[k] as usize..self.offs[k + 1] as usize]
    }

    /// Bytes the programs retain for the plan's lifetime (charged to
    /// `mem.plan` next to the rows they annotate): ops, row offsets and
    /// the `Scatter` walks.
    pub(crate) fn mem_bytes(&self) -> u64 {
        let ops = self.ops.len() * std::mem::size_of::<CopyOp>();
        (ops + 4 * self.offs.len() + self.steps.len()) as u64
    }

    /// The op/element breakdown over all rows.
    pub(crate) fn stats(&self) -> &CopyStats {
        &self.stats
    }
}

/// Streaming lowering: one program family built row by row, from index
/// lists ([`Self::row`]) or from runs ([`Self::row_of_runs`]).
/// Greedy maximal stride-1 runs become `Contig` ops when long enough to beat
/// the index loop — how long depends on whether the op has scattered
/// elements for a neighbour, see [`MIN_CONTIG`] and [`MIN_CONTIG_JOINED`] —
/// and everything else coalesces into `Scatter` ranges (never across a row
/// boundary), each encoded as one or more walks. Only the run the last
/// index belongs to is remembered, so nothing is read twice.
#[derive(Debug, Default)]
pub(crate) struct ProgramBuilder {
    out: CopyPrograms,
    /// Dense position of the next index in the open row.
    pos: u32,
    /// Positions before this are covered by emitted ops; `scattered..` up to
    /// the current run is the pending scatter range.
    scattered: u32,
    /// The current run: `len` consecutive indices ending at `prev`.
    prev: u32,
    len: u32,
    /// The `Scatter` op whose walk is being written.
    open: Option<Walking>,
}

/// A `Scatter` op still taking indices: its first dense position, where its
/// walk starts in `steps`, and the last index it took.
#[derive(Debug, Clone, Copy)]
struct Walking {
    pos: u32,
    at: u32,
    last: u32,
}

impl ProgramBuilder {
    /// A builder whose walks hold `n` bytes before they grow: a family of
    /// `n` indices, all walked, needs that and 3 bytes per op.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut b = ProgramBuilder::default();
        b.out.steps.reserve(n);
        b
    }

    /// Lower one whole row given as its index list, and close it. On a
    /// random mask every other index ends a run, so "the run goes on" must
    /// not become a branch: it is a number the optimiser cannot read back
    /// as a condition ([`std::hint::black_box`]; as a `bool` it compiles to
    /// a mispredicted branch) that rides in the length's top bit — one range
    /// check finds a full-size run that ended — and masks the length update.
    /// The pending scattered elements are read back from `idx` when their
    /// range is flushed.
    pub(crate) fn row(&mut self, idx: &[u32]) {
        debug_assert_eq!(self.pos, 0, "a row fed by runs is still open");
        const TOP: u32 = 1 << 31;
        let (mut pos, mut prev, mut len) = (0u32, 0u32, 0u32);
        for &x in idx {
            let goes_on = std::hint::black_box(u32::from(i64::from(x) - i64::from(prev) == 1));
            let ended = (len | (goes_on * TOP)).wrapping_sub(MIN_BULK);
            if ended < TOP - MIN_BULK && self.emit_bulk(pos, len, prev, idx) {
                len = 0;
            }
            // Go on with the run, or start the next one at `x`.
            len = (len & goes_on.wrapping_neg()) + 1;
            prev = x;
            pos += 1;
        }
        self.pos = pos;
        if len >= MIN_BULK {
            self.emit_bulk(pos, len, prev, idx);
        }
        self.close_row(idx);
    }

    /// Lower one whole row given as runs, `(first, n)` for the indices
    /// `first..first + n`, and close it. A run that the next one continues
    /// merges with it; one that ends becomes a `Contig` op if it pays for
    /// itself, else is walked at once. The common case — a run shorter than
    /// eight that the open walk goes on with (with a walk open, no run under
    /// `MIN_CONTIG` is bulk), its step and `n - 1` ones written as one 8-byte
    /// store — runs on locals; every other case hands the state back to the
    /// builder.
    pub(crate) fn row_of_runs(&mut self, runs: impl IntoIterator<Item = (u32, u32)>) {
        debug_assert_eq!(self.pos, 0, "a row fed as a list is still open");
        let mut steps = std::mem::take(&mut self.out.steps);
        let (mut pos, mut prev, mut len) = (0u32, 0u32, 0u32);
        for (first, n) in runs {
            if n == 0 || (len > 0 && first == prev.wrapping_add(1)) {
                (prev, len, pos) = (prev.wrapping_add(n), len + n, pos + n);
                continue;
            }
            let start = prev.wrapping_sub(len.wrapping_sub(1));
            match &mut self.open {
                _ if len == 0 => {}
                Some(w) if len < MIN_BULK && start.wrapping_sub(w.last) <= u32::from(u8::MAX) => {
                    let at = steps.len();
                    steps.extend_from_slice(&[(start - w.last) as u8, 1, 1, 1, 1, 1, 1, 1]);
                    steps.truncate(at + len as usize);
                    w.last = prev;
                }
                _ => {
                    self.out.steps = steps;
                    (self.pos, self.prev, self.len) = (pos, prev, len);
                    self.end_run();
                    steps = std::mem::take(&mut self.out.steps);
                }
            }
            (prev, len, pos) = (first + (n - 1), n, pos + n);
        }
        self.out.steps = steps;
        (self.pos, self.prev, self.len) = (pos, prev, len);
        self.end_run();
        self.close_row(&[]);
    }

    /// The current run of a row fed by runs has ended: emit it as a
    /// `Contig` op if it pays for itself, else walk it.
    fn end_run(&mut self) {
        let (end, len, prev) = (self.pos, self.len, self.prev);
        if len == 0 || (len >= MIN_BULK && self.emit_bulk(end, len, prev, &[])) {
            return;
        }
        if self.open.is_none() {
            self.take_back();
        }
        self.walk_run(end - len, prev - (len - 1), len);
    }

    /// Emit the run of `len` consecutive indices that ends at `prev`, before
    /// position `end`, if it makes a `Contig` op that pays for itself. `idx`
    /// is the row, when it was given as a list.
    fn emit_bulk(&mut self, end: u32, len: u32, prev: u32, idx: &[u32]) -> bool {
        let pos = end - len;
        // No scattered element pending: the op follows a bulk op or starts
        // the row (`take_back` undoes it if scattered ones follow).
        let joined = self.scattered == pos;
        let min_contig = if joined {
            MIN_CONTIG_JOINED
        } else {
            MIN_CONTIG
        };
        if len < min_contig as u32 {
            return false;
        }
        self.flush_scatter(pos, idx);
        let at = prev - (len - 1);
        self.out.ops.push(CopyOp::Contig { pos, at, len });
        self.out.stats.contig += 1;
        self.out.stats.bulk_elements += u64::from(len);
        self.scattered = end;
        true
    }

    /// Emit the pending scatter range, which ends before position `end`. A
    /// row given as a list walks it now, from `idx`; a row fed by runs has
    /// walked it run by run.
    fn flush_scatter(&mut self, end: u32, idx: &[u32]) {
        if self.scattered < end {
            if self.open.is_none() {
                let from = self.scattered;
                self.take_back();
                self.walk_list(from, &idx[from as usize..end as usize]);
            }
            self.close(end);
        }
    }

    /// Start the pending scatter range: joined contigs right before it turn
    /// out to be followed by scattered elements after all — they replaced
    /// no `Scatter` op, they split one off — and fold back into it, with the
    /// joined ones before them up to the last full-size one.
    fn take_back(&mut self) {
        let row = *self.out.offs.last().expect("never empty") as usize;
        let short =
            |op: &CopyOp| matches!(op, CopyOp::Contig { len, .. } if *len < MIN_CONTIG as u32);
        let kept =
            (self.out.ops[row..].iter().rposition(|op| !short(op))).map_or(row, |k| row + k + 1);
        let taken: Vec<CopyOp> = self.out.ops.drain(kept..).collect();
        for op in taken {
            let CopyOp::Contig { pos, at, len } = op else {
                unreachable!("only contigs are taken back")
            };
            self.out.stats.contig -= 1;
            self.out.stats.bulk_elements -= u64::from(len);
            self.scattered = self.scattered.min(pos);
            self.walk_run(pos, at, len);
        }
    }

    /// Walk the scattered indices `list`, the first at position `pos`: the
    /// open walk takes them as far as their steps fit a byte each, and each
    /// one that does not starts the next.
    fn walk_list(&mut self, mut pos: u32, mut list: &[u32]) {
        while !list.is_empty() {
            let taken = match &mut self.open {
                Some(w) => push_steps(&mut self.out.steps, &mut w.last, list),
                None => 0,
            };
            let Some(&x) = list.get(taken) else {
                return;
            };
            self.open_walk(pos + taken as u32, x);
            pos += taken as u32 + 1;
            list = &list[taken + 1..];
        }
    }

    /// Walk the run `first..first + n`, the first at position `pos`.
    #[inline]
    fn walk_run(&mut self, pos: u32, first: u32, n: u32) {
        match self.open {
            Some(w) if first.wrapping_sub(w.last) <= u32::from(u8::MAX) => {
                self.out.steps.push((first - w.last) as u8);
            }
            _ => self.open_walk(pos, first),
        }
        let steps = &mut self.out.steps;
        steps.resize(steps.len() + n as usize - 1, 1);
        self.open.as_mut().expect("walking").last = first + (n - 1);
    }

    /// Close the open walk, if any, and start the next at index `x`, at
    /// position `pos`: its first index in four bytes.
    fn open_walk(&mut self, pos: u32, x: u32) {
        self.close(pos);
        let at = self.out.steps.len() as u32;
        self.out.steps.extend_from_slice(&x.to_le_bytes());
        self.open = Some(Walking { pos, at, last: x });
    }

    /// Emit the open walk, if any, as the `Scatter` op of the positions
    /// before `end`.
    fn close(&mut self, end: u32) {
        if let Some(Walking { pos, at, .. }) = self.open.take() {
            self.out.ops.push(CopyOp::Scatter {
                pos,
                at,
                len: end - pos,
            });
            self.out.stats.scatter += 1;
        }
    }

    /// Flush the open row and start the next.
    fn close_row(&mut self, idx: &[u32]) {
        self.flush_scatter(self.pos, idx);
        self.out.stats.total_elements += u64::from(self.pos);
        self.out.offs.push(self.out.ops.len() as u32);
        (self.pos, self.scattered, self.len) = (0, 0, 0);
    }

    /// The programs of every closed row.
    pub(crate) fn finish(mut self) -> CopyPrograms {
        debug_assert_eq!(self.pos, 0, "finish with a row still open");
        self.out.steps.shrink_to_fit();
        self.out
    }
}

/// Append to `steps` the steps from `*last` through `list`, as far as each
/// fits a byte; returns how many indices that took, the last of them left
/// in `*last`.
#[inline]
fn push_steps(steps: &mut Vec<u8>, last: &mut u32, list: &[u32]) -> usize {
    let from = steps.len();
    steps.resize(from + list.len(), 0);
    let mut taken = 0;
    // Eight at a time while all eight fit, which the compiler vectorises.
    for (out, eight) in steps[from..].chunks_exact_mut(8).zip(list.chunks_exact(8)) {
        let mut d = [0u32; 8];
        d[0] = eight[0].wrapping_sub(*last);
        for k in 1..8 {
            d[k] = eight[k].wrapping_sub(eight[k - 1]);
        }
        if d.iter().any(|&step| step > u32::from(u8::MAX)) {
            break;
        }
        for (o, step) in out.iter_mut().zip(d) {
            *o = step as u8;
        }
        *last = eight[7];
        taken += 8;
    }
    for (s, &x) in steps[from + taken..].iter_mut().zip(&list[taken..]) {
        let step = x.wrapping_sub(*last);
        if step > u32::from(u8::MAX) {
            break;
        }
        *s = step as u8;
        *last = x;
        taken += 1;
    }
    steps.truncate(from + taken);
    taken
}

/// The walk of the `Scatter` op at `at` over `len` indices: its first index,
/// and the steps to the later ones.
fn walk(steps: &[u8], at: u32, len: u32) -> (usize, &[u8]) {
    let (first, later) = steps[at as usize..][..len as usize + 3].split_at(4);
    let first = u32::from_le_bytes(first.try_into().expect("four bytes"));
    (first as usize, later)
}

/// Call `f(d, i)` for the dense items `dense` of a `Scatter` op with its
/// indices `i`, which start at `first` and go on by `steps`: the index loop.
#[inline(always)]
fn walk_with<D>(
    dense: impl IntoIterator<Item = D>,
    (first, steps): (usize, &[u8]),
    mut f: impl FnMut(D, usize),
) {
    let mut dense = dense.into_iter();
    let mut i = first;
    if let Some(d) = dense.next() {
        f(d, i);
    }
    for (d, &s) in dense.zip(steps) {
        i += usize::from(s);
        f(d, i);
    }
}

/// One op's indices in order, as an iterator: `at, at + 1, …` for a
/// `Contig` op; for a `Scatter` op its walk, decoded as it is read.
#[derive(Debug, Clone, Default)]
struct Cursor<'a> {
    next: usize,
    left: usize,
    /// The steps still to take; `None` for a `Contig` op, whose are all 1.
    steps: Option<std::slice::Iter<'a, u8>>,
}

impl<'a> Cursor<'a> {
    fn new(op: CopyOp, steps: &'a [u8]) -> Self {
        match op {
            CopyOp::Contig { at, len, .. } => Cursor {
                next: at as usize,
                left: len as usize,
                steps: None,
            },
            CopyOp::Scatter { at, len, .. } => {
                let (first, later) = walk(steps, at, len);
                Cursor {
                    next: first,
                    left: len as usize,
                    steps: Some(later.iter()),
                }
            }
        }
    }

    /// Pass over the next `n` indices.
    fn pass(&mut self, n: usize) {
        if self.steps.is_none() {
            self.next += n;
            self.left -= n;
        } else {
            self.by_ref().take(n).for_each(drop);
        }
    }
}

impl Iterator for Cursor<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let i = self.next;
        self.next += match &mut self.steps {
            None => 1,
            Some(steps) => steps.next().map_or(0, |&s| usize::from(s)),
        };
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl CopyPrograms {
    /// The indices row `k`'s program walks; its ops must tile them in order.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn indices(&self, k: usize) -> Vec<u32> {
        let mut list = Vec::new();
        for &op in self.row(k) {
            let (CopyOp::Contig { pos, .. } | CopyOp::Scatter { pos, .. }) = op;
            assert_eq!(pos as usize, list.len(), "the ops do not tile the list");
            list.extend(Cursor::new(op, &self.steps).map(|i| i as u32));
        }
        list
    }
}

/// A lent message as the receive kernel reads it: one row of the sender's
/// lowered program over the slice it reads (DESIGN.md §11) — position `k`
/// is `vals[list[k]]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source<'a, T> {
    vals: &'a [T],
    ops: &'a [CopyOp],
    /// The family's `Scatter` walks.
    steps: &'a [u8],
}

impl<T> Source<'_, T> {
    /// Whether the row reads anything through an index loop.
    pub(crate) fn scatters(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, CopyOp::Scatter { .. }))
    }
}

impl CopyPrograms {
    /// Row `k` over `vals`.
    pub(crate) fn source<'a, T>(&'a self, k: usize, vals: &'a [T]) -> Source<'a, T> {
        Source {
            vals,
            ops: self.row(k),
            steps: &self.steps,
        }
    }

    /// The receive kernel with row `k` as the placement:
    /// `out[list[k']] = src(k')` for the requested phase.
    pub(crate) fn place<T: Copy>(
        &self,
        k: usize,
        src: Source<'_, T>,
        out: &mut [T],
        phase: Phase,
    ) -> usize {
        join(src, self.row(k).iter().copied(), &self.steps, out, phase)
    }
}

/// The fused receive kernel: `out[dst(k)] = src(k)` for every position `k`
/// of a lent message, for the requested phase. `dst` is the receiver's
/// placement, ops that tile the message's positions in order (`dst_steps`
/// holds their `Scatter` walks), and `src` the sender's row, which tiles
/// the same positions. The two are walked side by side: where a `Contig` op
/// meets a `Contig` op their overlap is one `copy_from_slice` (the `Bulk`
/// phase); every other pairing is the index loop (`Scatter`). It fuses the
/// sender's gather with the receiver's placement; a staged buffer, which
/// is the identity program, goes through the placement's own walker
/// ([`scatter_apply`], the CMS segment copy). Returns the elements the
/// phase moved.
pub(crate) fn join<T: Copy>(
    src: Source<'_, T>,
    dst: impl IntoIterator<Item = CopyOp>,
    dst_steps: &[u8],
    out: &mut [T],
    phase: Phase,
) -> usize {
    let Source { vals, ops, steps } = src;
    let mut ops = ops.iter();
    let mut s = Cursor::default();
    let mut moved = 0usize;
    for d in dst {
        let mut d = Cursor::new(d, dst_steps);
        while d.left > 0 {
            if s.left == 0 {
                let op = ops.next().expect("the source covers the placement");
                s = Cursor::new(*op, steps);
                continue;
            }
            let n = d.left.min(s.left);
            let bulk = d.steps.is_none() && s.steps.is_none();
            if bulk != (phase == Phase::Bulk) {
                d.pass(n);
                s.pass(n);
                continue;
            }
            if bulk {
                out[d.next..d.next + n].copy_from_slice(&vals[s.next..s.next + n]);
                d.pass(n);
                s.pass(n);
            } else {
                for (o, i) in d.by_ref().take(n).zip(s.by_ref()) {
                    out[o] = vals[i];
                }
            }
            moved += n;
        }
    }
    moved
}

/// Gather `dst[k] = src[list[k]]` for the requested phase — the pooled
/// message fill kernel of PACK's gather and UNPACK's serve. `dst` must already have the row's
/// length (the pooled buffers keep their shape across executes, so the
/// steady state is a pure positional overwrite). Like every walker, returns
/// the number of elements the phase moved.
pub(crate) fn gather_fill<T: Copy>(
    progs: &CopyPrograms,
    k: usize,
    src: &[T],
    dst: &mut [T],
    phase: Phase,
) -> usize {
    let mut moved = 0usize;
    for op in progs.row(k) {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                moved += len as usize;
                dst[pos as usize..pos as usize + len as usize]
                    .copy_from_slice(&src[at as usize..at as usize + len as usize]);
            }
            CopyOp::Scatter { pos, at, len } if phase == Phase::Scatter => {
                moved += len as usize;
                let dst = dst[pos as usize..pos as usize + len as usize].iter_mut();
                walk_with(dst, walk(&progs.steps, at, len), |d, i| *d = src[i]);
            }
            _ => {}
        }
    }
    moved
}

/// Row `k`'s values over `src` in position order, one at a time — a lent
/// pair message's values, whose other half (the ranks) is per element
/// anyway.
pub(crate) fn row_values<'a, T: Copy>(
    progs: &'a CopyPrograms,
    k: usize,
    src: &'a [T],
) -> impl Iterator<Item = T> + 'a {
    (progs.row(k).iter()).flat_map(move |&op| Cursor::new(op, &progs.steps).map(move |i| src[i]))
}

/// Scatter dense `vals` through the index list for the requested phase:
/// `out[list[k]] = vals[k]` — the UNPACK reply-scatter kernel. `Contig` ops
/// are one `copy_from_slice` into `out`.
pub(crate) fn scatter_apply<T: Copy>(
    progs: &CopyPrograms,
    k: usize,
    vals: &[T],
    out: &mut [T],
    phase: Phase,
) -> usize {
    let mut moved = 0usize;
    for op in progs.row(k) {
        match *op {
            CopyOp::Contig { pos, at, len } if phase == Phase::Bulk => {
                moved += len as usize;
                out[at as usize..at as usize + len as usize]
                    .copy_from_slice(&vals[pos as usize..pos as usize + len as usize]);
            }
            CopyOp::Scatter { pos, at, len } if phase == Phase::Scatter => {
                moved += len as usize;
                let vals = &vals[pos as usize..pos as usize + len as usize];
                walk_with(vals, walk(&progs.steps, at, len), |&v, i| out[i] = v);
            }
            _ => {}
        }
    }
    moved
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    fn scalar_gather(idx: &[u32], src: &[u32]) -> Vec<u32> {
        idx.iter().map(|&i| src[i as usize]).collect()
    }

    /// One list as a one-row family.
    fn lower(idx: &[u32]) -> CopyPrograms {
        CopyPrograms::lower(idx, &[0, idx.len() as u32])
    }

    /// The greedy lowering the streaming builder replaced, kept as its
    /// oracle: at every position the maximal stride-1 run is rescanned; a
    /// full-size one becomes a `Contig` op — full-size by the same rule, one
    /// directly after a bulk op or at its row's start needs only
    /// `MIN_CONTIG_JOINED` — an undersized one gives up a single element to
    /// the row's trailing scatter range, which, where it opens, takes back
    /// the joined contigs before it. Each finished row's scatter ranges are
    /// then walked from the expanded list ([`walk_ranges`]).
    fn lower_rescanning(idx: &[u32], offs: &[u32]) -> CopyPrograms {
        lower_rescanning_with(idx, offs, [MIN_CONTIG, MIN_CONTIG_JOINED])
    }

    /// … under any `[MIN_CONTIG, MIN_CONTIG_JOINED]`: `[4, 4]` is the rule
    /// before the break-even was measured.
    pub(in crate::plan) fn lower_rescanning_with(
        idx: &[u32],
        offs: &[u32],
        [min_contig, min_joined]: [usize; 2],
    ) -> CopyPrograms {
        let mut out = CopyPrograms {
            stats: CopyStats {
                total_elements: idx.len() as u64,
                ..CopyStats::default()
            },
            ..CopyPrograms::default()
        };
        for row in offs.windows(2) {
            let idx = &idx[row[0] as usize..row[1] as usize];
            let mut ops: Vec<CopyOp> = Vec::new();
            let n = idx.len();
            let mut i = 0usize;
            while i < n {
                let mut run = 1;
                while i + run < n && i64::from(idx[i + run]) - i64::from(idx[i + run - 1]) == 1 {
                    run += 1;
                }
                let joined = !matches!(ops.last(), Some(CopyOp::Scatter { .. }));
                let min_here = if joined { min_joined } else { min_contig };
                if run >= min_here {
                    ops.push(CopyOp::Contig {
                        pos: i as u32,
                        at: idx[i],
                        len: run as u32,
                    });
                    i += run;
                } else {
                    match ops.last_mut() {
                        Some(CopyOp::Scatter { pos, len, .. })
                            if *pos as usize + *len as usize == i =>
                        {
                            *len += 1;
                        }
                        _ => {
                            let mut pos = i as u32;
                            while let Some(&CopyOp::Contig { pos: at, len, .. }) = ops.last() {
                                if len as usize >= min_contig {
                                    break;
                                }
                                ops.pop();
                                pos = at;
                            }
                            ops.push(CopyOp::Scatter {
                                pos,
                                at: 0,
                                len: i as u32 + 1 - pos,
                            });
                        }
                    }
                    i += 1;
                }
            }
            walk_ranges(idx, ops, &mut out);
            out.offs.push(out.ops.len() as u32);
        }
        out
    }

    /// Append a row's ops to `out`, its `Scatter` ranges cut wherever a step
    /// leaves `0..=255` and written out as walks: the first index in four
    /// little-endian bytes, then one byte per later index.
    fn walk_ranges(idx: &[u32], ops: Vec<CopyOp>, out: &mut CopyPrograms) {
        for op in ops {
            let CopyOp::Scatter { pos, len, .. } = op else {
                let CopyOp::Contig { len, .. } = op else {
                    unreachable!()
                };
                out.stats.contig += 1;
                out.stats.bulk_elements += u64::from(len);
                out.ops.push(op);
                continue;
            };
            let range = &idx[pos as usize..(pos + len) as usize];
            let fits = |w: &[u32]| (0..=255).contains(&(i64::from(w[1]) - i64::from(w[0])));
            let mut start = 0;
            for end in 1..=range.len() {
                if end < range.len() && fits(&range[end - 1..=end]) {
                    continue;
                }
                out.ops.push(CopyOp::Scatter {
                    pos: pos + start as u32,
                    at: out.steps.len() as u32,
                    len: (end - start) as u32,
                });
                out.stats.scatter += 1;
                out.steps.extend(range[start].to_le_bytes());
                let steps = range[start..end].windows(2).map(|w| (w[1] - w[0]) as u8);
                out.steps.extend(steps);
                start = end;
            }
        }
    }

    /// Row `k`'s ops with its `Scatter` ops' `at` counted from the row's
    /// first index, and the list it walks: what the row is, wherever in its
    /// family it stands.
    fn alone(progs: &CopyPrograms, k: usize) -> (Vec<CopyOp>, Vec<u32>) {
        let mut first = None;
        let ops = (progs.row(k).iter())
            .map(|&op| match op {
                CopyOp::Scatter { pos, at, len } => {
                    let at = at - *first.get_or_insert(at);
                    CopyOp::Scatter { pos, at, len }
                }
                contig => contig,
            })
            .collect();
        (ops, progs.indices(k))
    }

    /// Run lengths on both sides of every minimum, plus a few short ones.
    fn boundary_lens() -> Vec<usize> {
        let mut lens = vec![1, 2, 3, 5, 2 * MIN_CONTIG];
        for min in [MIN_CONTIG_JOINED, MIN_CONTIG] {
            lens.extend([min - 1, min, min + 1]);
        }
        lens
    }

    /// Index lists with structure to find: stretches of a random start,
    /// stride (negative, zero, one, too wide for an `i32`) and length (short,
    /// and one below, at and one above each minimum) — a stride-1 stretch may
    /// continue the previous one or follow it after a one-slot hole — cut
    /// into rows at random places, some of them stretch ends, some rows
    /// empty. Only the stride-1 stretches may come out as bulk ops.
    fn stretchy_rows() -> impl proptest::strategy::Strategy<Value = (Vec<u32>, Vec<u32>)> {
        use proptest::strategy::Strategy;
        let strides = vec![1i64, 1, 1, 2, -1, -8, 0, 16, 1 << 31, -(1 << 31)];
        let stretch = (
            0u32..1000,
            proptest::sample::select(strides),
            proptest::sample::select(boundary_lens()),
            0u8..3,
        );
        let cuts =
            proptest::collection::vec((0usize..4000, proptest::arbitrary::any::<bool>()), 0..6);
        (proptest::collection::vec(stretch, 0..12), cuts).prop_map(|(stretches, cuts)| {
            let (mut idx, mut ends) = (Vec::new(), vec![0usize]);
            for (start, stride, len, chain) in stretches {
                let far = if stride.abs() > 1 << 30 {
                    1u32 << 31
                } else {
                    1 << 14
                };
                let start = match idx.last() {
                    // Back to back: continuing the last stretch, or one hole on.
                    Some(&last) if chain > 0 => i64::from(last) + i64::from(chain),
                    _ => i64::from(start) + i64::from(far),
                };
                let fits = |k: usize| u32::try_from(start + k as i64 * stride).ok();
                idx.extend((0..len).map_while(fits));
                ends.push(idx.len());
            }
            let mut offs: Vec<u32> = cuts
                .iter()
                .map(|&(at, at_end)| match at_end {
                    true => ends[at % ends.len()] as u32,
                    false => (at % (idx.len() + 1)) as u32,
                })
                .chain([0, idx.len() as u32])
                .collect();
            offs.sort_unstable();
            (idx, offs)
        })
    }

    /// Run descriptions `(len, stride, descending, junk)`, as one list of
    /// distinct indices: per run, `junk` scattered elements (none: back to
    /// back), then the run.
    type Runs = Vec<(usize, u32, bool, u32)>;

    fn boundary_list(runs: &Runs) -> Vec<u32> {
        let mut idx: Vec<u32> = Vec::new();
        let mut next = 0u32;
        for &(len, stride, descending, junk) in runs {
            idx.extend((0..junk).map(|k| next + 7 * k + 3));
            next += 7 * junk + 1;
            let run = (0..len as u32).map(|k| next + stride * k);
            if descending && stride > 1 {
                idx.extend(run.rev());
            } else {
                idx.extend(run);
            }
            next += stride * len as u32 + 1;
        }
        idx
    }

    /// Runs one below, at and one above every minimum — contiguous and
    /// strided, by the widest step a byte holds and one past it too, back to
    /// back or with scattered elements between.
    fn boundary_runs() -> impl proptest::strategy::Strategy<Value = Runs> {
        proptest::collection::vec(
            (
                proptest::sample::select(boundary_lens()),
                proptest::sample::select(vec![1u32, 1, 2, 16, 255, 256]),
                proptest::arbitrary::any::<bool>(),
                0u32..3,
            ),
            1..6,
        )
    }

    /// The two-pass reference of a fused receive: gather the sender's list
    /// into a message, then place the message through the receiver's.
    fn gather_then_place(src_list: &[u32], dst_list: &[u32], src: &[u32], out: &mut [u32]) {
        for (&d, v) in dst_list.iter().zip(scalar_gather(src_list, src)) {
            out[d as usize] = v;
        }
    }

    fn roundtrip(idx: &[u32]) {
        let progs = lower(idx);
        let bulk = progs.stats().bulk_elements as usize;
        let span = idx.iter().max().map_or(0, |&m| m as usize + 1);
        let src: Vec<u32> = (0..span as u32).map(|x| x * 3 + 7).collect();
        let mut out = vec![0u32; idx.len()];
        assert_eq!(gather_fill(&progs, 0, &src, &mut out, Phase::Bulk), bulk);
        let rest = gather_fill(&progs, 0, &src, &mut out, Phase::Scatter);
        assert_eq!(bulk + rest, idx.len(), "the phases cover the list");
        assert_eq!(out, scalar_gather(idx, &src));

        // Scatter back: out[idx[k]] = vals[k] must equal the scalar loop.
        let vals: Vec<u32> = (0..idx.len() as u32).map(|x| x + 100).collect();
        let mut a = vec![0u32; span];
        let mut b = vec![0u32; span];
        scatter_apply(&progs, 0, &vals, &mut a, Phase::Bulk);
        scatter_apply(&progs, 0, &vals, &mut a, Phase::Scatter);
        for (&i, &v) in idx.iter().zip(&vals) {
            b[i as usize] = v;
        }
        assert_eq!(a, b);
    }

    /// Every walker over `idx` against its scalar reference: the two
    /// two-phase ones ([`roundtrip`]), the value iterator, and the fused
    /// receive with the row on either side.
    fn every_walker(idx: &[u32]) {
        roundtrip(idx);
        let progs = lower(idx);
        let span = idx.iter().max().map_or(0, |&m| m as usize + 1);
        let src: Vec<u32> = (0..span as u32).map(|x| x ^ 0x5a5a).collect();
        let want = scalar_gather(idx, &src);
        assert_eq!(row_values(&progs, 0, &src).collect::<Vec<_>>(), want);
        let n = idx.len() as u32;
        assert_join_matches(idx, &(0..n).collect::<Vec<_>>());
        assert_join_matches(idx, &(0..n).map(|k| 3 * k).collect::<Vec<_>>());
        let mut distinct = idx.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() == idx.len() {
            // A placement writes each index once, so order cannot matter.
            assert_join_matches(&(0..n).collect::<Vec<_>>(), idx);
            assert_join_matches(&(0..n).rev().collect::<Vec<_>>(), idx);
        }
    }

    /// The walk's edges, each lowered exactly as the oracle lowers it, spelt
    /// back out, and run through every walker: steps of 255 and 256, a step
    /// of 0 (a repeated index), descending runs, a first index near
    /// `u32::MAX` (no walker runs there: its source would be 16 GiB), rows of
    /// length 0 and 1, and a step a byte cannot hold right after a contig
    /// the scatter range took back.
    #[test]
    fn walks_at_the_step_edges() {
        let joined: Vec<u32> = (100..100 + MIN_CONTIG_JOINED as u32).collect();
        let taken_back: Vec<u32> = joined.iter().copied().chain([107 + 256]).collect();
        let top = u32::MAX;
        // (list, `Scatter` ops, `Contig` ops)
        let cases: [(Vec<u32>, u64, u64); 10] = [
            (vec![10, 265, 520, 521], 1, 0),
            (vec![10, 266, 522], 3, 0),
            (vec![10, 265, 521, 776], 2, 0),
            (vec![4, 4, 4, 9, 9], 1, 0),
            (vec![50, 49, 48, 30, 29, 28], 6, 0),
            (vec![top - 300, top - 45, top - 45, top], 1, 0),
            (vec![], 0, 0),
            (vec![17], 1, 0),
            (joined.clone(), 0, 1),
            (taken_back, 2, 0),
        ];
        for (idx, scatter, contig) in cases {
            let offs = [0, idx.len() as u32];
            let progs = CopyPrograms::lower(&idx, &offs);
            assert_eq!(progs, lower_rescanning(&idx, &offs), "{idx:?}");
            assert_eq!(progs.indices(0), idx);
            let stats = progs.stats();
            assert_eq!((stats.scatter, stats.contig), (scatter, contig), "{idx:?}");
            let walked = stats.total_elements - stats.bulk_elements;
            assert_eq!(progs.steps.len() as u64, walked + 3 * scatter, "{idx:?}");
            if idx.iter().all(|&i| i < 1 << 20) {
                every_walker(&idx);
            }
        }
    }

    /// A row fed run by run: `(first, n)` for the indices `first..first + n`.
    fn fed_by_runs(rows: &[Vec<(u32, u32)>]) -> CopyPrograms {
        let mut b = ProgramBuilder::default();
        for row in rows {
            b.row_of_runs(row.iter().copied());
        }
        b.finish()
    }

    /// Rows of runs: each starts `gap` after the previous one's end — a
    /// negative gap steps back, -1 repeats its last index, 0 continues it,
    /// 254 and 255 are the widest steps a byte holds and one past — with
    /// lengths one below, at and one above every minimum.
    fn run_rows() -> impl proptest::strategy::Strategy<Value = Vec<Vec<(u32, u32)>>> {
        use proptest::strategy::Strategy;
        let gaps = vec![-40i64, -1, 0, 0, 0, 1, 2, 40, 254, 255, 5000];
        let run = (
            proptest::sample::select(gaps),
            proptest::sample::select(boundary_lens()),
        );
        let row = proptest::collection::vec(run, 0..10);
        proptest::collection::vec(row, 0..4).prop_map(|rows| {
            let mut end = 1000i64;
            let mut out = Vec::new();
            for row in rows {
                let mut runs = Vec::new();
                for (gap, n) in row {
                    let first = (end + gap).max(0);
                    runs.push((first as u32, n as u32));
                    end = first + n as i64;
                }
                out.push(runs);
            }
            out
        })
    }

    #[test]
    fn dense_run_lowers_to_one_contig() {
        let idx: Vec<u32> = (100..400).collect();
        let prog = lower(&idx);
        assert_eq!(prog.ops.len(), 1);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
        roundtrip(&idx);
    }

    /// A constant stride other than 1 is no structure the lowering uses: a
    /// cyclic stride of 16 is one `Scatter` range, however long, walked as
    /// its first index and a step of 16 per later one. A descending list
    /// steps back at every index, which no byte holds: one op per index.
    #[test]
    fn constant_strides_lower_to_one_scatter() {
        let cyclic: Vec<u32> = (0..128).map(|k| 5 + 16 * k).collect();
        let prog = lower(&cyclic);
        let whole = CopyOp::Scatter {
            pos: 0,
            at: 0,
            len: 128,
        };
        assert_eq!(prog.row(0), [whole]);
        let walk: Vec<u8> = [5, 0, 0, 0].into_iter().chain([16; 127]).collect();
        assert_eq!(prog.steps, walk, "the first index and 127 steps");
        assert_eq!(prog.stats().bulk_fraction(), 0.0);
        roundtrip(&cyclic);

        let descending: Vec<u32> = (0..128).map(|k| 1100 - 8 * k).collect();
        let prog = lower(&descending);
        let ones: Vec<CopyOp> = (0..128)
            .map(|k| CopyOp::Scatter {
                pos: k,
                at: 4 * k,
                len: 1,
            })
            .collect();
        assert_eq!(prog.row(0), ones);
        assert_eq!(prog.stats().scatter, 128);
        assert_eq!(prog.mem_bytes(), 128 * (16 + 4) + 8);
        roundtrip(&descending);
    }

    #[test]
    fn short_runs_coalesce_into_scatter() {
        // Pairs five apart: every stride-1 run is length 2 — too short for
        // a bulk op — and every step fits a byte.
        let idx: Vec<u32> = (0..64).map(|k| 6 * (k / 2) + k % 2).collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig, 0);
        assert_eq!(prog.stats().scatter, 1, "scatter ranges coalesce");
        assert_eq!(prog.stats().bulk_fraction(), 0.0);
        roundtrip(&idx);
    }

    #[test]
    fn undersized_run_does_not_eat_the_next_contig() {
        // [5, 100..): the scattered 5 must not take 100 with it, away from
        // the contig that follows.
        let idx: Vec<u32> = [5]
            .into_iter()
            .chain(100..100 + MIN_CONTIG as u32)
            .collect();
        let prog = lower(&idx);
        assert_eq!(prog.stats().contig, 1);
        assert_eq!(prog.stats().bulk_elements, MIN_CONTIG as u64);
        roundtrip(&idx);
    }

    /// The rule at its edges, one list each: what follows a scattered
    /// element needs the full minimum, what starts a row or follows a bulk
    /// op only the joined one.
    #[test]
    fn minima_are_exact() {
        let bulk_of = |idx: &[u32]| {
            roundtrip(idx);
            let s = *lower(idx).stats();
            (s.contig, s.bulk_elements as usize)
        };
        let run = |at: u32, len: usize| at..at + len as u32;
        let (full, joined) = (MIN_CONTIG, MIN_CONTIG_JOINED);
        // Alone in its row: nothing to split.
        assert_eq!(bulk_of(&run(7, joined - 1).collect::<Vec<_>>()), (0, 0));
        assert_eq!(bulk_of(&run(7, joined).collect::<Vec<_>>()), (1, joined));
        // After scattered elements (9000, 5000 and 7 are two undersized stretches).
        for (len, lowered) in [(full - 1, false), (full, true), (full + 1, true)] {
            let idx: Vec<u32> = [9000, 5000].into_iter().chain(run(7, len)).collect();
            let want = if lowered { (1, len) } else { (0, 0) };
            assert_eq!(bulk_of(&idx), want, "{len} after a scatter range");
        }
        // Directly after a bulk op, one hole on; then a scattered element
        // makes the same run too short again.
        for (len, lowered) in [(joined - 1, false), (joined, true), (joined + 1, true)] {
            let second = full as u32 + 1;
            let idx: Vec<u32> = run(0, full).chain(run(second, len)).collect();
            let want = if lowered { (2, full + len) } else { (1, full) };
            assert_eq!(bulk_of(&idx), want, "{len} after a contig");
            let idx: Vec<u32> = run(0, full)
                .chain([5000, 4000])
                .chain(run(second, len))
                .collect();
            assert_eq!(bulk_of(&idx), (1, full), "{len} after contig + scatter");
        }
        // A joined contig that scattered elements follow splits a range off
        // after all and is taken back — with the joined ones before it, up
        // to the last full-size one.
        let chain: Vec<u32> = run(0, full)
            .chain(run(100, joined))
            .chain(run(200, full - 1))
            .collect();
        assert_eq!(bulk_of(&chain), (3, 2 * full + joined - 1));
        let followed: Vec<u32> = chain.iter().copied().chain([5000, 4000]).collect();
        assert_eq!(bulk_of(&followed), (1, full));
        let led: Vec<u32> = run(0, full - 1).chain([5000, 4000]).collect();
        assert_eq!(bulk_of(&led), (0, 0), "a row that begins with a run");
    }

    #[test]
    fn empty_and_singleton_lists() {
        roundtrip(&[]);
        roundtrip(&[17]);
        let prog = lower(&[]);
        assert_eq!(prog.mem_bytes(), 8, "two row offsets, no ops");
        assert_eq!(prog.stats().bulk_fraction(), 1.0);
    }

    /// Ops, row offsets and the `Scatter` walks: a dense row keeps no
    /// index, a row with a `Scatter` range keeps that range's walk — its
    /// first index in four bytes and one byte per later index — and no
    /// other. A step a byte cannot hold starts another op and walk.
    #[test]
    fn mem_bytes_counts_ops_and_scatter_indices() {
        let dense: Vec<u32> = (0..100).collect();
        let prog = lower(&dense);
        assert!(prog.steps.is_empty());
        assert_eq!(prog.mem_bytes(), 16 + 8);
        let mixed: Vec<u32> = [7, 200, 455].into_iter().chain(1000..1100).collect();
        let prog = lower(&mixed);
        assert_eq!((prog.stats().contig, prog.stats().scatter), (1, 1));
        assert_eq!(prog.steps, [7, 0, 0, 0, 193, 255]);
        assert_eq!(prog.mem_bytes(), 2 * 16 + 8 + (4 + 2));
        let split: Vec<u32> = [900, 7, 263].into_iter().chain(1000..1100).collect();
        let prog = lower(&split);
        assert_eq!((prog.stats().contig, prog.stats().scatter), (1, 3));
        assert_eq!(prog.steps, [132, 3, 0, 0, 7, 0, 0, 0, 7, 1, 0, 0]);
        assert_eq!(prog.mem_bytes(), 4 * 16 + 8 + 3 * 4);
    }

    /// Rows lower independently: a family's row equals the same list
    /// lowered alone (a scatter range never leaks across a row boundary),
    /// empty rows get empty programs, and the stats are the rows' sum.
    #[test]
    fn rows_lower_independently() {
        let contig: Vec<u32> = (20..21 + MIN_CONTIG_JOINED as u32).collect();
        let rows: [&[u32]; 4] = [&[9, 3, 7], &[], &contig, &[1, 5]];
        let flat: Vec<u32> = rows.concat();
        let mut offs = vec![0u32];
        for r in rows {
            offs.push(offs.last().unwrap() + r.len() as u32);
        }
        let family = CopyPrograms::lower(&flat, &offs);
        let mut sum = CopyStats::default();
        for (k, r) in rows.iter().enumerate() {
            let single = lower(r);
            assert_eq!(alone(&family, k), alone(&single, 0), "row {k}");
            sum.merge(single.stats());
        }
        assert_eq!(family.stats(), &sum);
        assert_eq!(family.stats().contig, 1, "row 2 is one op");
        assert_eq!(
            family.stats().scatter,
            3,
            "row 0 steps back once (9, then 3), and rows 0 and 3 do not coalesce"
        );
    }

    /// The cases the streaming builder must not lose: a contig right after
    /// a scattered element, rows of length 0 and 1, a long descending
    /// stretch, full-size runs that end exactly at a row boundary, and a
    /// long strided stretch between a contig and the row's end — all built
    /// from the minima.
    #[test]
    fn streaming_builder_matches_the_rescanning_lowering() {
        let (c, j, st) = (MIN_CONTIG as u32, MIN_CONTIG_JOINED as u32, 64);
        let anchored: Vec<u32> = [5].into_iter().chain(100..100 + c).collect();
        let descending: Vec<u32> = (0..st - 1).rev().map(|k| 8 * k).chain([9, 9, 9]).collect();
        let halves: Vec<u32> = (1..=2 * j).collect();
        let last = 10 * st;
        let sandwich: Vec<u32> = (0..c)
            .chain((1..=st).map(|k| c + 10 * k))
            .chain([c + last + 1, c + last + 2])
            .collect();
        let lists: [(&[u32], &[u32]); 6] = [
            (&anchored, &[0, 1 + c]),
            (&anchored, &[0, 1, 1, 1 + c]),
            (&[7], &[0, 0, 1, 1]),
            (&descending, &[0, st - 1, st + 2]),
            (&halves, &[0, j, 2 * j]),
            (&sandwich, &[0, c + st + 2]),
        ];
        for (idx, offs) in lists {
            let streamed = CopyPrograms::lower(idx, offs);
            assert_eq!(
                streamed,
                lower_rescanning(idx, offs),
                "{idx:?} cut at {offs:?}"
            );
        }
        let halves = CopyPrograms::lower(lists[4].0, lists[4].1);
        assert_eq!(
            halves.stats().contig,
            2,
            "a run ending at its row's end is kept"
        );
        let sandwich = CopyPrograms::lower(lists[5].0, lists[5].1);
        assert_eq!(
            (sandwich.stats().contig, sandwich.stats().scatter),
            (1, 1),
            "a strided stretch after a contig is one scatter range"
        );
    }

    /// A lent row joined with a placement row, against gathering then
    /// placing: every pairing of `Contig` and `Scatter` ops, overlaps that
    /// start and end anywhere — and the staged path, fill then
    /// `scatter_apply`, to the same result.
    fn assert_join_matches(src_list: &[u32], dst_list: &[u32]) {
        let n = src_list.len().min(dst_list.len());
        let (src_list, dst_list) = (&src_list[..n], &dst_list[..n]);
        let sender = CopyPrograms::lower(src_list, &[0, n as u32]);
        let receiver = CopyPrograms::lower(dst_list, &[0, n as u32]);
        let span = |l: &[u32]| l.iter().max().map_or(0, |&m| m as usize + 1);
        let src: Vec<u32> = (0..span(src_list) as u32).map(|x| x * 5 + 1).collect();
        let mut want = vec![0u32; span(dst_list)];
        gather_then_place(src_list, dst_list, &src, &mut want);
        let mut lent = vec![0u32; want.len()];
        let bulk = receiver.place(0, sender.source(0, &src), &mut lent, Phase::Bulk);
        let rest = receiver.place(0, sender.source(0, &src), &mut lent, Phase::Scatter);
        assert_eq!(bulk + rest, n, "the phases cover the message");
        assert_eq!(lent, want, "lent {src_list:?} into {dst_list:?}");
        let mut buf = vec![0u32; n];
        for phase in [Phase::Scatter, Phase::Bulk] {
            gather_fill(&sender, 0, &src, &mut buf, phase);
        }
        let mut staged = vec![0u32; want.len()];
        for phase in [Phase::Scatter, Phase::Bulk] {
            scatter_apply(&receiver, 0, &buf, &mut staged, phase);
        }
        assert_eq!(staged, want);
    }

    /// The rule's edges on both sides: a run at each minimum ± 1 on one
    /// side meets the same run, a shifted one, or scattered elements on the
    /// other.
    #[test]
    fn join_meets_runs_at_the_minima() {
        let run = |at: u32, len: usize| (at..at + len as u32).collect::<Vec<u32>>();
        for len in boundary_lens() {
            let scattered: Vec<u32> = (0..len as u32).map(|k| 977 * k % 4099).collect();
            let shifted: Vec<u32> = [9000].into_iter().chain(run(40, len)).collect();
            for (a, b) in [
                (run(3, len), run(100, len)),
                (run(3, len), scattered.clone()),
                (scattered.clone(), run(100, len)),
                (shifted.clone(), run(7, len + 1)),
                (run(7, len + 1), shifted),
            ] {
                assert_join_matches(&a, &b);
            }
        }
    }

    proptest::proptest! {
        /// Feeding a row as runs lowers it to exactly the programs of its
        /// expanded list: ops, walks, row offsets and statistics.
        #[test]
        fn runs_lower_as_their_expanded_list(rows in run_rows()) {
            let mut offs = vec![0u32];
            let mut idx = Vec::new();
            for row in &rows {
                for &(first, n) in row {
                    idx.extend(first..first + n);
                }
                offs.push(idx.len() as u32);
            }
            proptest::prop_assert_eq!(fed_by_runs(&rows), CopyPrograms::lower(&idx, &offs));
        }

        /// Two arbitrary lowered rows, joined, equal the two-pass reference.
        #[test]
        fn join_matches_gather_then_place(src in boundary_runs(), dst in boundary_runs()) {
            assert_join_matches(&boundary_list(&src), &boundary_list(&dst));
        }

        /// The streaming builder emits exactly the ops of the rescanning
        /// lowering, row offsets and statistics included.
        #[test]
        fn streaming_matches_rescanning_on_structured_rows(rows in stretchy_rows()) {
            let (idx, offs) = rows;
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }

        /// … and on lists with no structure but what chance gives them.
        #[test]
        fn streaming_matches_rescanning_on_arbitrary_rows(
            idx in proptest::collection::vec(0u32..6, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..5),
        ) {
            let mut offs: Vec<u32> = cuts.iter().map(|c| (c % (idx.len() + 1)) as u32).collect();
            offs.extend([0, idx.len() as u32]);
            offs.sort_unstable();
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }

        /// Lowered gather and scatter are bit-identical to the scalar
        /// reference for arbitrary index lists (the debug self-check inside
        /// `lower` additionally proves the ops tile the list exactly and
        /// spell it out, `Scatter` ops from their own indices).
        #[test]
        fn lowering_matches_scalar(idx in proptest::collection::vec(0u32..4096, 0..300)) {
            roundtrip(&idx);
        }

        /// … and for rows made of runs one below, at and one above every
        /// minimum — contiguous and strided, at the row's start, at its end
        /// and back to back, with or without scattered elements between —
        /// where both two-phase walkers run both their kernels.
        #[test]
        fn boundary_runs_match_scalar(runs in boundary_runs()) {
            let idx = boundary_list(&runs);
            roundtrip(&idx);
            let offs = [0, idx.len() as u32];
            proptest::prop_assert_eq!(CopyPrograms::lower(&idx, &offs), lower_rescanning(&idx, &offs));
        }
    }
}
