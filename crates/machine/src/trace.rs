//! Execution tracing: per-processor spans of simulated time, partitioned by
//! clock category, with a text Gantt renderer.
//!
//! When tracing is enabled on a [`crate::Machine`], every category
//! transition on a processor's clock ([`crate::Proc::set_category`]) is a
//! record in the processor's one stream (see [`crate::obs`]); decoded, each
//! closes the previous span and opens a new one, so the spans of one
//! processor partition its simulated timeline exactly. The renderer turns that into the classic stage picture: the
//! ranking stage's local scan, the prefix-reduction-sum wavefront, and the
//! many-to-many exchange, per processor.

use crate::cost::Category;

/// One contiguous stretch of simulated time a processor spent in one
/// category (including any waiting attributed to it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The category active during the span.
    pub category: Category,
    /// Span start, nanoseconds.
    pub start_ns: f64,
    /// Span end, nanoseconds.
    pub end_ns: f64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn len_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// Single-letter legend used by the Gantt renderer.
pub(crate) fn category_glyph(cat: Category) -> char {
    match cat {
        Category::LocalComp => 'L',
        Category::PrefixReductionSum => 'P',
        Category::ManyToMany => 'M',
        Category::RedistDetect => 'D',
        Category::RedistComm => 'R',
        Category::Other => 'o',
    }
}

/// Render per-processor span lists as a fixed-width text Gantt chart.
///
/// Each row is one processor; each column covers `total/cols` nanoseconds
/// and shows the glyph of the category that dominates it (idle time — spans
/// never recorded — shows as `.`).
pub(crate) fn render_gantt(traces: &[Vec<Span>], cols: usize) -> String {
    assert!(cols > 0, "need at least one column");
    let t_max = traces
        .iter()
        .flat_map(|t| t.iter().map(|s| s.end_ns))
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    if t_max <= 0.0 {
        out.push_str("(no simulated time elapsed)\n");
        return out;
    }
    let col_ns = t_max / cols as f64;
    for (pid, spans) in traces.iter().enumerate() {
        // Dominant category per column. A span ending exactly on a column
        // boundary must contribute nothing past it, but `end_ns / col_ns`
        // is inexact in floating point, so a `ceil`-derived last column can
        // overshoot and a sliver of rounding error would paint an idle
        // column. Instead walk columns until the span is exhausted and
        // ignore overlaps below a rounding-noise tolerance.
        let eps = col_ns * 1e-9;
        let mut weights = vec![[0.0f64; Category::ALL.len()]; cols];
        for s in spans {
            let first = ((s.start_ns / col_ns) as usize).min(cols - 1);
            for (c, w) in weights.iter_mut().enumerate().skip(first) {
                let lo = (c as f64) * col_ns;
                if lo + eps >= s.end_ns {
                    break;
                }
                let hi = lo + col_ns;
                let overlap = s.end_ns.min(hi) - s.start_ns.max(lo);
                if overlap > eps {
                    w[s.category.index()] += overlap;
                }
            }
        }
        out.push_str(&format!("p{pid:<3} |"));
        for w in &weights {
            let (best, &weight) = w
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            if weight <= 0.0 {
                out.push('.');
            } else {
                out.push(category_glyph(Category::ALL[best]));
            }
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "     0 {:>width$.3} ms\nlegend: L=local P=prefix-reduction-sum M=many-to-many D=detect R=redist o=other .=idle\n",
        t_max / 1e6,
        width = cols.saturating_sub(2),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: Category, a: f64, b: f64) -> Span {
        Span {
            category: cat,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn gantt_shows_dominant_category_per_column() {
        let traces = vec![
            vec![
                span(Category::LocalComp, 0.0, 50.0),
                span(Category::ManyToMany, 50.0, 100.0),
            ],
            vec![span(Category::PrefixReductionSum, 0.0, 100.0)],
        ];
        let g = render_gantt(&traces, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].contains("LLLLLMMMMM"), "{g}");
        assert!(lines[1].contains("PPPPPPPPPP"), "{g}");
    }

    #[test]
    fn idle_time_is_dotted() {
        let traces = vec![vec![span(Category::LocalComp, 50.0, 100.0)]];
        let g = render_gantt(&traces, 10);
        assert!(g.lines().next().unwrap().contains(".....LLLLL"), "{g}");
    }

    #[test]
    fn span_ending_on_column_boundary_does_not_bleed() {
        // col_ns = 0.3 / 3 is inexact, so column 2's left edge lands a hair
        // below 0.2 and the old ceil-based range painted it with a sliver
        // of the [0, 0.2] span. The span covers exactly columns 0 and 1.
        let traces = vec![
            vec![span(Category::LocalComp, 0.0, 0.2)],
            vec![span(Category::PrefixReductionSum, 0.0, 0.3)],
        ];
        let g = render_gantt(&traces, 3);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].contains("LL."), "boundary span bled: {g}");
        assert!(lines[1].contains("PPP"), "{g}");
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let g = render_gantt(&[vec![]], 10);
        assert!(g.contains("no simulated time"));
    }

    #[test]
    fn glyphs_are_unique() {
        let mut glyphs: Vec<char> = Category::ALL.iter().map(|&c| category_glyph(c)).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), Category::ALL.len());
    }
}
