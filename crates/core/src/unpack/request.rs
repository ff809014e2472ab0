//! The rank-request wire format for UNPACK's first communication round.

use hpf_machine::Payload;

/// A per-owner rank request: either explicit ranks (simple scheme) or
/// `(base, count)` runs (compact storage scheme). Implemented as a payload
/// so each format charges its own wire size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankRequest {
    /// One rank per selected element (`E` words).
    Explicit(Vec<u32>),
    /// Run-compressed consecutive ranks (`2·runs` words).
    Runs(Vec<(u32, u32)>),
}

impl Default for RankRequest {
    fn default() -> Self {
        RankRequest::Explicit(Vec::new())
    }
}

impl RankRequest {
    /// The requested ranks as `(base, count)` runs in request order; an
    /// explicit rank is a run of one.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (explicit, runs) = match self {
            RankRequest::Explicit(v) => (&v[..], &[][..]),
            RankRequest::Runs(runs) => (&[][..], &runs[..]),
        };
        let explicit = explicit.iter().map(|&r| (r as usize, 1));
        explicit.chain(runs.iter().map(|&(r, n)| (r as usize, n as usize)))
    }

    /// True iff no ranks are requested.
    pub fn is_empty(&self) -> bool {
        match self {
            RankRequest::Explicit(v) => v.is_empty(),
            RankRequest::Runs(r) => r.is_empty(),
        }
    }
}

impl Payload for RankRequest {
    fn wire_words(&self) -> usize {
        match self {
            RankRequest::Explicit(v) => v.len(),
            RankRequest::Runs(runs) => 2 * runs.len(),
        }
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_sizes_differ_by_scheme() {
        let explicit = RankRequest::Explicit(vec![1, 2, 3, 4, 5, 6]);
        let runs = RankRequest::Runs(vec![(1, 6)]);
        assert_eq!(Payload::wire_words(&explicit), 6);
        assert_eq!(Payload::wire_words(&runs), 2);
        let expanded = |req: &RankRequest| {
            let runs = req.runs().flat_map(|(base, n)| base..base + n);
            runs.collect::<Vec<_>>()
        };
        assert_eq!(expanded(&runs), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(expanded(&explicit), expanded(&runs));
    }
}
