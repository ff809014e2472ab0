//! Scheme selection and options for the parallel PACK/UNPACK entry points.

use hpf_machine::collectives::{A2aSchedule, PrsAlgorithm};

/// Storage / message-composition scheme for PACK (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackScheme {
    /// **SSS** — simple storage scheme (Sections 6.1 / 6.4.1): the initial
    /// scan saves every selected element's bookkeeping — the paper lists
    /// `d + 3` items (a local index per dimension, the tile number, the
    /// in-slice rank, later the destination), at least four memory
    /// operations per selected element — and composition replays the
    /// records against `PS_f` for each element's global rank and
    /// destination. Messages are `(global rank, value)` pairs, `2·E_i`
    /// words. Local computation `∝ L + C + 6E_i + 2E_a`: the cheapest scheme
    /// per *slice* (one scan), the dearest per *element*, so it wins at
    /// cyclic distribution (`C = L`) and low density and loses as blocks
    /// grow and density rises. Plan-time: the scan (`L + 4E`), the record
    /// replay (`1/element`) and the ranking; execute-time: the value gather
    /// (`1/element`) and the pair decode (`2/element`).
    Simple,
    /// **CSS** — compact storage scheme (Sections 6.1 / 6.4.1): nothing is
    /// stored per element. The initial scan keeps the slice counts as the
    /// *counter array* `PS_c`; after ranking, `PS_c[k]` (how many selected
    /// elements slice `k` holds) and `PS_f[k]` (the global rank of the
    /// first) rebuild per slice the consecutive ranks, the destinations
    /// (the `sendl` vector) and — by a second scan of the non-empty slices
    /// only — the element slots. Messages are still `(rank, value)` pairs.
    /// Local computation `∝ 2L + 2C + 3E_i + 2E_a`: an extra scan and slice
    /// pass buy the removal of the per-element record traffic, so CSS wins
    /// once blocks are large and density high. Plan-time: both scans, the
    /// slice walk and the rank expansion (`1/run + 1/element`);
    /// execute-time: the value gather (`1/element`) and the pair decode
    /// (`2/element`).
    CompactStorage,
    /// **CMS** — compact message scheme (Sections 6.2 / 6.4.2): CSS storage
    /// plus run-compressed messages `(base rank, count, values…)` exploiting
    /// that ranks within a slice are consecutive
    /// (`∝ 2L + 2C + 2E_i + 2Gs_i + E_a + 2Gr_i`). Plan-time: the scans and
    /// the run composition (`2/run`, the segment headers); execute-time: the
    /// value gather (`1/value`) and the segment decode
    /// (`2/segment + 1/value`).
    CompactMessage,
}

impl PackScheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [PackScheme; 3] = [
        PackScheme::Simple,
        PackScheme::CompactStorage,
        PackScheme::CompactMessage,
    ];

    /// Table label ("SSS" / "CSS" / "CMS").
    pub fn label(self) -> &'static str {
        match self {
            PackScheme::Simple => "SSS",
            PackScheme::CompactStorage => "CSS",
            PackScheme::CompactMessage => "CMS",
        }
    }
}

/// Storage scheme for UNPACK (the paper evaluates two; a run-compressed
/// request format plays the compact-message role on the request side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnpackScheme {
    /// **SSS** — per-element rank requests (Section 6.4.3). As in PACK's
    /// SSS the initial scan records per-element bookkeeping (`L + 4E`) and
    /// composition replays it against `PS_f`, but it composes *two* aligned
    /// lists per element — the global rank to request and the local slot
    /// awaiting the reply —, so the replay costs `2E`. Requests are explicit
    /// rank lists (`E` words). Plan-time: the scan, the replay, the request
    /// round and the owners' request decode; execute-time: only the field
    /// copy, the value replies and the scatter.
    Simple,
    /// **CSS** — counter-array storage as in PACK's CSS, with run-compressed
    /// `(base rank, count)` requests (Section 6.4.3): consecutive ranks
    /// within a slice collapse to one run, `2·Gs` words instead of `E` — the
    /// compact message idea on the READ direction's request stage (a reply
    /// is values only). Composition re-scans the non-empty slices by method
    /// 1 (the paper's choice for UNPACK, where the second scan is always
    /// needed to recover element slots) and charges two operations per run
    /// plus one per element. Plan and execute split as under SSS.
    CompactStorage,
}

impl UnpackScheme {
    /// Both schemes, in presentation order.
    pub const ALL: [UnpackScheme; 2] = [UnpackScheme::Simple, UnpackScheme::CompactStorage];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            UnpackScheme::Simple => "SSS",
            UnpackScheme::CompactStorage => "CSS",
        }
    }
}

/// The two slice-scanning methods of Section 6.1's message-composition scan
/// (the compact schemes' second local scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanMethod {
    /// Method 1 (the paper's choice): scan a slice only until all of its
    /// packed elements have been collected.
    #[default]
    UntilCollected,
    /// Method 2: scan the whole slice unconditionally.
    WholeSlice,
}

/// Options for [`crate::pack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackOptions {
    /// Storage / message scheme.
    pub scheme: PackScheme,
    /// Prefix-reduction-sum algorithm for the ranking stage.
    pub prs: PrsAlgorithm,
    /// Many-to-many schedule for the redistribution stage.
    pub schedule: A2aSchedule,
    /// Second-scan method for the compact schemes.
    pub scan_method: ScanMethod,
    /// Block size `W'` of the result vector. `None` = block distribution
    /// (`⌈Size/P⌉`), the paper's fixed experimental choice.
    pub result_block_size: Option<usize>,
}

impl PackOptions {
    /// Default options with the given scheme (Auto PRS, linear permutation,
    /// method-1 scan, block-distributed result).
    pub fn new(scheme: PackScheme) -> Self {
        PackOptions {
            scheme,
            prs: PrsAlgorithm::Auto,
            schedule: A2aSchedule::LinearPermutation,
            scan_method: ScanMethod::UntilCollected,
            result_block_size: None,
        }
    }
}

impl Default for PackOptions {
    fn default() -> Self {
        Self::new(PackScheme::CompactMessage)
    }
}

/// Options for [`crate::unpack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnpackOptions {
    /// Storage scheme.
    pub scheme: UnpackScheme,
    /// Prefix-reduction-sum algorithm for the ranking stage.
    pub prs: PrsAlgorithm,
    /// Many-to-many schedule for both communication stages.
    pub schedule: A2aSchedule,
}

impl UnpackOptions {
    /// Default options with the given scheme.
    pub fn new(scheme: UnpackScheme) -> Self {
        UnpackOptions {
            scheme,
            prs: PrsAlgorithm::Auto,
            schedule: A2aSchedule::LinearPermutation,
        }
    }
}

impl Default for UnpackOptions {
    fn default() -> Self {
        Self::new(UnpackScheme::CompactStorage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PackScheme::Simple.label(), "SSS");
        assert_eq!(PackScheme::CompactStorage.label(), "CSS");
        assert_eq!(PackScheme::CompactMessage.label(), "CMS");
        assert_eq!(UnpackScheme::Simple.label(), "SSS");
        assert_eq!(UnpackScheme::CompactStorage.label(), "CSS");
    }

    #[test]
    fn defaults_match_paper_experiment_setup() {
        let o = PackOptions::default();
        assert_eq!(o.schedule, A2aSchedule::LinearPermutation);
        assert_eq!(o.scan_method, ScanMethod::UntilCollected);
        assert_eq!(o.result_block_size, None);
    }
}
