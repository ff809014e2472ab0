//! Cross-run plan cache: memoize [`PackPlan`]s and [`UnpackPlan`]s keyed
//! by stable fingerprints, so repeated PACK/UNPACK calls under an
//! unchanged `(descriptor, mask, options)` triple skip planning entirely.
//!
//! The cache is a per-processor, caller-held object (SPMD style: each
//! processor owns one, exactly as it owns its local array portions).
//! Planning is collective, so **all processors must hit or miss
//! together**: the caller-supplied mask fingerprint has to be computed
//! SPMD-consistently — the same value on every processor for the same
//! logical (global) mask. [`crate::MaskPattern::fingerprint`] and a step
//! counter both qualify; a hash of the *local* mask portion does not in
//! general (one processor's portion can stay identical while another's
//! changes, which would deadlock the ranking collectives).
//!
//! Hits and misses are counted in the machine's metrics as
//! `plan.cache.hit` / `plan.cache.miss` (no-ops unless the machine was
//! built with metrics).

use std::collections::HashMap;
use std::rc::Rc;

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::collectives::{A2aSchedule, PrsAlgorithm};
use hpf_machine::Proc;

use crate::error::{PackError, UnpackError};
use crate::mask::splitmix64;
use crate::schemes::{PackOptions, ScanMethod, UnpackOptions};

use super::{plan_pack, plan_unpack, PackPlan, UnpackPlan};

/// Cache key: descriptor, mask, and options fingerprints.
type PlanKey = (u64, u64, u64);

/// A per-processor cache of communication plans.
///
/// ```
/// use hpf_machine::{Machine, CostModel, ProcGrid};
/// use hpf_distarray::{ArrayDesc, Dist, local_from_fn};
/// use hpf_core::{MaskPattern, PackOptions, PlanCache};
///
/// let grid = ProcGrid::line(4);
/// let desc = ArrayDesc::new(&[32], &grid, &[Dist::BlockCyclic(2)]).unwrap();
/// let mask = MaskPattern::FirstHalf;
/// let machine = Machine::new(grid, CostModel::cm5());
/// let out = machine.run(|proc| {
///     let m = mask.local(&desc, proc.id());
///     let mut cache = PlanCache::new();
///     let opts = PackOptions::default();
///     // First call plans; the second is a pure execute.
///     let plan = cache.pack_plan(proc, &desc, &m, mask.fingerprint(), &opts).unwrap();
///     let a = local_from_fn(&desc, proc.id(), |g| g[0] as i32);
///     let first = plan.execute(proc, &a).unwrap();
///     let plan = cache.pack_plan(proc, &desc, &m, mask.fingerprint(), &opts).unwrap();
///     let again = plan.execute(proc, &a).unwrap();
///     assert_eq!(first, again);
///     first.size
/// });
/// assert_eq!(out.results[0], 16);
/// ```
#[derive(Default)]
pub struct PlanCache {
    packs: HashMap<PlanKey, Rc<PackPlan>>,
    unpacks: HashMap<PlanKey, Rc<UnpackPlan>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The PACK plan for `(desc, mask, opts)`: returned from the cache on
    /// a hit, built with [`plan_pack`] (a collective call) on a miss.
    ///
    /// `mask_fp` must identify the *global* mask SPMD-consistently (see
    /// the module docs); `m_local` is only used when planning.
    pub fn pack_plan(
        &mut self,
        proc: &mut Proc,
        desc: &ArrayDesc,
        m_local: &[bool],
        mask_fp: u64,
        opts: &PackOptions,
    ) -> Result<Rc<PackPlan>, PackError> {
        let key = (desc.fingerprint(), mask_fp, pack_opts_fingerprint(opts));
        if let Some(plan) = self.packs.get(&key) {
            proc.inc_counter("plan.cache.hit", 1);
            return Ok(Rc::clone(plan));
        }
        proc.inc_counter("plan.cache.miss", 1);
        let plan = Rc::new(plan_pack(proc, desc, m_local, opts)?);
        self.packs.insert(key, Rc::clone(&plan));
        Ok(plan)
    }

    /// The UNPACK plan for `(desc, mask, v_layout, opts)`; cache
    /// semantics as in [`PlanCache::pack_plan`].
    pub fn unpack_plan(
        &mut self,
        proc: &mut Proc,
        desc: &ArrayDesc,
        m_local: &[bool],
        mask_fp: u64,
        v_layout: &DimLayout,
        opts: &UnpackOptions,
    ) -> Result<Rc<UnpackPlan>, UnpackError> {
        let opts_fp = mix_into(unpack_opts_fingerprint(opts), v_layout.fingerprint());
        let key = (desc.fingerprint(), mask_fp, opts_fp);
        if let Some(plan) = self.unpacks.get(&key) {
            proc.inc_counter("plan.cache.hit", 1);
            return Ok(Rc::clone(plan));
        }
        proc.inc_counter("plan.cache.miss", 1);
        let plan = Rc::new(plan_unpack(proc, desc, m_local, v_layout, opts)?);
        self.unpacks.insert(key, Rc::clone(&plan));
        Ok(plan)
    }

    /// Number of cached plans (PACK + UNPACK).
    pub fn len(&self) -> usize {
        self.packs.len() + self.unpacks.len()
    }

    /// True iff nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.packs.is_empty() && self.unpacks.is_empty()
    }
}

/// Fold `word` into a running fingerprint.
fn mix_into(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ splitmix64(word))
}

/// Stable fingerprint of everything in [`PackOptions`] that shapes a plan.
fn pack_opts_fingerprint(opts: &PackOptions) -> u64 {
    let mut fp = splitmix64(0x5041_434b); // "PACK"
    fp = mix_into(fp, scheme_tag(opts.scheme as u64, 0));
    fp = mix_into(fp, prs_tag(opts.prs));
    fp = mix_into(fp, schedule_tag(opts.schedule));
    fp = mix_into(fp, scan_tag(opts.scan_method));
    fp = mix_into(fp, opts.result_block_size.map_or(0, |w| 1 + w as u64));
    fp
}

/// Stable fingerprint of everything in [`UnpackOptions`] that shapes a
/// plan (the vector layout is folded in separately by the caller).
fn unpack_opts_fingerprint(opts: &UnpackOptions) -> u64 {
    let mut fp = splitmix64(0x554e_5041_434b); // "UNPACK"
    fp = mix_into(fp, scheme_tag(opts.scheme as u64, 1));
    fp = mix_into(fp, prs_tag(opts.prs));
    fp = mix_into(fp, schedule_tag(opts.schedule));
    fp
}

fn scheme_tag(discriminant: u64, family: u64) -> u64 {
    (family << 8) | discriminant
}

fn prs_tag(prs: PrsAlgorithm) -> u64 {
    match prs {
        PrsAlgorithm::Direct => 0,
        PrsAlgorithm::Split => 1,
        PrsAlgorithm::Auto => 2,
        PrsAlgorithm::Hardware => 3,
    }
}

fn schedule_tag(s: A2aSchedule) -> u64 {
    match s {
        A2aSchedule::LinearPermutation => 0,
        A2aSchedule::NaivePush => 1,
        A2aSchedule::PairwiseExchange => 2,
    }
}

fn scan_tag(m: ScanMethod) -> u64 {
    match m {
        ScanMethod::UntilCollected => 0,
        ScanMethod::WholeSlice => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{PackScheme, UnpackScheme};

    #[test]
    fn option_fingerprints_distinguish_all_knobs() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for scheme in PackScheme::ALL {
            for prs in [
                PrsAlgorithm::Direct,
                PrsAlgorithm::Split,
                PrsAlgorithm::Auto,
                PrsAlgorithm::Hardware,
            ] {
                for schedule in [
                    A2aSchedule::LinearPermutation,
                    A2aSchedule::NaivePush,
                    A2aSchedule::PairwiseExchange,
                ] {
                    for scan_method in [ScanMethod::UntilCollected, ScanMethod::WholeSlice] {
                        for result_block_size in [None, Some(1), Some(8)] {
                            let opts = PackOptions {
                                scheme,
                                prs,
                                schedule,
                                scan_method,
                                result_block_size,
                            };
                            assert!(
                                seen.insert(pack_opts_fingerprint(&opts)),
                                "collision at {opts:?}"
                            );
                        }
                    }
                }
            }
        }
        // PACK and UNPACK keys never alias even with equal discriminants.
        for scheme in UnpackScheme::ALL {
            let opts = UnpackOptions::new(scheme);
            assert!(seen.insert(unpack_opts_fingerprint(&opts)));
        }
    }
}
