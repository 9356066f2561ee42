//! Warm-start artifacts: reusable choice construction and prepared cover
//! state shared across parameter-sweep jobs.
//!
//! An MCH flow spends most of its time on work that does **not** depend on
//! the mapper's per-variant knobs: building the mixed choice network
//! (Algorithm 1 + snapshot views), enumerating and transferring cuts, and
//! enumerating cover candidates (Boolean matching for ASIC targets). A
//! [`PreparedFlow`] captures exactly that params-independent half — the
//! choice network plus, lazily, one [`PreparedCover`] per distinct mapper
//! configuration — so a sweep over `area_rounds` / `exact_area` / rankings
//! pays it once and re-runs only the covering dynamic program per variant.
//!
//! # Keying and correctness
//!
//! A prepared flow is keyed by a [`ChoiceKey`] — the exact subset of
//! [`MchConfig`] that reaches choice construction (objective, snapshot
//! mixing, the [`MchParams`]), with the thread count normalised away because
//! choices are thread-invariant — and addressed by a 64-bit fingerprint
//! folding the network's [`structural_fingerprint`](Network::structural_fingerprint)
//! with the key. Fingerprints are only an index: every cache hit re-verifies
//! **full structural equality** of the stored network and key, so a
//! fingerprint collision degrades to a miss (and a cold build), never to a
//! wrong artifact.
//!
//! Reuse is **byte-invisible**: choice construction and cut/candidate
//! enumeration are deterministic and thread-invariant, so a cached artifact
//! is equal to the one a cold run would build, and the prepared mapper entry
//! points (`mch_mapper::map_*_prepared`) are pinned byte-identical to their
//! one-shot counterparts. A warm-started job therefore produces exactly the
//! bytes of its cold solo run — at every thread count, batch permutation and
//! cache state (`tests/service_warm_start.rs`).
//!
//! # The cache
//!
//! [`PreparedFlowCache`] is a bounded, strict-LRU store of prepared flows
//! with byte-size accounting (`approx_bytes` estimates, cut arenas plus
//! candidate skeletons dominating). Like the service's
//! [`SharedNpnCache`], its *telemetry* (hit/miss/eviction counts, eviction
//! order) depends on scheduling — two racing coordinators may both miss on
//! the same circuit and build twice — but *outputs* never do. Both failpoints
//! (`cache::prepared_hit`, `cache::prepared_insert`) sit at function entry,
//! before any mutation: an injected fault leaves the cache coherent and the
//! affected job falls back to a cold, byte-identical run
//! (`tests/service_faults.rs`).

use crate::config::MchConfig;
use crate::flow::build_flow_choices;
use mch_choice::{ChoiceNetwork, SharedNpnCache};
use mch_cut::CutCost;
use mch_logic::{Fingerprinter, Network};
use mch_mapper::{
    map_asic_prepared, map_lut_fused_prepared, map_lut_prepared, prepare_asic_cover,
    prepare_fusion_guide, prepare_lut_cover, AsicMapParams, CellNetlist, LutCandidate,
    LutMapParams, LutNetlist, MappingObjective, MatchCandidate, PreparedCover,
};
use mch_techlib::{Library, LutLibrary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The choice-relevant subset of an [`MchConfig`]: exactly the fields that
/// reach [`build_flow_choices`], with `threads` normalised away (choices are
/// thread-invariant, so jobs differing only in thread count share one
/// artifact). Derived from the **post-degradation** config, so a budgeted job
/// that sheds strategies keys on what it actually built.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct ChoiceKey {
    objective: MappingObjective,
    mix_optimized_snapshots: bool,
    mch: mch_choice::MchParams,
}

impl ChoiceKey {
    /// Extracts the key from a (post-degradation) flow config.
    pub(crate) fn from_config(config: &MchConfig) -> Self {
        let mut mch = config.mch.clone();
        mch.threads = 1;
        ChoiceKey {
            objective: config.objective,
            mix_optimized_snapshots: config.mix_optimized_snapshots,
            mch,
        }
    }
}

/// The 64-bit cache index of `(network, choice key)`: the network's
/// structural fingerprint folded with the key's canonical `Debug` rendering.
/// An index only — hits re-verify full equality (see the module docs).
pub(crate) fn flow_fingerprint(network: &Network, key: &ChoiceKey) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u64(network.structural_fingerprint());
    fp.write_str(&format!("{key:?}"));
    fp.finish()
}

/// Rough heap footprint of a network for cache accounting: nodes, outputs
/// and the structural-hash table (~one entry per gate).
fn network_bytes(net: &Network) -> usize {
    net.len() * (std::mem::size_of::<mch_logic::Node>() + 48) + std::mem::size_of_val(net.outputs())
}

/// Per-mapper prepared state, keyed by everything its preparation phase
/// reads. `cut_limit` is the **post-`shrink_cut_limit`** value, so budgeted
/// and unbudgeted variants never share a cut set they shouldn't.
struct AsicKey {
    ranking: CutCost,
    cut_limit: usize,
    library: Library,
}

struct LutKey {
    ranking: CutCost,
    cut_limit: usize,
    lut: LutLibrary,
}

/// The fusion guide's cut set is shaped by the LUT objective (it picks the
/// guide's ASIC ranking — see `mch_mapper::prepare_fusion_guide`), not by the
/// LUT ranking.
struct GuideKey {
    objective: MappingObjective,
    cut_limit: usize,
    library: Library,
}

/// Lazily grown prepared cover state of one flow, one entry per distinct
/// mapper configuration seen so far.
#[derive(Default)]
struct PreparedMappers {
    asic: Vec<(AsicKey, Arc<PreparedCover<MatchCandidate>>)>,
    lut: Vec<(LutKey, Arc<PreparedCover<LutCandidate>>)>,
    guide: Vec<(GuideKey, Arc<PreparedCover<MatchCandidate>>)>,
}

/// The reusable, params-independent artifact of one `(network, choice
/// config)` pair: the built choice network plus lazily-built prepared covers
/// per mapper configuration (see the module docs).
///
/// Shareable across threads: the choice network is immutable after
/// construction, and the mapper states grow under an internal mutex — the
/// mutex is only ever taken by flow coordinator threads, never by pool
/// workers, so holding it across a (pool-parallel) preparation cannot
/// deadlock; it merely serialises duplicate builds of the same state.
#[derive(Debug)]
pub struct PreparedFlow {
    network: Network,
    key: ChoiceKey,
    fingerprint: u64,
    choices: ChoiceNetwork,
    mappers: Mutex<PreparedMappers>,
    /// Running [`approx_bytes`](PreparedFlow::approx_bytes) total: each
    /// mapper state is added once, when it is built.
    bytes: AtomicUsize,
}

impl std::fmt::Debug for PreparedMappers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMappers")
            .field("asic", &self.asic.len())
            .field("lut", &self.lut.len())
            .field("guide", &self.guide.len())
            .finish()
    }
}

impl PreparedFlow {
    /// Builds the artifact: choice construction (identical to the cold flow
    /// path — [`build_flow_choices`] with the same config and shared NPN
    /// store), mapper states deferred until first use. `config` must be the
    /// post-degradation config `key`/`fingerprint` were derived from.
    pub(crate) fn build(
        network: &Network,
        config: &MchConfig,
        key: ChoiceKey,
        fingerprint: u64,
        shared_npn: Option<&Arc<SharedNpnCache>>,
    ) -> Self {
        let choices = build_flow_choices(network, config, shared_npn);
        let bytes =
            network_bytes(network) + network_bytes(choices.network()) + choices.choice_count() * 16;
        PreparedFlow {
            network: network.clone(),
            key,
            fingerprint,
            choices,
            mappers: Mutex::new(PreparedMappers::default()),
            bytes: AtomicUsize::new(bytes),
        }
    }

    /// The built choice network.
    pub fn choices(&self) -> &ChoiceNetwork {
        &self.choices
    }

    /// The cache index of this artifact: the structural fingerprint of its
    /// `(Network, ChoiceKey)` pair.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Full-equality verification behind every fingerprint match: the stored
    /// network and choice key must equal the requester's exactly.
    pub(crate) fn matches(&self, network: &Network, key: &ChoiceKey) -> bool {
        self.key == *key && self.network == *network
    }

    fn lock_mappers(&self) -> std::sync::MutexGuard<'_, PreparedMappers> {
        self.mappers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The ASIC prepared cover for `(params.cut_ranking, params.cut_limit,
    /// library)`, building it on first use.
    fn asic_state(
        &self,
        library: &Library,
        params: &AsicMapParams,
    ) -> Arc<PreparedCover<MatchCandidate>> {
        let mut mappers = self.lock_mappers();
        if let Some((_, prep)) = mappers.asic.iter().find(|(k, _)| {
            k.ranking == params.cut_ranking
                && k.cut_limit == params.cut_limit
                && k.library == *library
        }) {
            return Arc::clone(prep);
        }
        let prep = Arc::new(prepare_asic_cover(&self.choices, library, params));
        self.bytes.fetch_add(
            prep.approx_bytes(MatchCandidate::approx_bytes),
            Ordering::Relaxed,
        );
        mappers.asic.push((
            AsicKey {
                ranking: params.cut_ranking,
                cut_limit: params.cut_limit,
                library: library.clone(),
            },
            Arc::clone(&prep),
        ));
        prep
    }

    fn lut_state(
        &self,
        lut: &LutLibrary,
        params: &LutMapParams,
    ) -> Arc<PreparedCover<LutCandidate>> {
        let mut mappers = self.lock_mappers();
        if let Some((_, prep)) = mappers.lut.iter().find(|(k, _)| {
            k.ranking == params.cut_ranking && k.cut_limit == params.cut_limit && k.lut == *lut
        }) {
            return Arc::clone(prep);
        }
        let prep = Arc::new(prepare_lut_cover(&self.choices, lut, params));
        self.bytes.fetch_add(
            prep.approx_bytes(LutCandidate::approx_bytes),
            Ordering::Relaxed,
        );
        mappers.lut.push((
            LutKey {
                ranking: params.cut_ranking,
                cut_limit: params.cut_limit,
                lut: *lut,
            },
            Arc::clone(&prep),
        ));
        prep
    }

    fn guide_state(
        &self,
        library: &Library,
        params: &LutMapParams,
    ) -> Arc<PreparedCover<MatchCandidate>> {
        let mut mappers = self.lock_mappers();
        if let Some((_, prep)) = mappers.guide.iter().find(|(k, _)| {
            k.objective == params.objective
                && k.cut_limit == params.cut_limit
                && k.library == *library
        }) {
            return Arc::clone(prep);
        }
        let prep = Arc::new(prepare_fusion_guide(&self.choices, library, params));
        self.bytes.fetch_add(
            prep.approx_bytes(MatchCandidate::approx_bytes),
            Ordering::Relaxed,
        );
        mappers.guide.push((
            GuideKey {
                objective: params.objective,
                cut_limit: params.cut_limit,
                library: library.clone(),
            },
            Arc::clone(&prep),
        ));
        prep
    }

    /// The covering phase of the ASIC flow over this artifact. Byte-identical
    /// to `map_asic(self.choices(), library, params)`.
    pub(crate) fn map_asic(&self, library: &Library, params: &AsicMapParams) -> CellNetlist {
        let prep = self.asic_state(library, params);
        map_asic_prepared(&self.choices, library, &prep, params)
    }

    /// The covering phase of the LUT flow over this artifact: byte-identical
    /// to `map_lut(self.choices(), lut, params)`, or with a `guide` library
    /// to `map_lut_fused(self.choices(), lut, guide, params)`. The guide state
    /// is built only when a guide is given and `params.fusion` is enabled.
    pub(crate) fn map_lut(
        &self,
        lut: &LutLibrary,
        guide: Option<&Library>,
        params: &LutMapParams,
    ) -> LutNetlist {
        let lut_prep = self.lut_state(lut, params);
        match guide {
            Some(library) if params.fusion.is_enabled() => {
                let guide_prep = self.guide_state(library, params);
                map_lut_fused_prepared(&self.choices, lut, library, params, &lut_prep, &guide_prep)
            }
            _ => map_lut_prepared(&self.choices, lut, &lut_prep, params),
        }
    }

    /// Approximate heap footprint in bytes: the stored network, the choice
    /// network and every prepared mapper state (cut arenas plus candidate
    /// skeletons — by far the dominant terms). A running total: each mapper
    /// state is counted once when it is built, since covers never change
    /// afterwards.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

struct CacheEntry {
    fingerprint: u64,
    flow: Arc<PreparedFlow>,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    stamp: u64,
}

/// A bounded, strict-LRU cache of [`PreparedFlow`]s with byte-size
/// accounting (see the module docs).
///
/// Every lookup that matches a fingerprint re-verifies full network + key
/// equality before handing the artifact out. Artifacts grow after insertion
/// (mapper states are built lazily by the flows using them), so the byte
/// bound is enforced at two points: on every insert, and after every flow's
/// mapping call that ran with this cache attached. Between those points a
/// flow that is still mapping may hold the total above the capacity by the
/// states it is building; once every flow is done, `bytes() <=
/// capacity_bytes()`. Eviction always counts each artifact at its current
/// size. The hit/miss/eviction counters are cross-job telemetry: like the
/// shared NPN store's, they depend on scheduling — outputs never do.
#[derive(Debug)]
pub struct PreparedFlowCache {
    max_bytes: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl PreparedFlowCache {
    /// Default capacity of a service's warm-start cache (256 MiB) — a few
    /// dozen medium circuits' artifacts; see `docs/PERFORMANCE.md` for sizing
    /// guidance.
    pub const DEFAULT_CAPACITY_BYTES: usize = 256 << 20;

    /// Creates a cache holding at most `max_bytes` of estimated artifact
    /// bytes. `0` disables the cache: every lookup misses, nothing is stored.
    pub fn new(max_bytes: usize) -> Self {
        PreparedFlowCache {
            max_bytes,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.max_bytes > 0
    }

    /// The configured capacity in (estimated) bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Number of cached artifacts.
    pub fn entries(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// Estimated bytes currently held (each artifact at its current size —
    /// artifacts grow as mapper states are added).
    pub fn bytes(&self) -> usize {
        self.lock_inner()
            .entries
            .iter()
            .map(|e| e.flow.approx_bytes())
            .sum()
    }

    /// Lookups served from the cache since creation (telemetry; scheduling-
    /// dependent, see the type docs).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no verified entry since creation.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts evicted by the byte bound since creation.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a verified artifact for `(fingerprint, network, key)` and
    /// refreshes its LRU stamp. The `cache::prepared_hit` failpoint fires at
    /// entry, before any state is read or touched.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        network: &Network,
        key: &ChoiceKey,
    ) -> Option<Arc<PreparedFlow>> {
        mch_logic::failpoint!("cache::prepared_hit");
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.lock_inner();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint && e.flow.matches(network, key))
        {
            entry.last_used = stamp;
            let flow = Arc::clone(&entry.flow);
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(flow);
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts an artifact and evicts least-recently-used entries while the
    /// estimated total exceeds the capacity — possibly including the one just
    /// inserted (the caller keeps its `Arc`, so its own job is unaffected).
    /// A duplicate of an already-cached artifact is dropped, keeping the
    /// incumbent. The `cache::prepared_insert` failpoint fires at entry,
    /// before any mutation.
    pub(crate) fn insert(&self, flow: Arc<PreparedFlow>) {
        mch_logic::failpoint!("cache::prepared_insert");
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock_inner();
        if inner.entries.iter().any(|e| {
            e.fingerprint == flow.fingerprint() && e.flow.matches(&flow.network, &flow.key)
        }) {
            return;
        }
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.entries.push(CacheEntry {
            fingerprint: flow.fingerprint(),
            flow,
            last_used: stamp,
        });
        drop(inner);
        self.trim();
    }

    /// Evicts least-recently-used entries while the estimated total exceeds
    /// the capacity. Runs on every insert and again after every flow's
    /// mapping call, which may have grown its entry by a mapper state; the
    /// per-entry figures are running totals, so a trim costs one pass over
    /// the entries.
    pub(crate) fn trim(&self) {
        let mut inner = self.lock_inner();
        while inner
            .entries
            .iter()
            .map(|e| e.flow.approx_bytes())
            .sum::<usize>()
            > self.max_bytes
        {
            let Some(lru) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            inner.entries.remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`lookup`](Self::lookup) with fault containment: an injected panic
    /// (the `cache::prepared_hit` failpoint) degrades to a miss, and the
    /// caller builds cold — byte-identical output, no error surfaced.
    pub(crate) fn lookup_contained(
        &self,
        fingerprint: u64,
        network: &Network,
        key: &ChoiceKey,
    ) -> Option<Arc<PreparedFlow>> {
        catch_unwind(AssertUnwindSafe(|| self.lookup(fingerprint, network, key)))
            .ok()
            .flatten()
    }

    /// [`insert`](Self::insert) with fault containment: an injected panic
    /// (the `cache::prepared_insert` failpoint) skips the insert — the job
    /// already holds its artifact, only future warm starts are lost.
    pub(crate) fn insert_contained(&self, flow: Arc<PreparedFlow>) {
        let _ = catch_unwind(AssertUnwindSafe(|| self.insert(flow)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_benchmarks::demo_adder_gt;

    fn build_prepared(network: &Network, config: &MchConfig) -> Arc<PreparedFlow> {
        let key = ChoiceKey::from_config(config);
        let fingerprint = flow_fingerprint(network, &key);
        Arc::new(PreparedFlow::build(network, config, key, fingerprint, None))
    }

    #[test]
    fn lookup_hits_on_equal_inputs_and_misses_on_different_keys() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(PreparedFlowCache::DEFAULT_CAPACITY_BYTES);
        cache.insert(Arc::clone(&flow));
        assert_eq!(cache.entries(), 1);

        let key = ChoiceKey::from_config(&config);
        let hit = cache
            .lookup(flow_fingerprint(&net, &key), &net, &key)
            .expect("equal inputs must hit");
        assert!(
            Arc::ptr_eq(&hit, &flow),
            "the hit must be the stored artifact"
        );

        // A config differing in a choice-relevant field misses...
        let other = ChoiceKey::from_config(&MchConfig::balanced());
        assert!(cache
            .lookup(flow_fingerprint(&net, &other), &net, &other)
            .is_none());
        // ...but one differing only in thread count normalises to the same key.
        let threaded = ChoiceKey::from_config(&config.clone().with_threads(7));
        assert_eq!(key, threaded);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn duplicate_inserts_keep_the_incumbent() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let first = build_prepared(&net, &config);
        let second = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(PreparedFlowCache::DEFAULT_CAPACITY_BYTES);
        cache.insert(Arc::clone(&first));
        cache.insert(second);
        assert_eq!(cache.entries(), 1);
        let key = ChoiceKey::from_config(&config);
        let hit = cache
            .lookup(flow_fingerprint(&net, &key), &net, &key)
            .expect("hit");
        assert!(Arc::ptr_eq(&hit, &first));
    }

    #[test]
    fn byte_bound_evicts_least_recently_used_first() {
        let net = demo_adder_gt();
        let a = build_prepared(&net, &MchConfig::lut_area());
        let b = build_prepared(&net, &MchConfig::balanced());
        // A capacity that holds exactly one artifact of this size.
        let cache = PreparedFlowCache::new(a.approx_bytes() + b.approx_bytes() / 2);
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.evictions(), 1);
        // `a` (older stamp) was the one evicted.
        let key_b = ChoiceKey::from_config(&MchConfig::balanced());
        assert!(cache.lookup(b.fingerprint(), &net, &key_b).is_some());
        let key_a = ChoiceKey::from_config(&MchConfig::lut_area());
        assert!(cache.lookup(a.fingerprint(), &net, &key_a).is_none());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let cache = PreparedFlowCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(Arc::clone(&flow));
        assert_eq!((cache.entries(), cache.bytes()), (0, 0));
        let key = ChoiceKey::from_config(&config);
        assert!(cache.lookup(flow.fingerprint(), &net, &key).is_none());
    }

    #[test]
    fn prepared_footprint_grows_with_mapper_state() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area();
        let flow = build_prepared(&net, &config);
        let before = flow.approx_bytes();
        assert!(before > 0);
        let lut = mch_techlib::LutLibrary::k6();
        let params = LutMapParams::new(config.objective);
        let _ = flow.map_lut(&lut, None, &params);
        assert!(
            flow.approx_bytes() > before,
            "building the LUT prepared state must grow the accounted footprint"
        );
    }

    #[test]
    fn mapping_growth_is_trimmed_back_under_the_capacity() {
        let net = demo_adder_gt();
        let config = MchConfig::lut_area().with_threads(1);
        let bare = build_prepared(&net, &config).approx_bytes();
        // Admits the bare flow at insert time, but not once the job has
        // grown it by its LUT mapper state.
        let service = crate::MappingService::new().with_prepared_capacity(bare);
        let lut = mch_techlib::LutLibrary::k6();
        let report = service.run(crate::Job::lut("grow", net, lut, config));
        assert!(report.outcome.expect("flow failed").verified());
        let stats = service.stats();
        assert!(
            stats.prepared_bytes <= bare,
            "cache holds {} bytes against a capacity of {bare}",
            stats.prepared_bytes
        );
        assert_eq!((stats.prepared_misses, stats.prepared_evictions), (1, 1));
    }
}
