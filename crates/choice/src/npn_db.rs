//! A lazily-built NPN class database of candidate structures.
//!
//! The paper's level-oriented strategy is driven by a "4-input NPN library":
//! every cut function is reduced to its NPN class, the class representative is
//! synthesised once, and the resulting structure is replayed for every
//! occurrence with the appropriate input permutation and polarities. This
//! database generalises that idea to every (strategy, representation) pair the
//! MCH construction uses.
//!
//! # Plan/commit split
//!
//! Emission is split into a read-only **plan** half and a mutating **commit**
//! half so the parallel MCH construction can run the expensive part on worker
//! threads:
//!
//! * [`NpnDatabase::plan`] canonicalises the function and synthesises the
//!   class representative if neither the shared database (read through
//!   `&self`) nor the worker-local [`NpnPlanCache`] has it — no shared state
//!   is touched;
//! * [`NpnDatabase::commit`] replays a plan into the target network on the
//!   coordinating thread, merging worker-local misses into the shared cache.
//!   Because plans are committed in node-id order and
//!   [`synthesize`] is a pure function of the class key, the database
//!   contents and its hit/miss statistics end up identical to a serial run,
//!   whatever the thread count.
//!
//! [`NpnDatabase::emit`] is the fused serial form: plan immediately followed
//! by commit.
//!
//! # Cross-job sharing
//!
//! A batched mapping service runs many flows concurrently, and most of their
//! cut functions fall into the same handful of NPN classes. A
//! [`SharedNpnCache`] is the service-wide second tier behind any number of
//! per-job databases: [`NpnDatabase::with_shared`] routes every class
//! synthesis through the shared store, so a class is synthesised **once per
//! process** instead of once per job. Because [`synthesize`] is a pure
//! function of the class key, whichever job wins the insert race stores
//! exactly the network every other job would have stored — sharing can never
//! change an emitted structure. The per-job database keeps counting its own
//! hits and misses against its own cache in its own commit order, so per-job
//! statistics are byte-identical to a solo run whatever else is in flight.

use crate::strategies::{claim_subnetwork, import_subnetwork, synthesize, SynthesisStrategy};
use mch_logic::{
    npn_semi_canonical, ClaimLog, Network, NetworkKind, NpnCanonical, ShardedStrash,
    Signal, TruthTable,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// The key of one cached candidate structure: the NPN class representative
/// plus the strategy and representation it was synthesised with.
type ClassKey = (TruthTable, SynthesisStrategy, NetworkKind);

/// Worker-local spill-over cache used while planning: classes that were
/// missing from the shared [`NpnDatabase`] at plan time, synthesised on the
/// worker and shipped with the plan for the coordinator to merge at commit.
///
/// One scratch cache per worker; it persists across planned nodes so a worker
/// synthesises each class at most once even before the shared database has
/// been warmed by a commit.
#[derive(Clone, Debug, Default)]
pub struct NpnPlanCache {
    synthesized: HashMap<ClassKey, Network>,
}

impl NpnPlanCache {
    /// Creates an empty plan cache.
    pub fn new() -> Self {
        NpnPlanCache::default()
    }

    /// Number of classes this worker synthesised locally.
    pub fn len(&self) -> usize {
        self.synthesized.len()
    }

    /// Returns `true` if no class has been synthesised locally.
    pub fn is_empty(&self) -> bool {
        self.synthesized.is_empty()
    }
}

/// A planned candidate emission: canonicalisation done, class representative
/// available, leaves already permuted and complemented per the NPN transform.
/// Produced by [`NpnDatabase::plan`] on any thread; replayed into a network
/// by [`NpnDatabase::commit`] on the coordinating thread.
#[derive(Clone, Debug)]
pub struct NpnPlan {
    kind: PlanKind,
}

#[derive(Clone, Debug)]
enum PlanKind {
    /// Degenerate constant function — no gates, no cache traffic.
    Constant(Signal),
    /// A planned class replay (boxed: the class payload dwarfs the constant
    /// variant).
    Class(Box<PlanClass>),
}

#[derive(Clone, Debug)]
struct PlanClass {
    key: ClassKey,
    /// The synthesised class network when the planning thread had to build
    /// it (first local encounter of a class the shared database did not
    /// hold). `None` when either cache already had it; the commit
    /// re-synthesises on demand in the (rare) case the shared database
    /// still lacks the class — the result is identical either way because
    /// [`synthesize`] is pure.
    synthesized: Option<Network>,
    /// `leaves[perm[i]] ^ neg_i` — the signal driving canonical input `i`.
    bound: Vec<Signal>,
    /// Whether the canonical output is complemented w.r.t. the function.
    output_neg: bool,
}

/// A plan whose structure has additionally been claimed against a
/// [`ShardedStrash`] on a worker thread: the claim log plus the (possibly
/// provisional) output signal, carried together with the plan so the
/// coordinator can still do the cache bookkeeping.
///
/// Produced by [`NpnDatabase::claim`]; resolved into a network by
/// [`NpnDatabase::commit_claim`].
#[derive(Clone, Debug)]
pub struct NpnClaim {
    plan: NpnPlan,
    log: ClaimLog,
    out: Signal,
}

/// A process-wide, read-mostly store of synthesised class networks shared
/// across concurrent mapping jobs (the second cache tier behind per-job
/// [`NpnDatabase`]s — see the module docs).
///
/// Reads take the lock briefly and clone the cached network; a miss
/// synthesises outside the lock and inserts first-writer-wins. The hit/miss
/// counters are service-level throughput telemetry: they depend on job
/// interleaving and are **not** deterministic — per-job determinism lives in
/// the per-job [`NpnDatabase`] counters, which never observe this store.
#[derive(Default)]
pub struct SharedNpnCache {
    store: RwLock<HashMap<ClassKey, Network>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SharedNpnCache {
    /// Creates an empty shared store.
    pub fn new() -> Self {
        SharedNpnCache::default()
    }

    /// Number of distinct (class, strategy, representation) entries stored.
    pub fn classes(&self) -> usize {
        self.store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Syntheses served from the shared store instead of recomputed
    /// (cross-job telemetry; not deterministic).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Class syntheses actually performed through this store.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the class network for `key`, synthesising and publishing it on
    /// first use. Pure in the value: every caller gets a network identical to
    /// a private synthesis.
    fn fetch_or_synthesize(&self, key: &ClassKey) -> Network {
        if let Some(net) = self
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return net.clone();
        }
        // Synthesise outside the lock; ties are benign because the value is a
        // pure function of the key (never-overwrite keeps the first insert).
        let net = synthesize(&key.0, key.2, key.1);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut store = self.store.write().unwrap_or_else(PoisonError::into_inner);
        store.entry(key.clone()).or_insert(net).clone()
    }
}

impl fmt::Debug for SharedNpnCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedNpnCache")
            .field("classes", &self.classes())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// Cache of synthesised canonical structures keyed by NPN class.
#[derive(Clone, Debug, Default)]
pub struct NpnDatabase {
    cache: HashMap<ClassKey, Network>,
    hits: usize,
    misses: usize,
    shared: Option<Arc<SharedNpnCache>>,
}

impl NpnDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        NpnDatabase::default()
    }

    /// Creates an empty per-job database backed by a service-wide
    /// [`SharedNpnCache`]: every class synthesis is routed through the shared
    /// store, while all hit/miss bookkeeping stays local to this database (so
    /// per-job statistics match a solo run exactly — see the module docs).
    pub fn with_shared(shared: Arc<SharedNpnCache>) -> Self {
        NpnDatabase {
            shared: Some(shared),
            ..NpnDatabase::default()
        }
    }

    /// Synthesises the class representative for `key`, going through the
    /// shared store when one is attached. Identical output either way:
    /// [`synthesize`] is pure.
    fn synthesize_class(&self, key: &ClassKey) -> Network {
        match &self.shared {
            Some(shared) => shared.fetch_or_synthesize(key),
            None => synthesize(&key.0, key.2, key.1),
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of classes synthesised so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct (class, strategy, kind) entries stored.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` if no class has been synthesised yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The NPN canonical form the database keys by: exact canonicalisation up
    /// to five variables, the cheaper semi-canonical form above (the split
    /// [`npn_semi_canonical`] makes).
    ///
    /// Exposed so callers planning several emissions of the *same* function
    /// (one per strategy entry) can canonicalise once and reuse the result
    /// through [`plan_with_canon`](NpnDatabase::plan_with_canon).
    pub fn canonicalize(function: &TruthTable) -> NpnCanonical {
        npn_semi_canonical(function)
    }

    /// Plans the emission of `function` over `leaves` without touching the
    /// database: canonicalise, then synthesise the class representative
    /// unless the shared database (`&self`) or the worker-local `scratch`
    /// already holds it.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != function.num_vars()`.
    pub fn plan(
        &self,
        function: &TruthTable,
        leaves: &[Signal],
        kind: NetworkKind,
        strategy: SynthesisStrategy,
        scratch: &mut NpnPlanCache,
    ) -> NpnPlan {
        assert_eq!(leaves.len(), function.num_vars(), "one leaf per variable");
        // Degenerate cases never go through the cache.
        if function.is_const0() {
            return NpnPlan {
                kind: PlanKind::Constant(Signal::CONST0),
            };
        }
        if function.is_const1() {
            return NpnPlan {
                kind: PlanKind::Constant(Signal::CONST1),
            };
        }
        let canon = Self::canonicalize(function);
        self.plan_with_canon(&canon, leaves, kind, strategy, scratch)
    }

    /// Like [`plan`](NpnDatabase::plan) but over a pre-computed canonical
    /// form, so one canonicalisation can serve several (strategy, kind)
    /// entries. The caller must have filtered out constant functions.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` differs from the canonical form's variable
    /// count.
    pub fn plan_with_canon(
        &self,
        canon: &NpnCanonical,
        leaves: &[Signal],
        kind: NetworkKind,
        strategy: SynthesisStrategy,
        scratch: &mut NpnPlanCache,
    ) -> NpnPlan {
        let t = &canon.transform;
        assert_eq!(leaves.len(), t.perm.len(), "one leaf per variable");
        let key = (canon.representative.clone(), strategy, kind);
        let synthesized = if self.cache.contains_key(&key)
            || scratch.synthesized.contains_key(&key)
        {
            None
        } else {
            let net = self.synthesize_class(&key);
            scratch.synthesized.insert(key.clone(), net.clone());
            Some(net)
        };
        // canonical(y) = f(x) ^ out  with  y_i = x_{perm[i]} ^ neg_i, therefore
        // f(x) = canonical(y) ^ out when canonical input i is driven by
        // leaves[perm[i]] ^ neg_i.
        let bound: Vec<Signal> = (0..leaves.len())
            .map(|i| leaves[t.perm[i]].xor_complement(t.input_neg & (1 << i) != 0))
            .collect();
        NpnPlan {
            kind: PlanKind::Class(Box::new(PlanClass {
                key,
                synthesized,
                bound,
                output_neg: t.output_neg,
            })),
        }
    }

    /// Replays a plan into `target`, merging a worker-synthesised class into
    /// the shared cache when the database does not hold it yet, and returns
    /// the candidate's output signal.
    ///
    /// Hit/miss statistics are counted here — in commit order — so a
    /// parallel plan phase followed by id-ordered commits reports exactly
    /// the numbers a serial run would.
    pub fn commit(&mut self, target: &mut Network, plan: NpnPlan) -> Signal {
        match plan.kind {
            PlanKind::Constant(sig) => sig,
            PlanKind::Class(class) => {
                let PlanClass {
                    key,
                    synthesized,
                    bound,
                    output_neg,
                } = *class;
                if !self.cache.contains_key(&key) {
                    let net = match synthesized {
                        Some(net) => net,
                        None => self.synthesize_class(&key),
                    };
                    self.cache.insert(key.clone(), net);
                    self.misses += 1;
                } else {
                    self.hits += 1;
                }
                let canonical_net = self.cache.get(&key).expect("class just ensured");
                let out = import_subnetwork(target, canonical_net, &bound);
                out.xor_complement(output_neg)
            }
        }
    }

    /// Claims a plan's structure against `table` on a worker thread, probing
    /// and reserving strash buckets instead of mutating the target network.
    ///
    /// The class network is resolved read-only: from the plan itself (first
    /// local encounter), else from the worker's `scratch`, else from the
    /// shared database — by [`plan`](NpnDatabase::plan)'s contract one of the
    /// three always holds it. No statistics are counted here; hit/miss
    /// bookkeeping happens in [`commit_claim`](NpnDatabase::commit_claim), in
    /// commit order, exactly as in the unclaimed path.
    pub fn claim(&self, plan: NpnPlan, table: &ShardedStrash, scratch: &NpnPlanCache) -> NpnClaim {
        let mut log = ClaimLog::new();
        let out = match &plan.kind {
            PlanKind::Constant(sig) => *sig,
            PlanKind::Class(class) => {
                let net = class
                    .synthesized
                    .as_ref()
                    .or_else(|| scratch.synthesized.get(&class.key))
                    .or_else(|| self.cache.get(&class.key))
                    .expect("planned class present in plan, scratch or shared cache");
                let raw = claim_subnetwork(table, net, &class.bound, &mut log);
                raw.xor_complement(class.output_neg)
            }
        };
        NpnClaim { plan, log, out }
    }

    /// The claim-side twin of [`commit`](NpnDatabase::commit): does the same
    /// cache bookkeeping, then links the claim's reservations into `target`
    /// and returns the resolved output signal.
    ///
    /// `target` must be inside the commit batch the claim was made against.
    pub fn commit_claim(&mut self, target: &mut Network, claim: NpnClaim) -> Signal {
        let NpnClaim { plan, log, out } = claim;
        match plan.kind {
            PlanKind::Constant(sig) => sig,
            PlanKind::Class(class) => {
                let PlanClass {
                    key, synthesized, ..
                } = *class;
                if !self.cache.contains_key(&key) {
                    let net = match synthesized {
                        Some(net) => net,
                        None => self.synthesize_class(&key),
                    };
                    self.cache.insert(key, net);
                    self.misses += 1;
                } else {
                    self.hits += 1;
                }
                target.link_claims(&log);
                target.resolve_claim(out)
            }
        }
    }

    /// Emits a candidate structure computing `function` over `leaves` into
    /// `target`, synthesising the function's NPN class representative on first
    /// use and replaying it afterwards — the fused serial form of
    /// [`plan`](NpnDatabase::plan) + [`commit`](NpnDatabase::commit).
    ///
    /// Returns the candidate's output signal in `target`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != function.num_vars()`.
    pub fn emit(
        &mut self,
        target: &mut Network,
        function: &TruthTable,
        leaves: &[Signal],
        kind: NetworkKind,
        strategy: SynthesisStrategy,
    ) -> Signal {
        let mut scratch = NpnPlanCache::new();
        let plan = self.plan(function, leaves, kind, strategy, &mut scratch);
        self.commit(target, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::output_truth_tables;

    fn check_emit(f: &TruthTable, kind: NetworkKind, strategy: SynthesisStrategy) {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let leaves = host.add_inputs(f.num_vars());
        let out = db.emit(&mut host, f, &leaves, kind, strategy);
        host.add_output(out);
        assert_eq!(&output_truth_tables(&host)[0], f, "{kind:?} {strategy:?}");
    }

    #[test]
    fn emit_reproduces_function_exactly() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let funcs = [
            a.and(&b).or(&c.and(&d)).not(),
            a.xor(&b).xor(&c).and(&d),
            TruthTable::ite(&a, &b, &c.or(&d)),
            TruthTable::maj(&a, &b, &c).xor(&d),
        ];
        for f in &funcs {
            for kind in NetworkKind::homogeneous() {
                check_emit(f, kind, SynthesisStrategy::Decompose);
                check_emit(f, kind, SynthesisStrategy::SopFactor);
            }
        }
    }

    #[test]
    fn exhaustive_three_var_emit() {
        let mut db = NpnDatabase::new();
        for bits in 0..256u64 {
            let f = TruthTable::from_u64(3, bits);
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(3);
            let out = db.emit(
                &mut host,
                &f,
                &leaves,
                NetworkKind::Xmg,
                SynthesisStrategy::Decompose,
            );
            host.add_output(out);
            assert_eq!(output_truth_tables(&host)[0], f, "bits={bits:#x}");
        }
        // 3-variable functions fall into 14 NPN classes; constants bypass the
        // cache, so at most 13 classes are synthesised.
        assert!(db.len() <= 13, "got {} classes", db.len());
        assert!(db.hits() > db.misses());
    }

    #[test]
    fn cache_is_shared_across_equivalent_functions() {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(2);
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let _ = db.emit(&mut host, &a.and(&b), &xs, NetworkKind::Aig, SynthesisStrategy::Decompose);
        let _ = db.emit(&mut host, &a.or(&b), &xs, NetworkKind::Aig, SynthesisStrategy::Decompose);
        let _ = db.emit(
            &mut host,
            &a.and(&b).not(),
            &xs,
            NetworkKind::Aig,
            SynthesisStrategy::Decompose,
        );
        assert_eq!(db.misses(), 1);
        assert_eq!(db.hits(), 2);
    }

    #[test]
    fn emit_handles_wide_functions_via_semi_canonical_forms() {
        // Functions with more than five variables take the semi-canonical
        // path; the emitted structure must still match the function exactly.
        let mut db = NpnDatabase::new();
        for seed in 0..10u64 {
            let n = 6 + (seed as usize % 2);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
            let mut f = TruthTable::zeros(n);
            for i in 0..f.num_bits() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f.set_bit(i, state & 1 == 1);
            }
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(n);
            let out = db.emit(&mut host, &f, &leaves, NetworkKind::Aig, SynthesisStrategy::SopFactor);
            host.add_output(out);
            assert_eq!(output_truth_tables(&host)[0], f, "seed {seed}");
        }
    }

    #[test]
    fn constants_bypass_cache() {
        let mut db = NpnDatabase::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(2);
        let s = db.emit(
            &mut host,
            &TruthTable::ones(2),
            &xs,
            NetworkKind::Aig,
            SynthesisStrategy::SopFactor,
        );
        assert!(s.is_const1());
        assert!(db.is_empty());
    }

    #[test]
    fn planned_and_fused_emission_build_identical_networks() {
        // Plan everything up front against a cold shared database (the
        // threaded schedule), commit in order, and compare against the fused
        // serial emit sequence: networks, signals and hit/miss statistics
        // must be identical.
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let funcs = [
            a.and(&b).or(&c),
            a.xor(&b).and(&c),
            a.and(&b).or(&c), // repeat: second encounter must be a hit
            TruthTable::maj(&a, &b, &c).not(),
        ];

        let mut serial_db = NpnDatabase::new();
        let mut serial_host = Network::new(NetworkKind::Mixed);
        let leaves = serial_host.add_inputs(3);
        let serial_sigs: Vec<Signal> = funcs
            .iter()
            .map(|f| {
                serial_db.emit(
                    &mut serial_host,
                    f,
                    &leaves,
                    NetworkKind::Xag,
                    SynthesisStrategy::Decompose,
                )
            })
            .collect();

        let mut planned_db = NpnDatabase::new();
        let mut planned_host = Network::new(NetworkKind::Mixed);
        let leaves2 = planned_host.add_inputs(3);
        // Two independent "workers" with their own scratch caches, planning
        // interleaved halves — both synthesise the repeated class locally.
        let mut scratch_a = NpnPlanCache::new();
        let mut scratch_b = NpnPlanCache::new();
        let plans: Vec<NpnPlan> = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let scratch = if i % 2 == 0 { &mut scratch_a } else { &mut scratch_b };
                planned_db.plan(f, &leaves2, NetworkKind::Xag, SynthesisStrategy::Decompose, scratch)
            })
            .collect();
        let planned_sigs: Vec<Signal> = plans
            .into_iter()
            .map(|p| planned_db.commit(&mut planned_host, p))
            .collect();

        assert_eq!(serial_sigs, planned_sigs);
        assert_eq!(serial_host, planned_host);
        assert_eq!(serial_db.hits(), planned_db.hits());
        assert_eq!(serial_db.misses(), planned_db.misses());
        assert_eq!(serial_db.len(), planned_db.len());
        assert!(!scratch_a.is_empty() || !scratch_b.is_empty());
    }

    #[test]
    fn claimed_and_fused_emission_build_identical_networks() {
        // plan → claim (worker) → commit_claim (coordinator) against a
        // batched host must match the fused serial emit byte for byte:
        // networks, signals, statistics.
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let funcs = [
            a.and(&b).or(&c),
            a.xor(&b).and(&c),
            a.and(&b).or(&c), // repeat: hit, and a pure strash replay
            TruthTable::maj(&a, &b, &c).not(),
            TruthTable::zeros(3), // constant: bypasses cache and strash
        ];

        let mut serial_db = NpnDatabase::new();
        let mut serial_host = Network::new(NetworkKind::Mixed);
        let leaves = serial_host.add_inputs(3);
        let serial_sigs: Vec<Signal> = funcs
            .iter()
            .map(|f| {
                serial_db.emit(
                    &mut serial_host,
                    f,
                    &leaves,
                    NetworkKind::Xag,
                    SynthesisStrategy::Decompose,
                )
            })
            .collect();

        let mut claimed_db = NpnDatabase::new();
        let mut claimed_host = Network::new(NetworkKind::Mixed);
        let leaves2 = claimed_host.add_inputs(3);
        let table = claimed_host.begin_commit_batch();
        let mut scratch = NpnPlanCache::new();
        let claims: Vec<NpnClaim> = funcs
            .iter()
            .map(|f| {
                let plan = claimed_db.plan(
                    f,
                    &leaves2,
                    NetworkKind::Xag,
                    SynthesisStrategy::Decompose,
                    &mut scratch,
                );
                claimed_db.claim(plan, &table, &scratch)
            })
            .collect();
        let claimed_sigs: Vec<Signal> = claims
            .into_iter()
            .map(|cl| claimed_db.commit_claim(&mut claimed_host, cl))
            .collect();
        claimed_host.end_commit_batch();

        assert_eq!(serial_sigs, claimed_sigs);
        assert_eq!(serial_host, claimed_host);
        assert_eq!(serial_db.hits(), claimed_db.hits());
        assert_eq!(serial_db.misses(), claimed_db.misses());
        assert_eq!(serial_db.len(), claimed_db.len());
    }

    #[test]
    fn shared_cache_changes_neither_networks_nor_local_statistics() {
        // Two "jobs" over the same functions: a private database versus two
        // databases behind one shared store (the second warmed by the first).
        // Emitted networks and per-job hit/miss statistics must be identical
        // in all three runs; only the shared store's own telemetry may see
        // cross-job hits.
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let funcs = [
            a.and(&b).or(&c),
            a.xor(&b).and(&c),
            a.and(&b).or(&c),
            TruthTable::maj(&a, &b, &c).not(),
        ];

        let run = |mut db: NpnDatabase| {
            let mut host = Network::new(NetworkKind::Mixed);
            let leaves = host.add_inputs(3);
            for f in &funcs {
                let s = db.emit(&mut host, f, &leaves, NetworkKind::Xag, SynthesisStrategy::Decompose);
                host.add_output(s);
            }
            (host, db.hits(), db.misses(), db.len())
        };

        let solo = run(NpnDatabase::new());
        let shared = Arc::new(SharedNpnCache::new());
        let first = run(NpnDatabase::with_shared(Arc::clone(&shared)));
        let second = run(NpnDatabase::with_shared(Arc::clone(&shared)));

        assert_eq!(solo, first, "cold shared store must be invisible");
        assert_eq!(solo, second, "warm shared store must be invisible");
        // The second job's syntheses were all served from the shared store.
        assert_eq!(shared.misses(), solo.3);
        assert!(shared.hits() >= solo.3);
        assert_eq!(shared.classes(), solo.3);
    }

    #[test]
    fn commit_resynthesises_when_a_plan_ships_no_network() {
        // A plan whose class came from the worker-local scratch ships no
        // network; committing it against a database that never saw the class
        // must fall back to a fresh synthesis and still be correct.
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = a.and(&b);
        let db_for_planning = NpnDatabase::new();
        let mut scratch = NpnPlanCache::new();
        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(2);
        // First plan populates the scratch; second plan ships None.
        let _first = db_for_planning.plan(&f, &xs, NetworkKind::Aig, SynthesisStrategy::Decompose, &mut scratch);
        let second = db_for_planning.plan(&f, &xs, NetworkKind::Aig, SynthesisStrategy::Decompose, &mut scratch);
        // Commit `second` into a *fresh* database: the class is nowhere.
        let mut fresh = NpnDatabase::new();
        let out = fresh.commit(&mut host, second);
        host.add_output(out);
        assert_eq!(output_truth_tables(&host)[0], f);
        assert_eq!(fresh.misses(), 1);
    }
}
