//! `GrammarRegistry`: many grammar tenants under one global byte budget.
//!
//! The paper's laziness makes it cheap for parser state to *not* be
//! resident: anything the lazy expander built once, it can build again on
//! demand. One grammar rarely needs that; thousands do. The registry is
//! the multi-tenant serving layer built on exactly that property — a named
//! collection of [`IpgServer`] tenants whose combined **derived** state
//! (item-set chunks, published ACTION/GOTO rows, materialised DFA snapshot
//! states) is kept under a global byte budget by evicting cold tenants
//! back to their cheap persistent grammars.
//!
//! ## Tenancy lifecycle
//!
//! ```text
//!  attach ──> serve ──> cool ──> evict ──> re-lazify ──> serve ...
//!    │          │         │        │           │
//!    │          │         │        │           └ the next request on an
//!    │          │         │        │             evicted tenant rebuilds
//!    │          │         │        │             exactly the chunks it
//!    │          │         │        │             touches (lazy EXPAND)
//!    │          │         │        └ over budget: the clock hand picks the
//!    │          │         │          least-recently-touched tenant and
//!    │          │         │          publishes a cold epoch
//!    │          │         └ a tenant nobody touches just ages; cooling
//!    │          │           costs nothing
//!    │          └ every request touches the tenant's clock position
//!    └ `attach` / `attach_dialect`: dialects fork a base tenant's epoch
//!      copy-on-write, so shared chunks are resident (and counted) once
//! ```
//!
//! ## Residency and eviction semantics
//!
//! | state                    | resident?                        | evictable? | rebuilt by |
//! |--------------------------|----------------------------------|------------|------------|
//! | grammar rule arena       | yes (cheap, persistent)          | no — it is the source of truth | — |
//! | item-set node chunks     | yes, chunk-granular              | yes        | lazy `EXPAND` on first `ACTION`/`GOTO` miss |
//! | published snapshot rows  | yes, chunk-granular              | yes        | row build + publish on next complete state |
//! | DFA row chunks           | yes, chunk-granular              | yes        | lazy subset construction on next scan |
//! | chunks shared by dialects| counted **once** (pointer-keyed) | yes (each fork re-lazifies independently) | per-tenant lazy expansion |
//! | retired pinned epochs    | held by their readers            | freed with their last pin, not by the registry | — |
//!
//! Eviction is **safe by construction**: it publishes a cold epoch of the
//! same grammar ([`IpgServer::relazify`]), so in-flight parses finish on
//! the warm epoch they pinned and later parses rebuild through the same
//! lazy expander that built the evicted state in the first place. An
//! evicted-then-retouched tenant is digest-equivalent to a never-evicted
//! oracle — the `registry_eviction` proptest harness enforces it.
//!
//! ## Accounting
//!
//! Residency is modeled, chunk-granular and pointer-keyed: every tenant
//! reports `(Arc pointer, modeled bytes)` rows
//! ([`IpgServer::chunk_accounting`]) and the registry sums them **deduped
//! by pointer identity**, so a chunk structurally shared by N dialect
//! forks of one base counts once, not N times. The byte model itself is
//! documented at [`crate::graph::ItemSetGraph::resident_bytes`];
//! per-tenant caches are maintained incrementally at intern/COW/publish
//! time, so a budget-enforcement pass is O(total chunks), never O(nodes).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use ipg_grammar::modules::{GrammarModule, NamedSymbol};

use crate::server::IpgServer;
use crate::session::SessionError;
use crate::stats::GenStats;

/// Errors returned by [`GrammarRegistry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// A tenant with this name is already attached.
    DuplicateName(String),
    /// No tenant with this name (for dialect bases) or id.
    UnknownTenant(String),
    /// A dialect's delta rules failed to apply.
    Session(SessionError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(n) => write!(f, "tenant `{n}` already attached"),
            RegistryError::UnknownTenant(n) => write!(f, "unknown tenant `{n}`"),
            RegistryError::Session(e) => write!(f, "dialect rules rejected: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<SessionError> for RegistryError {
    fn from(e: SessionError) -> Self {
        RegistryError::Session(e)
    }
}

/// One attached tenant: a server plus its clock/eviction bookkeeping.
#[derive(Debug)]
struct Tenant {
    name: String,
    server: Arc<IpgServer>,
    /// Logical-clock timestamp of the last touch (request routed here).
    last_touch: AtomicU64,
    /// Set by eviction, cleared by the first post-eviction request; while
    /// set, `after_request` attributes rebuilt chunks to re-lazification.
    evicted: AtomicBool,
    /// Chunk count right after eviction — the baseline the re-lazified
    /// chunk counter is measured against.
    evicted_baseline: AtomicUsize,
}

#[derive(Debug, Default)]
struct RegistryInner {
    by_name: HashMap<String, u32>,
    tenants: Vec<Arc<Tenant>>,
}

/// A named collection of [`IpgServer`] tenants under one global byte
/// budget (see the module docs for lifecycle and semantics).
///
/// `&GrammarRegistry` is `Sync`: the frontend's workers route requests
/// through it concurrently. Attachment takes the registry's write lock;
/// serving takes a momentary read lock plus per-tenant atomics.
#[derive(Debug)]
pub struct GrammarRegistry {
    inner: RwLock<RegistryInner>,
    /// Global budget over the deduped resident bytes of all tenants.
    /// `usize::MAX` disables eviction.
    budget: usize,
    /// Budget-enforcement cadence: one pass per this many completed
    /// requests (an enforcement pass is O(total chunks)).
    sweep_every: usize,
    /// The logical clock: ticks once per routed request.
    clock: AtomicU64,
    /// Completed requests since the last enforcement pass.
    ops_since_sweep: AtomicUsize,
    /// High-water mark of the deduped resident bytes, sampled at every
    /// enforcement pass (the cadence the budget gate is defined over).
    high_water: AtomicUsize,
}

impl GrammarRegistry {
    /// Creates a registry with a global byte budget over the deduped
    /// resident bytes of all tenants, enforced every `sweep_every`
    /// completed requests (clamped to at least 1).
    pub fn new(budget_bytes: usize, sweep_every: usize) -> Self {
        GrammarRegistry {
            inner: RwLock::new(RegistryInner::default()),
            budget: budget_bytes,
            sweep_every: sweep_every.max(1),
            clock: AtomicU64::new(0),
            ops_since_sweep: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// A registry that never evicts (budget `usize::MAX`).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX, usize::MAX)
    }

    /// The global byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of attached tenants.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().tenants.len()
    }

    /// Whether no tenant is attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches a server as a new tenant. Returns the tenant id (dense,
    /// starting at 0 — the wire protocol's tenant field).
    pub fn attach(&self, name: &str, server: IpgServer) -> Result<u32, RegistryError> {
        self.attach_arc(name, Arc::new(server))
    }

    /// [`GrammarRegistry::attach`] for a server that is already shared —
    /// the frontend attaches its pre-existing default server this way
    /// (as tenant 0) without republishing it.
    pub fn attach_shared(
        &self,
        name: &str,
        server: Arc<IpgServer>,
    ) -> Result<u32, RegistryError> {
        self.attach_arc(name, server)
    }

    fn attach_arc(&self, name: &str, server: Arc<IpgServer>) -> Result<u32, RegistryError> {
        let mut inner = self.inner.write().unwrap();
        if inner.by_name.contains_key(name) {
            return Err(RegistryError::DuplicateName(name.to_owned()));
        }
        let id = inner.tenants.len() as u32;
        inner.by_name.insert(name.to_owned(), id);
        inner.tenants.push(Arc::new(Tenant {
            name: name.to_owned(),
            server,
            last_touch: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            evicted: AtomicBool::new(false),
            evicted_baseline: AtomicUsize::new(0),
        }));
        Ok(id)
    }

    /// Attaches a **dialect** of an existing tenant: forks the base
    /// tenant's current epoch copy-on-write (exactly like a `MODIFY`
    /// fork — O(#chunks) `Arc` clones) and applies `delta_bnf` as
    /// added rules. Chunks untouched by the delta stay shared with the
    /// base and are counted once by the registry's deduped accounting,
    /// so N dialects of one base cost ~1 base plus their deltas.
    ///
    /// The dialect starts with a re-lazified copy of the base's scanner
    /// (same token definitions, cold DFA), if the base has one.
    pub fn attach_dialect(
        &self,
        name: &str,
        base: &str,
        delta_bnf: &str,
    ) -> Result<u32, RegistryError> {
        self.attach_forked(name, base, |session| {
            session.add_rule_text(delta_bnf).map(|_| ())
        })
    }

    /// [`GrammarRegistry::attach_dialect`] with the delta given as an SDF
    /// [`GrammarModule`] (the module system of `ipg-grammar`): every rule
    /// of the module — hidden ones included, the module *is* the dialect —
    /// is added to the base fork, symbols interned by name.
    pub fn attach_dialect_module(
        &self,
        name: &str,
        base: &str,
        module: &GrammarModule,
    ) -> Result<u32, RegistryError> {
        self.attach_forked(name, base, |session| {
            for rule in &module.rules {
                let lhs = session.nonterminal(&rule.lhs);
                let rhs = rule
                    .rhs
                    .iter()
                    .map(|s| match s {
                        NamedSymbol::Terminal(n) => session.terminal(n),
                        NamedSymbol::NonTerminal(n) => session.nonterminal(n),
                    })
                    .collect();
                session.add_rule(lhs, rhs);
            }
            Ok(())
        })
    }

    fn attach_forked(
        &self,
        name: &str,
        base: &str,
        delta: impl FnOnce(&mut crate::session::IpgSession) -> Result<(), SessionError>,
    ) -> Result<u32, RegistryError> {
        let base_tenant = self
            .tenant_by_name(base)
            .ok_or_else(|| RegistryError::UnknownTenant(base.to_owned()))?;
        let epoch = base_tenant.server.current_epoch();
        // The CoW fork: clone shares every chunk Arc; the delta below
        // copies-on-write only the chunks its invalidation touches.
        let mut session = epoch.session().clone();
        delta(&mut session)?;
        // The fork inherits the base tenant's default parse budget: a
        // dialect of a contained tenant is contained too.
        let server = crate::server::IpgServer::new(session)
            .with_default_budget(base_tenant.server.default_budget());
        let server = match epoch.scanner() {
            Some(scanner) => server.with_scanner(scanner.relazified()),
            None => server,
        };
        drop(epoch);
        self.attach_arc(name, Arc::new(server))
    }

    fn tenant(&self, id: u32) -> Option<Arc<Tenant>> {
        self.inner.read().unwrap().tenants.get(id as usize).cloned()
    }

    fn tenant_by_name(&self, name: &str) -> Option<Arc<Tenant>> {
        let inner = self.inner.read().unwrap();
        let &id = inner.by_name.get(name)?;
        inner.tenants.get(id as usize).cloned()
    }

    /// The tenant id attached under `name`, if any.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.inner.read().unwrap().by_name.get(name).copied()
    }

    /// The tenant's name, if the id is attached.
    pub fn name_of(&self, id: u32) -> Option<String> {
        self.tenant(id).map(|t| t.name.clone())
    }

    /// Whether the tenant is currently cold — evicted by a budget pass
    /// and not yet retouched. Observability for benches and tests; the
    /// serving path never needs it (evicted tenants serve normally,
    /// rebuilding lazily).
    pub fn is_evicted(&self, id: u32) -> Option<bool> {
        self.tenant(id).map(|t| t.evicted.load(Ordering::Acquire))
    }

    /// Routes a request: touches the tenant's clock position and returns
    /// its server. `None` for unknown ids — the frontend answers `ERROR`
    /// without consuming a worker parse.
    pub fn server(&self, id: u32) -> Option<Arc<IpgServer>> {
        let tenant = self.tenant(id)?;
        tenant
            .last_touch
            .store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Some(tenant.server.clone())
    }

    /// Completes a request on tenant `id`: attributes any post-eviction
    /// rebuild to the re-lazified counter and, on the sweep cadence, runs
    /// a budget-enforcement pass. Call after the request's parse work is
    /// done (the frontend's workers do).
    pub fn after_request(&self, id: u32) {
        if let Some(tenant) = self.tenant(id) {
            if tenant.evicted.swap(false, Ordering::AcqRel) {
                let baseline = tenant.evicted_baseline.load(Ordering::Relaxed);
                let rebuilt = tenant
                    .server
                    .chunk_accounting()
                    .len()
                    .saturating_sub(baseline);
                if rebuilt > 0 {
                    tenant.server.note(|s| s.chunks_relazified += rebuilt);
                }
            }
        }
        if self.ops_since_sweep.fetch_add(1, Ordering::Relaxed) + 1 >= self.sweep_every {
            self.ops_since_sweep.store(0, Ordering::Relaxed);
            self.enforce_budget();
        }
    }

    /// Deduped resident bytes across all tenants: every accounting row is
    /// keyed by its `Arc` pointer, so a chunk shared by several tenants
    /// (dialect forks of one base) is counted exactly once.
    pub fn resident_bytes(&self) -> usize {
        let tenants: Vec<Arc<Tenant>> = self.inner.read().unwrap().tenants.clone();
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for tenant in &tenants {
            for (ptr, bytes) in tenant.server.chunk_accounting() {
                seen.insert(ptr, bytes);
            }
        }
        seen.values().sum()
    }

    /// High-water mark of the deduped resident bytes, sampled at every
    /// budget-enforcement pass.
    pub fn resident_high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// One budget-enforcement pass: while the deduped resident bytes
    /// exceed the budget, the least-recently-touched non-evicted tenant is
    /// re-lazified ([`IpgServer::relazify`]). Each tenant is evicted at
    /// most once per pass; if every tenant is cold-minimal and the total
    /// still exceeds the budget, the pass stops (the floor is the sum of
    /// the persistent grammars, which are not evictable).
    ///
    /// Runs automatically on the `sweep_every` cadence; public so tests
    /// and benches can force a pass.
    pub fn enforce_budget(&self) {
        let tenants: Vec<Arc<Tenant>> = self.inner.read().unwrap().tenants.clone();
        let mut resident = self.resident_bytes();
        self.high_water.fetch_max(resident, Ordering::Relaxed);
        if resident <= self.budget {
            return;
        }
        let mut by_cold: Vec<&Arc<Tenant>> = tenants
            .iter()
            .filter(|t| !t.evicted.load(Ordering::Acquire))
            .collect();
        by_cold.sort_by_key(|t| t.last_touch.load(Ordering::Relaxed));
        for tenant in by_cold {
            if resident <= self.budget {
                break;
            }
            tenant.server.relazify();
            tenant
                .evicted_baseline
                .store(tenant.server.chunk_accounting().len(), Ordering::Relaxed);
            tenant.evicted.store(true, Ordering::Release);
            resident = self.resident_bytes();
        }
        self.high_water.fetch_max(resident, Ordering::Relaxed);
    }

    /// The registry-wide statistics: every tenant's merged server stats
    /// folded together ([`GenStats::merge`]: counters sum, gauges
    /// max-merge), with the residency gauges overwritten by the
    /// **deduped** registry totals — per-tenant gauges double-count
    /// chunks shared between dialect forks; the registry's don't.
    pub fn stats(&self) -> GenStats {
        self.tenant_stats().1
    }

    /// Each tenant's merged server stats as `(id, name, stats)`, in id
    /// order, and the registry-wide totals of [`GrammarRegistry::stats`]
    /// folded from the same reads.
    pub fn tenant_stats(&self) -> (Vec<(u32, String, GenStats)>, GenStats) {
        let tenants: Vec<Arc<Tenant>> = self.inner.read().unwrap().tenants.clone();
        let rows: Vec<(u32, String, GenStats)> = tenants
            .iter()
            .enumerate()
            .map(|(id, t)| (id as u32, t.name.clone(), t.server.stats().merged()))
            .collect();
        let mut total = GenStats::default();
        for (_, _, stats) in &rows {
            total.merge(stats);
        }
        let resident = self.resident_bytes();
        self.high_water.fetch_max(resident, Ordering::Relaxed);
        total.resident_bytes = resident;
        total.resident_high_water = self.high_water.load(Ordering::Relaxed);
        total.tenants_active = tenants.len();
        (rows, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::IpgSession;
    use ipg_grammar::fixtures;

    fn boolean_server() -> IpgServer {
        IpgServer::new(IpgSession::new(fixtures::booleans()))
    }

    #[test]
    fn attach_routes_and_rejects_duplicates_and_unknowns() {
        let registry = GrammarRegistry::unbounded();
        assert!(registry.is_empty());
        let a = registry.attach("alpha", boolean_server()).unwrap();
        let b = registry.attach("beta", boolean_server()).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.id_of("beta"), Some(1));
        assert_eq!(registry.name_of(0).as_deref(), Some("alpha"));
        assert!(registry.server(0).is_some());
        assert!(registry.server(7).is_none(), "unknown tenants route nowhere");
        assert_eq!(
            registry.attach("alpha", boolean_server()),
            Err(RegistryError::DuplicateName("alpha".to_owned()))
        );
        assert!(matches!(
            registry.attach_dialect("gamma", "nope", r#"B ::= "x""#),
            Err(RegistryError::UnknownTenant(_))
        ));
        let err = RegistryError::UnknownTenant("nope".to_owned());
        assert!(err.to_string().contains("nope"));
    }

    /// A grammar wide enough that its item-set graph spans several
    /// 512-slot chunks (`S ::= "opI" AI; AI ::= "xI"` for I in 0..n gives
    /// ~3n+1 small states), with deltas that invalidate exactly one state:
    /// the shape where chunk-granular structural sharing pays off.
    fn wide_grammar_bnf(n: usize) -> String {
        let mut text = String::from("START ::= S\n");
        for i in 0..n {
            text.push_str(&format!("S ::= \"op{i}\" A{i}\nA{i} ::= \"x{i}\"\n"));
        }
        text
    }

    #[test]
    fn dialects_share_the_base_working_set() {
        // A warmed wide base and 8 dialects forked from it. Each delta
        // adds one alternative to one `AI` sort, so its invalidation
        // copies-on-write one node chunk (and one snapshot/arena chunk)
        // out of several — everything else stays shared with the base.
        let registry = GrammarRegistry::unbounded();
        let base = IpgServer::new(IpgSession::from_bnf(&wide_grammar_bnf(550)).unwrap());
        registry.attach("base", base).unwrap();
        registry.server(0).unwrap().warm();
        let base_bytes = registry.resident_bytes();
        for i in 0..8 {
            registry
                .attach_dialect(
                    &format!("dialect-{i}"),
                    "base",
                    &format!(r#"A{} ::= "kw{i}""#, i * 31),
                )
                .unwrap();
        }
        let shared_total = registry.resident_bytes();

        // 9 unshared tenants would each hold a full warmed working set of
        // ~base_bytes; the deduped shared total must beat that by >= 2x.
        let independent_total = base_bytes * 9;
        assert!(
            shared_total * 2 < independent_total,
            "shared {shared_total} vs independent {independent_total}: \
             dialect forks must give >= 2x headroom"
        );

        // Dialects actually serve their dialect syntax.
        let d3 = registry.server(registry.id_of("dialect-3").unwrap()).unwrap();
        assert!(d3.parse_sentence(&format!("op{} kw3", 3 * 31)).unwrap().accepted);
        assert!(d3.parse_sentence("kw0").is_err(), "other deltas are not shared");
    }

    #[test]
    fn dialect_modules_apply_their_rules() {
        use ipg_grammar::modules::GrammarModule;
        use NamedSymbol as S;
        let registry = GrammarRegistry::unbounded();
        registry.attach("base", boolean_server()).unwrap();
        let module = GrammarModule::new("Xor")
            .rule("B", vec![S::nt("B"), S::t("xor"), S::nt("B")])
            .hidden_rule("B", vec![S::t("secret")]);
        let id = registry.attach_dialect_module("xor", "base", &module).unwrap();
        let server = registry.server(id).unwrap();
        assert!(server.parse_sentence("true xor false").unwrap().accepted);
        // The module *is* the dialect: hidden rules are included too.
        assert!(server.parse_sentence("secret or true").unwrap().accepted);
    }

    #[test]
    fn over_budget_registries_evict_the_coldest_tenant() {
        // Budget so small that any warmed tenant exceeds it.
        let registry = GrammarRegistry::new(1, 1);
        registry.attach("cold", boolean_server()).unwrap();
        registry.attach("hot", boolean_server()).unwrap();
        registry.server(0).unwrap().warm();
        registry.server(1).unwrap().warm();
        let warm = registry.resident_bytes();

        // Touch order: tenant 0 is the coldest. A completed request on
        // tenant 1 triggers the sweep.
        registry.server(1).unwrap();
        registry.after_request(1);
        assert!(registry.resident_high_water() >= warm);
        let stats = registry.stats();
        assert!(stats.chunks_evicted > 0, "eviction must be visible in stats");
        assert!(stats.resident_bytes < warm, "eviction must shrink residency");
        assert_eq!(stats.tenants_active, 2);

        // The evicted tenant still serves — re-lazification rebuilds what
        // the request touches, and the rebuild is counted.
        let cold = registry.server(0).unwrap();
        assert!(cold.parse_sentence("true and false or true").unwrap().accepted);
        registry.after_request(0);
        assert!(registry.stats().chunks_relazified > 0);
    }

    #[test]
    fn evicted_then_retouched_equals_a_never_evicted_oracle() {
        let registry = GrammarRegistry::new(1, 1);
        registry.attach("t", boolean_server()).unwrap();
        let oracle = boolean_server();
        let sentences = ["true", "true or false", "true and true or false", "or or"];
        for sentence in sentences {
            let server = registry.server(0).unwrap();
            let ours = server.parse_sentence(sentence).unwrap();
            let theirs = oracle.parse_sentence(sentence).unwrap();
            assert_eq!(ours.accepted, theirs.accepted, "`{sentence}`");
            assert_eq!(
                ours.forest.tree_count(100),
                theirs.forest.tree_count(100),
                "`{sentence}`"
            );
            // Every request lands over budget, so every request evicts.
            registry.after_request(0);
        }
        assert!(registry.stats().chunks_evicted > 0);
    }
}
