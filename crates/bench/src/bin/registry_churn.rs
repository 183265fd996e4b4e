//! `registry_churn` — multi-tenant residency benchmark for the
//! [`ipg::GrammarRegistry`].
//!
//! Two experiments, one report (`BENCH_registry.json`):
//!
//! 1. **Structural sharing** — a warmed wide base grammar plus dialect
//!    tenants forked from it through the SDF module system
//!    (`attach_dialect_module`), versus the same tenants built
//!    independently. The registry's pointer-deduped accounting must show
//!    ≥ 2× memory headroom for the shared fleet: N dialects of one base
//!    cost ~1 base plus their copy-on-write deltas.
//! 2. **Zipf churn under a byte budget** — 64 independent tenants served
//!    with Zipf(1)-skewed popularity. First unbounded (measuring the
//!    unevicted working set W), then again under a budget of W/4 with a
//!    per-request enforcement cadence: cold tenants are evicted back to
//!    their persistent grammars and rebuilt lazily when retouched.
//!    Requests landing on evicted tenants are timed separately (the
//!    re-lazification tax), and the coldest tenants are continuously
//!    cross-checked against never-evicted oracle servers.
//!
//! Hard gates (CI fails on any):
//!
//! * resident-bytes high-water of the budgeted run ≤ budget + 10%,
//! * cold-tenant (evicted-then-retouched) p99 ≤ 50× the warm-tenant p50,
//! * zero equivalence failures against the never-evicted oracles, and
//! * shared-dialect memory headroom ≥ 2×.

use std::time::Instant;

use ipg::{json, GrammarRegistry, IpgServer, LatencyHistogram};
use ipg_grammar::modules::{GrammarModule, NamedSymbol};

// ---------------------------------------------------------------------
// Deterministic RNG + Zipf sampling (no external RNG crate).
// ---------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// CDF of Zipf(1) over `n` ranks (rank r has weight 1/(r+1)).
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_sample(cdf: &[f64], state: &mut u64) -> usize {
    let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

// ---------------------------------------------------------------------
// Workload shape
// ---------------------------------------------------------------------

/// A grammar wide enough that its item-set graph spans several 512-slot
/// chunks, with single-rule deltas that invalidate exactly one state:
/// the shape where chunk-granular structural sharing pays off (a delta
/// copies-on-write ~1 chunk out of many).
fn wide_grammar_bnf(n: usize) -> String {
    let mut text = String::from("START ::= S\n");
    for i in 0..n {
        text.push_str(&format!("S ::= \"op{i}\" A{i}\nA{i} ::= \"x{i}\"\n"));
    }
    text
}

// ---------------------------------------------------------------------
// Experiment 1: module-system dialects vs independent tenants
// ---------------------------------------------------------------------

struct SharingResult {
    dialects: usize,
    base_bytes: usize,
    shared_total: usize,
    independent_total: usize,
    headroom: f64,
}

fn run_sharing(base_rules: usize, dialects: usize) -> SharingResult {
    let base_bnf = wide_grammar_bnf(base_rules);

    // Shared fleet: one warmed base, `dialects` module-system forks.
    let registry = GrammarRegistry::unbounded();
    registry
        .attach("base", IpgServer::from_bnf(&base_bnf).expect("base grammar"))
        .expect("attach base");
    registry.server(0).expect("base attached").warm();
    let base_bytes = registry.resident_bytes();
    for i in 0..dialects {
        let module = GrammarModule::new(&format!("Dialect{i}")).rule(
            &format!("A{}", (i * 29 + 1) % base_rules),
            vec![NamedSymbol::t(&format!("kw{i}"))],
        );
        registry
            .attach_dialect_module(&format!("dialect-{i}"), "base", &module)
            .expect("attach dialect");
    }
    let shared_total = registry.resident_bytes();

    // Independent fleet: the same grammars, each built and warmed on its
    // own. Measured one at a time (and dropped) — nothing is shared by
    // construction, so the sum of per-tenant residency is exact, without
    // holding every working set in memory at once.
    let mut independent_total = 0usize;
    for i in 0..=dialects {
        let bnf = if i == 0 {
            base_bnf.clone()
        } else {
            let j = ((i - 1) * 29 + 1) % base_rules;
            format!("{base_bnf}A{j} ::= \"kw{}\"\n", i - 1)
        };
        let server = IpgServer::from_bnf(&bnf).expect("independent grammar");
        server.warm();
        independent_total += server.resident_bytes();
    }

    SharingResult {
        dialects,
        base_bytes,
        shared_total,
        independent_total,
        headroom: independent_total as f64 / shared_total.max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// Experiment 2: Zipf churn under a byte budget
// ---------------------------------------------------------------------

struct ChurnResult {
    tenants: usize,
    requests: usize,
    unevicted_bytes: usize,
    budget: usize,
    high_water: usize,
    resident_after: usize,
    chunks_evicted: usize,
    chunks_relazified: usize,
    warm: LatencyHistogram,
    cold: LatencyHistogram,
    equivalence_checks: usize,
    equivalence_failures: usize,
}

fn build_churn_tenants(tenant_bnf: &str, tenants: usize, budget: usize, sweep: usize) -> GrammarRegistry {
    let registry = if budget == 0 {
        GrammarRegistry::unbounded()
    } else {
        GrammarRegistry::new(budget, sweep)
    };
    for t in 0..tenants {
        registry
            .attach(
                &format!("tenant-{t}"),
                IpgServer::from_bnf(tenant_bnf).expect("tenant grammar"),
            )
            .expect("attach tenant");
    }
    registry
}

/// The deterministic churn script: request `r` addresses Zipf rank
/// `tenant`, parsing a sentence that exercises rule `j` (every 7th
/// request an ungrammatical permutation, so rejection paths churn too).
fn churn_request(cdf: &[f64], rules: usize, rng: &mut u64, r: usize) -> (usize, String) {
    let tenant = zipf_sample(cdf, rng);
    let j = (xorshift(rng) % rules as u64) as usize;
    let sentence = if r % 7 == 6 {
        format!("op{j} x{}", (j + 1) % rules)
    } else {
        format!("op{j} x{j}")
    };
    (tenant, sentence)
}

fn run_churn(tenants: usize, rules: usize, requests: usize, seed: u64) -> ChurnResult {
    let tenant_bnf = wide_grammar_bnf(rules);
    let cdf = zipf_cdf(tenants);

    // Pass 1 — unbounded: the same request script, no budget. Its final
    // residency is the unevicted working set W the budget is set from.
    let unbounded = build_churn_tenants(&tenant_bnf, tenants, 0, 0);
    let mut rng = seed | 1;
    for r in 0..requests {
        let (tenant, sentence) = churn_request(&cdf, rules, &mut rng, r);
        let server = unbounded.server(tenant as u32).expect("known tenant");
        server.parse_sentence(&sentence).expect("parse");
        unbounded.after_request(tenant as u32);
    }
    let unevicted_bytes = unbounded.resident_bytes();
    drop(unbounded);

    // Pass 2 — budgeted at W/4, enforcement after every request. The
    // coldest quarter of the tenant ranks is shadowed by never-evicted
    // oracle servers; every request routed there is cross-checked.
    let budget = unevicted_bytes / 4;
    let registry = build_churn_tenants(&tenant_bnf, tenants, budget, 1);
    let oracle_from = tenants - tenants / 4;
    let oracles: Vec<IpgServer> = (oracle_from..tenants)
        .map(|_| IpgServer::from_bnf(&tenant_bnf).expect("oracle grammar"))
        .collect();

    let mut warm = LatencyHistogram::default();
    let mut cold = LatencyHistogram::default();
    let mut equivalence_checks = 0usize;
    let mut equivalence_failures = 0usize;
    let mut rng = seed | 1;
    for r in 0..requests {
        let (tenant, sentence) = churn_request(&cdf, rules, &mut rng, r);
        let id = tenant as u32;
        let was_evicted = registry.is_evicted(id).expect("known tenant");
        let started = Instant::now();
        let server = registry.server(id).expect("known tenant");
        let result = server.parse_sentence(&sentence).expect("parse");
        registry.after_request(id);
        let elapsed = started.elapsed();
        if was_evicted {
            cold.record(elapsed);
        } else {
            warm.record(elapsed);
        }
        if tenant >= oracle_from {
            let oracle = &oracles[tenant - oracle_from];
            let expected = oracle.parse_sentence(&sentence).expect("oracle parse");
            equivalence_checks += 1;
            if result.accepted != expected.accepted
                || result.forest.tree_count(50) != expected.forest.tree_count(50)
            {
                equivalence_failures += 1;
                eprintln!(
                    "EQUIVALENCE FAILURE: tenant {tenant}, `{sentence}`: \
                     accepted {} vs oracle {}",
                    result.accepted, expected.accepted
                );
            }
        }
    }
    let stats = registry.stats();

    ChurnResult {
        tenants,
        requests,
        unevicted_bytes,
        budget,
        high_water: registry.resident_high_water(),
        resident_after: stats.resident_bytes,
        chunks_evicted: stats.chunks_evicted,
        chunks_relazified: stats.chunks_relazified,
        warm,
        cold,
        equivalence_checks,
        equivalence_failures,
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("registry churn benchmark (host: {cores} core(s))");

    // Experiment 1.
    let sharing = run_sharing(550, 16);
    println!(
        "sharing: base {} KiB, {} dialects shared {} KiB vs independent {} KiB -> {:.2}x headroom",
        sharing.base_bytes / 1024,
        sharing.dialects,
        sharing.shared_total / 1024,
        sharing.independent_total / 1024,
        sharing.headroom,
    );

    // Experiment 2.
    let churn = run_churn(64, 96, 8000, 0x5EED_CAFE);
    let (warm_p50, warm_p99, _) = churn.warm.percentiles_us();
    let (cold_p50, cold_p99, _) = churn.cold.percentiles_us();
    println!(
        "churn: {} tenants, {} requests; unevicted working set {} KiB, budget {} KiB (25%)",
        churn.tenants,
        churn.requests,
        churn.unevicted_bytes / 1024,
        churn.budget / 1024,
    );
    println!(
        "residency: high-water {} KiB ({:.3}x budget), final {} KiB, \
         {} chunks evicted, {} re-lazified",
        churn.high_water / 1024,
        churn.high_water as f64 / churn.budget.max(1) as f64,
        churn.resident_after / 1024,
        churn.chunks_evicted,
        churn.chunks_relazified,
    );
    println!(
        "latency: warm p50 {warm_p50}us p99 {warm_p99}us ({} reqs); \
         cold p50 {cold_p50}us p99 {cold_p99}us ({} reqs, {:.1}x warm p50)",
        churn.warm.count(),
        churn.cold.count(),
        cold_p99 as f64 / warm_p50.max(1) as f64,
    );
    println!(
        "equivalence: {} checks against never-evicted oracles, {} failures",
        churn.equivalence_checks, churn.equivalence_failures,
    );

    let bytes_per_tenant_unevicted = churn.unevicted_bytes / churn.tenants;
    let bytes_per_tenant_budgeted = churn.resident_after / churn.tenants;
    let high_water_x = churn.high_water as f64 / churn.budget.max(1) as f64;
    let cold_over_warm = cold_p99 as f64 / warm_p50.max(1) as f64;
    let json = json::object(|doc| {
        doc.string("benchmark", "registry_churn")
            .field("host_cores", cores)
            .object("sharing", |o| {
                o.field("base_rules", 550)
                    .field("dialects", sharing.dialects)
                    .field("base_bytes", sharing.base_bytes)
                    .field("shared_total_bytes", sharing.shared_total)
                    .field("independent_total_bytes", sharing.independent_total)
                    .field("headroom_x", format_args!("{:.3}", sharing.headroom));
            })
            .object("churn", |o| {
                o.field("tenants", churn.tenants)
                    .field("rules_per_tenant", 96)
                    .field("requests", churn.requests)
                    .field("unevicted_working_set_bytes", churn.unevicted_bytes)
                    .field("budget_bytes", churn.budget)
                    .field("budget_fraction", 0.25)
                    .field("resident_high_water", churn.high_water)
                    .field("high_water_over_budget", format_args!("{high_water_x:.3}"))
                    .field("resident_after", churn.resident_after)
                    .field("bytes_per_tenant_unevicted", bytes_per_tenant_unevicted)
                    .field("bytes_per_tenant_budgeted", bytes_per_tenant_budgeted)
                    .field("chunks_evicted", churn.chunks_evicted)
                    .field("chunks_relazified", churn.chunks_relazified)
                    .histogram("latency_warm_us", &churn.warm)
                    .histogram("latency_cold_us", &churn.cold)
                    .field("cold_p99_over_warm_p50", format_args!("{cold_over_warm:.2}"));
            })
            .object("equivalence", |o| {
                o.field("checks", churn.equivalence_checks)
                    .field("failures", churn.equivalence_failures);
            });
    });
    std::fs::write("BENCH_registry.json", &json).expect("write BENCH_registry.json");
    println!("\nwrote BENCH_registry.json");

    // Hard gates.
    let mut failed = false;
    if churn.high_water as f64 > churn.budget as f64 * 1.1 {
        eprintln!(
            "FAIL: resident high-water {} exceeds budget {} + 10% — the budget does not bound \
             residency",
            churn.high_water, churn.budget
        );
        failed = true;
    }
    if cold_p99 > 50 * warm_p50.max(1) {
        eprintln!(
            "FAIL: cold-tenant p99 {cold_p99}us exceeds 50x the warm p50 {warm_p50}us — \
             re-lazification is not incremental"
        );
        failed = true;
    }
    if churn.equivalence_failures > 0 {
        eprintln!(
            "FAIL: {} evicted-then-retouched result(s) diverged from the never-evicted oracle",
            churn.equivalence_failures
        );
        failed = true;
    }
    if sharing.headroom < 2.0 {
        eprintln!(
            "FAIL: module-shared dialects give only {:.2}x headroom vs independent tenants \
             (gate: 2x)",
            sharing.headroom
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates: all passed (high-water {high_water_x:.3}x budget, cold p99 {cold_over_warm:.1}x \
         warm p50, equivalence clean, sharing {:.2}x)",
        sharing.headroom
    );
}
