//! The `STATS` document's contract: it is valid JSON, every key the
//! benchmark harness and CI read stays in its block, every counter of the
//! `GenStats` table appears in every tenant row and in the totals, a
//! budget-capped tenant's kills add up the same in the frontend's tally,
//! in the totals and in that tenant's own row, each grammar edit counts
//! one epoch, and no cumulative counter decreases when a tenant is
//! evicted.

use std::sync::Arc;

use ipg::{CounterValue, GenStats, IpgServer, IpgSession, ParseBudget};
use ipg_frontend::protocol::Status;
use ipg_frontend::{Client, Frontend, FrontendConfig, ShutdownMode};
use ipg_sdf::fixtures::{measurement_inputs, sdf_grammar_and_scanner};
use ipg_sdf::NormalizedSdf;

const BOOLEANS: &str = r#"
    B ::= "true" | "false" | B "or" B | B "and" B
    START ::= B
"#;

/// Maximally ambiguous: `x^n` has Catalan-many parses.
const CATALAN: &str = "AMB0 ::= \"x\"\nAMB1 ::= AMB1 AMB1 | AMB0\nSTART ::= AMB1\n";

fn boolean_frontend() -> (Frontend, Client) {
    let server = Arc::new(IpgServer::new(
        IpgSession::from_bnf(BOOLEANS).expect("boolean grammar"),
    ));
    let config = FrontendConfig {
        workers: 2,
        ..FrontendConfig::default()
    };
    let frontend = Frontend::bind("127.0.0.1:0", config, server).expect("bind");
    let client = Client::connect(frontend.local_addr()).expect("connect");
    (frontend, client)
}

/// A parsed JSON value (the workspace has no JSON parser).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = reader.value();
        reader.skip_ws();
        assert_eq!(reader.pos, text.len(), "trailing bytes after the document");
        value
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn at(&self, block: &str, key: &str) -> f64 {
        match self.get(block).and_then(|b| b.get(key)) {
            Some(Json::Number(n)) => *n,
            other => panic!("{block}.{key} is {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) {
        assert!(
            self.eat(byte),
            "expected `{}` at byte {}",
            byte as char,
            self.pos
        );
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return value;
            }
        }
        match rest.first() {
            Some(b'"') => Json::Str(self.string()),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value());
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',');
                    }
                }
                Json::Array(items)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string();
                        self.expect(b':');
                        members.push((key, self.value()));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',');
                    }
                }
                Json::Object(members)
            }
            _ => {
                let len = rest
                    .iter()
                    .position(|b| !(b.is_ascii_digit() || b"-+.eE".contains(b)))
                    .unwrap_or(rest.len());
                let number = std::str::from_utf8(&rest[..len]).unwrap();
                self.pos += len;
                Json::Number(
                    number.parse().unwrap_or_else(|_| {
                        panic!("bad number `{number}` at byte {}", self.pos - len)
                    }),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        assert_eq!(
            self.bytes[self.pos], b'"',
            "expected a string at byte {}",
            self.pos
        );
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
            let c = rest.chars().next().expect("unterminated string");
            self.pos += c.len_utf8();
            match c {
                '"' => return out,
                '\\' => {
                    let escape = self.bytes[self.pos];
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            self.pos += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                        }
                        other => panic!("invalid escape `\\{}`", other as char),
                    });
                }
                c => {
                    assert!(c >= ' ', "unescaped control character {c:?} in a string");
                    out.push(c);
                }
            }
        }
    }
}

fn stats(client: &mut Client) -> (String, Json) {
    let text = client.stats_json().expect("stats");
    let doc = Json::parse(&text);
    (text, doc)
}

/// Counter keys as `STATS` renders them: histograms carry a `_us` suffix.
fn counter_keys() -> Vec<String> {
    GenStats::default()
        .counters()
        .map(|c| match c.value {
            ipg::CounterValue::Histogram(_) => format!("{}_us", c.name),
            _ => c.name.to_owned(),
        })
        .collect()
}

#[test]
fn a_capped_tenants_kills_add_up_in_every_block() {
    let (frontend, mut client) = boolean_frontend();
    let runaway = IpgServer::from_bnf(CATALAN)
        .expect("catalan grammar")
        .with_default_budget(ParseBudget::default().with_fuel(2_000));
    let runaway = frontend
        .registry()
        .attach("runaway", runaway)
        .expect("attach");
    assert_ne!(runaway, 0, "the capped tenant is not the default tenant");

    let sentence = vec!["x"; 96].join(" ");
    client.set_tenant(runaway);
    const KILLS: usize = 6;
    for _ in 0..KILLS {
        let reply = client.parse_tokens(&sentence, 0).expect("request");
        assert_eq!(reply.status, Status::ResourceExhausted);
    }
    client.set_tenant(0);
    let ok = client.parse_tokens("true or false", 0).expect("request");
    assert_eq!(ok.status, Status::Ok);

    let (_, doc) = stats(&mut client);
    let kills = KILLS as f64;
    assert_eq!(doc.at("frontend", "resource_exhausted"), kills);
    assert_eq!(doc.at("totals", "parses_exhausted"), kills);
    let Some(Json::Array(rows)) = doc.get("tenants") else {
        panic!("no tenants array");
    };
    let row = |id: u32| {
        rows.iter()
            .find(|r| r.get("id") == Some(&Json::Number(id as f64)))
            .unwrap_or_else(|| panic!("no row for tenant {id}"))
    };
    assert_eq!(
        row(runaway).get("name"),
        Some(&Json::Str("runaway".to_owned()))
    );
    assert_eq!(
        row(runaway).get("parses_exhausted"),
        Some(&Json::Number(kills))
    );
    // The `server` block is the default tenant, which killed nothing.
    assert_eq!(row(0).get("parses_exhausted"), Some(&Json::Number(0.0)));
    assert_eq!(doc.at("server", "parses_exhausted"), 0.0);
    // Every request was one frontend request and one server parse.
    assert_eq!(doc.at("frontend", "requests"), kills + 1.0);
    assert_eq!(doc.at("totals", "parses"), kills + 1.0);

    frontend.shutdown(ShutdownMode::Drain);
}

#[test]
fn every_counter_appears_in_every_tenant_row_and_the_totals() {
    let (frontend, mut client) = boolean_frontend();
    let reply = client
        .attach_tenant("xor", "default", r#"B ::= B "xor" B"#)
        .expect("attach");
    assert_eq!(reply.status, Status::Ok);

    let (_, doc) = stats(&mut client);
    let Some(Json::Array(rows)) = doc.get("tenants") else {
        panic!("no tenants array");
    };
    assert_eq!(rows.len(), 2);
    let keys = counter_keys();
    for block in rows.iter().chain([
        doc.get("totals").expect("totals"),
        doc.get("server").expect("server"),
    ]) {
        let present = block.keys();
        for key in &keys {
            assert!(
                present.contains(&key.as_str()),
                "`{key}` missing from {block:?}"
            );
        }
    }
    assert_eq!(doc.at("totals", "tenants_active"), 2.0);
    frontend.shutdown(ShutdownMode::Drain);
}

#[test]
fn tenant_names_are_escaped() {
    let (frontend, mut client) = boolean_frontend();
    let name = "a\"b\n";
    let reply = client.attach_tenant(name, "", BOOLEANS).expect("attach");
    assert_eq!(reply.status, Status::Ok);
    let id = Client::attach_tenant_outcome(&reply).expect("tenant id");

    // `Json::parse` rejects raw control characters and invalid escapes.
    let (_, doc) = stats(&mut client);
    let Some(Json::Array(rows)) = doc.get("tenants") else {
        panic!("no tenants array");
    };
    let row = rows
        .iter()
        .find(|r| r.get("id") == Some(&Json::Number(id as f64)))
        .expect("the tenant's row");
    assert_eq!(row.get("name"), Some(&Json::Str(name.to_owned())));
    frontend.shutdown(ShutdownMode::Drain);
}

#[test]
fn keys_read_by_the_benchmark_and_ci_stay_in_their_blocks() {
    let (frontend, mut client) = boolean_frontend();
    let (text, doc) = stats(&mut client);
    // The benchmark harness finds a block by the text `"<block>": {` and a
    // key by `"<key>": ` after it.
    for block in ["frontend", "server", "registry"] {
        assert!(
            text.contains(&format!("\"{block}\": {{")),
            "block `{block}`: {text}"
        );
    }
    let wanted: [(&str, &[&str]); 4] = [
        (
            "",
            &[
                "workers",
                "queue_capacity",
                "queue_depth",
                "queue_high_water",
                "draining",
                "grammar_version",
                "epoch",
            ],
        ),
        (
            "frontend",
            &[
                "requests",
                "shed_overload",
                "shed_deadline",
                "shed_shutdown",
                "malformed",
                "io_timeouts",
                "cancelled",
                "resource_exhausted",
                "worker_panics",
                "ctx_quarantined",
                "latency_us",
            ],
        ),
        (
            "server",
            &[
                "parses",
                "action_calls",
                "epochs_published",
                "ctx_reused",
                "effective_workers",
                "open_documents",
                "reparse_incremental",
                "reparse_full",
                "tokens_relexed",
                "states_rerun",
                "reparse_converged",
                "parses_cancelled",
                "parses_exhausted",
                "ctx_quarantined",
                "latency_us",
            ],
        ),
        (
            "registry",
            &[
                "tenants_active",
                "budget_bytes",
                "resident_bytes",
                "resident_high_water",
                "chunks_evicted",
                "chunks_relazified",
            ],
        ),
    ];
    for (block, keys) in wanted {
        let scope = if block.is_empty() {
            &doc
        } else {
            doc.get(block).expect(block)
        };
        let present = scope.keys();
        for key in keys {
            assert!(
                present.contains(key),
                "`{key}` missing from block `{block}`"
            );
        }
    }
    let latency = doc
        .get("frontend")
        .and_then(|f| f.get("latency_us"))
        .expect("latency");
    assert_eq!(
        latency.keys(),
        ["count", "mean_us", "p50_us", "p99_us", "p999_us", "max_us"]
    );
    assert_eq!(doc.at("registry", "tenants_active"), 1.0);
    frontend.shutdown(ShutdownMode::Drain);
}

/// Tenant `id`'s row of the `tenants` array.
fn tenant_row(doc: &Json, id: u32) -> &Json {
    let Some(Json::Array(rows)) = doc.get("tenants") else {
        panic!("no tenants array");
    };
    rows.iter()
        .find(|r| r.get("id") == Some(&Json::Number(id as f64)))
        .unwrap_or_else(|| panic!("no row for tenant {id}"))
}

fn number(block: &Json, key: &str) -> f64 {
    match block.get(key) {
        Some(Json::Number(n)) => *n,
        other => panic!("{key} is {other:?}"),
    }
}

#[test]
fn each_grammar_edit_counts_one_epoch_in_every_block() {
    let (frontend, mut client) = boolean_frontend();
    const EDITS: usize = 6;
    for edit in 0..EDITS {
        let rule = r#"B ::= "maybe""#;
        let reply = if edit % 2 == 0 {
            client.add_rule(rule)
        } else {
            client.delete_rule(rule)
        };
        assert_eq!(reply.expect("request").status, Status::Ok, "edit {edit}");
    }

    let (_, doc) = stats(&mut client);
    let edits = EDITS as f64;
    for key in ["epochs_published", "epochs_retired", "epochs_reclaimed"] {
        assert_eq!(doc.at("server", key), edits, "server.{key}");
        assert_eq!(number(tenant_row(&doc, 0), key), edits, "tenant 0 {key}");
        assert_eq!(doc.at("totals", key), edits, "totals.{key}");
    }
    frontend.shutdown(ShutdownMode::Drain);
}

#[test]
fn no_sum_counter_decreases_across_eviction() {
    let NormalizedSdf { grammar, scanner } = sdf_grammar_and_scanner();
    let sdf = IpgServer::new(IpgSession::new(grammar)).with_scanner(scanner);
    let text = measurement_inputs()
        .into_iter()
        .find(|input| input.name == "ASF.sdf")
        .expect("ASF.sdf input")
        .text;
    // A one-byte budget: every enforcement pass evicts every tenant.
    let server = Arc::new(IpgServer::new(
        IpgSession::from_bnf(BOOLEANS).expect("boolean grammar"),
    ));
    let config = FrontendConfig {
        workers: 2,
        registry_budget: 1,
        ..FrontendConfig::default()
    };
    let frontend = Frontend::bind("127.0.0.1:0", config, server).expect("bind");
    let registry = frontend.registry();
    let tenant = registry.attach("sdf", sdf).expect("attach");
    let mut client = Client::connect(frontend.local_addr()).expect("connect");
    client.set_tenant(tenant);

    let sums: Vec<&str> = GenStats::default()
        .counters()
        .filter(|c| matches!(c.value, CounterValue::Sum(_)))
        .map(|c| c.name)
        .collect();
    let mut last: Option<Vec<f64>> = None;
    let mut check = |client: &mut Client, step: &str| {
        let (_, doc) = stats(client);
        let now: Vec<f64> = [tenant_row(&doc, tenant), doc.get("totals").expect("totals")]
            .into_iter()
            .flat_map(|block| sums.iter().map(move |key| number(block, key)))
            .collect();
        if let Some(before) = &last {
            for (i, (was, is)) in before.iter().zip(&now).enumerate() {
                let block = if i < sums.len() { "tenant" } else { "totals" };
                let key = sums[i % sums.len()];
                assert!(is >= was, "{block}.{key} fell from {was} to {is} at {step}");
            }
        }
        last = Some(now);
    };
    for round in 0..3 {
        let reply = client.parse_text(text, 0).expect("request");
        assert_eq!(reply.status, Status::Ok, "round {round}");
        check(&mut client, &format!("parse {round}"));
        registry.enforce_budget();
        assert_eq!(registry.is_evicted(tenant), Some(true), "round {round}");
        check(&mut client, &format!("eviction {round}"));
    }
    let (_, doc) = stats(&mut client);
    let row = tenant_row(&doc, tenant);
    assert!(number(row, "dense_rows_built") > 0.0);
    assert!(number(row, "chunks_evicted") > 0.0);
    frontend.shutdown(ShutdownMode::Drain);
}
