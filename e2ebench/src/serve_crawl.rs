//! `serve-crawl`: the deployed serving path. The real
//! `objectrunner-serve` binary runs as a child at its default pool
//! shape with an object store; set-up seeds one clean list source per
//! domain by `induce` over TCP. Then closed-loop crawler connections
//! send a fixed interleaving of cached `extract` requests, each with
//! pages the daemon has not seen, and `query` requests against the
//! object store.

use crate::daemon::{Client, Daemon};
use crate::gold::{gold_canon, gold_key, instance_canon, key_has_prefix, key_value, page_digest};
use crate::layers::{ProbeInput, ProbeSource, Request};
use crate::measure::{median, proc_cpu_secs, spread, vm_hwm_mb, ScratchDir};
use crate::stream_crawl::crawl_specs;
use crate::trace::Tracer;
use crate::{measured, Args, Outcome, Phase};
use objectrunner_objstore::instance_from_json;
use objectrunner_store::Json;
use objectrunner_webgen::{site_pages, Drift, GoldObject, Quirk, SitePages, SiteSpec};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Closed-loop crawler connections.
pub const CONNS: usize = 2;
/// Pages per `extract` request.
pub const PAGES_PER_REQUEST: usize = 10;
/// Pages each source is seeded (induced) with.
pub const SEED_PAGES: usize = 15;
/// Hits per `query` page.
pub const QUERY_LIMIT: usize = 5;
/// One round of a connection: four extracts, then one query.
pub const ROUND: [Kind; 5] = [
    Kind::Extract,
    Kind::Extract,
    Kind::Extract,
    Kind::Extract,
    Kind::Query,
];
/// Rounds per connection in one slice of the timed phase.
pub const SLICE_ROUNDS: usize = 8;
/// Requests per connection kept for the traced run's replay.
const RECORD_PER_CONN: usize = 25;
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Extract,
    Query,
}

/// Records on every served page. A fixed count keeps every 10-page
/// `extract` response well above the daemon's 8 KiB write buffer
/// (natural 4–12 record pages put the smallest domains on both sides
/// of it, and a request kind split across that boundary is bimodal).
pub const RECORDS_PER_PAGE: usize = 12;

/// An unbounded page feed per source: `crawl_specs` with no page cap.
pub fn serve_specs(seed: u64) -> Vec<SiteSpec> {
    crawl_specs(seed, usize::MAX)
        .into_iter()
        .map(|s| s.with_quirk(Quirk::FixedRecordCount(RECORDS_PER_PAGE)))
        .collect()
}

pub fn induce_line(spec: &SiteSpec, pages: &[String]) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("induce")),
        ("source".into(), Json::str(&spec.name)),
        ("domain".into(), Json::str(spec.domain.name())),
        (
            "pages".into(),
            Json::Arr(pages.iter().map(Json::str).collect()),
        ),
    ])
    .render()
}

pub fn extract_line(spec: &SiteSpec, pages: &[String]) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str(&spec.name)),
        (
            "pages".into(),
            Json::Arr(pages.iter().map(Json::str).collect()),
        ),
    ])
    .render()
}

pub fn query_line(spec: &SiteSpec, attr: &str, prefix: &str) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("query")),
        ("domain".into(), Json::str(spec.domain.name())),
        (
            "where".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("attr".into(), Json::str(attr)),
                ("op".into(), Json::str("prefix")),
                ("value".into(), Json::str(prefix)),
            ])]),
        ),
        ("select".into(), Json::Arr(vec![Json::str(attr)])),
        ("limit".into(), Json::int(QUERY_LIMIT)),
    ])
    .render()
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Start a daemon and seed every source: one set-up.
pub fn start_seeded(
    bin: &Path,
    dir: &Path,
    specs: &[SiteSpec],
    seed_pages: &[Vec<String>],
) -> Daemon {
    let daemon = Daemon::start(bin, dir);
    let mut client = Client::connect(daemon.addr);
    for (spec, pages) in specs.iter().zip(seed_pages) {
        let resp = client.request(&induce_line(spec, pages));
        let parsed = Json::parse(&resp).expect("induce response is JSON");
        assert!(ok(&parsed), "seeding {} failed: {resp}", spec.name);
    }
    daemon
}

/// The canonical objects of an `extract` response, in order.
pub fn response_objects(resp: &Json) -> Option<Vec<String>> {
    resp.get("objects")?
        .as_arr()?
        .iter()
        .map(|o| instance_from_json(o).ok().map(|i| instance_canon(&i)))
        .collect()
}

/// One source a connection crawls: its spec, the page feed past the
/// seeded pages, and the gold keys ingested so far.
struct Feed<'a> {
    /// Index of the source among all the workload's sources.
    src: usize,
    spec: &'a SiteSpec,
    pages: SitePages<'a>,
    keys: BTreeSet<String>,
    /// First letter of a key value the last extract ingested: the next
    /// query's prefix, so queries hit.
    letter: char,
}

/// A request made ready before the timed part of a slice: its line and
/// what its response must hold.
struct Prepared {
    kind: Kind,
    line: String,
    expect: Expect,
    /// Extracts: the source and the pages the line carries.
    src: usize,
    pages: Vec<String>,
}

enum Expect {
    Objects(u64),
    Keys(Vec<String>),
}

/// What the load generator saw besides timings: response sizes per
/// request kind and the thread count the daemon's pipeline resolved
/// (from the extract responses' stats).
#[derive(Default)]
struct Seen {
    bytes: [Vec<usize>; 2],
    threads: Option<i64>,
}

/// A connection's crawl state, kept across the phases of a run so
/// pages stay unseen and the expected keys stay complete.
struct Crawler<'a> {
    client: Client,
    feeds: Vec<Feed<'a>>,
    extracts: usize,
    queries: usize,
    op: u64,
    /// The first requests sent and their latencies, kept for the traced
    /// run's in-process replay.
    recorded: Vec<(Prepared, f64)>,
}

impl<'a> Crawler<'a> {
    fn new(addr: SocketAddr, conn: u64, specs: Vec<(usize, &'a SiteSpec)>) -> Crawler<'a> {
        let feeds = specs
            .into_iter()
            .map(|(src, spec)| {
                let mut pages = site_pages(spec, &Drift::NONE);
                pages.by_ref().take(SEED_PAGES).for_each(drop);
                Feed {
                    src,
                    spec,
                    pages,
                    keys: BTreeSet::new(),
                    letter: 'a',
                }
            })
            .collect();
        Crawler {
            client: Client::connect(addr),
            feeds,
            extracts: 0,
            queries: 0,
            op: conn << 32,
            recorded: Vec::new(),
        }
    }

    /// Generate the next slice's requests and their expected answers.
    fn prepare(&mut self, seed: u64) -> Vec<Prepared> {
        let mut out = Vec::with_capacity(SLICE_ROUNDS * ROUND.len());
        for _ in 0..SLICE_ROUNDS {
            for kind in ROUND {
                out.push(match kind {
                    Kind::Extract => self.next_extract(seed),
                    Kind::Query => self.next_query(),
                });
            }
        }
        out
    }

    fn next_extract(&mut self, seed: u64) -> Prepared {
        let n = self.feeds.len();
        let feed = &mut self.feeds[self.extracts % n];
        self.extracts += 1;
        let (pages, gold): (Vec<String>, Vec<Vec<GoldObject>>) =
            feed.pages.by_ref().take(PAGES_PER_REQUEST).unzip();
        let key_attrs = feed.spec.domain.key_attributes();
        let nth = (seed as usize + self.extracts) % PAGES_PER_REQUEST;
        if let Some(c) = gold
            .iter()
            .flatten()
            .nth(nth)
            .and_then(|o| o.values(key_attrs[0]).first())
            .and_then(|v| key_value(v).chars().next())
        {
            feed.letter = c;
        }
        for obj in gold.iter().flatten() {
            if let Some(k) = gold_key(obj, &key_attrs) {
                feed.keys.insert(k);
            }
        }
        Prepared {
            kind: Kind::Extract,
            line: extract_line(feed.spec, &pages),
            expect: Expect::Objects(page_digest(gold.iter().flatten().map(gold_canon))),
            src: feed.src,
            pages,
        }
    }

    fn next_query(&mut self) -> Prepared {
        let feed = &self.feeds[self.queries % self.feeds.len()];
        self.queries += 1;
        let attr = feed.spec.domain.key_attributes()[0];
        let prefix = feed.letter.to_string();
        Prepared {
            kind: Kind::Query,
            line: query_line(feed.spec, attr, &prefix),
            expect: Expect::Keys(
                feed.keys
                    .iter()
                    .filter(|k| key_has_prefix(k, attr, &prefix))
                    .take(QUERY_LIMIT)
                    .cloned()
                    .collect(),
            ),
            src: feed.src,
            pages: Vec::new(),
        }
    }
}

/// Send a slice's requests in order on one connection, each after the
/// previous reply: the only work in the timed part of a slice.
fn send(client: &mut Client, slice: &[Prepared], op: u64, t: &Tracer) -> Vec<(f64, String)> {
    slice
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let op = op + i as u64;
            let name = if r.kind == Kind::Extract {
                "op.extract"
            } else {
                "op.query"
            };
            let w0 = Instant::now();
            let resp = t.span(op, 0, name, |root| {
                t.span(op, root, "conn.roundtrip", |_| client.request(&r.line))
            });
            (w0.elapsed().as_secs_f64() * 1e3, resp)
        })
        .collect()
}

/// Check one response against what was prepared for it.
fn check(r: &Prepared, resp: &str, p: &mut Phase, seen: &mut Seen) {
    seen.bytes[r.kind as usize].push(resp.len());
    let parsed = Json::parse(resp).ok().filter(ok);
    let kind_name = if r.kind == Kind::Extract {
        "extract"
    } else {
        "query"
    };
    p.count(kind_name, parsed.is_some());
    let Some(parsed) = parsed else {
        p.mismatch(format!(
            "{kind_name} failed: {}",
            &resp[..resp.len().min(200)]
        ));
        return;
    };
    match &r.expect {
        Expect::Objects(digest) => {
            p.pages += PAGES_PER_REQUEST as u64;
            seen.threads = parsed
                .get("stats")
                .and_then(|s| s.get("threads"))
                .and_then(Json::as_i64);
            if response_objects(&parsed).map(page_digest) != Some(*digest) {
                p.mismatch("extract: objects differ from the pages' gold".into());
            }
        }
        Expect::Keys(keys) => {
            let got: Option<Vec<String>> = parsed.get("hits").and_then(Json::as_arr).map(|hits| {
                hits.iter()
                    .filter_map(|h| h.get("key").and_then(Json::as_str).map(str::to_owned))
                    .collect()
            });
            if got.as_ref() != Some(keys) {
                p.mismatch(format!("query: got {got:?}, expected {keys:?}"));
            }
        }
    }
}

/// Run the crawler connections against `daemon` for `seconds` of timed
/// slices. Each slice's requests and expected answers are made before
/// it and its responses checked after it, outside the timed part, so
/// the wall time and the daemon's CPU cover round trips only.
fn phase(
    daemon: &Daemon,
    crawlers: &mut [Crawler],
    seed: u64,
    seconds: f64,
    t: &Tracer,
    seen: &mut Seen,
) -> Phase {
    let mut p = Phase::default();
    while p.wall_s < seconds {
        let slices: Vec<Vec<Prepared>> = crawlers.iter_mut().map(|c| c.prepare(seed)).collect();
        let cpu0 = proc_cpu_secs(daemon.pid()).expect("daemon CPU");
        let start = Instant::now();
        let sent: Vec<Vec<(f64, String)>> = std::thread::scope(|s| {
            let handles: Vec<_> = crawlers
                .iter_mut()
                .zip(&slices)
                .map(|(c, slice)| {
                    let op = c.op;
                    s.spawn(move || send(&mut c.client, slice, op, t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("crawler thread"))
                .collect()
        });
        p.wall_s += start.elapsed().as_secs_f64();
        p.cpu_s += proc_cpu_secs(daemon.pid()).expect("daemon CPU") - cpu0;
        for ((c, slice), sent) in crawlers.iter_mut().zip(slices).zip(sent) {
            c.op += slice.len() as u64;
            for (r, (ms, resp)) in slice.into_iter().zip(sent) {
                p.lat_ms.push(ms);
                check(&r, &resp, &mut p, seen);
                if c.recorded.len() < RECORD_PER_CONN {
                    c.recorded.push((r, ms));
                }
            }
        }
    }
    p.peak_rss_mb = vm_hwm_mb(&daemon.pid().to_string()).unwrap_or(f64::NAN);
    p
}

/// `status.serving` of a daemon: pool shape and batching counters.
pub fn serving_status(addr: SocketAddr) -> Json {
    let resp = Client::connect(addr).request("{\"cmd\":\"status\"}");
    Json::parse(&resp)
        .ok()
        .and_then(|j| j.get("serving").cloned())
        .unwrap_or(Json::Null)
}

pub fn pool_line(serving: &Json) -> String {
    let pool = serving.get("pool");
    let field = |k: &str| {
        pool.and_then(|p| p.get(k))
            .and_then(Json::as_i64)
            .unwrap_or(-1)
    };
    format!(
        "daemon pool: workers {} max_conns {} inflight_budget {} batch_max {}",
        field("workers"),
        field("max_conns"),
        field("inflight_budget"),
        field("batch_max")
    )
}

pub fn run(args: &Args) -> Outcome {
    let scratch = ScratchDir::new("serve-crawl");
    let specs = serve_specs(args.seed);
    let seed_pages: Vec<Vec<String>> = specs
        .iter()
        .map(|s| {
            site_pages(s, &Drift::NONE)
                .take(SEED_PAGES)
                .map(|(p, _)| p)
                .collect()
        })
        .collect();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for n in 0..SETUPS {
        // Stop the previous set-up's daemon before timing the next.
        drop(daemon.take());
        let dir = scratch.path().join(format!("daemon-{n}"));
        let t0 = Instant::now();
        daemon = Some(start_seeded(&args.serve_bin, &dir, &specs, &seed_pages));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("a seeded daemon");
    let mut seen = Seen::default();
    // Each connection owns its sources, so the keys a query expects are
    // exactly those its own extracts ingested.
    let mut crawlers: Vec<Crawler> = (0..CONNS)
        .map(|c| {
            Crawler::new(
                daemon.addr,
                c as u64,
                specs.iter().enumerate().skip(c).step_by(CONNS).collect(),
            )
        })
        .collect();
    let (main, traced) = measured(args, |secs, t| {
        phase(&daemon, &mut crawlers, args.seed, secs, t, &mut seen)
    });
    let recorded: Vec<(Prepared, f64)> = crawlers.into_iter().flat_map(|c| c.recorded).collect();
    let serving = serving_status(daemon.addr);
    let mut lines = vec![
        format!(
            "serve-crawl: {} sources (one per domain), {CONNS} closed-loop connections, rounds of {} extracts ({PAGES_PER_REQUEST} unseen pages each) to 1 query (limit {QUERY_LIMIT}), {SLICE_ROUNDS} rounds per connection per timed slice",
            specs.len(),
            ROUND.len() - 1
        ),
        pool_line(&serving),
        format!(
            "threads resolved {} (daemon pipeline, from extract stats)",
            seen.threads.unwrap_or(-1)
        ),
        format!(
            "daemon batching: batches {} batched_requests {} requests {}",
            serving.get("batches").and_then(Json::as_i64).unwrap_or(-1),
            serving.get("batched_requests").and_then(Json::as_i64).unwrap_or(-1),
            serving.get("requests").and_then(Json::as_i64).unwrap_or(-1)
        ),
        format!("setup_s samples {:?} (median {:.4})", setup_s, median(&setup_s)),
    ];
    for (kind, b) in ["extract", "query"].iter().zip(&seen.bytes) {
        let (lo, mid, hi) = spread(b);
        lines.push(format!(
            "response bytes {kind}: median {mid} range {lo}-{hi} over {}",
            b.len()
        ));
    }
    drop(daemon);
    drop(scratch);
    let layers = match &traced {
        Some(tr) => {
            let extracts = [&main, &tr.phase]
                .iter()
                .map(|p| p.ops.get("extract").map_or(0, |c| c.attempted))
                .sum();
            let (mut requests, mut queries) = (Vec::new(), Vec::new());
            for (r, ms) in recorded {
                match r.kind {
                    Kind::Extract => requests.push(Request {
                        src: r.src,
                        pages: r.pages,
                        line: r.line,
                        tcp_ms: Some(ms),
                    }),
                    Kind::Query => queries.push((r.line, Some(ms))),
                }
            }
            let input = ProbeInput {
                sources: specs
                    .iter()
                    .zip(seed_pages)
                    .map(|(spec, pages)| ProbeSource {
                        spec: spec.clone(),
                        seed_pages: pages.clone(),
                        pages,
                    })
                    .collect(),
                extracts: requests,
                queries,
                corpus: None,
                serving: Some((serving, extracts)),
            };
            let probed = crate::layers::probe(args, input, &[]);
            crate::layers::assemble(Vec::new(), &tr.acc, probed)
        }
        None => Vec::new(),
    };
    Outcome {
        setup_s,
        phase: main,
        traced,
        layers,
        lines,
        reference: None,
    }
}
