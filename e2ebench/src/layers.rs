//! Per-layer metrics. A traced run takes what it can from its own
//! traced half: the spans the benchmark records around each layer call
//! and the stage timings the program returns with every pipeline call
//! ([`add_stages`]). What those cannot reach — layers the workload's
//! operation does not call from the benchmark's files, `threads 1`
//! differences, in-process against TCP replay, observability on
//! against off — the [`probe`] measures once, on the same run's own
//! inputs. README.md maps each metric to the end-to-end metric it
//! should move.

use crate::daemon::{Client, Daemon};
use crate::measure::{median, self_cpu_secs, ScratchDir};
use crate::serve_crawl::{extract_line, induce_line, query_line, start_seeded, PAGES_PER_REQUEST};
use crate::trace::{LayerAcc, Tracer};
use crate::wrap_corpus::{stored_wrapper, Knowledge, COVERAGE, DRIFT_TIERS};
use crate::{metric, Args, Metric};
use objectrunner_core::matching::drift_score;
use objectrunner_core::pipeline::{extract_only, PipelineStats};
use objectrunner_core::stage::Stage;
use objectrunner_core::{extract_stream, repair_wrapper, RepairConfig, StreamConfig};
use objectrunner_html::{clean_document, parse, Document, PageParser};
use objectrunner_knowledge::CompiledRecognizerSet;
use objectrunner_objstore::{instance_json, IngestContext, IngestObject, ObjectStore, Query};
use objectrunner_obs::{AttrValue, Clock, Obs};
use objectrunner_segment::simplify_to_main_block;
use objectrunner_serve::{ServeConfig, Service};
use objectrunner_store::{load, save, Json, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{generate_drifted, write_corpus, CorpusDir, Domain, Drift, SiteSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
pub const ALL: [(&str, &str); 33] = [
    ("webgen.page_map_us_per_page", "us"),
    ("html.parse_us_per_page", "us"),
    ("html.clean_us_per_page", "us"),
    ("html.page_parser_us_per_page", "us"),
    ("segment.main_block_us_per_page", "us"),
    ("segment.simplify_us_per_page", "us"),
    ("knowledge.compile_ms_per_domain", "ms"),
    ("knowledge.annotate_us_per_page", "us"),
    ("knowledge.memo_hit_ratio", "ratio"),
    ("core.sample_ms_per_source", "ms"),
    ("core.wrap_ms_per_source", "ms"),
    ("core.support_runs_per_source", "count"),
    ("core.extract_us_per_page", "us"),
    ("core.drift_us_per_page", "us"),
    ("core.repair_ms_per_source", "ms"),
    ("core.repair_accept_ratio", "ratio"),
    ("core.extract_only_ms_per_request", "ms"),
    ("core.exec_spawn_ms_per_request", "ms"),
    ("core.exec_spawn_ms_per_source", "ms"),
    ("core.stream_busy_us_per_page", "us"),
    ("core.stream_scaling", "ratio"),
    ("store.save_us_per_wrapper", "us"),
    ("store.load_us_per_wrapper", "us"),
    ("store.json_parse_us_per_request", "us"),
    ("objstore.ingest_us_per_object", "us"),
    ("objstore.query_ms_per_query", "ms"),
    ("objstore.dup_skip_ratio", "ratio"),
    ("serve.handle_ms_per_extract", "ms"),
    ("serve.handle_ms_per_query", "ms"),
    ("serve.transport_ms_per_request", "ms"),
    ("serve.render_us_per_object", "us"),
    ("serve.batch_size_mean", "count"),
    ("obs.overhead_ms_per_request", "ms"),
];

/// Cap on the request lines the probe replays.
const MAX_REQUESTS: usize = 40;
/// Cap on the query lines the probe replays.
const MAX_QUERIES: usize = 20;
/// Pages of the on-disk corpus the probe writes when the workload has
/// none.
const STREAM_PAGES: usize = 300;
/// Repetitions of each short measurement; the median is reported.
const REPS: usize = 5;

/// The unit of a per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    ALL.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

/// One accumulated total as a metric value: numerator over
/// denominator, microseconds scaled to the metric's unit.
pub fn acc_value(name: &str, (num, den): (f64, f64)) -> f64 {
    let scale = if unit_of(name) == "ms" { 1e-3 } else { 1.0 };
    num * scale / den
}

/// Add one pipeline call's stage timings to the per-layer totals.
/// Induction's Segment stage is main-block selection (which ends by
/// simplifying each page); the cached path's is the simplification
/// alone. Annotation has no wall clock of its own (its rounds
/// interleave with sampling), so its CPU is taken.
pub fn add_stages(t: &Tracer, stats: &PipelineStats, induce: bool) {
    let pages = stats.pages as f64;
    for s in &stats.stage_timings {
        let wall = s.wall_micros as f64;
        let (metric, us, units) = match s.stage {
            Stage::Parse => ("html.parse_us_per_page", wall, pages),
            Stage::Clean => ("html.clean_us_per_page", wall, pages),
            Stage::Segment if induce => ("segment.main_block_us_per_page", wall, pages),
            Stage::Segment => ("segment.simplify_us_per_page", wall, pages),
            Stage::Annotate => ("knowledge.annotate_us_per_page", s.cpu_micros as f64, pages),
            Stage::Sample => ("core.sample_ms_per_source", wall, 1.0),
            Stage::Wrap => ("core.wrap_ms_per_source", wall, 1.0),
            Stage::Extract => ("core.extract_us_per_page", wall, pages),
            Stage::SampleRerun => continue,
        };
        t.add(metric, us, units);
    }
    if induce {
        let lookups = stats.annotation_cache_hits + stats.annotation_cache_misses;
        t.add(
            "knowledge.memo_hit_ratio",
            stats.annotation_cache_hits as f64,
            lookups as f64,
        );
    }
}

/// Wrappers the self-validation loop built for one induction: the
/// winner plus the `evals` of its `sample.rerun` span.
pub fn add_support_runs(t: &Tracer, obs: &Obs) {
    let evals = obs
        .spans()
        .iter()
        .filter(|s| s.name == "sample.rerun")
        .flat_map(|s| s.attrs.iter())
        .find_map(|(k, v)| match (k, v) {
            (&"evals", AttrValue::U64(n)) => Some(*n as f64),
            _ => None,
        })
        .unwrap_or(0.0);
    t.add("core.support_runs_per_source", evals + 1.0, 1.0);
}

/// The traced run's per-layer metrics: the workload's own figures
/// (`own`, plus the totals of its traced half), the probe for the rest,
/// in `BENCHMARK.json` order. Every metric must be present.
pub fn assemble(own: Vec<Metric>, acc: &LayerAcc, probed: Vec<Metric>) -> Vec<Metric> {
    let mut by_name: BTreeMap<&'static str, Metric> = BTreeMap::new();
    for m in probed {
        by_name.insert(m.name, m);
    }
    for (name, v) in acc {
        by_name.insert(name, metric(name, unit_of(name), acc_value(name, *v)));
    }
    for m in own {
        by_name.insert(m.name, m);
    }
    ALL.iter()
        .map(|(name, _)| {
            by_name
                .remove(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// A probe source: the workload's own site and the pages it induces
/// from and extracts.
pub struct ProbeSource {
    pub spec: SiteSpec,
    pub seed_pages: Vec<String>,
    pub pages: Vec<String>,
}

/// One request line the probe replays, with the latency the workload
/// measured for it over TCP, when it sent it.
pub struct Request {
    pub src: usize,
    pub pages: Vec<String>,
    pub line: String,
    pub tcp_ms: Option<f64>,
}

/// The traced workload's own inputs.
#[derive(Default)]
pub struct ProbeInput {
    pub sources: Vec<ProbeSource>,
    /// Extract requests; built from the sources' pages when empty.
    pub extracts: Vec<Request>,
    /// Query lines; one per source and letter when empty.
    pub queries: Vec<(String, Option<f64>)>,
    /// An on-disk corpus of `sources[0]`, when the workload has one.
    pub corpus: Option<PathBuf>,
    /// The workload daemon's `status.serving` and its extract count.
    pub serving: Option<(Json, u64)>,
}

/// Median over `REPS` runs of `f`.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = self_cpu_secs();
    let r = f();
    (r, self_cpu_secs() - c0)
}

fn prepared(pages: &[String], stored: &StoredWrapper) -> Vec<Document> {
    pages
        .iter()
        .map(|p| {
            let mut d = parse(p);
            clean_document(&mut d, &stored.clean);
            if let Some(choice) = &stored.main_block {
                simplify_to_main_block(&mut d, choice);
            }
            d
        })
        .collect()
}

/// In-process service over its own stores, seeded like the daemon.
fn seeded_service(dir: &Path, obs: Option<Obs>, objects: bool, sources: &[ProbeSource]) -> Service {
    let config = ServeConfig {
        store_dir: dir.join("wrappers"),
        object_store: objects.then(|| dir.join("objects")),
        ..ServeConfig::default()
    };
    let service = match obs {
        None => Service::new(config),
        Some(obs) => Service::with_observability(config, obs, Clock::system()),
    };
    for s in sources {
        let resp = service.handle_line(&induce_line(&s.spec, &s.seed_pages));
        assert!(resp.contains("\"ok\":true"), "probe seeding failed: {resp}");
    }
    service
}

/// Per-line latency of `lines` through `handle`, ms.
fn replay<'a>(
    lines: impl IntoIterator<Item = &'a String>,
    mut handle: impl FnMut(&str) -> String,
) -> Vec<f64> {
    lines
        .into_iter()
        .map(|l| {
            let (resp, s) = secs(|| handle(l));
            assert!(
                resp.contains("\"ok\":true"),
                "probe request failed: {}",
                &resp[..resp.len().min(200)]
            );
            s * 1e3
        })
        .collect()
}

/// `status.serving` requests per batch, an unbatched request counting
/// as a batch of one.
pub fn batch_size_mean(serving: &Json, extract_requests: u64) -> f64 {
    let get = |k: &str| serving.get(k).and_then(Json::as_i64).unwrap_or(0).max(0) as f64;
    let n = extract_requests as f64;
    n / (get("batches") + n - get("batched_requests")).max(1.0)
}

/// Measure every per-layer metric not in `have`, on the workload's own
/// inputs.
pub fn probe(args: &Args, mut input: ProbeInput, have: &[&str]) -> Vec<Metric> {
    let need = |n: &str| !have.contains(&n);
    let scratch = ScratchDir::new("probe");
    let mut out = Vec::new();
    let t = Tracer::new(true);
    let knowledge = Knowledge::compile();
    let sources = &input.sources;

    if need("knowledge.compile_ms_per_domain") {
        let s = med(|| {
            secs(|| {
                for d in Domain::ALL {
                    black_box(CompiledRecognizerSet::compile(&recognizers_for(
                        d, COVERAGE,
                    )));
                }
            })
            .1
        });
        out.push(metric(
            "knowledge.compile_ms_per_domain",
            "ms",
            s * 1e3 / Domain::ALL.len() as f64,
        ));
    }

    // Induce every source as the workload does (paper settings,
    // default threads, fresh memo); its stage timings feed the
    // induction metrics the workload could not take itself.
    let mut stored = Vec::new();
    for s in sources {
        let obs = Obs::enabled();
        let outcome = knowledge
            .pipeline(s.spec.domain, None, obs.clone())
            .run_on_html(&s.seed_pages)
            .unwrap_or_else(|e| panic!("probe: {} does not wrap: {e}", s.spec.name));
        add_stages(&t, &outcome.stats, true);
        add_support_runs(&t, &obs);
        stored.push(stored_wrapper(&s.spec, outcome.wrapper, outcome.main_block));
    }
    if need("core.exec_spawn_ms_per_source") {
        // CPU of one induction at default threads minus at one thread,
        // alternated per source so host drift hits both alike.
        let mut diff = 0.0;
        for s in sources {
            for (threads, sign) in [(None, 1.0), (Some(1), -1.0)] {
                let p = knowledge.pipeline(s.spec.domain, threads, Obs::disabled());
                diff += sign * cpu(|| black_box(p.run_on_html(&s.seed_pages)).is_ok()).1;
            }
        }
        out.push(metric(
            "core.exec_spawn_ms_per_source",
            "ms",
            diff * 1e3 / sources.len() as f64,
        ));
    }

    if input.extracts.is_empty() {
        input.extracts = default_requests(sources);
    }
    let requests = &input.extracts;
    let n_pages: f64 = requests.iter().map(|r| r.pages.len() as f64).sum();

    // core: one request's `extract_only` at default threads, its stage
    // timings, and the CPU the per-stage thread spawns add.
    let mut outcomes = Vec::new();
    let (mut lat, mut cpu_diff) = (Vec::new(), 0.0);
    for rep in 0..REPS {
        for r in requests {
            let w = &stored[r.src];
            let run = |threads| {
                cpu(|| {
                    extract_only(
                        &w.wrapper,
                        w.main_block.as_ref(),
                        &w.clean,
                        &r.pages,
                        threads,
                    )
                })
            };
            let t0 = Instant::now();
            let (o, c_default) = run(None);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            let c_one = run(Some(1)).1;
            cpu_diff += c_default - c_one;
            if rep == 0 {
                add_stages(&t, &o.stats, false);
                outcomes.push(o);
            }
        }
    }
    out.push(metric(
        "core.extract_only_ms_per_request",
        "ms",
        median(&lat),
    ));
    out.push(metric(
        "core.exec_spawn_ms_per_request",
        "ms",
        cpu_diff * 1e3 / (REPS * requests.len()) as f64,
    ));

    if need("html.page_parser_us_per_page") {
        let s = med(|| {
            let mut parser = PageParser::new();
            secs(|| {
                requests
                    .iter()
                    .flat_map(|r| &r.pages)
                    .map(|p| black_box(parser.parse(p)).len())
                    .sum::<usize>()
            })
            .1
        });
        out.push(metric(
            "html.page_parser_us_per_page",
            "us",
            s * 1e6 / n_pages,
        ));
    }

    if need("core.drift_us_per_page") {
        let s = med(|| {
            secs(|| {
                for (r, o) in requests.iter().zip(&outcomes) {
                    let w = &stored[r.src].wrapper;
                    for d in &o.docs {
                        black_box(drift_score(&w.template, &w.mapping, d).score());
                    }
                }
            })
            .1
        });
        out.push(metric("core.drift_us_per_page", "us", s * 1e6 / n_pages));
    }

    if need("core.repair_ms_per_source") || need("core.repair_accept_ratio") {
        let (mut total, mut accepted, mut attempts) = (0.0, 0usize, 0usize);
        for (s, w) in sources.iter().zip(&stored) {
            for strength in DRIFT_TIERS {
                let mut spec = s.spec.clone();
                spec.pages = s.pages.len();
                let docs = prepared(&generate_drifted(&spec, strength).pages, w);
                let (r, secs) =
                    secs(|| repair_wrapper(&w.wrapper, &w.sod, &docs, &RepairConfig::default()));
                total += secs;
                attempts += 1;
                accepted += usize::from(r.is_ok());
            }
        }
        out.push(metric(
            "core.repair_ms_per_source",
            "ms",
            total * 1e3 / attempts as f64,
        ));
        out.push(metric(
            "core.repair_accept_ratio",
            "ratio",
            accepted as f64 / attempts as f64,
        ));
    }

    // webgen + core::stream on an on-disk corpus of the first source.
    let corpus_dir = match &input.corpus {
        Some(dir) => dir.clone(),
        None => {
            let mut spec = sources[0].spec.clone();
            spec.pages = STREAM_PAGES;
            let dir = scratch.path().join("corpus");
            write_corpus(&spec, &Drift::NONE, &dir).expect("probe corpus");
            dir
        }
    };
    let corpus = CorpusDir::open(&corpus_dir).expect("open probe corpus");
    if need("webgen.page_map_us_per_page") {
        let s = med(|| {
            secs(|| {
                (0..corpus.len())
                    .map(|i| corpus.page(i).expect("map").as_str().len())
                    .sum::<usize>()
            })
            .1
        });
        out.push(metric(
            "webgen.page_map_us_per_page",
            "us",
            s * 1e6 / corpus.len() as f64,
        ));
    }
    let stream = |threads: Option<usize>| {
        extract_stream(
            &stored[0].wrapper,
            stored[0].main_block.as_ref(),
            &stored[0].clean,
            (0..corpus.len()).map(|i| corpus.page(i).expect("map")),
            &StreamConfig {
                threads,
                ..StreamConfig::default()
            },
            |_, objs| {
                black_box(objs);
            },
        )
    };
    let (mut busy, mut scaling) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let d = stream(None);
        let one = stream(Some(1));
        busy.push(d.busy_micros as f64 / d.pages as f64);
        scaling.push(d.pages_per_sec() / one.pages_per_sec());
    }
    out.push(metric("core.stream_busy_us_per_page", "us", median(&busy)));
    out.push(metric("core.stream_scaling", "ratio", median(&scaling)));
    drop(corpus);

    if need("store.save_us_per_wrapper") || need("store.load_us_per_wrapper") {
        let n = stored.len() as f64;
        let s = med(|| {
            secs(|| {
                stored
                    .iter()
                    .map(|w| black_box(save(w)).len())
                    .sum::<usize>()
            })
            .1
        });
        out.push(metric("store.save_us_per_wrapper", "us", s * 1e6 / n));
        let texts: Vec<String> = stored.iter().map(save).collect();
        let s = med(|| secs(|| texts.iter().for_each(|x| drop(black_box(load(x))))).1);
        out.push(metric("store.load_us_per_wrapper", "us", s * 1e6 / n));
    }

    let s = med(|| {
        secs(|| {
            requests
                .iter()
                .for_each(|r| drop(black_box(Json::parse(&r.line))))
        })
        .1
    });
    out.push(metric(
        "store.json_parse_us_per_request",
        "us",
        s * 1e6 / requests.len() as f64,
    ));

    // objstore: ingest every request's objects, then query.
    let mut store = ObjectStore::open(scratch.path().join("objstore"), Obs::disabled())
        .expect("probe object store");
    let (mut ingest_s, mut offered, mut dups) = (0.0, 0u64, 0u64);
    let mut objects = Vec::new();
    for (r, o) in requests.iter().zip(&outcomes) {
        let spec = &sources[r.src].spec;
        let key_attrs = spec.domain.key_attributes();
        let offers: Vec<IngestObject> = o
            .per_page
            .iter()
            .enumerate()
            .flat_map(|(i, objs)| {
                objs.iter().map(move |instance| IngestObject {
                    instance: instance.clone(),
                    page_id: format!("p{i}"),
                })
            })
            .collect();
        objects.extend(offers.iter().map(|o| o.instance.clone()));
        let ctx = IngestContext {
            source: &spec.name,
            domain: spec.domain.name(),
            wrapper_revision: 1,
            repaired_from: None,
            extracted_unix_micros: 1,
            confidence: 1.0,
            key_attrs: &key_attrs,
        };
        let (report, s) = secs(|| store.ingest(offers, &ctx, None).expect("probe ingest"));
        ingest_s += s;
        offered += report.ingested + report.duplicates;
        dups += report.duplicates;
    }
    out.push(metric(
        "objstore.ingest_us_per_object",
        "us",
        ingest_s * 1e6 / offered.max(1) as f64,
    ));
    out.push(metric(
        "objstore.dup_skip_ratio",
        "ratio",
        dups as f64 / offered.max(1) as f64,
    ));
    if input.queries.is_empty() {
        input.queries = default_queries(sources);
    }
    let queries: Vec<Query> = input
        .queries
        .iter()
        .map(|(l, _)| Query::from_json(&Json::parse(l).expect("query json")).expect("query"))
        .collect();
    let mut q_lat = Vec::new();
    for _ in 0..REPS {
        for q in &queries {
            q_lat.push(secs(|| black_box(store.query(q, None)).is_ok()).1 * 1e3);
        }
    }
    out.push(metric("objstore.query_ms_per_query", "ms", median(&q_lat)));
    drop(store);

    if need("serve.render_us_per_object") {
        let s = med(|| {
            secs(|| {
                objects
                    .iter()
                    .map(|o| instance_json(o).render().len())
                    .sum::<usize>()
            })
            .1
        });
        out.push(metric(
            "serve.render_us_per_object",
            "us",
            s * 1e6 / objects.len().max(1) as f64,
        ));
    }

    // serve: in-process handling of the same lines, transport, obs.
    let service = seeded_service(&scratch.path().join("svc"), None, true, sources);
    let handle_extract = replay(requests.iter().map(|r| &r.line), |l| service.handle_line(l));
    let handle_query = replay(input.queries.iter().map(|(l, _)| l), |l| {
        service.handle_line(l)
    });
    drop(service);
    out.push(metric(
        "serve.handle_ms_per_extract",
        "ms",
        median(&handle_extract),
    ));
    out.push(metric(
        "serve.handle_ms_per_query",
        "ms",
        median(&handle_query),
    ));
    // Observability cost: two services without an object store (whose
    // flushes would drown it), the same lines alternated between them.
    let loud = seeded_service(&scratch.path().join("loud"), None, false, sources);
    let quiet = seeded_service(
        &scratch.path().join("quiet"),
        Some(Obs::disabled()),
        false,
        sources,
    );
    let mut diffs = Vec::new();
    for _ in 0..REPS {
        for r in requests {
            let a = replay([&r.line], |l| loud.handle_line(l))[0];
            let b = replay([&r.line], |l| quiet.handle_line(l))[0];
            diffs.push(a - b);
        }
    }
    drop((loud, quiet));
    out.push(metric("obs.overhead_ms_per_request", "ms", median(&diffs)));

    // Transport: the workload's own TCP latencies of these lines when it
    // sent them; otherwise a daemon seeded with the same sources.
    let recorded: Vec<f64> = requests.iter().filter_map(|r| r.tcp_ms).collect();
    let (tcp, serving) = if recorded.len() == requests.len() {
        (recorded, input.serving.take())
    } else {
        let specs: Vec<SiteSpec> = sources.iter().map(|s| s.spec.clone()).collect();
        let seeds: Vec<Vec<String>> = sources.iter().map(|s| s.seed_pages.clone()).collect();
        let daemon: Daemon = start_seeded(
            &args.serve_bin,
            &scratch.path().join("daemon"),
            &specs,
            &seeds,
        );
        let mut client = Client::connect(daemon.addr);
        let tcp = replay(requests.iter().map(|r| &r.line), |l| client.request(l));
        let serving = crate::serve_crawl::serving_status(daemon.addr);
        (tcp, Some((serving, requests.len() as u64)))
    };
    out.push(metric(
        "serve.transport_ms_per_request",
        "ms",
        median(&tcp) - median(&handle_extract),
    ));
    if let Some((serving, n)) = serving {
        out.push(metric(
            "serve.batch_size_mean",
            "count",
            batch_size_mean(&serving, n),
        ));
    }

    let (_, acc) = t.take();
    for (name, v) in &acc {
        out.push(metric(name, unit_of(name), acc_value(name, *v)));
    }
    out.retain(|m| need(m.name));
    out
}

/// 10-page requests over the sources' pages, taken round-robin so each
/// source is represented, at most [`MAX_REQUESTS`].
fn default_requests(sources: &[ProbeSource]) -> Vec<Request> {
    let chunks: Vec<Vec<&[String]>> = sources
        .iter()
        .map(|s| s.pages.chunks(PAGES_PER_REQUEST).collect())
        .collect();
    let depth = chunks.iter().map(Vec::len).max().unwrap_or(0);
    (0..depth)
        .flat_map(|k| {
            chunks
                .iter()
                .enumerate()
                .filter_map(move |(src, c)| c.get(k).map(|pages| (src, *pages)))
        })
        .take(MAX_REQUESTS)
        .map(|(src, pages)| Request {
            src,
            pages: pages.to_vec(),
            line: extract_line(&sources[src].spec, pages),
            tcp_ms: None,
        })
        .collect()
}

/// Prefix queries on each source's first key attribute.
fn default_queries(sources: &[ProbeSource]) -> Vec<(String, Option<f64>)> {
    ["a", "m", "s", "t"]
        .iter()
        .flat_map(|p| {
            sources.iter().map(move |s| {
                let attr = s.spec.domain.key_attributes()[0];
                (query_line(&s.spec, attr, p), None)
            })
        })
        .take(MAX_QUERIES)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbatched_requests_are_batches_of_one() {
        let serving = Json::parse("{\"batches\":0,\"batched_requests\":0}").unwrap();
        assert_eq!(batch_size_mean(&serving, 10), 1.0);
        // 10 requests: one batch of 4, six alone → 10 / 7.
        let serving = Json::parse("{\"batches\":1,\"batched_requests\":4}").unwrap();
        assert!((batch_size_mean(&serving, 10) - 10.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn totals_scale_to_the_metric_unit() {
        assert_eq!(acc_value("core.wrap_ms_per_source", (6000.0, 3.0)), 2.0);
        assert_eq!(acc_value("html.parse_us_per_page", (600.0, 3.0)), 200.0);
        assert_eq!(acc_value("knowledge.memo_hit_ratio", (1.0, 4.0)), 0.25);
    }

    #[test]
    fn own_figures_win_and_every_metric_is_required() {
        let probed: Vec<Metric> = ALL.iter().map(|(n, u)| metric(n, u, 1.0)).collect();
        let mut acc = LayerAcc::new();
        acc.insert("html.parse_us_per_page", (30.0, 3.0));
        let own = vec![metric("serve.batch_size_mean", "count", 4.0)];
        let all = assemble(own, &acc, probed);
        assert_eq!(all.len(), ALL.len());
        let get = |n: &str| all.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("html.parse_us_per_page"), 10.0);
        assert_eq!(get("serve.batch_size_mean"), 4.0);
        assert_eq!(get("core.wrap_ms_per_source"), 1.0);
        let missing =
            std::panic::catch_unwind(|| assemble(Vec::new(), &LayerAcc::new(), Vec::new()));
        assert!(missing.is_err());
    }
}
