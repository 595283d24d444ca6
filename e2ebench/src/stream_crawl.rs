//! `stream-crawl`: the crawl-scale path. An on-disk corpus of one list
//! source per domain; one operation is one `extract_stream` call over a
//! shard of mmap'd pages, whose sink renders each page's objects with
//! `instance_json` as `objectrunner-serve extract-stream` does.

use crate::gold::{extracted_digest, gold_digest};
use crate::layers::{ProbeInput, ProbeSource};
use crate::measure::{median, self_cpu_secs, spread, vm_hwm_mb, ScratchDir};
use crate::trace::Tracer;
use crate::wrap_corpus::{config, stored_wrapper, COVERAGE, SEED_STRIDE};
use crate::{measured, Args, Outcome, Phase};
use objectrunner_core::pipeline::Pipeline;
use objectrunner_core::{extract_stream, StreamConfig};
use objectrunner_objstore::instance_json;
use objectrunner_sod::Instance;
use objectrunner_store::{load_file, save_file, Json, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{site_pages, write_corpus, CorpusDir, Domain, Drift, PageKind, SiteSpec};
use std::path::Path;
use std::time::Instant;

/// Pages per source on disk.
pub const SOURCE_PAGES: usize = 600;
/// Pages per `extract_stream` call.
pub const SHARD: usize = 300;
/// Pages each source's wrapper is induced from.
pub const INDUCE_PAGES: usize = 20;
/// Pages per source the probe of a traced run extracts from.
const PROBE_PAGES: usize = 40;
/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Set-ups timed together in one sample; a sample is their mean.
const SETUPS_PER_SAMPLE: usize = 3;

/// One clean list source per domain, seeded by the benchmark seed. The
/// seed draws the values and record counts; each source's template
/// style stays fixed, so every seed crawls the same five templates.
pub fn crawl_specs(seed: u64, pages: usize) -> Vec<SiteSpec> {
    Domain::ALL
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let base = 50_000 + 7 * i as u64;
            let mut spec = SiteSpec::clean(
                &format!("crawl-{}", d.name().to_lowercase()),
                *d,
                PageKind::List,
                pages,
                base.wrapping_add(seed.wrapping_mul(SEED_STRIDE)),
            );
            spec.style = (base % 3) as usize;
            spec
        })
        .collect()
}

/// Induce, persist and reload one source's wrapper.
pub fn induce_persisted(spec: &SiteSpec, pages: &[String], dir: &Path) -> StoredWrapper {
    let outcome = Pipeline::new(spec.domain.sod(), recognizers_for(spec.domain, COVERAGE))
        .with_config(config(None))
        .run_on_html(pages)
        .unwrap_or_else(|e| panic!("{}: induction failed: {e}", spec.name));
    let stored = stored_wrapper(spec, outcome.wrapper, outcome.main_block);
    let path = dir.join(format!("{}.orw", spec.name));
    save_file(&path, &stored).expect("persist wrapper");
    load_file(&path).expect("reload wrapper")
}

struct Source {
    corpus: CorpusDir,
    wrapper: StoredWrapper,
    /// Gold digest of every page, streamed from `site_pages`.
    gold: Vec<u64>,
}

fn shard_op(
    src: &Source,
    start: usize,
    threads: Option<usize>,
    t: &Tracer,
    op: u64,
    line_bytes: &mut Vec<usize>,
) -> Vec<(usize, Vec<Instance>)> {
    let mut got = Vec::with_capacity(SHARD);
    t.span(op, 0, "op.stream_shard", |root| {
        t.span(op, root, "core.extract_stream", |parent| {
            let pages = (start..start + SHARD).map(|i| {
                t.leaf(
                    op,
                    parent,
                    "webgen.page_map",
                    "webgen.page_map_us_per_page",
                    1.0,
                    || src.corpus.page(i).expect("map corpus page"),
                )
            });
            let stats = extract_stream(
                &src.wrapper.wrapper,
                src.wrapper.main_block.as_ref(),
                &src.wrapper.clean,
                pages,
                &StreamConfig {
                    threads,
                    ..StreamConfig::default()
                },
                |page, instances| {
                    let objects = instances.len() as f64;
                    t.leaf(
                        op,
                        parent,
                        "serve.render",
                        "serve.render_us_per_object",
                        objects,
                        || {
                            let line = Json::Obj(vec![
                                ("page".into(), Json::int(page)),
                                (
                                    "objects".into(),
                                    Json::Arr(instances.iter().map(instance_json).collect()),
                                ),
                            ])
                            .render();
                            line_bytes.push(line.len());
                        },
                    );
                    got.push((page, instances));
                },
            );
            t.add(
                "core.stream_busy_us_per_page",
                stats.busy_micros as f64,
                stats.pages as f64,
            );
        });
    });
    got
}

fn phase(
    sources: &[Source],
    seconds: f64,
    threads: Option<usize>,
    t: &Tracer,
    line_bytes: &mut Vec<usize>,
) -> Phase {
    let mut p = Phase::default();
    let shards = SOURCE_PAGES / SHARD;
    let start = Instant::now();
    let mut op = 0u64;
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let first = (round % shards) * SHARD;
        round += 1;
        for (s, src) in sources.iter().enumerate() {
            op += 1;
            let (c0, w0) = (self_cpu_secs(), Instant::now());
            let got = shard_op(src, first, threads, t, op, line_bytes);
            let wall = w0.elapsed().as_secs_f64();
            p.cpu_s += self_cpu_secs() - c0;
            p.wall_s += wall;
            p.lat_ms.push(wall * 1e3);
            p.pages += SHARD as u64;
            let in_order =
                got.len() == SHARD && got.iter().enumerate().all(|(k, (page, _))| *page == k);
            p.count("stream_shard", in_order);
            if !in_order {
                p.mismatch(format!(
                    "source {s} shard at {first}: pages out of order or missing"
                ));
                continue;
            }
            for (k, (_, objects)) in got.iter().enumerate() {
                if extracted_digest(objects) != src.gold[first + k] {
                    p.mismatch(format!(
                        "source {s} page {}: objects differ from gold",
                        first + k
                    ));
                }
            }
        }
    }
    p.peak_rss_mb = vm_hwm_mb("self").unwrap_or(f64::NAN);
    p
}

pub fn run(args: &Args) -> Outcome {
    let scratch = ScratchDir::new("stream-crawl");
    let specs = crawl_specs(args.seed, SOURCE_PAGES);
    // Inputs: the corpus on disk, the induction pages and the gold
    // digests. Not part of set-up.
    let mut probe_pages = Vec::new();
    let mut golds = Vec::new();
    for spec in &specs {
        let dir = scratch.path().join(&spec.name);
        write_corpus(spec, &Drift::NONE, &dir).expect("write corpus");
        let mut pages = Vec::new();
        let mut gold = Vec::with_capacity(spec.pages);
        for (i, (page, objects)) in site_pages(spec, &Drift::NONE).enumerate() {
            if i < PROBE_PAGES.max(INDUCE_PAGES) {
                pages.push(page);
            }
            gold.push(gold_digest(&objects));
        }
        probe_pages.push(pages);
        golds.push(gold);
    }
    let mut setup_s = Vec::new();
    let mut wrappers = Vec::new();
    for n in 0..SETUPS {
        let t0 = Instant::now();
        for k in 0..SETUPS_PER_SAMPLE {
            let dir = scratch.path().join(format!("wrappers-{n}-{k}"));
            std::fs::create_dir_all(&dir).expect("wrapper dir");
            wrappers = specs
                .iter()
                .zip(&probe_pages)
                .map(|(spec, pages)| induce_persisted(spec, &pages[..INDUCE_PAGES], &dir))
                .collect();
        }
        setup_s.push(t0.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64);
    }
    let sources: Vec<Source> = specs
        .iter()
        .zip(wrappers)
        .zip(golds)
        .map(|((spec, wrapper), gold)| Source {
            corpus: CorpusDir::open(&scratch.path().join(&spec.name)).expect("open corpus"),
            wrapper,
            gold,
        })
        .collect();
    let mut line_bytes = Vec::new();
    let (main, traced) = measured(args, |secs, t| {
        phase(&sources, secs, None, t, &mut line_bytes)
    });
    let reference = args.reference.then(|| {
        phase(
            &sources,
            args.seconds,
            Some(1),
            &Tracer::new(false),
            &mut Vec::new(),
        )
    });
    let (lo, mid, hi) = spread(&line_bytes);
    let lines = vec![
        format!(
            "stream-crawl: {} sources x {SOURCE_PAGES} pages on disk, shard {SHARD} pages, wrappers induced from {INDUCE_PAGES} pages",
            specs.len()
        ),
        format!(
            "threads resolved {}",
            objectrunner_core::exec::resolve_threads(None)
        ),
        format!(
            "setup_s samples {:?} (median {:.4}, each the mean of {SETUPS_PER_SAMPLE} set-ups)",
            setup_s,
            median(&setup_s)
        ),
        format!("sink line bytes: median {mid} range {lo}-{hi}"),
    ];
    drop(sources);
    let layers = match &traced {
        Some(tr) => {
            let input = ProbeInput {
                sources: specs
                    .iter()
                    .zip(probe_pages)
                    .map(|(spec, pages)| ProbeSource {
                        spec: spec.clone(),
                        seed_pages: pages[..INDUCE_PAGES].to_vec(),
                        pages: pages[..PROBE_PAGES].to_vec(),
                    })
                    .collect(),
                corpus: Some(scratch.path().join(&specs[0].name)),
                ..ProbeInput::default()
            };
            let have: Vec<&str> = tr.acc.keys().copied().collect();
            let probed = crate::layers::probe(args, input, &have);
            crate::layers::assemble(Vec::new(), &tr.acc, probed)
        }
        None => Vec::new(),
    };
    drop(scratch);
    Outcome {
        setup_s,
        phase: main,
        traced,
        layers,
        lines,
        reference,
    }
}
