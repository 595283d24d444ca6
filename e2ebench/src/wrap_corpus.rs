//! `wrap-corpus`: the paper's own experiment. One operation wraps one
//! Table I source at the paper's settings, persists and reloads the
//! wrapper through the `.orw` codec, applies it to the source's pages
//! and — for the sources free of a structure-breaking quirk — adapts
//! it to the source's drifted template by tree-diff repair, re-inducing
//! when repair declines.

use crate::layers::{add_stages, add_support_runs, ProbeInput, ProbeSource};
use crate::measure::{median, self_cpu_secs, vm_hwm_mb};
use crate::trace::Tracer;
use crate::{measured, metric, Args, Outcome, Phase};
use objectrunner_core::annotate::Annotator;
use objectrunner_core::pipeline::{
    extract_only, Pipeline, PipelineConfig, PipelineError, PipelineOutcome,
};
use objectrunner_core::sample::SampleConfig;
use objectrunner_core::wrapper::{repair_wrapper, RepairConfig, Wrapper};
use objectrunner_eval::classify::classify_source;
use objectrunner_eval::runners::instance_to_object;
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_knowledge::{CompiledRecognizerSet, RecognizerSet};
use objectrunner_objstore::instance_json;
use objectrunner_obs::Obs;
use objectrunner_segment::{simplify_to_main_block, MainBlockChoice};
use objectrunner_sod::Instance;
use objectrunner_store::{load, save, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{
    generate_drifted, generate_site, paper_corpus, Domain, PageKind, Quirk, SiteSpec, Source,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The paper's settings (§IV): ~20 sampled pages, 20% dictionary
/// coverage, supports 3–5.
pub const SAMPLE_SIZE: usize = 20;
pub const COVERAGE: f64 = 0.2;
pub const SUPPORTS: (usize, usize) = (3, 5);

/// Drift tiers the adaptable sources alternate between: separator
/// drift, which repair absorbs, and a container redesign.
pub const DRIFT_TIERS: [f64; 2] = [0.25, 0.75];

/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Set-ups timed together in one sample (one takes about 5 ms, too
/// short to time alone on a noisy host); a sample is their mean.
const SETUPS_PER_SAMPLE: usize = 20;

/// Offset between the site seeds of two benchmark seeds; seed 0 is the
/// Table I corpus itself.
pub const SEED_STRIDE: u64 = 1_000_003;

fn breaks_structure(quirks: &[Quirk]) -> bool {
    quirks.iter().any(|q| {
        matches!(
            q,
            Quirk::SharedTextNode
                | Quirk::GroupedColumns
                | Quirk::VaryingAuthorMarkup
                | Quirk::Unstructured
        )
    })
}

pub struct Input {
    pub source: Source,
    /// Adaptable sources only: drift strength and the drifted source.
    pub drifted: Option<(f64, Source)>,
}

/// The quirk-free detail sources (Table I rows 1, 3, 7 and 9). On
/// some seeds every page the SOD-guided sample picks from one of them
/// shows the optional `address`, and the induced wrapper then extracts
/// nothing from the pages without it (seeds 6, 9 and 70 of the first
/// 120 miss 2 to 4 of 30 pages); on others no wrapper matches the SOD
/// at all (seeds 75 and 119). Their Oc and No, and such declines, are
/// reported on every run as outcomes, not held as checks: a check that
/// fails on some seeds only would make the failure share depend on the
/// seed.
pub fn known_shortfall(spec: &SiteSpec) -> bool {
    spec.kind == PageKind::Detail && !breaks_structure(&spec.quirks)
}

/// The Table I sources, reseeded by the benchmark seed, with drifted
/// twins for the quirk-free ones.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut adaptable = 0usize;
    paper_corpus()
        .sites
        .into_iter()
        .map(|mut spec| {
            spec.seed = spec.seed.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
            let source = generate_site(&spec);
            let drifted = (!breaks_structure(&spec.quirks)).then(|| {
                let strength = DRIFT_TIERS[adaptable % DRIFT_TIERS.len()];
                adaptable += 1;
                (strength, generate_drifted(&spec, strength))
            });
            Input { source, drifted }
        })
        .collect()
}

/// Compiled recognizers per domain: the workload's set-up.
pub struct Knowledge {
    by_domain: BTreeMap<&'static str, (RecognizerSet, CompiledRecognizerSet)>,
}

impl Knowledge {
    pub fn compile() -> Knowledge {
        Knowledge {
            by_domain: Domain::ALL
                .iter()
                .map(|d| {
                    let set = recognizers_for(*d, COVERAGE);
                    let compiled = CompiledRecognizerSet::compile(&set);
                    (d.name(), (set, compiled))
                })
                .collect(),
        }
    }

    /// A pipeline at the paper's settings with a fresh annotation memo:
    /// every source is wrapped as if it were the first.
    pub fn pipeline(&self, domain: Domain, threads: Option<usize>, obs: Obs) -> Pipeline {
        let (set, compiled) = &self.by_domain[domain.name()];
        Pipeline::with_annotator(
            domain.sod(),
            set.clone(),
            Arc::new(Annotator::from_compiled(compiled.clone())),
        )
        .with_config(PipelineConfig {
            obs,
            ..config(threads)
        })
    }
}

pub fn config(threads: Option<usize>) -> PipelineConfig {
    PipelineConfig {
        sample: SampleConfig {
            sample_size: SAMPLE_SIZE,
            ..SampleConfig::default()
        },
        support_range: SUPPORTS,
        threads,
        ..PipelineConfig::default()
    }
}

/// A freshly induced wrapper as the store persists it: revision 1,
/// default cleaning, no repair lineage.
pub fn stored_wrapper(
    spec: &SiteSpec,
    wrapper: Wrapper,
    main_block: Option<MainBlockChoice>,
) -> StoredWrapper {
    StoredWrapper {
        source: spec.name.clone(),
        domain: spec.domain.name().to_owned(),
        revision: 1,
        sod: spec.domain.sod(),
        wrapper,
        main_block,
        clean: CleanOptions::default(),
        repair: None,
    }
}

/// Outcome counts of a run, by name.
type Tally = BTreeMap<&'static str, u64>;

/// What one operation produced, kept for the checks that follow it.
enum Produced {
    Discarded,
    /// No wrapper matches the SOD: the paper's outcome on sources whose
    /// columns are grouped (Table I rows reported incorrect), and a
    /// [`known_shortfall`] outcome on some seeds.
    Declined,
    Failed(String),
    Wrapped {
        in_memory: Vec<Instance>,
        text: String,
        loaded: Box<StoredWrapper>,
        applied: Vec<Vec<Instance>>,
        /// Repaired (true) or re-induced, and the adapted wrapper's
        /// output; `None` when re-induction failed.
        adapted: Option<(bool, Option<Vec<Vec<Instance>>>)>,
    },
}

/// Parse, clean and replay the main block on drifted pages: the
/// preparation `repair_wrapper` expects.
fn prepare(
    pages: &[String],
    stored: &StoredWrapper,
    t: &Tracer,
    op: u64,
    parent: u64,
) -> Vec<Document> {
    let n = pages.len() as f64;
    let mut docs: Vec<Document> = t.leaf(
        op,
        parent,
        "html.parse",
        "html.parse_us_per_page",
        n,
        || pages.iter().map(|p| parse(p)).collect(),
    );
    t.leaf(
        op,
        parent,
        "html.clean",
        "html.clean_us_per_page",
        n,
        || {
            for d in &mut docs {
                clean_document(d, &stored.clean);
            }
        },
    );
    if let Some(choice) = &stored.main_block {
        t.leaf(
            op,
            parent,
            "segment.simplify",
            "segment.simplify_us_per_page",
            n,
            || {
                for d in &mut docs {
                    simplify_to_main_block(d, choice);
                }
            },
        );
    }
    docs
}

/// `Pipeline::run_on_html` at the paper's settings. Traced, the
/// program's own stage timings and self-validation count feed the
/// per-layer totals.
fn induce(
    k: &Knowledge,
    spec: &SiteSpec,
    pages: &[String],
    threads: Option<usize>,
    t: &Tracer,
    op: u64,
    parent: u64,
) -> Result<PipelineOutcome, PipelineError> {
    let obs = if t.on() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let pipeline = t.span(op, parent, "core.pipeline_new", |_| {
        k.pipeline(spec.domain, threads, obs.clone())
    });
    let outcome = t.span(op, parent, "core.run_on_html", |_| {
        pipeline.run_on_html(pages)
    });
    if let (true, Ok(o)) = (t.on(), &outcome) {
        add_stages(t, &o.stats, true);
        add_support_runs(t, &obs);
    }
    outcome
}

/// `extract_only` with a wrapper over `pages`, its stage timings fed to
/// the per-layer totals when traced.
#[allow(clippy::too_many_arguments)]
fn apply(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: &[String],
    threads: Option<usize>,
    t: &Tracer,
    op: u64,
    parent: u64,
) -> Vec<Vec<Instance>> {
    let o = t.span(op, parent, "core.extract_only", |_| {
        extract_only(wrapper, main_block, clean, pages, threads)
    });
    if t.on() {
        add_stages(t, &o.stats, false);
    }
    o.per_page
}

fn wrap_one(k: &Knowledge, input: &Input, threads: Option<usize>, t: &Tracer, op: u64) -> Produced {
    let spec = &input.source.spec;
    let pages = &input.source.pages;
    t.span(op, 0, "op.wrap_source", |root| {
        let outcome = match induce(k, spec, pages, threads, t, op, root) {
            Ok(o) => o,
            Err(PipelineError::Sample(_)) if spec.has(Quirk::Unstructured) => {
                return Produced::Discarded
            }
            Err(PipelineError::Wrapper(_))
                if spec.has(Quirk::GroupedColumns) || known_shortfall(spec) =>
            {
                return Produced::Declined
            }
            Err(e) => return Produced::Failed(format!("{}: {e}", spec.name)),
        };
        let stored = stored_wrapper(spec, outcome.wrapper, outcome.main_block);
        let text = t.leaf(
            op,
            root,
            "store.save",
            "store.save_us_per_wrapper",
            1.0,
            || save(&stored),
        );
        let loaded = match t.leaf(
            op,
            root,
            "store.load",
            "store.load_us_per_wrapper",
            1.0,
            || load(&text),
        ) {
            Ok(l) => l,
            Err(e) => return Produced::Failed(format!("{}: reload: {e}", spec.name)),
        };
        let main_block = loaded.main_block.as_ref();
        let applied = apply(
            &loaded.wrapper,
            main_block,
            &loaded.clean,
            pages,
            threads,
            t,
            op,
            root,
        );
        let adapted = input.drifted.as_ref().map(|(_, drifted)| {
            let docs = prepare(&drifted.pages, &loaded, t, op, root);
            let repaired = t.leaf(
                op,
                root,
                "core.repair_wrapper",
                "core.repair_ms_per_source",
                1.0,
                || {
                    repair_wrapper(
                        &loaded.wrapper,
                        &loaded.sod,
                        &docs,
                        &RepairConfig::default(),
                    )
                },
            );
            drop(docs);
            match repaired {
                Ok(r) => {
                    let per_page = apply(
                        &r.wrapper,
                        main_block,
                        &loaded.clean,
                        &drifted.pages,
                        threads,
                        t,
                        op,
                        root,
                    );
                    (true, Some(per_page))
                }
                Err(_) => match induce(k, spec, &drifted.pages, threads, t, op, root) {
                    Ok(fresh) => {
                        let per_page = apply(
                            &fresh.wrapper,
                            fresh.main_block.as_ref(),
                            &CleanOptions::default(),
                            &drifted.pages,
                            threads,
                            t,
                            op,
                            root,
                        );
                        (false, Some(per_page))
                    }
                    Err(_) => (false, None),
                },
            }
        });
        Produced::Wrapped {
            in_memory: outcome.objects,
            text,
            loaded: Box::new(loaded),
            applied,
            adapted,
        }
    })
}

fn rendered(objects: &[Instance]) -> Vec<String> {
    objects.iter().map(|o| instance_json(o).render()).collect()
}

/// Every check of one operation; failures are recorded on `phase`.
fn check(input: &Input, produced: &Produced, phase: &mut Phase, tally: &mut Tally) {
    let spec = &input.source.spec;
    let sod = spec.domain.sod();
    let correct_on = |source: &Source, per_page: &[Vec<Instance>]| {
        let typed: Vec<_> = per_page
            .iter()
            .map(|objs| objs.iter().map(|o| instance_to_object(o, &sod)).collect())
            .collect();
        let report = classify_source(source, &typed, false);
        (report.oc, report.no)
    };
    match produced {
        Produced::Discarded => {
            phase.count("wrap", true);
            *tally.entry("discarded").or_default() += 1;
        }
        Produced::Declined => {
            phase.count("wrap", true);
            *tally
                .entry(if known_shortfall(spec) {
                    "shortfall-sources declined"
                } else {
                    "declined"
                })
                .or_default() += 1;
        }
        Produced::Failed(e) => {
            phase.count("wrap", false);
            phase.mismatch(format!("wrap failed: {e}"));
        }
        Produced::Wrapped {
            in_memory,
            text,
            loaded,
            applied,
            adapted,
        } => {
            phase.count("wrap", true);
            if spec.has(Quirk::Unstructured) {
                phase.mismatch(format!(
                    "{}: the unstructured source was not discarded",
                    spec.name
                ));
            }
            if rendered(in_memory) != rendered(&applied.concat()) {
                phase.mismatch(format!(
                    "{}: reloaded wrapper extracts differently",
                    spec.name
                ));
            }
            if &save(loaded) != text {
                phase.mismatch(format!("{}: second save is not byte-identical", spec.name));
            }
            // Oc = No is a check on every quirk-free source but the
            // known-shortfall ones, whose Oc and No are tallied.
            let held = |what: &str, oc: usize, no: usize, phase: &mut Phase, tally: &mut Tally| {
                if known_shortfall(spec) {
                    *tally.entry("shortfall-sources Oc").or_default() += oc as u64;
                    *tally.entry("shortfall-sources No").or_default() += no as u64;
                } else if oc != no {
                    phase.mismatch(format!("{}{what}: Oc {oc} != No {no}", spec.name));
                }
            };
            if input.drifted.is_some() {
                let (oc, no) = correct_on(&input.source, applied);
                held("", oc, no, phase, tally);
            }
            match (&input.drifted, adapted) {
                (Some((strength, drifted)), Some((repaired, per_page))) => {
                    phase.count("adapt", per_page.is_some() || known_shortfall(spec));
                    *tally
                        .entry(if *repaired { "repaired" } else { "reinduced" })
                        .or_default() += 1;
                    match per_page {
                        Some(per_page) => {
                            let (oc, no) = correct_on(drifted, per_page);
                            held(
                                &format!(" drift {strength}: adapted wrapper"),
                                oc,
                                no,
                                phase,
                                tally,
                            );
                        }
                        None if known_shortfall(spec) => {
                            *tally
                                .entry("shortfall-sources re-induction declined")
                                .or_default() += 1;
                        }
                        None => phase.mismatch(format!(
                            "{} drift {strength}: re-induction failed",
                            spec.name
                        )),
                    }
                }
                (None, None) => {}
                _ => phase.mismatch(format!(
                    "{}: adaptation ran on the wrong sources",
                    spec.name
                )),
            }
        }
    }
}

/// Whole passes over the corpus until `seconds` have gone by.
fn phase(
    k: &Knowledge,
    inputs: &[Input],
    seconds: f64,
    threads: Option<usize>,
    t: &Tracer,
    tally: &mut Tally,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for input in inputs {
            op += 1;
            let (c0, w0) = (self_cpu_secs(), Instant::now());
            let produced = wrap_one(k, input, threads, t, op);
            let wall = w0.elapsed().as_secs_f64();
            p.cpu_s += self_cpu_secs() - c0;
            p.wall_s += wall;
            p.lat_ms.push(wall * 1e3);
            p.pages += input.source.pages.len() as u64;
            if let Produced::Wrapped {
                adapted: Some(_), ..
            } = &produced
            {
                p.pages += input
                    .drifted
                    .as_ref()
                    .map_or(0, |(_, d)| d.pages.len() as u64);
            }
            check(input, &produced, &mut p, tally);
        }
    }
    p.peak_rss_mb = vm_hwm_mb("self").unwrap_or(f64::NAN);
    p
}

pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    let mut setup_s = Vec::new();
    let mut knowledge = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        for _ in 0..SETUPS_PER_SAMPLE {
            knowledge = Some(Knowledge::compile());
        }
        setup_s.push(t0.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64);
    }
    let k = knowledge.expect("at least one set-up");
    let mut tally = Tally::new();
    let (main, traced) = measured(args, |secs, t| {
        phase(&k, &inputs, secs, None, t, &mut tally)
    });
    let reference = args.reference.then(|| {
        phase(
            &k,
            &inputs,
            args.seconds,
            Some(1),
            &Tracer::new(false),
            &mut Tally::new(),
        )
    });
    let mut lines = vec![
        format!(
            "wrap-corpus: {} sources, {} adaptable (drift tiers {:?}), {} of them with a known shortfall, sample {SAMPLE_SIZE}, coverage {COVERAGE}, supports {}-{}",
            inputs.len(),
            inputs.iter().filter(|i| i.drifted.is_some()).count(),
            DRIFT_TIERS,
            inputs.iter().filter(|i| known_shortfall(&i.source.spec)).count(),
            SUPPORTS.0,
            SUPPORTS.1
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
    ];
    for (k, v) in &tally {
        lines.push(format!("outcome {k}: {v}"));
    }
    let layers = match &traced {
        Some(tr) => {
            let count = |k| tally.get(k).copied().unwrap_or(0) as f64;
            let own = vec![
                metric(
                    "knowledge.compile_ms_per_domain",
                    "ms",
                    median(&setup_s) * 1e3 / Domain::ALL.len() as f64,
                ),
                metric(
                    "core.repair_accept_ratio",
                    "ratio",
                    count("repaired") / (count("repaired") + count("reinduced")),
                ),
            ];
            let input = ProbeInput {
                // The quirk-free sources that wrap on every seed.
                sources: inputs
                    .iter()
                    .filter(|i| i.drifted.is_some() && !known_shortfall(&i.source.spec))
                    .map(|i| ProbeSource {
                        spec: i.source.spec.clone(),
                        seed_pages: i.source.pages.clone(),
                        pages: i.source.pages.clone(),
                    })
                    .collect(),
                ..ProbeInput::default()
            };
            let have: Vec<&str> = own
                .iter()
                .map(|m| m.name)
                .chain(tr.acc.keys().copied())
                .collect();
            let probed = crate::layers::probe(args, input, &have);
            crate::layers::assemble(own, &tr.acc, probed)
        }
        None => Vec::new(),
    };
    Outcome {
        setup_s,
        phase: main,
        traced,
        layers,
        lines,
        reference,
    }
}
