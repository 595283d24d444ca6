//! End-to-end and per-layer benchmark for ObjectRunner.
//!
//! ```text
//! e2ebench --serve-bin PATH --workload wrap-corpus|serve-crawl|stream-crawl
//!          --seed N --seconds S --trace 0|1 [--reference 1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once with spans around each layer call,
//! prints the per-layer self times, operation shares and tracing
//! overhead, and reports the per-layer metrics: from the traced half
//! where its spans and the program's stage timings reach, from a probe
//! on the same inputs where they do not. `--reference 1` appends the
//! README's reference figures: the workload again with the program
//! pinned to one thread. The last line of standard output is the
//! result object. See README.md.

mod daemon;
mod gold;
mod layers;
mod measure;
mod serve_crawl;
mod stream_crawl;
mod trace;
mod wrap_corpus;

use measure::{median, tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub reference: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |name: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let num = |name: &str, default: u64| -> Result<u64, String> {
            get(name).map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("bad {name} '{v}'"))
            })
        };
        let workload = get("--workload").ok_or("missing --workload")?.to_owned();
        Ok(Args {
            workload,
            seed: num("--seed", 0)?,
            seconds: num("--seconds", 10)?.max(1) as f64,
            trace: num("--trace", 0)? == 1,
            serve_bin: PathBuf::from(get("--serve-bin").ok_or("missing --serve-bin")?),
            reference: num("--reference", 0)? == 1,
        })
    }
}

/// Attempted and failed counts of one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// One measured phase of a workload: the operations it timed and what
/// they cost.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: BTreeMap<&'static str, OpCount>,
    /// Latency of each timed operation, ms.
    pub lat_ms: Vec<f64>,
    pub pages: u64,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// CPU of the process that runs the program over the timed phase, s.
    pub cpu_s: f64,
    /// `VmHWM` of that process at the end of the phase, MB.
    pub peak_rss_mb: f64,
    /// Correctness failures (the first few are printed).
    pub errors: Vec<String>,
    pub error_count: u64,
}

impl Phase {
    pub fn count(&mut self, kind: &'static str, ok: bool) {
        let c = self.ops.entry(kind).or_default();
        c.attempted += 1;
        if !ok {
            c.failed += 1;
        }
    }

    pub fn mismatch(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Fold another phase's operations, latencies, pages and errors into
    /// this one.
    pub fn absorb(&mut self, other: &Phase) {
        self.lat_ms.extend(&other.lat_ms);
        self.pages += other.pages;
        for (k, c) in &other.ops {
            let e = self.ops.entry(k).or_default();
            e.attempted += c.attempted;
            e.failed += c.failed;
        }
        self.errors.extend(other.errors.iter().cloned());
        self.error_count += other.error_count;
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of a measured phase.
fn end_to_end(setup_s: &[f64], p: &Phase, lines: &mut Vec<String>) -> Vec<Metric> {
    let (tail_ms, pct) = tail(&p.lat_ms).unwrap_or((f64::NAN, f64::NAN));
    lines.push(format!(
        "op_tail_ms is p{pct:.2} of {} operations (ten beyond it)",
        p.lat_ms.len()
    ));
    let pages = p.pages.max(1) as f64;
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("pages_per_s", "1/s", p.pages as f64 / p.wall_s),
        metric("op_p50_ms", "ms", median(&p.lat_ms)),
        metric("op_tail_ms", "ms", tail_ms),
        metric("cpu_ms_per_page", "ms", p.cpu_s * 1e3 / pages),
        metric("peak_rss_mb", "MB", p.peak_rss_mb),
    ]
}

/// The traced half of a traced run.
pub struct Traced {
    pub phase: Phase,
    pub spans: Vec<trace::SpanRec>,
    /// Per-layer totals of the traced half.
    pub acc: trace::LayerAcc,
}

/// What a workload hands back to be printed.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The measured phase; in a traced run, the untraced half.
    pub phase: Phase,
    /// Traced run only: the traced half.
    pub traced: Option<Traced>,
    /// Traced run only: every per-layer metric.
    pub layers: Vec<Metric>,
    pub lines: Vec<String>,
    /// `--reference 1`: the same workload with the program at one thread.
    pub reference: Option<Phase>,
}

/// Run `phase` for the run's whole length, or — in a traced run — half
/// untraced and half traced, so the difference is the tracing overhead.
pub fn measured<F>(args: &Args, mut phase: F) -> (Phase, Option<Traced>)
where
    F: FnMut(f64, &Tracer) -> Phase,
{
    if !args.trace {
        return (phase(args.seconds, &Tracer::new(false)), None);
    }
    let half = (args.seconds / 2.0).max(1.0);
    let plain = phase(half, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = phase(half, &tracer);
    let (spans, acc) = tracer.take();
    (
        plain,
        Some(Traced {
            phase: traced,
            spans,
            acc,
        }),
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = measure::host_steal();
    let outcome = match args.workload.as_str() {
        "wrap-corpus" => wrap_corpus::run(&args),
        "serve-crawl" => serve_crawl::run(&args),
        "stream-crawl" => stream_crawl::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let mut lines = outcome.lines;
    lines.push(format!(
        "host_cpus {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    // Other guests' use of this machine's CPUs ("steal") slows every
    // wall-clock figure of the run; printed so a slow run can be told
    // from a slow program.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, measure::host_steal()) {
        lines.push(format!(
            "host steal {:.1}% of CPU time during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    let mut all = Phase::default();
    all.absorb(&outcome.phase);
    let mut metrics = end_to_end(&outcome.setup_s, &outcome.phase, &mut lines);
    if let Some(Traced { phase, spans, .. }) = &outcome.traced {
        all.absorb(phase);
        let mut traced_lines = Vec::new();
        let traced_metrics = end_to_end(&outcome.setup_s, phase, &mut traced_lines);
        for (u, t) in metrics.iter().zip(&traced_metrics).skip(1) {
            lines.push(format!(
                "tracing overhead {}: untraced {:.4} traced {:.4} ({:+.4} {})",
                u.name,
                u.value,
                t.value,
                t.value - u.value,
                u.unit
            ));
        }
        lines.extend(
            trace::render(&trace::summarize(spans))
                .lines()
                .map(str::to_owned),
        );
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, spans) {
            Ok(()) => lines.push(format!(
                "trace: {} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => lines.push(format!("trace: could not write spans: {e}")),
        }
        metrics = outcome.layers;
    }
    if let Some(reference) = &outcome.reference {
        let mut ref_lines = Vec::new();
        for m in end_to_end(&outcome.setup_s, reference, &mut ref_lines)
            .iter()
            .skip(1)
        {
            lines.push(format!(
                "reference threads=1 {}: {:.4} {}",
                m.name, m.value, m.unit
            ));
        }
        lines.extend(
            ref_lines
                .into_iter()
                .map(|l| format!("reference threads=1 {l}")),
        );
    }
    for (kind, c) in &all.ops {
        lines.push(format!(
            "ops {kind}: attempted {} failed {}",
            c.attempted, c.failed
        ));
    }
    for e in &all.errors {
        lines.push(format!("CHECK FAILED: {e}"));
    }
    for l in &lines {
        println!("{l}");
    }
    let correct = all.error_count == 0;
    let attempted: u64 = all.ops.values().map(|c| c.attempted).sum();
    let failed: u64 = all.ops.values().map(|c| c.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
