//! One benchmark for the whole study pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study-ref --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `study-ref`, `pull-mirror`, `durable-ingest`. With `--trace 0`
//! the run reports the end-to-end metrics; with `--trace 1` it records spans
//! around every call into a layer and reports the per-layer metrics. The
//! last line of standard output is the JSON result; a failed output check
//! makes it say `"correct": false` and the process exit with code 1.

mod calib;
mod checks;
mod durable;
mod json;
mod kernels;
mod pull_mirror;
#[cfg(test)]
mod selftest;
mod stats;
mod study_ref;
mod trace;

use json::Obj;
use std::path::PathBuf;

/// Worker and client threads, whatever the host has.
pub const THREADS: usize = 2;

/// Every metric the benchmark reports, with its unit. The end-to-end set
/// is reported by every workload; the rest are per-layer.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fill_cost_us", "us"),
    ("serve_cost_us", "us"),
    ("ok_ops_frac", "fraction"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.peak_rss_mib", "MiB"),
    ("crawler.crawl_ms", "ms"),
    ("crawler.pages", "count"),
    ("downloader.download_ms", "ms"),
    ("downloader.blobs", "count"),
    ("downloader.fetches_skipped", "count"),
    ("downloader.retries", "count"),
    ("analyzer.analyze_ms", "ms"),
    ("analyzer.busy_frac", "fraction"),
    ("analyzer.one_thread_ms", "ms"),
    ("compress.gunzip_ms", "ms"),
    ("tar.walk_ms", "ms"),
    ("digest.hash_ms", "ms"),
    ("magic.classify_ms", "ms"),
    ("analyzer.unattributed_ms", "ms"),
    ("dedupstore.commit_ms", "ms"),
    ("dedupstore.unique_objects", "count"),
    ("dedupstore.dedup_factor", "ratio"),
    ("study.assemble_ms", "ms"),
    ("figures.layers_ms", "ms"),
    ("figures.images_ms", "ms"),
    ("figures.files_ms", "ms"),
    ("figures.dedup_ms", "ms"),
    ("http.manifest_p50_us", "us"),
    ("http.blob_p50_us", "us"),
    ("http.blob_p99_us", "us"),
    ("http.requests", "count"),
    ("http.origin_requests", "count"),
    ("http.rejected_overload", "count"),
    ("mirror.hit_ratio", "fraction"),
    ("mirror.origin_fetches", "count"),
    ("mirror.evictions", "count"),
    ("mirror.coalesced", "count"),
    ("persist.commit_ms", "ms"),
    ("persist.checkpoint_ms", "ms"),
    ("dedupstore.reopen_ms", "ms"),
    ("db.build_ms", "ms"),
    ("db.save_ms", "ms"),
    ("db.load_ms", "ms"),
    ("db.query_ms", "ms"),
    ("persist.publishes", "count"),
    ("persist.objects_written", "count"),
    ("persist.object_bytes", "bytes"),
    ("persist.reads", "count"),
    ("persist.read_bytes", "bytes"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, v: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.retain(|(n, _)| n != name);
        self.values.push((name, v));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The JSON `metrics` object over `table`; a metric this workload's
    /// layers never touched reads 0.
    fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut o = Obj::new();
        for (name, unit) in table {
            let mut m = Obj::new();
            m.num("value", self.get(name).unwrap_or(0.0));
            m.str("unit", unit);
            o.raw(name, &m.finish());
        }
        o.finish()
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct RunOutcome {
    pub metrics: Metrics,
    /// The workload's own headline figures, under the names a reader of the
    /// study would use (`study_s`, `pull_p99_ms`, `ingest_s`, ...).
    pub report: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub provenance: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

impl RunOutcome {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set of this process from the moment it was started,
/// so the peak excludes the hub generator's transient buffers: `start`
/// resets the kernel's high-water mark (`/proc/self/clear_refs`) and `stop`
/// reads it back (`VmHWM` in `/proc/self/status`).
pub struct PeakRss;

impl PeakRss {
    pub fn start() -> PeakRss {
        // Without the reset the peak also covers set-up; nothing else changes.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        PeakRss
    }

    /// The peak in MiB.
    pub fn stop(self) -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }
}

/// Scratch space for stores and span files, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

fn provenance(args: &Args, extra: &[(&'static str, String)]) -> String {
    let mut o = Obj::new();
    o.str("workload", &args.workload);
    o.num("seed", args.seed as f64);
    o.num("seconds", args.seconds);
    o.bool("trace", args.trace);
    o.num(
        "nproc",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0) as f64,
    );
    o.num("threads", THREADS as f64);
    o.str("cpu_model", &cpu_model());
    o.str("kernels", &dhub_analyzer::kernel_summary());
    o.str(
        "DHUB_FORCE_SCALAR",
        &std::env::var("DHUB_FORCE_SCALAR").unwrap_or_default(),
    );
    o.str("git_revision", &git_revision());
    for (k, v) in extra {
        o.str(k, v);
    }
    let mut wrap = Obj::new();
    wrap.raw("provenance", &o.finish());
    wrap.finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "study-ref" => study_ref::run(args.seed, args.seconds, args.trace),
        "pull-mirror" => pull_mirror::run(args.seed, args.seconds, args.trace),
        "durable-ingest" => durable::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (study-ref, pull-mirror, durable-ingest)"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        let dir = work_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::to_json_lines(&out.spans)));
        match written {
            Ok(()) => out.provenance.push(("spans", path.display().to_string())),
            Err(e) => out
                .errors
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    } else {
        out.metrics.set("ok_ops_frac", 1.0 - out.failed_frac());
        let failed = out.failed_frac();
        out.report.push(("failed_ops_frac", failed, "fraction"));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", provenance(&args, &out.provenance));
    if !out.report.is_empty() {
        let mut o = Obj::new();
        for (name, value, unit) in &out.report {
            let mut m = Obj::new();
            m.num("value", *value);
            m.str("unit", unit);
            o.raw(name, &m.finish());
        }
        let mut wrap = Obj::new();
        wrap.raw("workload_metrics", &o.finish());
        println!("{}", wrap.finish());
    }
    let correct = out.errors.is_empty();
    let mut r = Obj::new();
    r.bool("correct", correct);
    r.num("attempted", out.attempted.max(1) as f64);
    r.num("failed", out.failed as f64);
    r.raw(
        "metrics",
        &out.metrics
            .to_json(if args.trace { PER_LAYER } else { END_TO_END }),
    );
    println!("{}", r.finish());
    std::process::exit(if correct { 0 } else { 1 });
}
