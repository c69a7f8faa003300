//! `study-ref`: one batch study at the reference configuration (400
//! repositories, sizes 1/128), composed from the program's public calls in
//! the order `dhub report` runs them: crawl → download → fused analyze and
//! ingest into an in-memory `DedupStore` → assembly → all 29 figures.
//!
//! The hub is the reference hub (seed 20170530) on every run, so every run
//! studies the same 1,841 layers and must reproduce `report_output.txt`.
//! The run's seed picks the order in which the study visits the crawled
//! repositories, which sets the order the layers are downloaded, analyzed
//! and ingested in, and which image first brings each shared layer.

use crate::calib::{spent, Calibrator, Spent};
use crate::checks;
use crate::stats::{self, SplitMix};
use crate::trace::{self, Tracer};
use crate::{PeakRss, RunOutcome, THREADS};
use dhub_analyzer::{analyze_all_obs, image_profiles, AnalysisResult, ImageInput};
use dhub_crawler::{crawl_obs, CrawlResult};
use dhub_dedup::ImageLayers;
use dhub_dedupstore::{analyze_and_ingest_all, DedupStore};
use dhub_downloader::{download_all_obs, DownloadResult};
use dhub_faults::RetryPolicy;
use dhub_model::{Digest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_registry::NetworkModel;
use dhub_study::figures as f;
use dhub_study::pipeline::StudyData;
use dhub_study::FigureReport;
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};
use std::sync::Arc;
use std::time::Instant;

pub const REPOS: usize = 400;
pub const SIZE_SCALE: u64 = 128;

pub fn hub_config() -> SynthConfig {
    let mut cfg = SynthConfig::default_scale(checks::REFERENCE_SEED).with_repos(REPOS);
    cfg.size_scale = SIZE_SCALE;
    cfg.threads = THREADS;
    cfg
}

/// What one pass leaves behind for the output checks.
pub struct StudyPass {
    pub data: StudyData,
    pub store: DedupStore,
    pub layers: Vec<(Digest, Arc<Vec<u8>>)>,
    pub figures: Vec<FigureReport>,
    pub obs: MetricsRegistry,
    pub fused_s: f64,
    /// Crawl, download and the fused analyze + ingest: the data goes in.
    pub fill: Spent,
    /// Assembly and the 29 figures: the report comes out.
    pub serve: Spent,
}

impl StudyPass {
    pub fn wall_s(&self) -> f64 {
        self.fill.wall_s + self.serve.wall_s
    }
}

/// Builds `StudyData` from the stage outputs, as the study crate's batch
/// pipelines do: image profiles, the image → layers view, and the pull
/// counts of every crawled repository.
pub fn assemble(
    hub: &SyntheticHub,
    crawl: &CrawlResult,
    dl: &DownloadResult,
    analysis: AnalysisResult,
) -> StudyData {
    let inputs: Vec<ImageInput> = dl
        .images
        .iter()
        .map(|img| ImageInput {
            repo: img.repo.clone(),
            manifest_digest: img.manifest_digest,
            layers: img
                .manifest
                .layers
                .iter()
                .map(|l| (l.digest, l.size))
                .collect(),
        })
        .collect();
    let images = image_profiles(&inputs, &analysis.layers);
    let image_layers: Vec<ImageLayers> = dl
        .images
        .iter()
        .map(|img| ImageLayers {
            layers: img.manifest.layers.iter().map(|l| l.digest).collect(),
        })
        .collect();
    let pulls: Vec<(RepoName, u64)> = crawl
        .repos
        .iter()
        .filter_map(|r| hub.registry.pull_count(r).map(|c| (r.clone(), c)))
        .collect();
    StudyData {
        crawl: crawl.report.clone(),
        download: dl.report.clone(),
        layers: analysis.layers,
        images,
        image_layers,
        pulls,
        analyze_errors: analysis.errors.len(),
        size_scale: hub.config.size_scale,
        seed: hub.config.seed,
    }
}

type FigFn = fn(&StudyData) -> FigureReport;

/// The figures in paper order, grouped by the section they belong to.
const FIGURE_GROUPS: [(&str, &[(&str, FigFn)]); 5] = [
    ("figures.table1", &[("table1", f::table1)]),
    (
        "figures.layers",
        &[
            ("fig03", f::fig03),
            ("fig04", f::fig04),
            ("fig05", f::fig05),
            ("fig06", f::fig06),
            ("fig07", f::fig07),
        ],
    ),
    (
        "figures.images",
        &[
            ("fig08", f::fig08),
            ("fig09", f::fig09),
            ("fig10", f::fig10),
            ("fig11", f::fig11),
            ("fig12", f::fig12),
        ],
    ),
    (
        "figures.files",
        &[
            ("fig13", f::fig13),
            ("fig14", f::fig14),
            ("fig15", f::fig15),
            ("fig16", f::fig16),
            ("fig17", f::fig17),
            ("fig18", f::fig18),
            ("fig19", f::fig19),
            ("fig20", f::fig20),
            ("fig21", f::fig21),
            ("fig22", f::fig22),
        ],
    ),
    (
        "figures.dedup",
        &[
            ("fig23", f::fig23),
            ("fig24", f::fig24),
            ("fig25", f::fig25),
            ("fig26", f::fig26),
            ("fig27", f::fig27),
            ("fig28", f::fig28),
            ("fig29", f::fig29),
            ("table2", f::table2),
        ],
    ),
];

/// The crawled repositories in the order a run with `seed` visits them.
pub fn visit_order(crawl: &CrawlResult, seed: u64) -> Vec<RepoName> {
    let mut repos = crawl.repos.clone();
    SplitMix(seed ^ 0x0CEA_5EED).shuffle(&mut repos);
    repos
}

/// One study pass. Every call into a layer sits in its own span. The
/// calibration kernel runs before the fill phase, between the phases and
/// after the serve phase, in spans of its own.
pub fn study_pass(hub: &SyntheticHub, seed: u64, cal: &mut Calibrator, tr: &Tracer) -> StudyPass {
    let obs = MetricsRegistry::new();
    let policy = RetryPolicy::default();
    tr.span("pass", || {
        let cal0 = tr.span("bench.calibrate", || cal.measure());
        let ((crawl, dl, store, fused, fused_s), mut fill) = spent(|| {
            let officials: Vec<RepoName> = hub
                .registry
                .repo_names()
                .into_iter()
                .filter(|r| r.is_official())
                .collect();
            let crawl = tr.span("crawler.crawl", || {
                crawl_obs(&hub.search, &officials, None, &policy, &obs)
            });
            let visit = visit_order(&crawl, seed);
            let dl = tr.span("downloader.download", || {
                download_all_obs(
                    &hub.registry,
                    &visit,
                    THREADS,
                    &NetworkModel::wan(),
                    &policy,
                    &obs,
                )
            });
            let store = DedupStore::with_metrics(&obs);
            let (fused, fused_s) = spent(|| {
                tr.span("dedupstore.fused", || {
                    analyze_and_ingest_all(&dl.layers, THREADS, &store, &obs)
                })
            });
            (crawl, dl, store, fused, fused_s.wall_s)
        });
        let cal1 = tr.span("bench.calibrate", || cal.measure());
        let ((data, figures), mut serve) = spent(|| {
            let data = tr.span("study.assemble", || {
                assemble(hub, &crawl, &dl, fused.analysis)
            });
            let mut figures = Vec::with_capacity(29);
            tr.span("figures", || {
                for (group, figs) in FIGURE_GROUPS {
                    tr.span(group, || {
                        for (name, fig) in figs {
                            figures.push(tr.span(&format!("figures.{name}"), || fig(&data)));
                        }
                    });
                }
            });
            (data, figures)
        });
        let cal2 = tr.span("bench.calibrate", || cal.measure());
        fill.cal_s = (cal0 + cal1) / 2.0;
        serve.cal_s = (cal1 + cal2) / 2.0;
        StudyPass {
            data,
            store,
            layers: dl.layers,
            figures,
            obs,
            fused_s,
            fill,
            serve,
        }
    })
}

/// Analyze-only call on the pass's blobs (the fused pass minus the store).
fn analyze_only(layers: &[(Digest, Arc<Vec<u8>>)], threads: usize) -> (AnalysisResult, f64) {
    let t = Instant::now();
    let r = analyze_all_obs(layers, threads, &MetricsRegistry::new());
    (r, t.elapsed().as_secs_f64())
}

/// Operations attempted and failed in one pass. The dataset's designed
/// auth-walled and no-`latest` repositories are not failures.
fn ops(p: &StudyPass) -> (u64, u64) {
    let d = &p.data.download;
    let attempted =
        d.images_downloaded + d.failed_other + p.data.layers.len() + p.data.analyze_errors;
    let failed = d.failed_other as u64 + d.gave_up + p.data.analyze_errors as u64;
    (attempted as u64, failed)
}

/// MiB of uncompressed layer data (tar bytes) the pass analyzed: the unit
/// the costs are charged per, since inflating, hashing and reporting all
/// grow with it.
fn tar_mib(p: &StudyPass) -> f64 {
    p.obs.counter_value("dhub_analyze_tar_bytes_total") as f64 / (1u64 << 20) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut cal = Calibrator::new();
    let (hub, setup) = cal.bracket(|| generate_hub(&hub_config()));
    let hub_seed = checks::REFERENCE_SEED;
    out.provenance.push((
        "hub",
        format!("repos={REPOS} scale=1/{SIZE_SCALE} seed={hub_seed}"),
    ));
    out.provenance.push(("visit_order_seed", seed.to_string()));
    out.provenance
        .push(("unit", "MiB of uncompressed layer data studied".into()));

    let rss = PeakRss::start();
    if traced {
        let mut out = run_traced(&hub, seed, &mut cal, out);
        out.metrics.set("process.peak_rss_mib", rss.stop());
        return out;
    }

    // Passes until the run has measured `seconds`, at least one.
    let off = Tracer::new(false);
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut last = None;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = study_pass(&hub, seed, &mut cal, &off);
        let (a, f) = ops(&p);
        out.attempted += a;
        out.failed += f;
        passes.push((p.fill, p.serve, tar_mib(&p)));
        last = Some(p);
    }
    let peak_rss = rss.stop();
    let p = last.expect("at least one pass");
    let (only, _) = analyze_only(&p.layers, THREADS);
    out.errors.extend(checks::check_study(&p, &only));
    drop(p);

    let med = |get: &dyn Fn(&(Spent, Spent, f64)) -> f64| {
        stats::median(&passes.iter().map(get).collect::<Vec<_>>())
    };
    out.metrics.set("setup_s", setup.nominal_cpu_s());
    out.metrics.set(
        "fill_cost_us",
        med(&|(fill, _, mib)| fill.nominal_cpu_s() * 1e6 / mib),
    );
    out.metrics.set(
        "serve_cost_us",
        med(&|(_, serve, mib)| serve.nominal_cpu_s() * 1e6 / mib),
    );
    out.report.push(("setup_s", setup.wall_s, "s"));
    out.report.push(("setup_cpu_s", setup.cpu_s, "s"));
    out.report.push(("setup_cal_ms", setup.cal_s * 1e3, "ms"));
    out.report
        .push(("fill_cpu_s", med(&|(fill, _, _)| fill.cpu_s), "s"));
    out.report
        .push(("fill_cal_ms", med(&|(fill, _, _)| fill.cal_s * 1e3), "ms"));
    out.report
        .push(("serve_cpu_s", med(&|(_, serve, _)| serve.cpu_s), "s"));
    out.report.push((
        "serve_cal_ms",
        med(&|(_, serve, _)| serve.cal_s * 1e3),
        "ms",
    ));
    out.report.push((
        "study_s",
        med(&|(fill, serve, _)| fill.wall_s + serve.wall_s),
        "s",
    ));
    out.report
        .push(("fill_s", med(&|(fill, _, _)| fill.wall_s), "s"));
    out.report
        .push(("serve_s", med(&|(_, serve, _)| serve.wall_s), "s"));
    out.report.push(("peak_rss_mib", peak_rss, "MiB"));
    out.provenance.push(("calibrations_ms", cal.history_ms()));
    out
}

/// The traced run: one untraced pass and one traced pass (for
/// `trace.overhead_frac`), then the layer breakdowns the pass cannot give:
/// analyze-only at the same thread count, and each analyzer kernel alone
/// on one thread against a one-thread `analyze_all_obs`.
fn run_traced(
    hub: &SyntheticHub,
    seed: u64,
    cal: &mut Calibrator,
    mut out: RunOutcome,
) -> RunOutcome {
    let untraced = study_pass(hub, seed, cal, &Tracer::new(false));
    let untraced_s = untraced.wall_s();
    drop(untraced);
    let tr = Tracer::new(true);
    let p = study_pass(hub, seed, cal, &tr);
    let (a, fl) = ops(&p);
    out.attempted += a;
    out.failed += fl;

    let spans = tr.spans();
    let times = trace::self_times(&spans);
    let m = &mut out.metrics;
    let incl = |name: &str| {
        times
            .get(name)
            .map(|t| t.total_ns as f64 / 1e6)
            .unwrap_or(0.0)
    };
    m.set("crawler.crawl_ms", incl("crawler.crawl"));
    m.set("crawler.pages", p.data.crawl.pages_fetched as f64);
    m.set("downloader.download_ms", incl("downloader.download"));
    m.set("downloader.blobs", p.data.download.unique_layers as f64);
    m.set(
        "downloader.fetches_skipped",
        p.data.download.layer_fetches_skipped as f64,
    );
    m.set("downloader.retries", p.data.download.retries as f64);
    m.set("study.assemble_ms", incl("study.assemble"));
    m.set("figures.layers_ms", incl("figures.layers"));
    m.set("figures.images_ms", incl("figures.images"));
    m.set("figures.files_ms", incl("figures.files"));
    m.set("figures.dedup_ms", incl("figures.dedup"));
    let stats = p.store.stats();
    m.set("dedupstore.unique_objects", stats.unique_objects as f64);
    m.set("dedupstore.dedup_factor", stats.dedup_factor());
    let busy_ns = p.obs.counter_value("dhub_analyze_busy_ns_total") as f64;
    m.set(
        "analyzer.busy_frac",
        busy_ns / (p.fused_s * 1e9 * THREADS as f64),
    );

    let pass_ns = (times["pass"].total_ns - times["bench.calibrate"].total_ns) as f64;
    let unattributed = times["pass"].self_ns + times["figures"].self_ns;
    m.set("trace.unattributed_frac", unattributed as f64 / pass_ns);
    m.set("trace.overhead_frac", p.wall_s() / untraced_s - 1.0);

    let (only, analyze_s) = tr.span("analyzer.analyze_only", || analyze_only(&p.layers, THREADS));
    m.set("analyzer.analyze_ms", analyze_s * 1e3);
    m.set("dedupstore.commit_ms", (p.fused_s - analyze_s) * 1e3);
    out.errors.extend(checks::check_study(&p, &only));
    drop(only);

    let k = tr.span("analyzer.kernels", || crate::kernels::breakdown(&p.layers));
    m.set("compress.gunzip_ms", k.gunzip_ms);
    m.set("tar.walk_ms", k.tar_ms);
    m.set("digest.hash_ms", k.hash_ms);
    m.set("magic.classify_ms", k.classify_ms);
    m.set("analyzer.one_thread_ms", k.analyze_one_thread_ms);
    m.set("analyzer.unattributed_ms", k.unattributed_ms());
    out.spans = tr.spans();
    out
}
