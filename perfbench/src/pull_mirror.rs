//! `pull-mirror`: closed-loop whole-image pulls through a pull-through
//! mirror. Two clients each hold one `RemoteRegistry` for the whole run and
//! send their next pull only when the previous one completed. Every pull is
//! `get_manifest` plus `get_blob` for each layer, sent to a `dhub-mirror`
//! LRU edge (`RegistryServer::start_mirror`) in front of one origin
//! `RegistryServer`. The cache budget is sized for a fixed request hit
//! ratio below what the trace could reach, so hits, misses and evictions
//! all happen.

use crate::calib::{latencies_in, mean, Calibrator, Sample, SleepProbe, SLEEP};
use crate::checks;
use crate::stats::{self, SplitMix};
use crate::trace::{self, Tracer};
use crate::{PeakRss, RunOutcome, THREADS};
use dhub_cache::{CachePolicy, Lru};
use dhub_faults::fault_key;
use dhub_mirror::{Mirror, MirrorConfig, PolicyKind};
use dhub_model::RepoName;
use dhub_obs::MetricsRegistry;
use dhub_registry::{RegistryServer, RemoteRegistry, DEFAULT_MAX_CONNS};
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const REPOS: usize = 120;
pub const SIZE_SCALE: u64 = 1024;
/// Pulls in the generated trace; a run walks it from the start.
pub const TRACE_LEN: usize = 4000;
/// Pulls a run must complete, so p99 has ten samples beyond it.
pub const MIN_PULLS: usize = 1000;
/// Pulls per round; a traced run records spans in every other round.
pub const ROUND: usize = 100;
/// The first pulls of the trace meet a cold cache: they are the fill phase,
/// the rest the serve phase.
pub const FILL_PULLS: usize = 200;

pub fn hub_config(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::default_scale(seed).with_repos(REPOS);
    cfg.size_scale = SIZE_SCALE;
    cfg.threads = THREADS;
    cfg
}

/// The pull trace: repositories drawn with probability proportional to
/// their pull counts (the hub's Zipf popularity), among the repositories
/// that serve an anonymous `latest`. Computed before any manifest is
/// fetched, since fetching one counts a pull.
pub fn pull_trace(hub: &SyntheticHub, seed: u64, len: usize) -> Vec<RepoName> {
    let mut repos = hub.truth.ok_repos.clone();
    repos.sort();
    let mut cum = Vec::with_capacity(repos.len());
    let mut total = 0f64;
    for r in &repos {
        total += hub.registry.pull_count(r).unwrap_or(0) as f64 + 1.0;
        cum.push(total);
    }
    let mut rng = SplitMix(seed ^ 0x5EED_7ACE);
    (0..len)
        .map(|_| {
            let x = rng.next_f64() * total;
            let i = cum.partition_point(|&c| c <= x).min(repos.len() - 1);
            repos[i].clone()
        })
        .collect()
}

/// Target request hit ratio for the mirror cache; see [`cache_budget`].
pub const TARGET_HIT_RATIO: f64 = 0.9;

/// The requests the trace makes, as `(mirror cache key, bytes)`: each
/// pull is its manifest followed by its layers. The keys are the ones the
/// mirror computes (`fault_key` over `manifest:<repo>:latest` and
/// `blob:<digest>`), so a replay lands each object in the mirror's stripe.
fn requests(hub: &SyntheticHub, trace: &[RepoName]) -> Vec<(u64, u64)> {
    let mut manifests: BTreeMap<&RepoName, Vec<(u64, u64)>> = BTreeMap::new();
    let mut out = Vec::new();
    for r in trace {
        let reqs = manifests.entry(r).or_insert_with(|| {
            let s = hub
                .registry
                .get_manifest(r, "latest", false)
                .expect("ok repos serve latest");
            let key = fault_key(format!("manifest:{}:latest", r.full()).as_bytes());
            let mut v = vec![(key, s.manifest.to_json().len() as u64)];
            v.extend(s.manifest.layers.iter().map(|l| {
                (
                    fault_key(format!("blob:{}", l.digest.to_docker_string()).as_bytes()),
                    l.size,
                )
            }));
            v
        });
        out.extend(reqs.iter().copied());
    }
    out
}

/// Request hit ratio and evictions of the mirror's cache with `budget`
/// bytes over `reqs` sent one at a time: the mirror's lock stripes, each an
/// LRU policy with its share of the budget, chosen by the key's top bits as
/// the mirror's `Striped` map does.
fn mirror_replay(reqs: &[(u64, u64)], budget: u64) -> (f64, usize) {
    let n = MirrorConfig::new(budget, PolicyKind::Lru)
        .stripes
        .max(1)
        .next_power_of_two() as u64;
    let mut stripes: Vec<Lru> = (0..n).map(|_| Lru::new((budget / n).max(1))).collect();
    let mut evicted = Vec::new();
    let hits = reqs
        .iter()
        .filter(|&&(key, size)| {
            stripes[((key >> 48) & (n - 1)) as usize].request_evict(key, size, &mut evicted)
        })
        .count();
    (hits as f64 / reqs.len().max(1) as f64, evicted.len())
}

/// The mirror's byte budget: the smallest budget whose replay of the
/// trace's first [`MIN_PULLS`] pulls through the mirror's cache policy hits
/// [`TARGET_HIT_RATIO`] of the requests, lowered in steps of 2% until
/// that replay evicts. Holding the hit ratio, not the byte fraction, fixed
/// keeps the hit/miss mix comparable across seeds; the evictions make sure
/// the cache cannot hold everything the trace touches.
pub fn cache_budget(hub: &SyntheticHub, trace: &[RepoName]) -> u64 {
    let reqs = requests(hub, &trace[..MIN_PULLS.min(trace.len())]);
    let unique: BTreeMap<u64, u64> = reqs.iter().copied().collect();
    let (mut lo, mut hi) = (1u64, unique.values().sum::<u64>());
    while hi - lo > hi / 1000 + 1 {
        let mid = lo + (hi - lo) / 2;
        if mirror_replay(&reqs, mid).0 >= TARGET_HIT_RATIO {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    while hi > 1 && mirror_replay(&reqs, hi).1 == 0 {
        hi -= hi / 50 + 1;
    }
    hi
}

struct Fixture {
    trace: Vec<RepoName>,
    budget: u64,
    origin: RegistryServer,
    edge: RegistryServer,
    mirror: Arc<Mirror>,
    origin_obs: Arc<MetricsRegistry>,
    edge_obs: Arc<MetricsRegistry>,
}

fn set_up(seed: u64) -> Fixture {
    let hub = generate_hub(&hub_config(seed));
    let trace = pull_trace(&hub, seed, TRACE_LEN);
    let budget = cache_budget(&hub, &trace);
    let origin_obs = Arc::new(MetricsRegistry::new());
    let origin = RegistryServer::start_full(
        hub.registry.clone(),
        None,
        origin_obs.clone(),
        DEFAULT_MAX_CONNS,
    )
    .expect("origin server starts");
    let edge_obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[origin.addr()],
        MirrorConfig::new(budget, PolicyKind::Lru),
        edge_obs.clone(),
    ));
    let edge = RegistryServer::start_mirror(mirror.clone(), edge_obs.clone(), DEFAULT_MAX_CONNS)
        .expect("mirror server starts");
    Fixture {
        trace,
        budget,
        origin,
        edge,
        mirror,
        origin_obs,
        edge_obs,
    }
}

fn tear_down(f: Fixture) {
    f.edge.shutdown();
    f.origin.shutdown();
}

/// One completed pull: trace position, latency, requests it took, and
/// whether it ran traced.
#[derive(Clone, Copy)]
struct Pull {
    index: usize,
    ms: f64,
    requests: u64,
    traced: bool,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    pulls: Vec<Pull>,
    manifest_us: Vec<f64>,
    blob_us: Vec<f64>,
    /// Every request: the trace position of its pull, when it was sent
    /// (seconds since the run's origin) and its latency (seconds).
    requests_at: Vec<(usize, f64, f64)>,
    requests: u64,
    errors: u64,
    check_errors: Vec<String>,
}

/// One client's closed loop: claim the next trace position, pull it, and
/// stop once the run has its pulls and its seconds. In a traced run every
/// other round of [`ROUND`] pulls records spans, so the run also measures
/// what tracing costs.
fn client_loop(
    addr: std::net::SocketAddr,
    trace: &[RepoName],
    next: &AtomicUsize,
    done: &AtomicUsize,
    until: impl Fn(usize) -> bool,
    origin: Instant,
    on: &Tracer,
) -> ClientLog {
    let client = RemoteRegistry::connect_anonymous(addr);
    let off = Tracer::new(false);
    let mut log = ClientLog::default();
    while !until(done.load(Ordering::Relaxed)) {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let repo = &trace[i % trace.len()];
        let traced = on.enabled() && (i / ROUND) % 2 == 1;
        let tr = if traced { on } else { &off };
        let t = Instant::now();
        let sent = log.requests;
        let mut blobs = Vec::new();
        let ok = tr.span("pull", || {
            let tm = Instant::now();
            log.requests += 1;
            let m = tr.span("http.manifest", || client.get_manifest(repo, "latest"));
            let s = tm.elapsed().as_secs_f64();
            log.manifest_us.push(s * 1e6);
            log.requests_at.push((i, (tm - origin).as_secs_f64(), s));
            let (_, manifest) = match m {
                Ok(m) => m,
                Err(e) => {
                    log.check_errors
                        .push(format!("{}: manifest: {e}", repo.full()));
                    return false;
                }
            };
            for l in &manifest.layers {
                let tb = Instant::now();
                log.requests += 1;
                let b = tr.span("http.blob", || client.get_blob(repo, &l.digest));
                let s = tb.elapsed().as_secs_f64();
                log.blob_us.push(s * 1e6);
                log.requests_at.push((i, (tb - origin).as_secs_f64(), s));
                match b {
                    Ok(bytes) => blobs.push((l.digest, bytes)),
                    Err(e) => {
                        log.check_errors
                            .push(format!("{}: blob {}: {e}", repo.full(), l.digest));
                        return false;
                    }
                }
            }
            true
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ok {
            log.pulls.push(Pull {
                index: i,
                ms,
                requests: log.requests - sent,
                traced,
            });
        } else {
            log.errors += 1;
        }
        for (d, bytes) in &blobs {
            if let Err(e) = checks::blob_matches(d, bytes) {
                log.check_errors.push(e);
            }
        }
        done.fetch_add(1, Ordering::Relaxed);
    }
    log.errors += client.retry_stats().gave_up;
    log
}

/// Consecutive requests per calibration group in [`scaled_request_us`].
const GROUP: usize = 200;

/// Request latency at the nominal timer wake-up, in microseconds. Requests
/// are taken in groups of [`GROUP`] in the order they were sent; a group's
/// mean latency is divided by the mean sleep-probe latency over the
/// group's time span and multiplied by the probe's nominal [`SLEEP`]. The
/// median over groups is reported. `requests` are `(sent, latency)` in
/// seconds.
pub fn scaled_request_us(requests: &[(f64, f64)], probe: &[Sample]) -> Result<f64, String> {
    let mut reqs = requests.to_vec();
    reqs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let groups: Vec<f64> = reqs
        .chunks(GROUP)
        .filter(|g| g.len() * 2 >= GROUP)
        .filter_map(|g| {
            let end = g.iter().map(|(t, l)| t + l).fold(0.0, f64::max);
            let sleeps = latencies_in(probe, g[0].0, end);
            let lat: Vec<f64> = g.iter().map(|&(_, l)| l).collect();
            (!sleeps.is_empty()).then(|| mean(&lat) / mean(&sleeps) * SLEEP.as_secs_f64() * 1e6)
        })
        .collect();
    if groups.is_empty() {
        return Err(format!(
            "{} requests: no calibrated group of {GROUP}",
            requests.len()
        ));
    }
    Ok(stats::median(&groups))
}

/// Mean latency per request over the pulls `keep` selects, in microseconds.
fn per_request_us(pulls: &[Pull], keep: impl Fn(&Pull) -> bool) -> f64 {
    let sel = pulls.iter().filter(|p| keep(p));
    let (ms, req) = sel.fold((0.0, 0u64), |(m, r), p| (m + p.ms, r + p.requests));
    ms * 1e3 / req.max(1) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut cal = Calibrator::new();
    let (f, setup) = cal.bracket(|| set_up(seed));
    out.provenance.push(("calibrations_ms", cal.history_ms()));
    out.provenance.push((
        "hub",
        format!("repos={REPOS} scale=1/{SIZE_SCALE} seed={seed}"),
    ));
    out.provenance
        .push(("pull_trace_len", TRACE_LEN.to_string()));
    out.provenance
        .push(("cache_budget_bytes", f.budget.to_string()));
    out.provenance.push(("clients", THREADS.to_string()));
    out.provenance.push((
        "unit",
        "HTTP request (manifest or blob) at the client".into(),
    ));

    let tr = Tracer::new(traced);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss = PeakRss::start();
    let start = Instant::now();
    let probe = SleepProbe::start(start);
    let until = |n: usize| n >= MIN_PULLS && start.elapsed().as_secs_f64() >= seconds;
    let addr = f.edge.addr();
    let logs: Vec<(ClientLog, Tracer)> = tr.span("pulls", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (trace, next, done, until) = (&f.trace, &next, &done, &until);
                    let origin = tr.origin();
                    s.spawn(move || {
                        let on = Tracer::with_origin(traced, origin);
                        let log = client_loop(addr, trace, next, done, until, start, &on);
                        (log, on)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let probe = probe.stop();
    let peak_rss = rss.stop();
    let mut all = ClientLog::default();
    for (log, on) in logs {
        tr.absorb(on);
        all.pulls.extend(log.pulls);
        all.manifest_us.extend(log.manifest_us);
        all.blob_us.extend(log.blob_us);
        all.requests_at.extend(log.requests_at);
        all.requests += log.requests;
        all.errors += log.errors;
        all.check_errors.extend(log.check_errors);
    }
    let report = f.mirror.report();
    out.errors.extend(all.check_errors.iter().take(5).cloned());
    if let Err(e) = checks::mirror_accounts(&report, all.requests) {
        out.errors.push(e);
    }
    let rejected = f
        .edge_obs
        .counter_value("dhub_http_rejected_overload_total")
        + f.origin_obs
            .counter_value("dhub_http_rejected_overload_total");
    out.attempted = all.requests + rejected;
    out.failed = all.errors + rejected;

    let m = &mut out.metrics;
    if traced {
        let p = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
        m.set("http.manifest_p50_us", p(&all.manifest_us, 50.0));
        m.set("http.blob_p50_us", p(&all.blob_us, 50.0));
        m.set("http.blob_p99_us", p(&all.blob_us, 99.0));
        m.set(
            "http.requests",
            f.edge_obs.counter_value("dhub_http_requests_total") as f64,
        );
        m.set(
            "http.origin_requests",
            f.origin_obs.counter_value("dhub_http_requests_total") as f64,
        );
        m.set("http.rejected_overload", rejected as f64);
        m.set("mirror.hit_ratio", report.hit_ratio());
        m.set("mirror.origin_fetches", report.origin_fetches as f64);
        m.set("mirror.evictions", report.evictions as f64);
        m.set("mirror.coalesced", report.coalesced as f64);
        m.set("process.peak_rss_mib", peak_rss);
        let pulls = trace::self_times(&tr.spans())
            .get("pull")
            .copied()
            .unwrap_or_default();
        m.set(
            "trace.unattributed_frac",
            pulls.self_ns as f64 / pulls.total_ns.max(1) as f64,
        );
        let cost = |traced: bool| {
            per_request_us(&all.pulls, |p| p.traced == traced && p.index >= FILL_PULLS)
        };
        m.set("trace.overhead_frac", cost(true) / cost(false) - 1.0);
        out.spans = tr.spans();
    } else {
        let ms: Vec<f64> = all.pulls.iter().map(|p| p.ms).collect();
        m.set("setup_s", setup.nominal_cpu_s());
        let phase = |fill: bool| -> Vec<(f64, f64)> {
            all.requests_at
                .iter()
                .filter(|(i, ..)| (*i < FILL_PULLS) == fill)
                .map(|&(_, t, l)| (t, l))
                .collect()
        };
        for (metric, fill) in [("fill_cost_us", true), ("serve_cost_us", false)] {
            match scaled_request_us(&phase(fill), &probe) {
                Ok(us) => m.set(metric, us),
                Err(e) => out.errors.push(e),
            }
        }
        let raw_us = |fill: bool| {
            stats::median(&phase(fill).iter().map(|(_, l)| l * 1e6).collect::<Vec<_>>())
        };
        out.report.push(("fill_request_p50_us", raw_us(true), "us"));
        out.report
            .push(("serve_request_p50_us", raw_us(false), "us"));
        let sleeps: Vec<f64> = probe.iter().map(|&(_, d)| d * 1e6).collect();
        out.report
            .push(("sleep_probe_mean_us", mean(&sleeps), "us"));
        out.report.push(("setup_s", setup.wall_s, "s"));
        out.report.push(("setup_cpu_s", setup.cpu_s, "s"));
        out.report.push(("setup_cal_ms", setup.cal_s * 1e3, "ms"));
        out.report
            .push(("pulls_per_s", ms.len() as f64 / wall_s, "1/s"));
        out.report.push(("pull_p50_ms", stats::median(&ms), "ms"));
        match stats::percentile(&ms, 99.0) {
            Ok(v) => out.report.push(("pull_p99_ms", v, "ms")),
            Err(e) => out.errors.push(e),
        }
        out.report.push(("peak_rss_mib", peak_rss, "MiB"));
        out.report
            .push(("mirror_hit_ratio", report.hit_ratio(), "fraction"));
    }
    tear_down(f);
    out
}
