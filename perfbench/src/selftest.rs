//! Self-tests for the benchmark's own helpers: seeded inputs and the
//! output checks, each of which must reject a deliberately corrupted result.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::checks::{self, Answers};
use crate::pull_mirror;
use dhub_compress::{gzip_compress, CompressOptions};
use dhub_dedupstore::{analyze_and_ingest_all_persistent, PersistentDedupStore, StoreStats};
use dhub_digest::FxHashMap;
use dhub_mirror::MirrorReport;
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::Publisher;
use dhub_tar::TarEntry;
use std::path::PathBuf;
use std::sync::Arc;

fn layer(files: &[(&str, &[u8])]) -> (Digest, Arc<Vec<u8>>) {
    let entries: Vec<TarEntry> = files
        .iter()
        .map(|(p, d)| TarEntry::file(p, d.to_vec()))
        .collect();
    let blob = gzip_compress(&dhub_tar::write_archive(&entries), &CompressOptions::fast());
    (Digest::of(&blob), Arc::new(blob))
}

fn corpus() -> Vec<(Digest, Arc<Vec<u8>>)> {
    vec![
        layer(&[
            ("usr/lib/libx.so", b"\x7fELF shared bytes"),
            ("etc/one", b"one"),
        ]),
        layer(&[
            ("opt/lib/libx.so", b"\x7fELF shared bytes"),
            ("etc/two", b"two\n"),
        ]),
        layer(&[("app/main.py", b"#!/usr/bin/env python\nprint('hi')\n")]),
    ]
}

/// A fresh directory under the checkout's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(crate::work_dir())
        .join(format!("selftest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn seed_changes_hub_and_trace() {
    let hub = |seed| dhub_synth::generate_hub(&pull_mirror::hub_config(seed));
    let (a, a2, b) = (hub(1), hub(1), hub(2));
    let blobs = |h: &dhub_synth::SyntheticHub| {
        let mut names = h.truth.ok_repos.clone();
        names.sort();
        names
            .iter()
            .map(|r| {
                h.registry
                    .get_manifest(r, "latest", false)
                    .unwrap()
                    .manifest_digest
            })
            .collect::<Vec<_>>()
    };
    let trace = |h, seed| pull_mirror::pull_trace(h, seed, 500);
    // Traces are computed before any manifest is fetched, as in the run.
    let (ta, ta2, tb) = (trace(&a, 1), trace(&a2, 1), trace(&b, 2));
    assert_eq!(ta, ta2, "the same seed gives the same trace");
    assert_ne!(ta, tb, "another seed gives another trace");
    assert_eq!(blobs(&a), blobs(&a2), "the same seed gives the same hub");
    assert_ne!(blobs(&a), blobs(&b), "another seed gives another hub");
}

#[test]
fn seed_changes_study_visit_order() {
    let hub = dhub_synth::generate_hub(&pull_mirror::hub_config(1));
    let crawl = dhub_crawler::crawl(&hub.search, &[]);
    let order = |seed| crate::study_ref::visit_order(&crawl, seed);
    assert_eq!(order(1), order(1), "the same seed gives the same order");
    assert_ne!(order(1), order(2), "another seed gives another order");
    let mut sorted = order(2);
    sorted.sort();
    assert_eq!(
        sorted, crawl.repos,
        "every crawled repository is visited once"
    );
}

#[test]
fn profile_check_rejects_one_flipped_field() {
    let layers = corpus();
    let a = dhub_analyzer::analyze_all(&layers, 1).layers;
    let b = dhub_analyzer::analyze_all(&layers, 2).layers;
    checks::same_profiles(&a, &b).unwrap();
    let mut flipped: FxHashMap<Digest, _> = b.clone();
    flipped.values_mut().next().unwrap().files[0].size ^= 1;
    assert!(checks::same_profiles(&a, &flipped).is_err());
    let mut dropped = b;
    let k = *dropped.keys().next().unwrap();
    dropped.remove(&k);
    assert!(checks::same_profiles(&a, &dropped).is_err());
}

#[test]
fn dedup_oracle_check_rejects_disagreement() {
    let layers = corpus();
    let store = dhub_dedupstore::DedupStore::new();
    let fused =
        dhub_dedupstore::analyze_and_ingest_all(&layers, 2, &store, &MetricsRegistry::new());
    let profiles = dhub_dedup::profile_slice(&fused.analysis.layers);
    let file = dhub_dedup::file_dedup(&profiles, 1);
    let stats = store.stats();
    checks::dedup_oracles_agree(&file, &stats).unwrap();
    let off = StoreStats {
        physical_bytes: stats.physical_bytes + 1,
        ..stats
    };
    assert!(checks::dedup_oracles_agree(&file, &off).is_err());
}

#[test]
fn blob_check_rejects_one_wrong_byte() {
    let (digest, blob) = layer(&[("a", b"payload")]);
    checks::blob_matches(&digest, &blob).unwrap();
    let mut bad = blob.as_ref().clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(checks::blob_matches(&digest, &bad).is_err());
}

#[test]
fn mirror_check_rejects_lost_requests() {
    let r = MirrorReport {
        requests: 10,
        hits: 6,
        misses: 3,
        coalesced: 1,
        ..Default::default()
    };
    checks::mirror_accounts(&r, 10).unwrap();
    assert!(checks::mirror_accounts(&r, 11).is_err());
    let r = MirrorReport { misses: 2, ..r };
    assert!(checks::mirror_accounts(&r, 10).is_err());
}

#[test]
fn reopen_check_rejects_a_missing_store_object() {
    let dir = scratch("reopen");
    let obs = MetricsRegistry::new();
    let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
    analyze_and_ingest_all_persistent(&corpus(), 2, &store, &obs);
    store.checkpoint().unwrap();
    let ingested = store.mem().stats();
    drop(store);
    let reopen = || {
        PersistentDedupStore::open(&dir, Publisher::new())
            .map(|s| s.mem().stats())
            .map_err(|e| e.to_string())
    };
    checks::reopen_matches(&ingested, reopen()).unwrap();

    let object = walk(&dir.join("objects"))
        .into_iter()
        .next()
        .expect("an object file");
    std::fs::remove_file(object).unwrap();
    assert!(checks::reopen_matches(&ingested, reopen()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap().flatten() {
        if e.file_type().unwrap().is_dir() {
            out.extend(walk(&e.path()));
        } else {
            out.push(e.path());
        }
    }
    out.sort();
    out
}

#[test]
fn db_check_rejects_a_changed_table_or_answer() {
    let layers = corpus();
    let store = dhub_dedupstore::DedupStore::new();
    let fused =
        dhub_dedupstore::analyze_and_ingest_all(&layers, 2, &store, &MetricsRegistry::new());
    let hub = dhub_synth::generate_hub(&pull_mirror::hub_config(3));
    let crawl = dhub_crawler::crawl(&hub.search, &[]);
    let dl = dhub_downloader::download_all(
        &hub.registry,
        &crawl.repos[..0],
        1,
        &dhub_registry::NetworkModel::wan(),
    );
    let data = crate::study_ref::assemble(&hub, &crawl, &dl, fused.analysis);
    let built = dhub_study::db::StudyDb::build(&data, &store.stats());
    let dir = scratch("db");
    built.save(&dir, &Publisher::new()).unwrap();
    let loaded = dhub_study::db::StudyDb::load(&dir).unwrap();
    let answers = Answers::of(&loaded);
    checks::db_matches(&built, &loaded, &answers).unwrap();

    let mut wrong = answers.clone();
    wrong.layer_percentiles[0].1 += 1;
    assert!(checks::db_matches(&built, &loaded, &wrong).is_err());
    let other = dhub_study::db::StudyDb::build(
        &data,
        &StoreStats {
            layers: 99,
            ..store.stats()
        },
    );
    assert!(checks::db_matches(&other, &loaded, &answers).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn request_cost_is_scaled_by_the_concurrent_sleep_probe() {
    // Requests every 5 ms taking 4.4 ms; the probe's 2 ms sleeps take
    // 2.2 ms in the first half of the run and 4.4 ms in the second, and
    // requests slow down with them.
    let requests: Vec<(f64, f64)> = (0..1000)
        .map(|i| (i as f64 * 0.005, if i < 500 { 0.0044 } else { 0.0088 }))
        .collect();
    let probe: Vec<(f64, f64)> = (0..2500)
        .map(|i| (i as f64 * 0.002, if i < 1250 { 0.0022 } else { 0.0044 }))
        .collect();
    let us = pull_mirror::scaled_request_us(&requests, &probe).unwrap();
    assert!((us - 4000.0).abs() < 1e-6, "{us}");
    assert!(pull_mirror::scaled_request_us(&requests, &[]).is_err());
    assert!(pull_mirror::scaled_request_us(&requests[..50], &probe).is_err());
}
