//! Output checks. Every check returns `Err` with a one-line reason; any
//! failed check makes the run report `"correct": false` and exit non-zero.

use crate::study_ref::StudyPass;
use dhub_analyzer::AnalysisResult;
use dhub_dedup::FileDedupStats;
use dhub_dedupstore::StoreStats;
use dhub_digest::FxHashMap;
use dhub_mirror::MirrorReport;
use dhub_model::{Digest, LayerProfile};
use dhub_study::db::StudyDb;

/// The EXPERIMENTS.md reference seed and its `report_output.txt` anchors.
pub const REFERENCE_SEED: u64 = 20170530;
pub struct Anchors {
    pub files: u64,
    pub layers: u64,
    pub unique_files: u64,
    pub logical_bytes: u64,
    pub dedup_bytes: u64,
}
pub const REFERENCE: Anchors = Anchors {
    files: 929_312,
    layers: 1_841,
    unique_files: 102_271,
    logical_bytes: 221_186_625,
    dedup_bytes: 38_029_230,
};

/// The fused pass must profile every layer exactly as analyze-only does.
pub fn same_profiles(
    fused: &FxHashMap<Digest, LayerProfile>,
    only: &FxHashMap<Digest, LayerProfile>,
) -> Result<(), String> {
    if fused.len() != only.len() {
        return Err(format!(
            "fused profiled {} layers, analyze-only {}",
            fused.len(),
            only.len()
        ));
    }
    for (d, p) in fused {
        match only.get(d) {
            Some(q) if q == p => {}
            Some(_) => {
                return Err(format!(
                    "layer {d}: fused profile differs from analyze-only"
                ))
            }
            None => return Err(format!("layer {d}: missing from analyze-only")),
        }
    }
    Ok(())
}

/// Two independent oracles for file-level dedup must agree: the analytic
/// index over layer profiles (`dhub-dedup`) and the store that actually
/// holds the objects.
pub fn dedup_oracles_agree(file: &FileDedupStats, store: &StoreStats) -> Result<(), String> {
    let pairs = [
        (
            "unique files vs store objects",
            file.unique_files,
            store.unique_objects as u64,
        ),
        ("logical bytes", file.total_bytes, store.logical_bytes),
        (
            "deduplicated bytes vs store physical bytes",
            file.unique_bytes,
            store.physical_bytes,
        ),
    ];
    for (what, analytic, stored) in pairs {
        if analytic != stored {
            return Err(format!(
                "{what}: dhub-dedup says {analytic}, the store says {stored}"
            ));
        }
    }
    Ok(())
}

/// The reference seed must reproduce `report_output.txt`.
pub fn reference_anchors(file: &FileDedupStats, layers: u64) -> Result<(), String> {
    let r = &REFERENCE;
    let pairs = [
        ("files", file.total_instances, r.files),
        ("unique layers", layers, r.layers),
        ("unique files", file.unique_files, r.unique_files),
        ("logical bytes", file.total_bytes, r.logical_bytes),
        ("deduplicated bytes", file.unique_bytes, r.dedup_bytes),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!(
                "reference seed: {what} = {got}, report_output.txt has {want}"
            ));
        }
    }
    Ok(())
}

/// All `study-ref` checks on one pass and an analyze-only run over the
/// same blobs. The pass studies the reference hub, so the
/// `report_output.txt` anchors hold on every run.
pub fn check_study(p: &StudyPass, only: &AnalysisResult) -> Vec<String> {
    let mut errs = Vec::new();
    let mut push = |r: Result<(), String>| {
        if let Err(e) = r {
            errs.push(e);
        }
    };
    push(same_profiles(&p.data.layers, &only.layers));
    if p.data.analyze_errors != 0 || !only.errors.is_empty() {
        push(Err(format!(
            "analyze errors: fused {}, analyze-only {}",
            p.data.analyze_errors,
            only.errors.len()
        )));
    }
    if p.data.layers.len() != p.data.download.unique_layers {
        push(Err(format!(
            "{} layers profiled, {} downloaded",
            p.data.layers.len(),
            p.data.download.unique_layers
        )));
    }
    if p.figures.len() != 29
        || p.figures
            .iter()
            .any(|f| f.rows.is_empty() && f.anchors.is_empty())
    {
        push(Err(format!(
            "{} figures rendered, some empty; 29 expected",
            p.figures.len()
        )));
    }
    let file = dhub_dedup::file_dedup(&p.data.layer_slice(), crate::THREADS);
    push(dedup_oracles_agree(&file, &p.store.stats()));
    push(reference_anchors(&file, p.data.layers.len() as u64));
    errs
}

/// A pulled blob must hash to the digest the manifest names.
pub fn blob_matches(digest: &Digest, bytes: &[u8]) -> Result<(), String> {
    if Digest::of(bytes) == *digest {
        Ok(())
    } else {
        Err(format!(
            "blob {digest}: {} bytes that hash elsewhere",
            bytes.len()
        ))
    }
}

/// Every request the clients sent reached the mirror and was resolved as
/// a hit, a miss, or a follower of a coalesced miss.
pub fn mirror_accounts(report: &MirrorReport, sent: u64) -> Result<(), String> {
    let resolved = report.hits + report.misses + report.coalesced;
    if report.requests != sent || resolved != sent {
        return Err(format!(
            "clients sent {sent} requests; mirror saw {}, resolved {resolved} \
             ({} hits + {} misses + {} coalesced)",
            report.requests, report.hits, report.misses, report.coalesced
        ));
    }
    Ok(())
}

/// A cold reopen must rebuild exactly the stats the ingest left.
pub fn reopen_matches(
    ingested: &StoreStats,
    reopened: Result<StoreStats, String>,
) -> Result<(), String> {
    match reopened {
        Ok(s) if s == *ingested => Ok(()),
        Ok(s) => Err(format!(
            "reopened store stats {s:?} differ from ingested {ingested:?}"
        )),
        Err(e) => Err(format!("reopen failed: {e}")),
    }
}

/// The four `dhub query` answers.
#[derive(Clone, Debug, PartialEq)]
pub struct Answers {
    pub summary: Vec<String>,
    pub dedup: Vec<String>,
    pub top_types: Vec<(String, u64, u64)>,
    pub layer_percentiles: Vec<(&'static str, u64)>,
}

impl Answers {
    pub fn of(db: &StudyDb) -> Answers {
        Answers {
            summary: db.summary(),
            dedup: db.dedup_summary(),
            top_types: db.top_file_types(10),
            layer_percentiles: db.layer_size_percentiles(),
        }
    }
}

/// The tables read back must equal the tables built, and so must the
/// answers computed from them.
pub fn db_matches(built: &StudyDb, loaded: &StudyDb, answers: &Answers) -> Result<(), String> {
    let tables = [
        ("layers", &built.layers, &loaded.layers),
        ("files", &built.files, &loaded.files),
        ("images", &built.images, &loaded.images),
        ("dedup", &built.dedup, &loaded.dedup),
        ("study", &built.study, &loaded.study),
    ];
    for (name, b, l) in tables {
        if b != l {
            return Err(format!("table {name} loaded differs from the one built"));
        }
    }
    if *answers != Answers::of(built) {
        return Err("query answers from disk differ from those computed in memory".into());
    }
    Ok(())
}
