//! Analyzer breakdown: each kernel the analyzer runs, called alone on the
//! same corpus on one thread, against a one-thread `analyze_all_obs`. The
//! kernel rows plus the unattributed row add up to the one-thread time.

use dhub_compress::gzip_decompress_into;
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_tar::{EntryViewKind, TarView};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    pub gunzip_ms: f64,
    pub tar_ms: f64,
    pub hash_ms: f64,
    pub classify_ms: f64,
    pub analyze_one_thread_ms: f64,
}

impl Breakdown {
    /// One-thread analyze time no kernel row accounts for: directory
    /// bookkeeping, profile building, allocation.
    pub fn unattributed_ms(&self) -> f64 {
        self.analyze_one_thread_ms
            - (self.gunzip_ms + self.tar_ms + self.hash_ms + self.classify_ms)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn breakdown(layers: &[(Digest, Arc<Vec<u8>>)]) -> Breakdown {
    let mut b = Breakdown::default();
    let mut tar = Vec::new();
    for (_, blob) in layers {
        let t = Instant::now();
        gzip_decompress_into(blob, &mut tar).expect("downloaded layers inflate");
        b.gunzip_ms += ms(t);

        let t = Instant::now();
        let mut files: Vec<(String, &[u8])> = Vec::new();
        for entry in TarView::new(&tar) {
            let entry = entry.expect("downloaded layers parse");
            if let EntryViewKind::File(data) = entry.kind {
                files.push((entry.path.trim_end_matches('/').to_string(), data));
            }
        }
        b.tar_ms += ms(t);

        let t = Instant::now();
        let mut digests = 0u64;
        for (_, data) in &files {
            digests ^= Digest::of(data).0[0] as u64;
        }
        std::hint::black_box(digests);
        b.hash_ms += ms(t);

        let t = Instant::now();
        for (path, data) in &files {
            std::hint::black_box(dhub_magic::classify(path, data));
        }
        b.classify_ms += ms(t);
    }
    let t = Instant::now();
    let r = dhub_analyzer::analyze_all_obs(layers, 1, &MetricsRegistry::new());
    b.analyze_one_thread_ms = ms(t);
    std::hint::black_box(r.layers.len());
    b
}
