//! How the benchmark takes its times on a host whose speed moves. The
//! host the bounds were set on is a 2-vCPU VM shared with other tenants;
//! its speed of the moment moves by 1.5–3× within seconds: neighbours
//! steal CPU time, share its cores and caches, delay timer wake-ups and
//! queue the shared disk. Each phase is therefore taken where that drift
//! cancels.
//!
//! - A compute phase is charged in CPU time of this process
//!   ([`cpu_seconds`]), which stolen time does not enter, scaled by a
//!   [`Calibrator`]: a benchmark-owned kernel whose CPU time, measured right
//!   before and right after the phase, tracks the host's speed per CPU
//!   second. The result reads as CPU seconds at the nominal speed
//!   [`NOMINAL_CAL_S`].
//! - A phase that waits instead is timed beside a [`SleepProbe`]: a
//!   benchmark-owned 2 ms sleep timed over and over on a thread of its own
//!   while `pull-mirror` pulls, since the HTTP server's accept poll waits
//!   on the same timer wake-up for every connection. The pulls are
//!   reported at the probe's nominal latency.
//!
//! - A phase that reads many small files on one thread (`durable-ingest`'s
//!   reopen and queries) is charged in CPU time scaled by a
//!   [`FileReference`] instead: benchmark-owned small files read back and
//!   inserted into a hash map on the calling thread. The host's slow phases
//!   slow such work by up to 1.7×, the compute kernel by only 1.1–1.2× and
//!   the file reference by 1.4×, so the phase's cost is taken as a power of
//!   the reference's slowdown, the power fitted per phase
//!   ([`Spent::scaled_cpu_s`]).
//!
//! `durable-ingest`'s write phase waits on fsync, and none of wall time
//! scaled by a concurrent fsync probe, CPU time, or CPU time scaled by the
//! calibrator held still from run to run; it runs once per run as part of
//! set-up, and [`flush_latency`] records the disk's state beside it.
//!
//! The references run no program code, so a change to the program moves
//! the scaled figure while a change in the host's speed mostly cancels.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds all threads of this process have run (user plus system,
/// nanosecond resolution).
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run.
fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// The calibration kernel's CPU seconds per thread on the host the bounds
/// were set on (2-vCPU Intel Xeon VM); scaled CPU times read as at that
/// speed.
pub const NOMINAL_CAL_S: f64 = 0.05;

/// Kernel runs per measurement; the median is kept.
const CAL_REPEATS: usize = 5;

/// A fixed kernel owned by the benchmark, run on every worker thread at
/// once: integer mixing over a 256 KiB buffer (core speed), then random
/// read-modify-writes over an 8 MiB buffer (cache and memory speed, where
/// neighbours on the same host compete with the program's hash tables and
/// inflate windows). Its CPU time per thread moves with the host's speed
/// per CPU second but never with the program.
pub struct Calibrator {
    bufs: Vec<(Vec<u64>, Vec<u64>)>,
    /// Every measurement's core and memory parts, in order.
    pub history: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let bufs = (0..crate::THREADS as u64)
            .map(|t| {
                let alu = (0..1u64 << 15).map(|i| i ^ t).collect();
                let mem = (0..1u64 << 20)
                    .map(|i| i.wrapping_mul(0x9E37_79B9) ^ t)
                    .collect();
                (alu, mem)
            })
            .collect();
        Calibrator {
            bufs,
            history: Vec::new(),
        }
    }

    fn core_kernel(buf: &mut [u64]) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            for v in buf.iter_mut() {
                x = (x ^ *v).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(29);
                *v = x;
            }
        }
        x
    }

    fn memory_kernel(buf: &mut [u64]) -> u64 {
        let mask = buf.len() - 1;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..1 << 18 {
            x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let i = (x as usize) & mask;
            buf[i] = buf[i].wrapping_add(x);
            x ^= buf[i];
        }
        x
    }

    /// Mean CPU seconds per thread of one kernel run on every worker
    /// thread (median of [`CAL_REPEATS`] runs).
    pub fn measure(&mut self) -> f64 {
        let runs: Vec<(f64, f64)> = (0..CAL_REPEATS)
            .map(|_| {
                let per_thread: Vec<(f64, f64)> = std::thread::scope(|s| {
                    let hs: Vec<_> = self
                        .bufs
                        .iter_mut()
                        .map(|(alu, mem)| {
                            s.spawn(move || {
                                let c0 = thread_cpu_seconds();
                                std::hint::black_box(Calibrator::core_kernel(alu));
                                let c1 = thread_cpu_seconds();
                                std::hint::black_box(Calibrator::memory_kernel(mem));
                                (c1 - c0, thread_cpu_seconds() - c1)
                            })
                        })
                        .collect();
                    hs.into_iter()
                        .map(|h| h.join().expect("calibration thread"))
                        .collect()
                });
                let n = per_thread.len() as f64;
                let sum = per_thread
                    .iter()
                    .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
                (sum.0 / n, sum.1 / n)
            })
            .collect();
        let core = crate::stats::median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let memory = crate::stats::median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
        self.history.push((core, memory));
        core + memory
    }

    /// The measurements so far as `core+memory` milliseconds, for the
    /// provenance line.
    pub fn history_ms(&self) -> String {
        let parts: Vec<String> = self
            .history
            .iter()
            .map(|(c, m)| format!("{:.2}+{:.2}", c * 1e3, m * 1e3))
            .collect();
        parts.join(" ")
    }

    /// Runs `f` between two calibrations and measures what it took.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, Spent) {
        let before = self.measure();
        let (r, mut s) = spent(f);
        s.cal_s = (before + self.measure()) / 2.0;
        (r, s)
    }
}

/// What one phase took.
#[derive(Clone, Copy, Debug)]
pub struct Spent {
    pub wall_s: f64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
    /// The reference seen around the phase: the [`Calibrator`]'s or the
    /// [`FileReference`]'s CPU seconds.
    pub cal_s: f64,
}

impl Spent {
    /// CPU seconds at the nominal host speed.
    pub fn nominal_cpu_s(&self) -> f64 {
        self.scaled_cpu_s(NOMINAL_CAL_S, 1.0)
    }

    /// CPU seconds at the speed where the reference in `cal_s` takes
    /// `nominal_s`, for a phase whose CPU time grows as the reference's to
    /// the power `elasticity` when the host slows.
    pub fn scaled_cpu_s(&self, nominal_s: f64, elasticity: f64) -> f64 {
        self.cpu_s * (nominal_s / self.cal_s).powf(elasticity)
    }
}

/// Runs `f` and measures what it took, with the nominal calibration; the
/// caller sets `cal_s` when it calibrated around the phase.
pub fn spent<R>(f: impl FnOnce() -> R) -> (R, Spent) {
    let cpu = cpu_seconds();
    let t = Instant::now();
    let r = f();
    (
        r,
        Spent {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu,
            cal_s: NOMINAL_CAL_S,
        },
    )
}

/// The [`FileReference`]'s CPU seconds per measurement on the host the
/// bounds were set on.
pub const NOMINAL_FILE_REF_S: f64 = 0.08;

/// Files the [`FileReference`] writes and reads back.
const FILE_REF_FILES: usize = 8000;

/// A fixed set of small files owned by the benchmark (64 B to 4 KiB,
/// fanned out over 256 directories, as the object store lays out its
/// objects), read back on the calling thread: list the directories, sort
/// the paths, read each file, hash its bytes and keep it in a hash map.
/// The directory listings, opens, reads and allocations are the kind of
/// work a store replay does, so its CPU time moves with the host's speed
/// for that work, never with the program.
pub struct FileReference {
    dir: std::path::PathBuf,
    /// Every measurement in seconds, in order.
    pub history: Vec<f64>,
}

impl FileReference {
    /// Writes the files under `dir` and reads them once, so every
    /// measurement finds them in the page cache.
    pub fn create(dir: &Path) -> std::io::Result<FileReference> {
        let mut rng = crate::stats::SplitMix(0x5EED_F11E);
        for i in 0..FILE_REF_FILES {
            let shard = dir.join(format!("{:02x}", i % 256));
            std::fs::create_dir_all(&shard)?;
            let len = 64 + (rng.next_u64() % 4096) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            std::fs::write(shard.join(format!("{i:08x}")), data)?;
        }
        let r = FileReference {
            dir: dir.to_path_buf(),
            history: Vec::new(),
        };
        r.read_all()?;
        Ok(r)
    }

    fn read_all(&self) -> std::io::Result<usize> {
        let mut paths = Vec::with_capacity(FILE_REF_FILES);
        for shard in std::fs::read_dir(&self.dir)? {
            for f in std::fs::read_dir(shard?.path())? {
                paths.push(f?.path());
            }
        }
        paths.sort();
        let mut kept: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for p in &paths {
            let data = std::fs::read(p)?;
            let h = data.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ *b as u64).wrapping_mul(0x0100_0000_01B3)
            });
            kept.insert(h, data);
        }
        Ok(kept.len())
    }

    /// CPU seconds of one read-back on the calling thread.
    pub fn measure(&mut self) -> f64 {
        let c0 = thread_cpu_seconds();
        let n = self.read_all().expect("reference files stay readable");
        let s = thread_cpu_seconds() - c0;
        assert_eq!(n, FILE_REF_FILES, "reference files hash apart");
        self.history.push(s);
        s
    }

    /// The measurements so far in milliseconds, for the provenance line.
    pub fn history_ms(&self) -> String {
        let parts: Vec<String> = self
            .history
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        parts.join(" ")
    }
}

/// The sleep a [`SleepProbe`] asks for; also its nominal latency.
pub const SLEEP: Duration = Duration::from_millis(2);

/// One probe sample: when it started (seconds since the probe's origin)
/// and how long it took (seconds).
pub type Sample = (f64, f64);

/// Times a [`SLEEP`] sleep over and over on a thread of its own: the
/// host's timer wake-up latency of the moment.
pub struct SleepProbe {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Sample>>,
}

impl SleepProbe {
    pub fn start(origin: Instant) -> SleepProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let t = Instant::now();
                std::thread::sleep(SLEEP);
                samples.push(((t - origin).as_secs_f64(), t.elapsed().as_secs_f64()));
            }
            samples
        });
        SleepProbe { stop, handle }
    }

    /// Stops the probe and returns its samples.
    pub fn stop(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sleep probe thread")
    }
}

/// Median latency of `n` small durable publishes into `dir` (temp write,
/// fsync, rename, directory fsync): the disk's flush latency of the moment.
pub fn flush_latency(dir: &Path, n: usize) -> std::io::Result<f64> {
    let data = vec![0x5Au8; 4096];
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        publish(dir, &format!("probe-{i}"), &data)?;
        lat.push(t.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&lat))
}

fn publish(dir: &Path, name: &str, data: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(data)?;
    f.sync_all()?;
    std::fs::rename(&tmp, dir.join(name))?;
    std::fs::File::open(dir)?.sync_all()
}

/// Latencies of the samples that started within `[from, to)`.
pub fn latencies_in(samples: &[Sample], from: f64, to: f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|(t, _)| (from..to).contains(t))
        .map(|&(_, d)| d)
        .collect()
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}
