//! What the benchmark needs from the machine and the process: host facts
//! for every report, a frozen reference kernel that shows whether a run sat
//! in a slow stretch of the host, peak RSS, and a counting allocator.

use pivot_metric_repro as pmr;
use pmr::obs::JsonObj;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `System` plus two counters that only move while [`count_allocs`] runs:
/// outside it an allocation pays one relaxed load, so the end-to-end
/// numbers are those of the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the `(allocations, bytes)` every
/// thread of the process made meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// not readable, which fails the run's non-zero check rather than hiding.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The commit of the checkout, when the benchmark is run from the root of
/// one. Nothing above the working directory is read.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    Some(match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(std::path::Path::new(".git").join(r))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    })
}

/// Host facts as a JSON object; unknown ones read `"unknown"`.
pub fn facts(reference: &Reference) -> String {
    let unknown = || "unknown".to_string();
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    JsonObj::new()
        .field_u64("nproc", nproc() as u64)
        .field_str("simd", pmr::metric::simd::tier().label())
        .field_str(
            "rustc",
            &first_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .field_str("commit", &git_commit().unwrap_or_else(unknown))
        .field_str("governor", &governor)
        .field_f64("ref_ms", reference.fastest_ms())
        .field_f64("ref_spread", reference.spread())
        .finish()
}

/// A frozen kernel timed at the start of every round. It never changes
/// with the repository, so a run whose `ref_ms` is high sat in a slow
/// stretch of the host and its timings are high for that reason.
#[derive(Default)]
pub struct Reference {
    alu_ms: Vec<f64>,
    stream_gbps: Vec<f64>,
    buf: Vec<u64>,
}

impl Reference {
    /// With `stream_mb > 0` each sample also sums a buffer of that size,
    /// the roofline for the scan kernel; the untraced run passes 0 so the
    /// buffer does not sit in its peak RSS.
    pub fn new(stream_mb: usize) -> Self {
        Reference {
            buf: (0..stream_mb as u64 * (1 << 20) / 8).collect(),
            ..Reference::default()
        }
    }

    pub fn sample(&mut self) {
        // A dependent multiply-add chain: pure core time, no memory.
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..4_000_000u64 {
            x = std::hint::black_box(x)
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(i);
        }
        std::hint::black_box(x);
        self.alu_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !self.buf.is_empty() {
            let t = Instant::now();
            let sum = self.buf.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            std::hint::black_box(sum);
            self.stream_gbps
                .push(self.buf.len() as f64 * 8.0 / t.elapsed().as_secs_f64() / 1e9);
        }
    }

    pub fn samples(&self) -> usize {
        self.alu_ms.len()
    }

    pub fn fastest_ms(&self) -> f64 {
        self.alu_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// (median − fastest) / fastest: how unsteady the host was in this run.
    pub fn spread(&self) -> f64 {
        (crate::stats::median(&self.alu_ms) - self.fastest_ms()) / self.fastest_ms()
    }

    /// The best streaming rate seen, GB/s.
    pub fn stream_gbps(&self) -> f64 {
        self.stream_gbps.iter().copied().fold(0.0, f64::max)
    }
}
