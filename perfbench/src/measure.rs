//! Measurement primitives: a fixed-size latency histogram, process CPU
//! time, peak resident memory, CPU pinning, and the program-free
//! host-stall probe.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Sub-buckets per power of two: bucket width is under 0.8% of its value.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Powers of two above `SUB` covered (up to ~2^41 ns, half an hour).
const OCTAVES: usize = 34;

/// A log-linear histogram of nanosecond samples with fixed memory, so
/// the benchmark's own footprint does not grow with the ops a run does.
/// Quantiles interpolate inside a bucket by rank.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; SUB as usize * (OCTAVES + 1)],
            n: 0,
        }
    }
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let mantissa = SUB + i % SUB;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    let i = (u64::from(shift) + 1) * SUB + ((ns >> shift) - SUB);
    (i as usize).min(SUB as usize * (OCTAVES + 1) - 1)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos() as u64);
    }

    /// Record one sample given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 > rank {
                let (lo, width) = bucket_bounds(i);
                return lo + width * (rank - before as f64 + 0.5) / c as f64;
            }
            before += c;
        }
        let (lo, width) = bucket_bounds(self.counts.len() - 1);
        lo + width
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    /// The highest of p50, p90, p99, p99.9 and p99.99 that has at least
    /// ten samples beyond it, as `(percentile, value in ms)`.
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        [0.5, 0.9, 0.99, 0.999, 0.9999]
            .into_iter()
            .rev()
            .find(|q| self.n as f64 * (1.0 - q) >= 10.0)
            .map(|q| (q * 100.0, self.quantile_ms(q)))
    }
}

/// Per-request samples kept whole, for decompositions a histogram
/// cannot give (medians of differences).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux), and `clock_gettime` only
    // writes through the pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// While alive, the thread that made it, and every thread that thread
/// starts, runs on one CPU. Dropping it restores the thread's earlier
/// CPU set (threads started meanwhile keep the single CPU).
pub struct CpuPin {
    before: CpuSet,
    /// The CPU everything runs on.
    pub cpu: usize,
}

impl CpuPin {
    /// Pin the calling thread to the lowest-numbered CPU it may run on.
    /// `None` if the affinity calls fail; then nothing has changed.
    pub fn lowest() -> Option<CpuPin> {
        let mut before: CpuSet = [0; 16];
        // SAFETY: `before` is a valid, exclusively borrowed `cpu_set_t`
        // of the size passed, and the call writes only within it.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut before) } != 0 {
            return None;
        }
        let (word, bits) = before.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: `one` is a valid `cpu_set_t` of the size passed, only read.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        (rc == 0).then_some(CpuPin { before, cpu })
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        // SAFETY: as in `lowest`; `before` came from `sched_getaffinity`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.before) };
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What the host-stall probe saw.
pub struct HostProbe {
    /// p99 of the probe's delay from intended send to reply, in ms.
    pub p99_ms: f64,
    /// Pings whose delay exceeded 5 ms.
    pub stalls_over_5ms: u64,
    /// Pings sent.
    pub pings: u64,
}

/// Ping-pong between two threads at `rate_hz` for `duration`, with no
/// code of the repository involved, timing each reply from the moment
/// the ping was due. A high p99 flags a host that stalls on its own.
pub fn host_stall_probe(duration: Duration, rate_hz: f64) -> HostProbe {
    let (ping, pings) = mpsc::channel::<()>();
    let (pong, pongs) = mpsc::channel::<()>();
    let echo = thread::spawn(move || {
        for () in pings {
            if pong.send(()).is_err() {
                break;
            }
        }
    });
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let mut hist = Histogram::default();
    let mut stalls = 0;
    let start = Instant::now();
    let mut due = start;
    while due - start < duration {
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        ping.send(()).expect("echo thread alive");
        pongs.recv().expect("echo thread alive");
        let delay = due.elapsed();
        if delay > Duration::from_millis(5) {
            stalls += 1;
        }
        hist.record(delay);
        due += period;
    }
    drop(ping);
    echo.join().expect("echo thread exits cleanly");
    HostProbe {
        p99_ms: hist.quantile_ms(0.99),
        stalls_over_5ms: stalls,
        pings: hist.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for ns in [0u64, 1, 127, 128, 129, 255, 256, 1000, 65_432, 1 << 30] {
            let (lo, width) = bucket_bounds(bucket_of(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + width, "{ns}");
        }
    }

    fn allowed_cpus() -> u32 {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `CpuPin::lowest`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        assert_eq!(rc, 0);
        set.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pin_holds_one_cpu_and_drop_restores_the_set() {
        // A thread of its own, so no other test runs pinned.
        thread::spawn(|| {
            let before = allowed_cpus();
            let pin = CpuPin::lowest().expect("affinity calls work on Linux");
            assert_eq!(allowed_cpus(), 1);
            let child = thread::spawn(allowed_cpus).join().expect("child thread");
            assert_eq!(child, 1, "threads started while pinned inherit the pin");
            drop(pin);
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .expect("pin test thread");
    }

    #[test]
    fn quantiles_are_close() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record_ns(v * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.01, "{p50}");
        assert_eq!(h.tail_ms().map(|t| t.0), Some(99.9));
    }
}
