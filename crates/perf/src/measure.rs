//! Timed windows: closed and paced loops, and the per-window summary.
//!
//! A window is cut into slices of [`SLICE`] and every figure is computed
//! per slice. The reference machine is a small guest on a shared host:
//! its speed moves between plateaus that last seconds (a neighbour on the
//! core's other hardware thread, or in its cache), and the slowest
//! plateau costs a hand-off-bound workload 70 % more CPU per request than
//! the fastest. How much of a run is spent on a slow plateau varies from
//! run to run, so the median slice flips between plateaus; interference
//! only ever adds, so the window reports its quiet end — the slice at
//! quantile [`QUIET`] (best first) — which is the cost of the program
//! rather than of its neighbours. The whole-window means are printed
//! beside it, so work a change hides in occasional slow slices shows.

use std::time::{Duration, Instant};

/// Length of one slice of a timed window: short against the machine's
/// plateaus, long enough for a few dozen requests of the slowest paced
/// workload.
pub const SLICE: Duration = Duration::from_millis(100);

/// The slice a window reports, as a quantile of its slices ordered best
/// first.
pub const QUIET: f64 = 0.2;

/// One load thread of a window: given the window's start, runs its loop
/// and returns what it saw.
pub type Load<'a> = Box<dyn FnOnce(Instant) -> ThreadLog + Send + 'a>;

/// One completed operation, as offsets from its window's start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the operation completed.
    pub end_ns: u64,
    /// Completion minus issue (closed loop) or minus due time (paced).
    pub lat_ns: u64,
    /// Paced loop only: how late the generator issued it.
    pub late_ns: u64,
}

/// What one load thread saw in one window.
#[derive(Debug, Default)]
pub struct ThreadLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Closed loop: the next operation is issued when the previous one
/// returned. `op` returns whether the operation succeeded.
pub fn closed_loop(start: Instant, dur: Duration, mut op: impl FnMut() -> bool) -> ThreadLog {
    let mut log = ThreadLog::default();
    let end = start + dur;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            return log;
        }
        let ok = op();
        let t1 = Instant::now();
        log.attempted += 1;
        if ok {
            log.samples.push(Sample {
                end_ns: ns(t1 - start),
                lat_ns: ns(t1 - t0),
                late_ns: 0,
            });
        } else {
            log.failed += 1;
        }
    }
}

/// Open loop on a fixed schedule: request `k` of `client` is due at
/// `start + (client + clients·k)·tick` whether or not the previous one
/// returned, and its latency runs from the due time.
pub fn paced_loop(
    start: Instant,
    dur: Duration,
    tick: Duration,
    client: usize,
    clients: usize,
    mut op: impl FnMut() -> bool,
) -> ThreadLog {
    let mut log = ThreadLog::default();
    for k in 0u32.. {
        let offset = tick * (client as u32 + clients as u32 * k);
        if offset >= dur {
            break;
        }
        let due = start + offset;
        // A plain sleep: it overshoots by the kernel's timer slack (tens of
        // microseconds, counted in the latency), but spinning up to the due
        // time would take the CPU from the server under test.
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let issued = Instant::now();
        let ok = op();
        let t1 = Instant::now();
        log.attempted += 1;
        if ok {
            log.samples.push(Sample {
                end_ns: ns(t1 - start),
                lat_ns: ns(t1 - due),
                late_ns: ns(issued - due),
            });
        } else {
            log.failed += 1;
        }
    }
    log
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let at = q * (sorted.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Quiet-slice figures of one window (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub throughput_rps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    /// Informational: on a shared machine this is the hypervisor's tail.
    pub p99_us: f64,
    /// Samples behind each slice's percentiles (median across slices).
    pub samples_per_slice: f64,
    /// Process CPU per completed operation.
    pub cpu_us_per_op: f64,
    /// Generator lateness p99 (paced loops; median across slices).
    pub late_p99_us: f64,
    /// Whole-window figures, interference included: completed operations
    /// per second and process CPU per completed operation.
    pub whole_rps: f64,
    pub whole_cpu_us_per_op: f64,
    /// Slices the window was cut into.
    pub slices: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// One reading of the sampler: when it was taken, as an offset from the
/// window's start, and the process CPU clock then.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub at_ns: u64,
    pub cpu_s: f64,
}

/// Runs one timed window: every load on its own thread from a common
/// start, beside a sampler that reads the process CPU clock at each slice
/// boundary.
pub fn timed_window(dur: Duration, loads: Vec<Load<'_>>) -> Summary {
    let start = Instant::now() + Duration::from_millis(1);
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    let slices = ((dur.as_nanos() / SLICE.as_nanos()) as u32).max(1);
    let (logs, readings) = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            (0..=slices)
                .map(|i| {
                    sleep_until(start + dur * i / slices);
                    // The sampler wakes late by the timer slack and by
                    // whatever runs ahead of it; a slice is what lies
                    // between two readings, not between two due times.
                    Reading {
                        at_ns: ns(start.elapsed()),
                        cpu_s: process_cpu_seconds(),
                    }
                })
                .collect::<Vec<Reading>>()
        });
        let threads: Vec<_> = loads
            .into_iter()
            .map(|load| {
                scope.spawn(move || {
                    sleep_until(start);
                    load(start)
                })
            })
            .collect();
        let logs: Vec<ThreadLog> = threads
            .into_iter()
            .map(|t| t.join().expect("load thread does not panic"))
            .collect();
        (logs, sampler.join().expect("sampler does not panic"))
    });
    summarize(&logs, &readings)
}

/// The figures of one slice.
struct Slice {
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    samples: f64,
    cpu_us_per_op: f64,
    late_p99_us: f64,
}

/// `readings` are the sampler's, one per slice boundary, in order.
pub fn summarize(logs: &[ThreadLog], readings: &[Reading]) -> Summary {
    let n_slices = readings.len() - 1;
    // Per slice: latencies and generator lateness, in µs.
    let mut samples: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); n_slices];
    for s in logs.iter().flat_map(|l| &l.samples) {
        // An operation that completes before the first reading or after
        // the last belongs to no slice: counting it would credit the
        // window with work done outside it.
        let after = readings.partition_point(|r| r.at_ns <= s.end_ns);
        if let Some((lat, late)) = after.checked_sub(1).and_then(|i| samples.get_mut(i)) {
            lat.push(s.lat_ns as f64 / 1e3);
            late.push(s.late_ns as f64 / 1e3);
        }
    }
    let slices: Vec<Slice> = samples
        .iter_mut()
        .enumerate()
        .filter(|(_, (lat, _))| !lat.is_empty())
        .map(|(i, (lat, late))| {
            lat.sort_by(f64::total_cmp);
            late.sort_by(f64::total_cmp);
            let n = lat.len() as f64;
            let slice_s = (readings[i + 1].at_ns - readings[i].at_ns).max(1) as f64 / 1e9;
            Slice {
                rps: n / slice_s,
                p50_us: quantile(lat, 0.5),
                p95_us: quantile(lat, 0.95),
                p99_us: quantile(lat, 0.99),
                samples: n,
                cpu_us_per_op: (readings[i + 1].cpu_s - readings[i].cpu_s) * 1e6 / n,
                late_p99_us: quantile(late, 0.99),
            }
        })
        .collect();
    // `q` of a field across slices, lowest first.
    let at = |field: fn(&Slice) -> f64, q: f64| {
        let mut values: Vec<f64> = slices.iter().map(field).collect();
        values.sort_by(f64::total_cmp);
        quantile(&values, q)
    };
    let counted: f64 = slices.iter().map(|s| s.samples).sum();
    let (first, last) = (readings[0], readings[n_slices]);
    Summary {
        throughput_rps: at(|s| s.rps, 1.0 - QUIET),
        p50_us: at(|s| s.p50_us, QUIET),
        p95_us: at(|s| s.p95_us, QUIET),
        p99_us: at(|s| s.p99_us, QUIET),
        samples_per_slice: at(|s| s.samples, 0.5),
        cpu_us_per_op: at(|s| s.cpu_us_per_op, QUIET),
        late_p99_us: at(|s| s.late_p99_us, 0.5),
        whole_rps: counted / ((last.at_ns - first.at_ns).max(1) as f64 / 1e9),
        whole_cpu_us_per_op: (last.cpu_s - first.cpu_s) * 1e6 / counted,
        slices: n_slices,
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
    }
}

/// User + system CPU seconds of this process, all threads, from the
/// scheduler's nanosecond accounting. (`/proc/self/stat` counts the same
/// thing by sampling at 100 Hz, which is ±3 % over a window of a thousand
/// ticks — more than this metric's bound.) Scheduler noise moves
/// wall-clock figures; it moves this one least.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on every
    // 64-bit Linux libc, which std already links), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Pins this thread — and so every thread spawned after it, the
/// libraries' workers included — to the lowest-numbered CPU the process
/// may use, and returns that CPU. On a small virtual machine the cost of a
/// thread wake-up depends on whether it crosses CPUs, and the scheduler's
/// placement flips between packing and spreading from one run to the
/// next (wire_point: 12 k rps at 36 µs CPU per request packed, 8 k at
/// 100 µs spread); on one CPU every run takes the same path.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
        fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::ffi::c_int;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte size passed and is
    // only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

/// Set-up durations of one run. Set-up is timed in two rounds, before
/// the warm-up and again after the last window, so that the median spans
/// the run instead of the one moment the run began in.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times `f` `n` times and returns the last value, tearing the
    /// earlier builds down with `drop_early`.
    pub fn round<T>(
        &mut self,
        n: usize,
        mut f: impl FnMut() -> T,
        mut drop_early: impl FnMut(T),
    ) -> T {
        let mut last = None;
        for _ in 0..n.max(1) {
            if let Some(prev) = last.take() {
                drop_early(prev);
            }
            let t0 = Instant::now();
            last = Some(f());
            self.0.push(t0.elapsed().as_secs_f64());
        }
        last.expect("n >= 1")
    }

    /// Median of every set-up timed so far, in seconds.
    pub fn median_s(&mut self) -> f64 {
        median(&mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_takes_the_quiet_slice_and_drops_stragglers() {
        // Eleven slices of 500 ns completing 1..=11 operations, one
        // straggler past the last reading; 3 CPU-microseconds per slice.
        let readings: Vec<Reading> = (0..=11)
            .map(|i| Reading {
                at_ns: i * 500,
                cpu_s: i as f64 * 3e-6,
            })
            .collect();
        let mut log = ThreadLog::default();
        for slice in 0..11u64 {
            for i in 0..=slice {
                log.samples.push(Sample {
                    end_ns: slice * 500 + i,
                    lat_ns: 1_000 * (slice + 1),
                    late_ns: 0,
                });
            }
        }
        log.samples.push(Sample {
            end_ns: 5_500,
            lat_ns: 9_000_000,
            late_ns: 0,
        });
        log.attempted = 67;
        let s = summarize(&[log], &readings);
        // The slice a fifth of the way in from the best end: 9 operations
        // for throughput and CPU, the third-lowest latency.
        assert_eq!(s.throughput_rps, 9.0 / 0.5e-6);
        assert!((s.cpu_us_per_op - 3.0 / 9.0).abs() < 1e-9);
        assert_eq!(s.p50_us, 3.0);
        assert_eq!(s.p99_us, 3.0);
        assert_eq!(s.samples_per_slice, 6.0);
        assert_eq!(s.whole_rps, 66.0 / 5.5e-6);
        assert!((s.whole_cpu_us_per_op - 0.5).abs() < 1e-9);
        assert_eq!(s.slices, 11);
        assert_eq!(s.attempted, 67);
    }

    #[test]
    fn cpu_clock_advances() {
        let before = process_cpu_seconds();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_seconds() > before);
    }
}
