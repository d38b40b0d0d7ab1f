//! Order statistics and process resource counters.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share of them. Unlike the median it moves smoothly when a run
/// spends a varying share of its time in a fast or a slow host state,
/// and unlike the mean it ignores the odd stalled sample.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Process resource usage at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    // `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const NVCSW: usize = 12;
    const NIVCSW: usize = 13;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of this target, and `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
    }
}

/// Peak resident set of this process image so far, KiB: `VmHWM` from
/// `/proc/self/status`. Not `getrusage`'s `ru_maxrss`, which carries over
/// the parent's peak at `fork` and keeps it across `exec`, so a benchmark
/// started by `cargo run` would report the peak of `cargo` itself.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "/proc/self/status: no VmHWM line".into())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage as laid out on 64-bit Linux");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).chain([1000.0]).collect();
        assert_eq!(trimmed_mean(&v, 0.1), 6.0);
    }

    #[test]
    fn usage_reads_this_process() {
        assert!(usage().cpu_s > 0.0);
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
