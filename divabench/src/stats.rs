//! Order statistics over a run's samples, and the process's peak
//! resident set.

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile `p` that leaves at least ten samples
/// above it, with its value (nearest rank); `None` below eleven
/// samples, where no such percentile exists.
pub fn tail_percentile(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p = 100 * (n - 10) / n;
    // Nearest rank: the ceil(p·n/100)-th smallest value (1-based), so
    // n − rank ≥ 10 samples lie above it.
    let rank = (p * n).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// A `/proc/self/status` field in MiB; 0 where `/proc` is unavailable.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap's free memory to the kernel, so the next job
/// starts from the heap a fresh process would have, rather than reusing
/// pages the previous job already faulted in.
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) to the current
/// resident set and returns that resident set in MiB, so a later
/// [`peak_rss_mib`] minus it is the peak growth of what ran between.
/// Where the kernel refuses the reset, the watermark stays
/// process-wide.
pub fn reset_peak_rss() -> f64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mib("VmRSS:")
}

/// The peak resident set since the last reset, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}
