//! The benchmark's own arithmetic and process readers: order
//! statistics, the tail-percentile rule, CPU time and peak-memory
//! readers, and a scratch-directory guard.

use std::path::{Path, PathBuf};

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value with exactly ten larger samples, reported with the
/// percentile it stands at, `100 · (n − 10) / n`. `None` when fewer
/// than forty samples exist — a percentile that close to the median
/// would be no tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 4 * TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 1 - TAIL_BEYOND;
    Some((v[idx], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64))
}

/// `(min, median, max)` of a sample of sizes.
pub fn spread(values: &[usize]) -> (usize, f64, usize) {
    let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    (
        values.iter().copied().min().unwrap_or(0),
        if floats.is_empty() {
            0.0
        } else {
            median(&floats)
        },
        values.iter().copied().max().unwrap_or(0),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU of this process, all threads, in seconds.
pub fn self_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on) and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn clock_ticks_per_sec() -> f64 {
    // SAFETY: sysconf takes an integer name and has no other inputs.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User plus system CPU, in seconds, from the text of a
/// `/proc/<pid>/stat` file (fields 14 and 15, in clock ticks). The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_secs(stat: &str, ticks_per_sec: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_sec)
}

/// User plus system CPU of another process, in seconds.
pub fn proc_cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_secs(&stat, clock_ticks_per_sec())
}

/// `VmHWM` (peak resident set) in MB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of a process (`"self"` or a pid), in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `(steal, total)` clock ticks of the aggregate `cpu` line of a
/// `/proc/stat` text: the time the hypervisor ran other guests on this
/// machine's CPUs, and all CPU time (user, nice, system, idle, iowait,
/// irq, softirq, steal).
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The host's steal and total CPU ticks so far.
pub fn host_steal() -> Option<(u64, u64)> {
    parse_stat_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// A scratch directory under the working directory, removed on drop —
/// also when a check fails and the run unwinds.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let path = PathBuf::from(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// FNV-1a 64 over a byte string: the digest gold checks compare.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&values).expect("100 samples support a tail");
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
        // With 1000 samples it is the 99th percentile.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, pct) = tail(&values).expect("tail");
        assert_eq!((value, pct), (990.0, 99.0));
    }

    #[test]
    fn tail_needs_forty_samples() {
        let values: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(tail(&values).is_none());
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&values), Some((29.0, 75.0)));
    }

    #[test]
    fn stat_reader_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift fields.
        let stat = "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_secs(stat, 100.0), Some(3.0));
        assert_eq!(parse_stat_cpu_secs("garbage", 100.0), None);
    }

    #[test]
    fn own_stat_and_status_parse() {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("own stat");
        assert!(parse_stat_cpu_secs(&stat, clock_ticks_per_sec()).is_some());
        let hwm = vm_hwm_mb("self").expect("own VmHWM");
        assert!(hwm > 0.1, "VmHWM {hwm} MB");
    }

    #[test]
    fn hwm_reader_takes_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn self_cpu_grows_with_work() {
        let before = self_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(self_cpu_secs() > before);
    }

    #[test]
    fn steal_reader_takes_the_eighth_tick_field() {
        let stat = "cpu  100 5 20 800 10 1 2 62 0 0\ncpu0 50 2 10 400 5 0 1 31 0 0\n";
        assert_eq!(parse_stat_steal(stat), Some((62, 1000)));
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert!(host_steal().is_some());
    }

    #[test]
    fn spread_reports_min_median_max() {
        assert_eq!(spread(&[5, 1, 9]), (1, 5.0, 9));
        assert_eq!(spread(&[]), (0, 0.0, 0));
    }
}
