//! Process CPU time and peak memory from `/proc/self`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark runs on; reading
/// `sysconf(_SC_CLK_TCK)` would need a foreign call.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative CPU time of the process and its finished threads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTime {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl CpuTime {
    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses the `utime` and `stime` fields (14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime is field 14.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

/// Parses one `Key:   <n> kB` line of `/proc/<pid>/status` into MB. The
/// kernel's "kB" is 1024 bytes; an MB here is 10^6 bytes.
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(':')))?;
    let mut parts = line.split_ascii_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib * 1024.0 / 1e6)
}

/// CPU time of this process so far.
///
/// # Panics
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report `join_cpu_s` without it.
pub fn cpu_time() -> CpuTime {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat(&stat).expect("/proc/self/stat has utime and stime fields")
}

/// Peak resident set size (`VmHWM`) of this process in MB.
///
/// # Panics
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_mb(&status, "VmHWM").expect("/proc/self/status has a VmHWM line")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (ij perf) (x) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
        123 45 0 0 20 0 3 0 1000 500000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";

    #[test]
    fn stat_fields_survive_parentheses_in_the_command_name() {
        let cpu = parse_stat(STAT).unwrap();
        assert_eq!(cpu.user_s, 1.23);
        assert_eq!(cpu.sys_s, 0.45);
        assert!((cpu.total_s() - 1.68).abs() < 1e-12);
    }

    #[test]
    fn malformed_stat_is_none() {
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12"), None);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let a = CpuTime {
            user_s: 2.0,
            sys_s: 1.0,
        };
        let b = CpuTime {
            user_s: 0.5,
            sys_s: 0.25,
        };
        assert_eq!(
            a.since(b),
            CpuTime {
                user_s: 1.5,
                sys_s: 0.75
            }
        );
    }

    #[test]
    fn status_line_to_mb() {
        let status =
            "Name:\tij-perf\nVmPeak:\t  900000 kB\nVmHWM:\t  362352 kB\nVmRSS:\t 1000 kB\n";
        let mb = parse_status_mb(status, "VmHWM").unwrap();
        assert!((mb - 371.048448).abs() < 1e-9);
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        assert_eq!(parse_status_mb("VmHWM:\t12 pages\n", "VmHWM"), None);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_mb("VmHWMx:\t12 kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(cpu_time().total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
