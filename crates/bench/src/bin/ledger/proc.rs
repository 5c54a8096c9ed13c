//! What the kernel says about this process: CPU time consumed and the
//! resident-set high-water mark. Each benchmark run is its own
//! process, so both are per-run figures.

/// `USER_HZ`: the unit of `/proc/<pid>/stat`'s time fields. Fixed at
/// 100 on every Linux ABI this repo builds for (the value is part of
/// the kernel's userspace contract, not of the kernel's `CONFIG_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User + system CPU seconds this process (all threads, including
/// ones that already exited) has consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_ticks(&stat).expect("utime and stime in /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (led) ger (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    1507 93 0 0 20 0 3 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1600));
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tledger\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        assert!(cpu_seconds() >= 0.0);
    }
}
