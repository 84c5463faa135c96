//! Process-level counters read from `/proc/self` with plain `std::fs`.

/// Kernel clock ticks per second for the `utime`/`stime` fields. `USER_HZ`
/// is 100 on every Linux ABI; reading it properly needs `sysconf`, which
/// std does not expose.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB, or NaN where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds this process has spent in user and kernel mode so far.
pub fn cpu_secs() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or((f64::NAN, f64::NAN), |(u, s)| (u / USER_HZ, s / USER_HZ))
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime` and `stime` are fields 14 and 15; the command name (field 2) may
/// hold spaces, so count from the closing parenthesis.
fn parse_stat_ticks(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn parses_stat_ticks_past_a_spaced_command_name() {
        let stat = "42 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0";
        assert_eq!(parse_stat_ticks(stat), Some((250.0, 75.0)));
    }

    #[test]
    fn live_counters_are_readable_here() {
        assert!(peak_rss_mib() > 0.0);
        let (user, sys) = cpu_secs();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
