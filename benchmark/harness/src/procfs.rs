//! Process memory and CPU time, read from `/proc/self` (Linux only:
//! elsewhere every reading is an error and the run fails loudly).

use std::io;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`: `USER_HZ`, which is 100 on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Peak resident set size (`VmHWM`) so far, in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("/proc/self/status has no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// `(user, system)` CPU seconds this process has used, all threads.
pub fn cpu_secs() -> io::Result<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu(&stat).ok_or_else(|| bad("/proc/self/stat is not in the documented shape"))
}

fn parse_cpu(stat: &str) -> Option<(f64, f64)> {
    // the command name sits in parentheses and may itself hold spaces
    // or parentheses, so count fields from the last ')': state is the
    // 3rd field, utime the 14th, stime the 15th
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_survive_a_hostile_command_name() {
        let stat = "4449 (har) ness (x)) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 4 0";
        assert_eq!(parse_cpu(stat), Some((2.5, 0.75)));
    }

    #[test]
    fn readings_are_available_on_this_platform() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        cpu_secs().expect("cpu times");
    }
}
