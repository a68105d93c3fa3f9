//! Process-level readings from `/proc/self`: peak resident memory and CPU
//! time. Linux only; the readers return `None` where `/proc` is absent.

/// Peak resident set size of this process so far (`VmHWM`), in MB
/// (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process (`utime + stime` of `/proc/self/stat`, at the kernel's 100 Hz
/// tick, so differences below ~0.1 s are coarse).
pub fn cpu_seconds() -> Option<f64> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_present_and_positive_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("utime") >= 0.0);
    }
}
