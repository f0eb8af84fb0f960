//! Reading a child process's memory peak and CPU time from `/proc`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 on Linux).
pub const USER_HZ: f64 = 100.0;

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name come field 3 (state) onwards: utime is field 14,
    // stime field 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// Peak resident set of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = vm_hwm_kb(&status).ok_or_else(|| invalid("VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

/// CPU seconds (user + system) process `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = cpu_ticks(&stat).ok_or_else(|| invalid("stat"))?;
    Ok(ticks as f64 / USER_HZ)
}
