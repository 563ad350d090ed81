//! Process and machine facts read from `/proc` (Linux only; every
//! reader degrades to 0 / "unknown" elsewhere so the bench still runs).

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes the userspace-visible value (`USER_HZ`) at 100 on every
/// architecture this repository targets.
const USER_HZ: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` (or `…/task/<tid>/stat`)
/// line, in milliseconds. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

fn cpu_ms_from(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// CPU time of the whole process (all threads, exited ones included).
pub fn process_cpu_ms() -> f64 {
    cpu_ms_from("/proc/self/stat")
}

/// CPU time of the calling thread alone.
pub fn thread_cpu_ms() -> f64 {
    cpu_ms_from("/proc/thread-self/stat")
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path`: the `/proc/self/mountinfo`
/// entry with the longest mount point that prefixes it.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> <source> …"
        let (pre, post) = line.split_once(" - ")?;
        let mount_point = pre.split(' ').nth(4)?;
        let fs_type = post.split(' ').next()?;
        let longest_so_far = best.as_ref().map_or(0, |(len, _)| *len);
        if path.starts_with(mount_point) && mount_point.len() > longest_so_far {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// The note printed with every run: what the numbers were measured on.
pub fn machine_note(scratch: &Path, tick_ms: Option<u64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| parse_fs_type(&m, scratch))
        .unwrap_or_else(|| "unknown".to_string());
    let tick = tick_ms.map_or("simulated".to_string(), |ms| format!("{ms} ms"));
    format!(
        "nproc={nproc} scratch_fs={fs} scratch={} tick={tick}",
        scratch.display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tperf\n"), None);
    }

    #[test]
    fn fs_type_picks_the_longest_mount_prefix() {
        let mountinfo = "22 1 8:1 / / rw - ext4 /dev/sda1 rw\n\
                         30 22 0:25 / /tmp rw - tmpfs tmpfs rw\n\
                         31 22 0:26 / /tmpfs-not-a-prefix rw - xfs none rw\n";
        assert_eq!(
            parse_fs_type(mountinfo, Path::new("/tmp/x/y")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_fs_type(mountinfo, Path::new("/home/x")).as_deref(),
            Some("ext4")
        );
    }
}
