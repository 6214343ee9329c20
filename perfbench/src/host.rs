//! What a result is stamped with, the process-level readings (peak
//! resident memory, CPU time) the metrics use, and CPU pinning of the
//! client thread. Linux only.

use crate::report::quote;
use std::path::Path;

/// Pool threads the default rayon pool runs with on this host.
pub fn nproc() -> usize {
    rayon::current_num_threads()
}

/// The host record printed before every result line: autotune host
/// fingerprint, pool size, the `simd` build feature, the active kernel
/// selection, the source commit and the workload seed.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    let kernel = monge_core::kernel::selected();
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"host_fingerprint\": {}, \"nproc\": {}, \"simd_feature\": {}, \
         \"kernel\": {}, \"simd_active\": {}, \"git_commit\": {}}}}}",
        quote(workload),
        quote(&monge_parallel::autotune::host_fingerprint()),
        nproc(),
        cfg!(feature = "simd"),
        quote(&format!("{kernel:?}").to_lowercase()),
        monge_core::kernel::simd_active(),
        quote(&git_commit(Path::new("."))),
    )
}

/// The commit checked out under `root`, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// User plus system CPU seconds of all this process's threads so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ,
    // 100 on Linux). The command name (field 2) may hold spaces, so
    // count fields after its closing parenthesis.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// clock ticks since boot (the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A Linux `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`.
pub fn pin(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let x: u64 = (0..30_000_000u64).map(std::hint::black_box).sum();
        assert!(x > 0);
        assert!(cpu_seconds() > 0.0);
        let (steal, total) = steal_ticks();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn pinning_round_trips() {
        let all = cpus();
        assert!(!all.is_empty());
        pin(&all[..1]).unwrap();
        assert_eq!(cpus(), all[..1]);
        pin(&all).unwrap();
        assert_eq!(cpus(), all);
    }

    #[test]
    fn stamp_is_one_json_object() {
        let line = stamp("solve_large", 7, false);
        let v = crate::report::Json::parse(&line).unwrap();
        let s = v.get("stamp").unwrap();
        assert_eq!(s.get("seed").and_then(|x| x.as_f64()), Some(7.0));
        for key in [
            "host_fingerprint",
            "nproc",
            "simd_feature",
            "kernel",
            "git_commit",
        ] {
            assert!(s.get(key).is_some(), "{key}");
        }
    }
}
