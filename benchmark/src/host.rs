//! What the benchmark reads from `/proc`: CPU time, memory high-water mark
//! and the noise indicators that say whether a run can be trusted.

use std::fs;

/// Linux reports process times in clock ticks of `1/USER_HZ` seconds;
/// `USER_HZ` is 100 on every architecture Linux exposes it on.
const CLK_TCK: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set since process start or the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Resets `VmHWM` to the current resident set, so the peak reported later
/// is the system under test's and not the graph generator's. Returns
/// whether the kernel accepted it (Linux ≥ 4.0).
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields count from after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11); // utime is field 14
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / CLK_TCK
}

/// Involuntary context switches summed over the live threads.
fn involuntary_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("nonvoluntary_ctxt_switches:")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .sum()
}

/// `(steal, total)` jiffies of the whole machine.
fn machine_jiffies() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user.
    (cpu.get(7).copied().unwrap_or(0.0), cpu.iter().take(8).sum())
}

/// A point-in-time reading; two of them bracket the timed window.
#[derive(Debug, Clone, Copy)]
pub struct HostSnapshot {
    cpu_s: f64,
    steal: f64,
    jiffies: f64,
    involuntary: f64,
}

impl HostSnapshot {
    pub fn take() -> Self {
        let (steal, jiffies) = machine_jiffies();
        Self {
            cpu_s: cpu_seconds(),
            steal,
            jiffies,
            involuntary: involuntary_switches(),
        }
    }
}

/// What happened on the host between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    pub cpu_s: f64,
    /// Share of all CPU time the hypervisor gave to someone else.
    pub steal_share: f64,
    pub involuntary_switches: f64,
}

impl HostDelta {
    pub fn between(before: &HostSnapshot, after: &HostSnapshot) -> Self {
        let jiffies = after.jiffies - before.jiffies;
        Self {
            cpu_s: after.cpu_s - before.cpu_s,
            steal_share: if jiffies > 0.0 {
                (after.steal - before.steal) / jiffies
            } else {
                0.0
            },
            involuntary_switches: (after.involuntary - before.involuntary).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(rss_mb() > 0.0 && peak_rss_mb() >= rss_mb() * 0.5);
        let before = HostSnapshot::take();
        let mut x = 0u64;
        while cpu_seconds() - before.cpu_s < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let delta = HostDelta::between(&before, &HostSnapshot::take());
        assert!(delta.cpu_s >= 0.05);
        assert!((0.0..=1.0).contains(&delta.steal_share));
    }
}
