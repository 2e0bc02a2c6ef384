//! Process memory probes and logical byte accounting.
//!
//! The paper's Figure 6 reports peak resident memory (`rusage.ru_maxrss`).
//! We expose the same signal via `/proc/self/status` (`VmHWM`) and add a
//! [`LogicalBytes`] trait so every method can also report the exact heap
//! bytes of its index + query structures. Logical bytes are the more useful
//! comparison signal inside a single benchmark process, where the allocator
//! high-water mark is shared by all methods that ran earlier.

/// Heap footprint accounting for indexes and query state.
pub trait LogicalBytes {
    /// Approximate number of heap bytes held by `self`.
    fn logical_bytes(&self) -> usize;
}

impl<T> LogicalBytes for Vec<T> {
    fn logical_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// Peak resident set size of the current process in bytes (`VmHWM`), if the
/// platform exposes it. Some container kernels omit `VmHWM`; we then fall
/// back to the instantaneous `VmRSS`, which under-reports true peaks — the
/// logical-bytes accounting exists precisely because of this.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kb("VmHWM:")
        .or_else(|| read_status_kb("VmRSS:"))
        .map(|kb| kb * 1024)
}

fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb);
        }
    }
    None
}

/// Human-readable byte count (`1.50 GB`, `23.4 MB`, `512 B`).
pub fn format_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_logical_bytes_tracks_capacity() {
        let v: Vec<u64> = Vec::with_capacity(100);
        assert_eq!(v.logical_bytes(), 800);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_probes_report_on_linux() {
        let peak = peak_rss_bytes().expect("VmHWM or VmRSS available on Linux");
        assert!(peak > 0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MB");
        assert_eq!(format_bytes(5 * 1024 * 1024 * 1024), "5.00 GB");
    }
}
