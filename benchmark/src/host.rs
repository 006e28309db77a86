//! What the harness asks the operating system: CPU time, peak memory,
//! core count, and which processes it left behind.

use std::path::PathBuf;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines, and `who` is one of its two constants;
    // getrusage writes only inside that struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

/// User + system CPU seconds of this process and of every child it has
/// waited for (shard worker processes are reaped when their job ends).
pub fn cpu_seconds() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let ru = rusage(who);
            (ru.utime.sec + ru.stime.sec) as f64 + (ru.utime.usec + ru.stime.usec) as f64 * 1e-6
        })
        .sum()
}

/// Peak resident set in MB: this process's `VmHWM`, or the largest reaped
/// child's `ru_maxrss` if that is larger.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let own_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    own_kb.max(rusage(RUSAGE_CHILDREN).maxrss_kb as f64) / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `psr-shard-worker` beside the running executable, as an absolute path.
pub fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("psr-shard-worker");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build the whole package",
            path.display()
        ))
    }
}

/// Live processes other than this one that are its children or carry
/// `tag` (this run's temp directory name) on their command line.
fn stragglers(tag: &str) -> Vec<i32> {
    let me = std::process::id() as i32;
    let mut found = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return found;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        if pid == me {
            continue;
        }
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        // "pid (comm) state ppid ...": comm may hold spaces, so split at
        // the last ')'.
        let mut after = stat.rsplit(')').next().unwrap_or("").split_whitespace();
        let state = after.next().unwrap_or("");
        let ppid = after.next().and_then(|v| v.parse::<i32>().ok());
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let tagged = String::from_utf8_lossy(&cmdline).contains(tag);
        if state != "Z" && (ppid == Some(me) || tagged) {
            found.push(pid);
        }
    }
    found
}

/// Kill whatever [`stragglers`] finds; returns how many there were.
/// A correct run finds none: every shard fleet is reaped with its job.
pub fn kill_stragglers(tag: &str) -> usize {
    let pids = stragglers(tag);
    for &pid in &pids {
        // SAFETY: kill(2) takes plain integers; the pid was just read
        // from /proc and a stale one makes the call fail, nothing more.
        unsafe { kill(pid, SIGKILL) };
    }
    pids.len()
}
