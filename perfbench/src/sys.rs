//! Process and machine facts read from `/proc` and the checkout: CPU time
//! without `unsafe` (the workspace forbids it, so `clock_gettime` is out),
//! core count, CPU model and the source commit.

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// this user-visible unit (`USER_HZ`) at 100 on every architecture it runs
/// on, independent of the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User and system CPU time of the whole process so far, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // The command name (field 2) may contain spaces; every later field
        // follows the last `)`. utime and stime are fields 14 and 15.
        let rest = &text[text.rfind(')').expect("stat has a command field") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 {
            fields[i]
                .parse::<u64>()
                .expect("stat time fields are integers") as f64
        };
        CpuTimes {
            user_s: ticks(11) / USER_HZ,
            sys_s: ticks(12) / USER_HZ,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, read from `.git` next to the
/// benchmark directory without running git. A checkout exported without
/// its `.git` directory reports `unknown`.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
