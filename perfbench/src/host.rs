//! What the benchmark reads about its own process and host: the clock,
//! process CPU time, peak memory, a host-speed probe, and provenance.

use std::hint::black_box;
use std::io::Read;
use std::path::Path;

/// Monotonic nanoseconds, read through the observability crate so the
/// benchmark shares one clock with the spans the engine emits.
pub fn now_ns() -> u64 {
    secmed_obs::trace::now_ns()
}

/// Linux reports `/proc` CPU times in clock ticks of 1/100 s on every
/// mainstream architecture.
const NS_PER_TICK: u64 = 10_000_000;

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds, at 10 ms resolution.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12th and 13th after it.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) * NS_PER_TICK,
        _ => 0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-speed probe: a fixed multiply-bound loop that touches no
/// repository code, timed in milliseconds.  Taken at the start and end of
/// every run so a run measured during a slow host phase can be
/// recognised.
pub fn probe_ms() -> f64 {
    let start = now_ns();
    black_box(mul_kernel(black_box(600_000)));
    (now_ns() - start) as f64 / 1e6
}

/// Repeated 8×8-limb schoolbook products with 128-bit partial products:
/// the instruction mix of the big-integer kernels, written here so that
/// it touches no repository code.
fn mul_kernel(rounds: u64) -> u64 {
    let mut a = [0x1234_5678_9abc_def1_u64; 8];
    let b = [0xfedc_ba98_7654_3211_u64; 8];
    let mut acc = 0u64;
    for r in 0..rounds {
        let mut product = [0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(product[i + j]) + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + 8] = carry as u64;
        }
        a[(r % 8) as usize] ^= product[5];
        acc = acc.wrapping_add(product[15]);
    }
    acc
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    // lint:allow(determinism) -- reports host parallelism next to the
    // results; nothing is spawned and no result depends on it.
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root of the checkout this benchmark was built from.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// The commit the sources came from, read from `.git` when the checkout
/// has one; `"unknown"` otherwise.
pub fn git_rev() -> String {
    let git = Path::new(REPO_ROOT).join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// An FNV-1a digest of this executable, in hex: the same sources build
/// the same digest, and a program change starts a fresh byte ledger.  The
/// file is read in small pieces so the digest does not raise peak memory.
pub fn build_id() -> String {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    if let Ok(mut exe) = std::env::current_exe().and_then(std::fs::File::open) {
        let mut buf = [0u8; 1 << 16];
        while let Ok(n @ 1..) = exe.read(&mut buf) {
            for &b in &buf[..n] {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{digest:016x}")
}

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}
