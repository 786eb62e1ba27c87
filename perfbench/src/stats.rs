//! Small numeric helpers: medians, nearest-rank quantiles, a stable text
//! digest, the process's peak resident set and the machine-speed reference.

use std::fs;
use std::time::Instant;

/// Median of the values (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// 64-bit FNV-1a: a digest that is the same on every platform and run.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_START, bytes)
}

/// The FNV-1a digest of no bytes, where a streamed digest starts.
pub const FNV1A_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue the FNV-1a digest `hash` over `bytes`.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median time of one [`Reference::pass`] over forty runs on the machine the
/// benchmark was defined on (a shared 2-vCPU Intel Xeon VM), in seconds.
pub const REFERENCE_S: f64 = 0.15;

/// A fixed mix of work that shares no code with the program under test,
/// timed between iterations: a xorshift chain (ALU), random writes to 64 MiB
/// of fresh memory (page faults, cache and TLB misses) and a sort in a buffer
/// kept for the run (cache-friendly branchy code).  The host this benchmark
/// runs on is shared, and its speed drifts by a quarter over minutes, most of
/// all for memory-heavy code such as the report builders; the mix slows with
/// it, so a run's time metrics are scaled by [`Reference::scale`] to read at
/// one machine speed.  The fresh memory is larger than glibc's largest mmap
/// threshold, so it is mapped anew on every pass whatever the program left in
/// the heap.
#[derive(Default)]
pub struct Reference {
    sort_buffer: Vec<u64>,
    samples_s: Vec<f64>,
}

impl Reference {
    /// Time one pass of the mix.
    pub fn pass(&mut self) {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..10_000_000u32 {
            acc = acc.wrapping_add(xorshift(&mut x).rotate_left(5));
        }

        let mut fresh = vec![0u64; 1 << 23];
        let mask = fresh.len() - 1;
        for _ in 0..2_000_000u32 {
            let i = xorshift(&mut x) as usize & mask;
            fresh[i] = fresh[i].wrapping_add(x);
        }
        acc = acc.wrapping_add(fresh[x as usize & mask]);
        drop(fresh);

        self.sort_buffer.clear();
        self.sort_buffer
            .extend((0..1_000_000).map(|_| xorshift(&mut x)));
        self.sort_buffer.sort_unstable();
        acc = acc.wrapping_add(self.sort_buffer[self.sort_buffer.len() / 2]);

        std::hint::black_box(acc);
        self.samples_s.push(start.elapsed().as_secs_f64());
    }

    /// Total time of the passes so far, in seconds.
    pub fn total_s(&self) -> f64 {
        self.samples_s.iter().sum()
    }

    /// Median time of a pass, in seconds.
    pub fn median_s(&self) -> f64 {
        median(self.samples_s.iter().copied())
    }

    /// `REFERENCE_S` over the median pass: multiply a time measured in this
    /// run by it to read it at the reference machine speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.median_s()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes);
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
