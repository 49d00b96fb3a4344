//! Host-speed gauge: wall times rescaled to a fixed reference speed.
//!
//! A shared host runs the same instructions at speeds that differ by up
//! to two times from one second to the next (frequency, a busy sibling
//! hyper-thread, a neighbour's cache traffic), and thread CPU time
//! follows wall time, so neither removes it. The benchmark therefore
//! times two fixed pieces of work that share no code with the emulator
//! between its operations: a compute block that stays in the private
//! caches, and a pointer chase through a ring the size of a shared
//! cache slice. An operation's wall time is divided by the host's
//! slowness over the operation — how much slower than nominal the
//! gauges that bracket it ran, weighted by [`MEM_SHARE`] — and reported
//! at the reference speed. A change to the
//! emulator moves the operations and not the gauges, so it shows in
//! full; a change in host speed moves both and largely cancels.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The compute block's wall time at the reference speed, in ms: about
/// its median on a 2-vCPU container of a shared Intel Xeon host (run
/// medians of 1.1–1.5 ms). Fixed, so reported times are comparable
/// across runs and commits.
pub const NOMINAL_MS: f64 = 1.2;
/// The memory chase's wall time at the reference speed, in ms, taken
/// the same way (run medians of 1.7–3.0 ms).
pub const NOMINAL_MEM_MS: f64 = 2.2;

/// Weight of the memory chase in the slowness; the compute block has
/// the rest. Across runs of both listed workloads, the walls of
/// what-ifs, watch steps and packet pairs followed the two gauges best
/// with weights between 0.25 and 0.5 on the chase (see the README).
pub const MEM_SHARE: f64 = 0.3;

/// How far from an operation a gauge still counts towards its slowness.
const MARGIN: Duration = Duration::from_millis(20);

/// Entries in the compute block's hash table (a power of two).
const TABLE: usize = 1 << 14;
/// Entries in its pointer-chasing ring (128 KiB).
const RING: usize = 1 << 15;
/// Keys it sorts.
const KEYS: usize = 1 << 13;
/// Entries in the memory chase's ring (4 MiB).
const MEM_RING: usize = 1 << 20;
/// Steps of the memory chase.
const MEM_STEPS: usize = 1 << 15;

/// Gauge timings, in the order they were taken, and the gauges'
/// buffers.
pub struct Pace {
    /// Midpoint of each compute block.
    at: Vec<Instant>,
    /// Its wall time, ms.
    ms: Vec<f64>,
    /// Wall time of the memory chase that follows it, ms.
    mem_ms: Vec<f64>,
    table: Vec<u64>,
    ring: Vec<u32>,
    keys: Vec<u64>,
    mem_ring: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One cycle through `n` slots in a seeded order: `ring[i]` is the slot
/// after `i`.
fn cycle(n: usize, x: &mut u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, (xorshift(x) % (i as u64 + 1)) as usize);
    }
    let mut ring = vec![0u32; n];
    for w in 0..n {
        ring[order[w] as usize] = order[(w + 1) % n];
    }
    ring
}

fn chase(ring: &[u32], steps: usize) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = ring[at as usize];
    }
    at
}

impl Pace {
    /// Allocates the gauges' buffers, runs them untimed a few times,
    /// then times them once.
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut pace = Pace {
            at: Vec::new(),
            ms: Vec::new(),
            mem_ms: Vec::new(),
            table: vec![0; TABLE],
            ring: cycle(RING, &mut x),
            keys: vec![0; KEYS],
            mem_ring: cycle(MEM_RING, &mut x),
        };
        for _ in 0..4 {
            black_box(pace.block());
            black_box(chase(&pace.mem_ring, MEM_STEPS));
        }
        pace.sample();
        pace
    }

    /// The compute block: sorting, hashing into an open-addressing table
    /// and chasing pointers around a small ring, over buffers of about
    /// 320 KiB allocated once. It allocates nothing, so the emulator's
    /// heap does not change its cost, and is the same on every call.
    fn block(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for k in &mut self.keys {
            *k = xorshift(&mut x);
        }
        self.keys.sort_unstable();
        let mut acc = self.keys[KEYS / 2];
        self.table.fill(0);
        let slot = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
        for _ in 0..TABLE / 2 {
            let k = xorshift(&mut x) | 1;
            let mut i = slot(k);
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & (TABLE - 1);
            }
            self.table[i] = k;
        }
        for _ in 0..TABLE * 2 {
            let k = xorshift(&mut x) | 1;
            let mut i = slot(k);
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & (TABLE - 1);
            }
            acc = acc.wrapping_add(u64::from(self.table[i] == k));
        }
        acc.wrapping_add(u64::from(chase(&self.ring, RING * 2)))
    }

    /// Times the compute block, then the memory chase. Each first reads
    /// its buffers once untimed, so the operation before it, which may
    /// have evicted them from the caches, does not show in its time.
    pub fn sample(&mut self) {
        black_box(self.table.iter().sum::<u64>());
        black_box(self.ring.iter().map(|&r| u64::from(r)).sum::<u64>());
        black_box(self.keys.iter().sum::<u64>());
        let t = Instant::now();
        black_box(self.block());
        let wall = t.elapsed();
        self.at.push(t + wall / 2);
        self.ms.push(wall.as_secs_f64() * 1e3);

        black_box(self.mem_ring.iter().map(|&r| u64::from(r)).sum::<u64>());
        let t = Instant::now();
        black_box(chase(&self.mem_ring, MEM_STEPS));
        self.mem_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// The host's slowness over `[from, from + wall]`, from the gauges
    /// inside it, those within [`MARGIN`] of either end, and at least the
    /// last before it and the first after it: the mean compute time over
    /// [`NOMINAL_MS`] and the mean chase time over [`NOMINAL_MEM_MS`],
    /// combined as a geometric mean weighted by [`MEM_SHARE`].
    pub fn slowness(&self, from: Instant, wall: Duration) -> f64 {
        if self.ms.is_empty() {
            return 1.0;
        }
        let to = from + wall;
        let early = from.checked_sub(MARGIN).unwrap_or(from);
        let lo = self.at.partition_point(|&a| a < early);
        let lo = lo.min(self.at.partition_point(|&a| a <= from).saturating_sub(1));
        let hi = self.at.partition_point(|&a| a <= to + MARGIN).saturating_sub(1);
        let hi = hi.max(self.at.partition_point(|&a| a < to)).min(self.ms.len() - 1);
        let span = lo.min(hi)..=hi;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let compute = mean(&self.ms[span.clone()]) / NOMINAL_MS;
        let memory = mean(&self.mem_ms[span]) / NOMINAL_MEM_MS;
        compute.powf(1.0 - MEM_SHARE) * memory.powf(MEM_SHARE)
    }

    /// `wall` at the reference speed, in seconds.
    pub fn scaled(&self, from: Instant, wall: Duration) -> f64 {
        wall.as_secs_f64() / self.slowness(from, wall)
    }

    /// Median compute-block and memory-chase times, ms.
    pub fn medians_ms(&self) -> (f64, f64) {
        (crate::util::median(&self.ms), crate::util::median(&self.mem_ms))
    }

    pub fn samples(&self) -> usize {
        self.ms.len()
    }
}
