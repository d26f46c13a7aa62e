//! The reference kernel: a fixed unit of host work that every timed item is
//! divided by, so a host that runs slower for a while (a slow vCPU, a busy
//! neighbour) moves the numerator and the denominator together.
//!
//! **`reference_kernel` and its constants never change.** The kernel is part
//! of the benchmark, not of the program under test: editing it would rescale
//! every `*_ref` metric and make old and new medians incomparable. Its shape
//! mimics the simulator's hot loop — dependent, data-driven loads and stores
//! over a table larger than L1, mixed with integer ALU work — so that it
//! slows down with the host as the simulator does. Measured, it follows the
//! drift between runs but not the short slow episodes within one (see
//! README.md).

use std::hint::black_box;
use std::time::Instant;

/// Table size in 64-bit words (512 KiB, well past L1).
const WORDS: usize = 1 << 16;
/// Dependent read-modify-write rounds per kernel call.
const ROUNDS: usize = 4_000_000;
/// The kernel's result; a different value means the kernel was changed or
/// miscompiled, and every ratio it produced is void.
pub const CHECKSUM: u64 = 5_811_662_083_928_327_760;

/// Runs the kernel once and returns its checksum.
pub fn reference_kernel() -> u64 {
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for _ in 0..black_box(ROUNDS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = ((x ^ acc) as usize) & (WORDS - 1);
        let v = table[i];
        acc = (acc ^ v ^ (v >> 29)).wrapping_add(x).rotate_left(7);
        table[i] = v.wrapping_add(acc | 1);
    }
    black_box(&table);
    acc
}

/// Times items against the kernel. A kernel measurement follows every
/// timed item, so the measurements spread over the whole run, and the run's
/// reference time is their median. One 35 ms kernel run varies by about 7%
/// from one run to the next on the 2-vCPU guest this was tuned on — as much
/// as the drift it is meant to remove — so a per-item bracket would add
/// noise; the median follows the host's speed from run to run (minutes
/// apart), which is what comparisons between two commits see.
pub struct RefClock {
    /// Every kernel duration measured, in seconds.
    pub kernel_s: Vec<f64>,
    /// Kernel runs whose checksum was wrong.
    pub bad_checksums: u64,
}

impl RefClock {
    /// Warms the kernel up (page faults, frequency ramp) and takes the
    /// first measurement.
    pub fn new() -> RefClock {
        black_box(reference_kernel());
        let mut clock = RefClock {
            kernel_s: Vec::new(),
            bad_checksums: 0,
        };
        clock.tick();
        clock
    }

    /// Runs the kernel once and records its duration.
    fn tick(&mut self) {
        let start = Instant::now();
        let sum = reference_kernel();
        self.kernel_s.push(start.elapsed().as_secs_f64());
        if sum != CHECKSUM {
            self.bad_checksums += 1;
        }
    }

    /// Runs `f`, then one kernel measurement. Returns `f`'s value and its
    /// wall time in seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let wall = start.elapsed().as_secs_f64();
        self.tick();
        (value, wall)
    }

    /// The run's reference time: the median kernel duration, in seconds.
    pub fn ref_s(&self) -> f64 {
        crate::host::median(&self.kernel_s)
    }
}
