//! Machine-speed calibration.
//!
//! The box the baseline was recorded on does not run at one speed. Each of
//! its two virtual cores moves between two speeds about 27 % apart and
//! stays at one for 10 to 20 s, and the memory system slows and recovers by
//! as much, whatever the benchmark does. A run may last about 20 s, so it
//! sits inside one such state or two, and no statistic of its raw times
//! repeats: over ten runs of one binary the per-run minimum, first decile,
//! first quartile and median of a repetition each ranged over 12–36 % on
//! the engine workloads and 47–50 % on `compile`. No regression bound the
//! benchmark may set survives that.
//!
//! So every repetition is bracketed by two small loops of plain `std` code,
//! one bound by the core (fill, sort and hash 256 KB) and one by memory (a
//! random pointer chase through 32 MB), run on as many threads as the
//! measured work keeps busy. Their times against fixed nominal times give
//! the machine's speed during that repetition, and every reported time is
//! the measured time multiplied by it: the time the work would have taken
//! at nominal speed. Across ten runs this brings the spread of the medians
//! down to 2–6 %. The nominal times are only a unit: the same constants
//! scale the parent and the change. Raw times stay in the trace file
//! (`raw_us`) and in each result's `machine_speed` summary, and the 32 MB
//! table is left out of `peak_rss_mb`.

use std::sync::OnceLock;
use std::time::Instant;

/// Milliseconds the two loops usually take on the baseline box, so that a
/// reported time is about the time a user of that box usually sees.
const NOMINAL_COMPUTE_MS: f64 = 1.05;
const NOMINAL_MEMORY_MS: f64 = 1.80;

/// How the work being timed loads the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Threads it keeps busy.
    pub threads: usize,
    /// Whether it streams more data than the caches hold. The front end
    /// works inside them, so only the core's speed moves it.
    pub memory: bool,
}

/// The engine with two workers, and everything that runs programs on it.
pub const ENGINE: Load = Load {
    threads: 2,
    memory: true,
};
/// Parse, type check, translate, lint: one thread, small working set.
pub const FRONT_END: Load = Load {
    threads: 1,
    memory: false,
};

/// Fill, sort and hash 32 Ki words, twice: branches, ALU and the near
/// caches. No allocation and no code of the product.
fn compute_loop(buf: &mut [u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for _ in 0..2 {
        for slot in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        buf.sort_unstable();
        h = buf
            .iter()
            .fold(h, |h, k| (h ^ k).wrapping_mul(0x0000_0100_0000_01b3));
    }
    h
}

static TABLE: OnceLock<Vec<u32>> = OnceLock::new();

/// One random cycle through 8 Mi slots (32 MB), built once per process:
/// following it misses the near caches at every step. Sattolo's shuffle of
/// the identity leaves a single cycle, in place, so building the table
/// never holds more than the table.
fn chase_table() -> &'static [u32] {
    TABLE.get_or_init(|| {
        let n = 1usize << 23;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// Megabytes of this process's memory that are the spine's own chase
/// table, not the workload's (0 if it was never built): `peak_rss_mb`
/// leaves them out.
pub fn table_mb() -> f64 {
    TABLE.get().map_or(0.0, |t| {
        std::mem::size_of_val(t.as_slice()) as f64 / (1024.0 * 1024.0)
    })
}

fn memory_loop(start: u32) -> u32 {
    let table = chase_table();
    (0..8_000).fold(start, |at, _| table[at as usize])
}

/// The fastest of five runs of `f` after one to warm up, in milliseconds:
/// a run that was preempted does not count.
fn fastest_ms(mut f: impl FnMut()) -> f64 {
    (0..6)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .skip(1)
        .fold(f64::MAX, f64::min)
}

/// `(compute ms, memory ms)` on the calling thread; the memory loop runs
/// only when asked for.
fn loops_ms(thread: usize, memory: bool) -> (f64, Option<f64>) {
    let mut buf = vec![0u64; 1 << 15];
    let compute = fastest_ms(|| {
        std::hint::black_box(compute_loop(&mut buf));
    });
    let chase = memory.then(|| {
        let mut at = (thread as u32 + 1) * 7_919;
        fastest_ms(|| at = std::hint::black_box(memory_loop(at)))
    });
    (compute, chase)
}

/// The machine's speed right now relative to nominal, under `load`: below 1
/// when it is slower. A time measured now, multiplied by this, is the time
/// at nominal speed.
pub fn speed(load: Load) -> f64 {
    if load.memory {
        chase_table();
    }
    let times: Vec<(f64, Option<f64>)> = if load.threads <= 1 {
        vec![loops_ms(0, load.memory)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..load.threads)
                .map(|thread| scope.spawn(move || loops_ms(thread, load.memory)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the calibration loops do not panic"))
                .collect()
        })
    };
    let n = times.len() as f64;
    let compute = NOMINAL_COMPUTE_MS / (times.iter().map(|t| t.0).sum::<f64>() / n);
    if !load.memory {
        return compute;
    }
    let memory = NOMINAL_MEMORY_MS / (times.iter().filter_map(|t| t.1).sum::<f64>() / n);
    (compute * memory).sqrt()
}

/// Speed before and after each of a run of repetitions: the calibration
/// after one repetition is the one before the next.
pub struct Bracket {
    load: Load,
    before: f64,
}

impl Bracket {
    pub fn open(load: Load) -> Bracket {
        Bracket {
            load,
            before: speed(load),
        }
    }

    /// Call after a repetition: the mean of the speed before and after it.
    pub fn close(&mut self) -> f64 {
        let after = speed(self.load);
        let during = (self.before + after) / 2.0;
        self.before = after;
        during
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle() {
        let table = chase_table();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, table.len());
    }

    #[test]
    fn speed_is_finite_and_positive() {
        for load in [ENGINE, FRONT_END] {
            let s = speed(load);
            assert!(s.is_finite() && s > 0.0, "{load:?}: {s}");
        }
    }
}
