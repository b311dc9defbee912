//! The calibration kernel: fixed work that owes nothing to the simulator.
//!
//! The host's speed drifts by up to 2× over minutes while other tenants
//! load the shared caches and cores. `run.py` times this kernel in its own
//! process before and after every timed run and divides the run's host
//! seconds by the mean of the two, so a run on a slow minute and a run on
//! a fast one read alike.
//!
//! The kernel has two parts, and its time is the geometric mean of theirs.
//! Both are priority queues in the hold model with one small allocation
//! per operation, the shape of the simulator's scheduler and frame arena.
//! The first is 100k entries deep. The second is 16k deep and also
//! updates a 16 MiB table at random, which lives in the shared last-level
//! cache like the simulator's frames and nodes. `STEADINESS.md` shows why:
//! the first part tracked `d1-leafspine` best, the second `d3-l1-fanout`.
//!
//! Changing this kernel changes every calibrated number: it is part of the
//! benchmark's definition, like the workloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::splitmix64;

/// Host seconds for one pass of the kernel (about 50 ms on a 2-CPU Xeon
/// container).
pub fn calibrate() -> f64 {
    let deep = hold(100_000, 300_000, 0);
    let cached = hold(16_384, 150_000, 1 << 21);
    (deep * cached).sqrt()
}

/// Host seconds for `ops` hold operations on a `depth`-entry heap, each
/// with a 64-byte allocation and, when `table_words` > 0, a random
/// read-modify-write and read over a table of that many words.
fn hold(depth: u64, ops: u64, table_words: usize) -> f64 {
    let mut table = vec![0u64; table_words.max(1)];
    let mask = table.len() - 1;
    let mut heap = BinaryHeap::with_capacity(depth as usize + 1);
    let mut state = 0u64;
    let mut next = || {
        state += 1;
        splitmix64(state)
    };
    for _ in 0..depth {
        heap.push(Reverse(next() % (depth * 1_000)));
    }
    let start = Instant::now();
    let mut now = 0;
    let mut acc = 0u64;
    for _ in 0..ops {
        let Reverse(at) = heap.pop().expect("the heap stays depth deep");
        now = at.max(now);
        let r = next();
        heap.push(Reverse(now + 1 + r % (depth * 1_000)));
        let i = (r >> 20) as usize & mask;
        table[i] = table[i].wrapping_add(now);
        let buf = vec![(r & 0xff) as u8; 64];
        acc = acc
            .wrapping_add(table[(i * 7) & mask])
            .wrapping_add(u64::from(black_box(&buf)[5]));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
