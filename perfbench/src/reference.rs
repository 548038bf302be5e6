//! The reference load: a fixed amount of work, owned by the benchmark and
//! built on `std` alone, that every repeat times next to the workload's job.
//!
//! The host this benchmark runs on is shared, and its speed drifts by up to
//! 1.8× over minutes. A program change cannot move the reference load, but
//! host drift moves it as it moves the job. The timed run scales each
//! repeat's timings by `nominal ÷ measured` reference time of that repeat,
//! so that they read as seconds of a host that runs the reference load in
//! its nominal time. The unscaled figures are printed in the report's
//! header.
//!
//! The load has two phases, after the two kinds of work the workloads do:
//! - *compute*: small fixed-priority schedules, each built, simulated on a
//!   binary heap, rendered to text and digested, on as many threads as the
//!   job's harness uses; cache-resident, branchy and allocation-heavy, like
//!   a paper-sized run;
//! - *memory*: a few million records materialised in one growing `Vec`,
//!   rendered into one `String` and digested, on the calling thread; page
//!   faults and memory bandwidth, like a long-horizon trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// How much reference work a repeat does, and its nominal time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Threads of the compute phase.
    pub workers: usize,
    /// Schedules each compute thread simulates.
    pub schedules_per_worker: u64,
    /// Records of the memory phase.
    pub records: u64,
    /// The load's time on a 2-vCPU x86-64 container in a quiet spell, s.
    /// Only the ratio to the measured time matters.
    pub nominal_s: f64,
}

impl Reference {
    /// Runs the load once and returns its wall time in seconds.
    pub fn time_s(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for w in 0..self.workers.max(1) as u64 {
                let n = self.schedules_per_worker;
                s.spawn(move || {
                    let mut text = String::new();
                    let digest = (0..n).fold(0, |h, k| h ^ schedule(w << 32 | k, &mut text));
                    black_box(digest)
                });
            }
        });
        black_box(materialise(self.records));
        start.elapsed().as_secs_f64()
    }
}

/// xorshift64: the reference load's only source of variety.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One small periodic task set, scheduled earliest-release-first up to a
/// horizon of 2000, rendered and digested.
fn schedule(seed: u64, text: &mut String) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let n = 4 + (xorshift(&mut x) % 12) as usize;
    let tasks: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            let period = 10 + xorshift(&mut x) % 90;
            (period, 1 + xorshift(&mut x) % (period / 4 + 1))
        })
        .collect();
    let mut due: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0, i))).collect();
    let mut segments = Vec::new();
    let mut now = 0;
    while let Some(Reverse((release, i))) = due.pop() {
        if release > 2000 {
            break;
        }
        now = now.max(release);
        segments.push((now, now + tasks[i].1, i));
        now += tasks[i].1;
        due.push(Reverse((release + tasks[i].0, i)));
    }
    text.clear();
    for (start, end, task) in &segments {
        let _ = writeln!(text, "{start} {end} t{task}");
    }
    fnv(text.as_bytes())
}

/// `n` records pushed into one `Vec`, rendered into one `String`, digested.
fn materialise(n: u64) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d;
    let mut at = 0;
    let mut records = Vec::new();
    for i in 0..n {
        let len = 1 + xorshift(&mut x) % 7;
        records.push((at, at + len, (x >> 20) % 300, i));
        at += len;
    }
    let mut text = String::new();
    for (start, end, task, job) in &records {
        let _ = writeln!(text, "seg {start} {end} task{task} job{job}");
    }
    drop(records);
    fnv(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_load_is_deterministic_work() {
        let mut a = String::new();
        let mut b = String::new();
        assert_eq!(schedule(5, &mut a), schedule(5, &mut b));
        assert_eq!(a, b);
        assert!(a.lines().count() > 10);
        assert_eq!(materialise(1000), materialise(1000));
        assert_ne!(materialise(1000), materialise(1001));
    }

    #[test]
    fn a_run_takes_time() {
        let r = Reference {
            workers: 2,
            schedules_per_worker: 10,
            records: 1000,
            nominal_s: 1.0,
        };
        assert!(r.time_s() > 0.0);
    }
}
