//! Where the measuring thread runs.
//!
//! On a shared host the processors of one VM are not equally fast at a
//! given moment: a neighbour on the same physical core takes a third of
//! one vCPU's speed for minutes while the other is untouched. Left to the
//! scheduler, a run lands on either and reports the neighbour. So before
//! each set-up the harness times the calibration kernel of `calib.rs` on
//! every processor it may use and pins its thread to the fastest — what one
//! does by hand when pinning a benchmark to a quiet core. Everything the
//! thread spawns
//! afterwards inherits the pin: the centre's default `ComputeBudget` sees
//! one processor, and the socket workload's sender thread shares it with
//! the centre thread.

use std::sync::OnceLock;

/// Words of an affinity mask: room for 1024 processors.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn current_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn current_mask() -> Option<[u64; MASK_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_: &[usize]) -> bool {
    false
}

/// The processors this process was started on, read once before any pin.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let Some(mask) = current_mask() else {
            return Vec::new();
        };
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pins the calling thread to the processor the probe finds fastest now,
/// and returns it. `None` — and no pin — where the host has one processor
/// or affinity cannot be set.
pub fn settle_on_fastest() -> Option<usize> {
    let cpus = allowed();
    if cpus.len() < 2 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for &cpu in cpus {
        if !pin_to(&[cpu]) {
            pin_to(cpus);
            return None;
        }
        // The faster of two passes of the calibration kernel: a burst on a
        // quiet processor should not lose it the comparison.
        let t = crate::calib::slowdown().min(crate::calib::slowdown());
        if best.is_none_or(|(b, _)| t < b) {
            best = Some((t, cpu));
        }
    }
    let (_, cpu) = best?;
    pin_to(&[cpu]).then_some(cpu)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pin_restricts_the_thread_and_the_start_mask_is_remembered() {
        let before = allowed().to_vec();
        assert!(!before.is_empty());
        std::thread::spawn(move || {
            if let Some(cpu) = settle_on_fastest() {
                let mask = current_mask().expect("mask readable");
                let set: u32 = mask.iter().map(|w| w.count_ones()).sum();
                assert_eq!(set, 1);
                assert!(before.contains(&cpu));
                assert_eq!(allowed(), before.as_slice());
            }
        })
        .join()
        .expect("pinned thread finishes");
    }
}
