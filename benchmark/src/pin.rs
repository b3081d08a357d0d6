//! Pin the process to one CPU before any thread is spawned.
//!
//! Every workload is single-process and every helper thread it starts
//! (COBRA's monitors and optimizer, the fleet server's acceptor and shard
//! workers) inherits the mask, so nothing in a run migrates between cores
//! or competes with a sibling for the second one. This is the system call
//! `taskset -c` makes; calling it here keeps the one command free of a tool
//! the host may not have. A host that refuses the call is not an error: the
//! run goes on unpinned and its record says so.

/// Words of a 1024-bit `cpu_set_t`, glibc's fixed size.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict this process to the highest-numbered CPU it is allowed to run
/// on (CPU 0 takes most interrupts) and return that CPU, or `None` when the
/// host refuses either call.
pub fn pin_to_one_cpu() -> Option<u64> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread, and the kernel writes at most
    // `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = highest_set_bit(&mask)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu as u64)
}

fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_across_words() {
        assert_eq!(highest_set_bit(&[0, 0]), None);
        assert_eq!(highest_set_bit(&[0b1011, 0]), Some(3));
        assert_eq!(highest_set_bit(&[1, 1 << 5]), Some(69));
    }
}
