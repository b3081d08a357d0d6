//! The User Sampling Buffer.
//!
//! §3.1: "Once [a monitoring thread] catches a signal, it stores the content
//! of performance counters from the kernel memory area to a user memory
//! area, called User Sampling Buffer (USB)." Each [`crate::Monitor`] owns one
//! USB; the profiler consumes records from it in arrival order.

use cobra_perfmon::SampleRecord;

/// Bounded per-monitor sample store.
#[derive(Debug)]
pub struct UserSamplingBuffer {
    records: Vec<SampleRecord>,
    capacity: usize,
    dropped: u64,
}

impl UserSamplingBuffer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        UserSamplingBuffer {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Store a record copied out of the kernel buffer.
    pub fn store(&mut self, rec: SampleRecord) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(rec);
    }

    /// Drain all buffered records (consumed by the profiler).
    pub fn drain(&mut self) -> Vec<SampleRecord> {
        std::mem::take(&mut self.records)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::Event;
    use cobra_perfmon::PmcSelection;

    fn rec(index: u64) -> SampleRecord {
        SampleRecord {
            index,
            pc: 0,
            pid: 1,
            tid: 0,
            cpu: 0,
            cycle: 0,
            counters: [0; 4],
            events: PmcSelection::coherence_default().events,
            btb: vec![],
            dear: None,
        }
    }

    #[test]
    fn store_drain_and_overflow() {
        let mut usb = UserSamplingBuffer::new(2);
        usb.store(rec(0));
        usb.store(rec(1));
        usb.store(rec(2)); // dropped
        assert_eq!(usb.len(), 2);
        assert_eq!(usb.dropped(), 1);
        let drained = usb.drain();
        assert_eq!(drained.len(), 2);
        assert!(usb.is_empty());
        // Events field round-trips.
        assert_eq!(drained[0].events[0], Event::BusMemory);
    }
}
