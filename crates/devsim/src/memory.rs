//! Device global-memory management.
//!
//! "Cashmere automatically manages the available memory on a device"
//! (paper Sec. II-C3). This allocator tracks named buffers against the
//! device's capacity; the Cashmere runtime uses it to keep data resident
//! across multiple kernel launches (`Kernel.getDevice()` / `Device.copy()`)
//! and to fail cleanly — triggering the CPU fallback — when a job does not
//! fit. Out-of-core eviction (which the paper lists as unsupported) is left
//! as the natural extension point of [`DeviceMemory::free`].

use serde::{Deserialize, Serialize};

/// Handle to an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub u64);

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    pub requested: u64,
    pub available: u64,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for AllocError {}

/// Tracks allocations against a device's global-memory capacity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceMemory {
    capacity: u64,
    allocated: u64,
    next_id: u64,
    /// Live buffers and their sizes. A device holds a few at a time (the
    /// in-flight jobs' buffers and one resident buffer per kernel), so a
    /// linear scan beats hashing.
    buffers: Vec<(BufferId, u64)>,
    /// High-water mark, for reporting.
    peak: u64,
}

impl DeviceMemory {
    pub fn new(capacity_bytes: u64) -> DeviceMemory {
        DeviceMemory {
            capacity: capacity_bytes,
            allocated: 0,
            next_id: 0,
            buffers: Vec::new(),
            peak: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    pub fn available(&self) -> u64 {
        self.capacity - self.allocated
    }

    pub fn peak(&self) -> u64 {
        self.peak
    }

    pub fn live_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Allocate `bytes`; fails without side effects when it does not fit.
    pub fn alloc(&mut self, bytes: u64) -> Result<BufferId, AllocError> {
        if bytes > self.available() {
            return Err(AllocError {
                requested: bytes,
                available: self.available(),
            });
        }
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.allocated += bytes;
        self.peak = self.peak.max(self.allocated);
        self.buffers.push((id, bytes));
        Ok(id)
    }

    /// Free a buffer. Freeing an unknown id is a no-op returning `false`.
    pub fn free(&mut self, id: BufferId) -> bool {
        match self.buffers.iter().position(|&(b, _)| b == id) {
            Some(i) => {
                self.allocated -= self.buffers.swap_remove(i).1;
                true
            }
            None => false,
        }
    }

    /// Would an allocation of `bytes` succeed right now?
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(400).unwrap();
        let b = m.alloc(500).unwrap();
        assert_eq!(m.allocated(), 900);
        assert_eq!(m.available(), 100);
        assert_eq!(m.live_buffers(), 2);
        assert!(m.free(a));
        assert_eq!(m.allocated(), 500);
        assert!(m.free(b));
        assert_eq!(m.allocated(), 0);
        assert_eq!(m.peak(), 900);
    }

    #[test]
    fn oom_is_clean() {
        let mut m = DeviceMemory::new(100);
        let _a = m.alloc(80).unwrap();
        let err = m.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
        // failed alloc has no side effects
        assert_eq!(m.allocated(), 80);
        assert!(m.fits(20));
        assert!(!m.fits(21));
    }

    #[test]
    fn double_free_is_noop() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(10).unwrap();
        assert!(m.free(a));
        assert!(!m.free(a));
        assert_eq!(m.allocated(), 0);
    }

    #[test]
    fn ids_are_unique() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(10).unwrap();
        m.free(a);
        let b = m.alloc(10).unwrap();
        assert_ne!(a, b);
    }
}
