//! The servers' pending-session table.
//!
//! Every suite server remembers one small value per in-flight session
//! between its hello and the device's closing frame: the symmetric
//! nonce, the mutual ephemeral key pair, or a sigma protocol's
//! `(R, e)`. A gateway serves thousands of concurrent sessions from
//! several worker threads, so a single locked map would serialize every
//! worker on one mutex. The table is split across a power-of-two
//! number of shards, each behind its own [`Mutex`], with devices
//! assigned to shards by a Fibonacci multiplicative hash of their id —
//! uniform even for the dense sequential ids a fleet hands out.
//!
//! An entry lives from `insert` (hello) to `remove` (closing frame);
//! nothing is kept once a session closes.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::suite::SuiteDeviceId;

/// Sharded `SuiteDeviceId → V` map of in-flight sessions.
#[derive(Debug)]
pub struct PendingTable<V> {
    shards: Box<[Mutex<HashMap<SuiteDeviceId, V>>]>,
    mask: u32,
}

impl<V> PendingTable<V> {
    /// A table with `shards` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u32,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a device id lives in — 64-bit Fibonacci hashing.
    ///
    /// The multiplier is ⌊2^64/φ⌋; the shard index is taken from the
    /// product's *upper* half, where golden-ratio low-discrepancy
    /// guarantees sequential ids land round-robin-uniformly even at
    /// small N. (A 32-bit variant reading a middle bit window aliases
    /// with power-of-two shard counts and leaves whole shards empty on
    /// small fleets.)
    pub fn shard_index(&self, id: SuiteDeviceId) -> usize {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as u32 & self.mask) as usize
    }

    fn shard(&self, id: SuiteDeviceId) -> std::sync::MutexGuard<'_, HashMap<SuiteDeviceId, V>> {
        self.shards[self.shard_index(id)]
            .lock()
            .expect("pending shard poisoned")
    }

    /// Record `id`'s pending state, returning the state it replaces (a
    /// re-keyed session's stale hello).
    pub fn insert(&self, id: SuiteDeviceId, value: V) -> Option<V> {
        self.shard(id).insert(id, value)
    }

    /// Take `id`'s pending state, closing the session.
    pub fn remove(&self, id: SuiteDeviceId) -> Option<V> {
        self.shard(id).remove(&id)
    }

    /// Sessions currently pending across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("pending shard poisoned").len())
            .sum()
    }

    /// Whether no session is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(PendingTable::<()>::new(0).shard_count(), 1);
        assert_eq!(PendingTable::<()>::new(5).shard_count(), 8);
        assert_eq!(PendingTable::<()>::new(16).shard_count(), 16);
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let table = PendingTable::<()>::new(8);
        let mut counts = vec![0usize; table.shard_count()];
        for id in 0..8000u32 {
            counts[table.shard_index(id)] += 1;
        }
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Uniform would be 1000 per shard; allow ±25%.
        assert!(lo > 750 && hi < 1250, "skewed shard histogram: {counts:?}");
    }

    #[test]
    fn small_fleets_leave_no_shard_empty() {
        // 256 sequential ids over 64 shards must occupy every shard,
        // not strand a third of them.
        let table = PendingTable::<()>::new(64);
        let mut counts = vec![0usize; table.shard_count()];
        for id in 0..256u32 {
            counts[table.shard_index(id)] += 1;
        }
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(lo >= 2, "empty-ish shard at N=256: {counts:?}");
        assert!(hi <= 8, "overloaded shard at N=256: {counts:?}");
        // Same for a sparse subset (ids % 4 != 2), the shape a fleet
        // mixing protocols leaves in one server's table.
        let mut counts = vec![0usize; table.shard_count()];
        for id in (0..256u32).filter(|id| id % 4 != 2) {
            counts[table.shard_index(id)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "empty shard for a sparse subset: {counts:?}"
        );
    }

    /// Fewer devices than shards: every id gets a valid, stable shard,
    /// and the table sees exactly the inserted sessions — down to a
    /// single device in a 64-shard table.
    #[test]
    fn device_count_below_shard_count() {
        for n_devices in [1u32, 2, 3, 5] {
            let table = PendingTable::new(64);
            for id in 0..n_devices {
                let shard = table.shard_index(id);
                assert!(shard < table.shard_count());
                assert_eq!(shard, table.shard_index(id));
                assert_eq!(table.insert(id, id * 10), None);
            }
            assert_eq!(table.len(), n_devices as usize);
            for id in 0..n_devices {
                assert_eq!(table.remove(id), Some(id * 10));
            }
            assert!(table.is_empty());
        }
    }

    #[test]
    fn table_tracks_phases() {
        let table = PendingTable::new(4);
        assert_eq!(table.insert(7, 'a'), None);
        assert_eq!(table.insert(7, 'b'), Some('a'));
        assert_eq!(table.len(), 1);
        assert_eq!(table.remove(7), Some('b'));
        assert_eq!(table.remove(7), None);
        assert!(table.is_empty());
    }
}
