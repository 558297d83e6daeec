//! Bounded per-lane batch queues with high-water load shedding.

use std::collections::VecDeque;

/// Outcome of offering one item to a [`BoundedLaneQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The item was queued for the serving side.
    Enqueued,
    /// The queue is at or above its high-water mark — the item was
    /// shed. Answer with a typed `QueueFull` reject; the crypto work
    /// it would have cost was never spent.
    Shed,
}

/// A bounded FIFO feeding one curve lane's batch workers.
///
/// Shedding at a *high-water mark* below capacity (rather than at
/// capacity) is what turns overload into a latency story: every item
/// the queue accepts will be served within `high_water / drain_rate`
/// ticks, so the p99 the SLO run reports is bounded by queue policy,
/// not by how hard the load generator pushed. The high-water *mark*
/// (deepest the queue ever got) lands in `FleetReport` so a sweep can
/// show queues plateauing — graceful shedding — instead of growing
/// with offered load.
#[derive(Debug, Clone)]
pub struct BoundedLaneQueue<T> {
    items: VecDeque<T>,
    high_water: usize,
    deepest: usize,
    enqueued: u64,
    shed: u64,
}

impl<T> BoundedLaneQueue<T> {
    /// An empty queue shedding at `high_water` queued items.
    pub fn new(high_water: usize) -> Self {
        assert!(high_water > 0, "a zero-depth queue would shed everything");
        Self {
            items: VecDeque::with_capacity(high_water),
            high_water,
            deepest: 0,
            enqueued: 0,
            shed: 0,
        }
    }

    /// Offer one item: enqueue below the high-water mark, shed at it.
    pub fn push(&mut self, item: T) -> Push {
        if self.items.len() >= self.high_water {
            self.shed += 1;
            return Push::Shed;
        }
        self.items.push_back(item);
        self.enqueued += 1;
        self.deepest = self.deepest.max(self.items.len());
        Push::Enqueued
    }

    /// Take up to `n` items for one serving batch, preserving arrival
    /// order, with at most one item per `key`: an item whose key is
    /// already in the batch stays queued, ahead of later arrivals, for
    /// the next drain.
    pub fn drain_batch<K: PartialEq>(&mut self, n: usize, key: impl Fn(&T) -> K) -> Vec<T> {
        let mut batch: Vec<T> = Vec::with_capacity(n.min(self.items.len()));
        let mut deferred: Vec<T> = Vec::new();
        while batch.len() < n {
            let Some(item) = self.items.pop_front() else {
                break;
            };
            if batch.iter().any(|b| key(b) == key(&item)) {
                deferred.push(item);
            } else {
                batch.push(item);
            }
        }
        for item in deferred.into_iter().rev() {
            self.items.push_front(item);
        }
        batch
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Deepest the queue has ever been (the high-water *mark*).
    pub fn high_water_mark(&self) -> usize {
        self.deepest
    }

    /// The shed threshold this queue was built with.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Items accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Items shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_at_high_water_and_records_the_mark() {
        let mut q = BoundedLaneQueue::new(3);
        assert_eq!(q.push('a'), Push::Enqueued);
        assert_eq!(q.push('b'), Push::Enqueued);
        assert_eq!(q.push('c'), Push::Enqueued);
        assert_eq!(q.push('d'), Push::Shed);
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water_mark(), 3);
        assert_eq!(q.shed(), 1);
        assert_eq!(q.enqueued(), 3);
    }

    #[test]
    fn drain_frees_room_in_fifo_order() {
        let mut q = BoundedLaneQueue::new(2);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), Push::Shed);
        assert_eq!(q.drain_batch(1, |&i| i), vec![1]);
        assert_eq!(q.push(3), Push::Enqueued);
        assert_eq!(q.drain_batch(8, |&i| i), vec![2, 3]);
        assert!(q.is_empty());
        // The mark remembers the deepest point, not the current depth.
        assert_eq!(q.high_water_mark(), 2);
    }

    #[test]
    fn drain_defers_repeated_keys_in_order() {
        let mut q = BoundedLaneQueue::new(8);
        for item in [(1, 'a'), (2, 'b'), (1, 'c'), (3, 'd'), (1, 'e'), (4, 'f')] {
            q.push(item);
        }
        // Key 1 is taken once; its later items keep their place ahead
        // of everything not yet drained.
        let key = |&(k, _): &(u32, char)| k;
        assert_eq!(q.drain_batch(3, key), vec![(1, 'a'), (2, 'b'), (3, 'd')]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.drain_batch(8, key), vec![(1, 'c'), (4, 'f')]);
        assert_eq!(q.drain_batch(8, key), vec![(1, 'e')]);
        assert!(q.is_empty());
        assert_eq!(q.enqueued(), 6);
    }
}
