//! Token-bucket admission control, per device class.
//!
//! Rate limiting runs *before* `admit_negotiate`, which itself runs
//! before any field arithmetic — so the cost ladder an attacker climbs
//! is: bytes (parsing) → tokens (one compare-and-subtract) → profile
//! check (table lookups) → and only then crypto. The buckets are
//! tick-driven rather than wall-clock-driven: the streaming simulator
//! advances time explicitly, so every run is deterministic and its
//! shed/reject counters reproduce bit-for-bit.

/// Refill policy for one device class, in millitokens (1 admission =
/// 1000 millitokens) so sub-1-admission-per-tick rates stay integral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassPolicy {
    /// Bucket capacity in whole admissions (burst allowance).
    pub burst: u32,
    /// Millitokens added per tick (1000 = one admission per tick).
    pub refill_milli_per_tick: u32,
}

impl ClassPolicy {
    /// A policy admitting `per_tick` sessions per tick sustained, with
    /// a `burst`-session bucket.
    pub fn per_tick(burst: u32, per_tick: u32) -> Self {
        Self {
            burst,
            refill_milli_per_tick: per_tick.saturating_mul(1000),
        }
    }
}

/// One class's bucket: integer millitoken level, clamped at capacity.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity_milli: u64,
    level_milli: u64,
    refill_milli: u64,
}

impl TokenBucket {
    /// A full bucket under `policy`.
    pub fn new(policy: ClassPolicy) -> Self {
        let capacity_milli = u64::from(policy.burst) * 1000;
        Self {
            capacity_milli,
            level_milli: capacity_milli,
            refill_milli: u64::from(policy.refill_milli_per_tick),
        }
    }

    /// Advance one tick: refill, clamped at capacity.
    pub fn tick(&mut self) {
        self.level_milli = (self.level_milli + self.refill_milli).min(self.capacity_milli);
    }

    /// Spend one admission's worth of tokens if available.
    pub fn try_take(&mut self) -> bool {
        if self.level_milli >= 1000 {
            self.level_milli -= 1000;
            true
        } else {
            false
        }
    }

    /// Current level in millitokens (observability).
    pub fn level_milli(&self) -> u64 {
        self.level_milli
    }
}

/// Per-class admission rate control: one [`TokenBucket`] per device
/// class index. The fleet layer maps its own notion of class (device
/// kind, ward, priority tier) onto indices — this crate stays
/// fleet-agnostic.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    buckets: Vec<TokenBucket>,
    rejected: u64,
}

impl AdmissionControl {
    /// One bucket per policy, all starting full.
    pub fn new(policies: &[ClassPolicy]) -> Self {
        Self {
            buckets: policies.iter().map(|p| TokenBucket::new(*p)).collect(),
            rejected: 0,
        }
    }

    /// Advance every bucket one tick.
    pub fn tick(&mut self) {
        for b in &mut self.buckets {
            b.tick();
        }
    }

    /// Try to admit one arrival from `class`. Unknown class indices
    /// fail closed (no bucket, no admission).
    pub fn try_admit(&mut self, class: usize) -> bool {
        let ok = self
            .buckets
            .get_mut(class)
            .is_some_and(TokenBucket::try_take);
        if !ok {
            self.rejected += 1;
        }
        ok
    }

    /// Total arrivals turned away by rate limiting so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_sustained_rate() {
        let mut b = TokenBucket::new(ClassPolicy::per_tick(3, 1));
        // Full bucket: the burst drains immediately.
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
        // One admission per tick sustained.
        b.tick();
        assert!(b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn fractional_refill_accumulates() {
        // 250 millitokens/tick = one admission every 4 ticks.
        let mut b = TokenBucket::new(ClassPolicy {
            burst: 1,
            refill_milli_per_tick: 250,
        });
        assert!(b.try_take());
        for _ in 0..3 {
            b.tick();
            assert!(!b.try_take());
        }
        b.tick();
        assert!(b.try_take());
    }

    #[test]
    fn refill_clamps_at_burst() {
        let mut b = TokenBucket::new(ClassPolicy::per_tick(2, 5));
        for _ in 0..10 {
            b.tick();
        }
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "idle ticks must not bank beyond the burst");
    }

    #[test]
    fn unknown_class_fails_closed() {
        let mut ac = AdmissionControl::new(&[ClassPolicy::per_tick(1, 1)]);
        assert!(ac.try_admit(0));
        assert!(!ac.try_admit(7));
        assert_eq!(ac.rejected(), 1);
    }
}
