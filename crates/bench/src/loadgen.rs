//! Arrival-schedule generators for the streaming front end.
//!
//! `medsec_fleet::streaming` consumes a plain `Vec<Arrival>` — (device,
//! tick) pairs — so load shapes are data, not policy baked into the
//! runtime. This module provides four canonical load shapes:
//!
//! * [`open_loop`] — arrivals at a fixed offered rate, independent of
//!   how fast the gateway drains (the shape that exposes overload:
//!   offered load does not slow down when the server falls behind);
//! * [`closed_loop`] — each device re-arrives a fixed think time after
//!   its previous arrival, so offered load self-limits to the service
//!   rate (the classic benchmarking trap [`open_loop`] avoids);
//! * [`bursty`] — a background trickle punctuated by synchronized
//!   bursts re-negotiating a slice of the fleet at one tick (shift
//!   changes, post-outage reconnect storms);
//! * [`ward_correlated`] — wards wake in staggered waves, so arrivals
//!   are correlated *within* a ward (and therefore within the device
//!   classes that ward maps to) — the shape that stresses per-class
//!   token buckets rather than the global queue.
//!
//! Every generator is a pure function of its arguments and a
//! `SplitMix64` seed: the same inputs replay the same schedule
//! bit-for-bit, which is what lets streaming runs pin admission/shed
//! counters exactly.

use medsec_fleet::Arrival;
use medsec_rng::SplitMix64;

/// Open-loop arrivals: `rate_per_tick` sessions offered per tick for
/// `ticks` ticks, devices drawn uniformly from `0..devices`. Fractional
/// rates accumulate (rate 0.5 → one arrival every other tick).
pub fn open_loop(devices: usize, ticks: usize, rate_per_tick: f64, seed: u64) -> Vec<Arrival> {
    assert!(devices > 0, "open_loop needs at least one device");
    let mut rng = SplitMix64::new(seed ^ 0x09E7_100B);
    let mut schedule = Vec::new();
    let mut credit = 0.0;
    for tick in 0..ticks {
        credit += rate_per_tick;
        while credit >= 1.0 {
            credit -= 1.0;
            let device = (rng.next_u64() % devices as u64) as usize;
            schedule.push(Arrival::new(device, tick));
        }
    }
    schedule
}

/// Closed-loop arrivals: every device negotiates, thinks for
/// `think_ticks`, then negotiates again, for `rounds` rounds. A
/// per-device phase jitter (up to `think_ticks`) desynchronizes the
/// fleet so round boundaries are not lockstep spikes.
pub fn closed_loop(devices: usize, rounds: usize, think_ticks: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ 0xC105_ED00);
    let period = think_ticks.max(1);
    let mut schedule = Vec::new();
    for device in 0..devices {
        let phase = (rng.next_u64() % period as u64) as usize;
        for round in 0..rounds {
            schedule.push(Arrival::new(device, phase + round * period));
        }
    }
    schedule
}

/// Bursty arrivals: a low background trickle (`trickle_per_tick`) plus
/// `bursts` synchronized bursts spaced `gap_ticks` apart, each burst
/// re-negotiating `burst_fraction` of the fleet at a single tick.
pub fn bursty(
    devices: usize,
    bursts: usize,
    gap_ticks: usize,
    burst_fraction: f64,
    trickle_per_tick: f64,
    seed: u64,
) -> Vec<Arrival> {
    assert!(devices > 0, "bursty needs at least one device");
    assert!(
        (0.0..=1.0).contains(&burst_fraction),
        "burst_fraction is a fleet fraction in [0, 1]"
    );
    let gap = gap_ticks.max(1);
    let horizon = bursts * gap;
    let mut schedule = open_loop(devices, horizon, trickle_per_tick, seed ^ 0xB0B5);
    let mut rng = SplitMix64::new(seed ^ 0xB1A5_7000);
    let per_burst = ((devices as f64 * burst_fraction).round() as usize).max(1);
    for b in 0..bursts {
        let tick = b * gap;
        // Sample the burst cohort without replacement: a partial
        // Fisher–Yates over the device index space.
        let mut pool: Vec<usize> = (0..devices).collect();
        for k in 0..per_burst.min(devices) {
            let j = k + (rng.next_u64() % (devices - k) as u64) as usize;
            pool.swap(k, j);
            schedule.push(Arrival::new(pool[k], tick));
        }
    }
    schedule
}

/// Ward-correlated arrivals: ward `w` (holding `ward_sizes[w]`
/// consecutive device indices) wakes at tick `w * stagger_ticks`, its
/// devices arriving within a `spread_ticks`-wide window after the wake.
/// Device indices follow the provisioning order, so this matches a hub
/// provisioned from the same ward list.
pub fn ward_correlated(
    ward_sizes: &[usize],
    stagger_ticks: usize,
    spread_ticks: usize,
    seed: u64,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ 0x3A2D_C0DE);
    let spread = spread_ticks.max(1) as u64;
    let mut schedule = Vec::new();
    let mut base = 0usize;
    for (w, &size) in ward_sizes.iter().enumerate() {
        let wake = w * stagger_ticks;
        for d in 0..size {
            let jitter = (rng.next_u64() % spread) as usize;
            schedule.push(Arrival::new(base + d, wake + jitter));
        }
        base += size;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon(s: &[Arrival]) -> usize {
        s.iter().map(|a| a.tick).max().map_or(0, |t| t + 1)
    }

    #[test]
    fn open_loop_offers_the_configured_rate_deterministically() {
        let a = open_loop(64, 100, 2.5, 7);
        let b = open_loop(64, 100, 2.5, 7);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(a.len(), 250, "2.5/tick over 100 ticks offers 250");
        assert!(a.iter().all(|x| x.device < 64 && x.tick < 100));
        assert_ne!(a, open_loop(64, 100, 2.5, 8), "seed changes the draw");
    }

    #[test]
    fn closed_loop_paces_each_device_by_think_time() {
        let s = closed_loop(10, 3, 20, 1);
        assert_eq!(s.len(), 30);
        for device in 0..10 {
            let ticks: Vec<usize> = s
                .iter()
                .filter(|a| a.device == device)
                .map(|a| a.tick)
                .collect();
            assert_eq!(ticks.len(), 3);
            assert!(ticks.windows(2).all(|w| w[1] - w[0] == 20));
        }
    }

    #[test]
    fn bursty_concentrates_cohorts_on_burst_ticks() {
        let s = bursty(100, 3, 50, 0.4, 0.1, 42);
        for b in 0..3 {
            let cohort: Vec<usize> = s
                .iter()
                .filter(|a| a.tick == b * 50)
                .map(|a| a.device)
                .collect();
            assert!(cohort.len() >= 40, "burst {b} cohort: {}", cohort.len());
            let mut uniq = cohort.clone();
            uniq.sort_unstable();
            uniq.dedup();
            // The trickle may add a duplicate on the burst tick, but the
            // cohort itself samples without replacement.
            assert!(uniq.len() + 1 >= cohort.len());
        }
        assert!(horizon(&s) <= 150);
    }

    #[test]
    fn ward_correlated_staggers_wards_in_provisioning_order() {
        let s = ward_correlated(&[5, 3, 2], 100, 10, 9);
        assert_eq!(s.len(), 10);
        for a in &s {
            let ward = match a.device {
                0..=4 => 0,
                5..=7 => 1,
                _ => 2,
            };
            assert!(a.tick >= ward * 100 && a.tick < ward * 100 + 10);
        }
    }
}
