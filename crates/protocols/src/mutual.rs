//! Pacemaker ↔ server mutual authentication with encrypted, authenticated
//! telemetry — the paper's motivating scenario (§2, §4).
//!
//! Security properties per §4: mutual authentication (prevent
//! impersonation), encryption (privacy of vital signs) and data
//! authentication ("a modification on the ciphertext may also lead to a
//! corrupted therapy that endangers the patient's life").
//!
//! The module exposes the §4 energy rule as a first-class design choice:
//! "server authentication should be performed before other operations.
//! As such, the protocol session stops immediately on the device when
//! the server authentication fails" — [`Ordering::ServerFirst`] vs the
//! naive [`Ordering::DeviceFirst`], and [`flood_energy`] quantifies the
//! energy a fake-server flood drains under each.

use medsec_ec::{CurveSpec, KeyPair, Point};
use medsec_lwc::{
    aes_cmac, ctr_xor, hmac_sha256, hmac_sha256_parts, sha256, sha256_hw_profile, verify_tag,
    Aes128, BlockCipher,
};

use crate::energy::EnergyLedger;

/// Fixed CTR nonce for the telemetry frame. Freshness comes from the
/// per-session key, so the nonce itself is a protocol constant — the
/// gateway side must use the same bytes to decrypt.
pub const TELEMETRY_NONCE: [u8; 12] = [0x4d, 0x45, 0x44, 0x53, 0x45, 0x43, 0, 1, 0, 0, 0, 0];

/// Which side commits energy first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// The device verifies the server's proof *before* its own expensive
    /// operations (the paper's recommendation).
    #[default]
    ServerFirst,
    /// The device performs its heavy computation before checking the
    /// server — correct protocol, wasteful under attack.
    DeviceFirst,
}

/// Long-term pairing material shared at implantation time.
#[derive(Debug, Clone)]
pub struct Pairing {
    /// Shared 128-bit authentication key.
    pub auth_key: [u8; 16],
}

/// Outcome of one session attempt from the device's perspective.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Mutual authentication completed; a fresh session key protects the
    /// telemetry channel.
    Established {
        /// Encrypted, authenticated telemetry ready for the uplink.
        telemetry_frame: Vec<u8>,
    },
    /// Server authentication failed; session aborted.
    ServerRejected,
}

/// The implanted device.
#[derive(Debug, Clone)]
pub struct Device<C: CurveSpec> {
    pairing: Pairing,
    ordering: Ordering,
    _curve: core::marker::PhantomData<C>,
}

/// Server hello: an ephemeral ECDH share authenticated under the
/// pairing key.
#[derive(Debug, Clone)]
pub struct ServerHello<C: CurveSpec> {
    /// Server's ephemeral public point.
    pub ephemeral: Point<C>,
    /// CMAC over the encoded point under the pairing key.
    pub mac: [u8; 16],
}

impl<C: CurveSpec> Device<C> {
    /// Create a device bound to its pairing material.
    pub fn new(pairing: Pairing, ordering: Ordering) -> Self {
        Self {
            pairing,
            ordering,
            _curve: core::marker::PhantomData,
        }
    }

    /// Process a server hello straight from its wire payload
    /// (`compressed ephemeral ‖ 16-byte MAC`), and on success establish
    /// a session and emit one encrypted telemetry frame.
    ///
    /// Under [`Ordering::ServerFirst`] the CMAC is checked over the
    /// *received encoding* before the point is even decompressed, so
    /// the paper's "server authentication should be performed before
    /// other operations" rule (§4) covers decompression as it does the
    /// two point multiplications. On the device, decompression costs a
    /// field inversion plus a half-trace of (m−1)/2 double squarings
    /// (the gateway's table half-trace needs hundreds of KiB an implant
    /// does not have); the ledger books neither. A forged hello is
    /// rejected for the price of one CMAC over raw bytes.
    pub fn run_session_frame(
        &self,
        payload: &[u8],
        telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> SessionOutcome {
        ledger.rx(payload.len());
        let plen = point_len::<C>();
        if payload.len() != plen + 16 {
            return SessionOutcome::ServerRejected;
        }
        let (eph_bytes, mac_bytes) = payload.split_at(plen);
        let mac: [u8; 16] = mac_bytes.try_into().expect("16 bytes");

        let verify_bytes = |ledger: &mut EnergyLedger| -> bool {
            ledger.symmetric(&Aes128::hw_profile(), 3);
            let expect = aes_cmac(&self.pairing.auth_key, eph_bytes);
            // lint: ct-begin — secret-dependent compare; branch on the
            // (public) outcome happens at the call site.
            let ok = verify_tag(&expect, &mac);
            // lint: ct-end
            ok
        };

        match self.ordering {
            Ordering::ServerFirst => {
                if !verify_bytes(ledger) {
                    return SessionOutcome::ServerRejected;
                }
                let Some(ephemeral) = Point::<C>::decompress(eph_bytes) else {
                    return SessionOutcome::ServerRejected;
                };
                self.established_session(&ephemeral, telemetry, &mut next_u64, ledger)
            }
            Ordering::DeviceFirst => {
                // The wasteful ordering decompresses and computes first.
                let eph = Point::<C>::decompress(eph_bytes);
                let heavy = eph
                    .as_ref()
                    .and_then(|e| self.heavy_ecdh(e, &mut next_u64, ledger));
                if !verify_bytes(ledger) {
                    return SessionOutcome::ServerRejected;
                }
                let Some((kp, session_key)) = heavy else {
                    return SessionOutcome::ServerRejected;
                };
                SessionOutcome::Established {
                    telemetry_frame: self.encrypt_frame(&kp, &session_key, telemetry, ledger),
                }
            }
        }
    }

    /// ECDH + session establishment once the server is authenticated.
    fn established_session(
        &self,
        ephemeral: &Point<C>,
        telemetry: &[u8],
        next_u64: &mut dyn FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> SessionOutcome {
        let Some((kp, session_key)) = self.heavy_ecdh(ephemeral, next_u64, ledger) else {
            return SessionOutcome::ServerRejected;
        };
        SessionOutcome::Established {
            telemetry_frame: self.encrypt_frame(&kp, &session_key, telemetry, ledger),
        }
    }

    /// Device ephemeral keypair (1 ECPM) + shared secret (1 ECPM) +
    /// session-key derivation — the protected-ladder device path.
    fn heavy_ecdh(
        &self,
        server_eph: &Point<C>,
        next_u64: &mut dyn FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> Option<(KeyPair<C>, [u8; 32])> {
        let kp = KeyPair::<C>::generate(&mut *next_u64);
        ledger.point_mul();
        let shared = kp.shared_x(server_eph, &mut *next_u64)?;
        ledger.point_mul();
        ledger.symmetric(&sha256_hw_profile(), 1);
        Some((kp, sha256(&shared.to_bytes())))
    }

    /// Process a server hello and, on success, establish a session and
    /// emit one encrypted telemetry frame. Every joule is booked.
    pub fn run_session(
        &self,
        hello: &ServerHello<C>,
        telemetry: &[u8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> SessionOutcome {
        ledger.rx(point_len::<C>() + 16);

        let verify_server = |ledger: &mut EnergyLedger| -> bool {
            // One CMAC over the compressed point: 3 AES blocks.
            ledger.symmetric(&Aes128::hw_profile(), 3);
            let expect = aes_cmac(&self.pairing.auth_key, &hello.ephemeral.compress());
            // lint: ct-begin — secret-dependent compare; branch on the
            // (public) outcome happens at the call site.
            let ok = verify_tag(&expect, &hello.mac);
            // lint: ct-end
            ok
        };

        match self.ordering {
            Ordering::ServerFirst => {
                if !verify_server(ledger) {
                    // Abort immediately: this is the energy saving.
                    return SessionOutcome::ServerRejected;
                }
                self.established_session(&hello.ephemeral, telemetry, &mut next_u64, ledger)
            }
            Ordering::DeviceFirst => {
                let heavy = self.heavy_ecdh(&hello.ephemeral, &mut next_u64, ledger);
                if !verify_server(ledger) {
                    return SessionOutcome::ServerRejected;
                }
                let Some((kp, session_key)) = heavy else {
                    return SessionOutcome::ServerRejected;
                };
                SessionOutcome::Established {
                    telemetry_frame: self.encrypt_frame(&kp, &session_key, telemetry, ledger),
                }
            }
        }
    }

    fn encrypt_frame(
        &self,
        kp: &KeyPair<C>,
        session_key: &[u8; 32],
        telemetry: &[u8],
        ledger: &mut EnergyLedger,
    ) -> Vec<u8> {
        let enc_key: [u8; 16] = session_key[..16].try_into().expect("16 bytes");
        let mac_key = &session_key[16..];
        let aes = Aes128::new(&enc_key);
        let mut ct = telemetry.to_vec();
        ctr_xor(&aes, &TELEMETRY_NONCE, &mut ct);
        let blocks = (telemetry.len() as u64).div_ceil(16).max(1);
        ledger.symmetric(&Aes128::hw_profile(), blocks);
        // Frame: device ephemeral ‖ ciphertext ‖ 16-byte truncated tag.
        // The MAC input is exactly the frame prefix, so the point is
        // compressed once (compression pays a field inversion for the
        // y-parity bit — not something to do twice per frame).
        let mut frame = kp.public().compress();
        frame.extend_from_slice(&ct);
        let tag = hmac_sha256(mac_key, &frame);
        ledger.symmetric(&sha256_hw_profile(), 2);
        frame.extend_from_slice(&tag[..16]);
        ledger.tx(frame.len());
        frame
    }
}

/// Legitimate server: builds an authentic hello.
pub fn server_hello<C: CurveSpec>(
    pairing: &Pairing,
    mut next_u64: impl FnMut() -> u64,
) -> (KeyPair<C>, ServerHello<C>) {
    let kp = KeyPair::<C>::generate(&mut next_u64);
    let mac = aes_cmac(&pairing.auth_key, &kp.public().compress());
    let hello = ServerHello {
        ephemeral: *kp.public(),
        mac,
    };
    (kp, hello)
}

/// Server-side bulk hello generation: all ephemeral key pairs come from
/// one fixed-base-comb batch (`KeyPair::generate_batch` — inversion-free
/// accumulation, one batched normalization), each hello is
/// authenticated under its device's pairing key, and every compressed
/// ephemeral encoding is produced once — with the y-parity inversions
/// shared through one `batch_invert` chain — and returned alongside the
/// hello so the framing layer never re-compresses.
///
/// The device side of the protocol is unchanged — a batched hello is
/// byte-compatible with a [`server_hello`] one.
pub fn server_hello_batch<C: CurveSpec>(
    pairings: &[&Pairing],
    mut next_u64: impl FnMut() -> u64,
) -> Vec<(KeyPair<C>, ServerHello<C>, Vec<u8>)> {
    let keys = KeyPair::<C>::generate_batch(pairings.len(), &mut next_u64);
    // One inversion chain for every compression parity bit.
    let mut xinvs: Vec<_> = keys
        .iter()
        .map(|kp| kp.public().x().unwrap_or_else(medsec_gf2m::Element::zero))
        .collect();
    medsec_gf2m::batch_invert(&mut xinvs);
    keys.into_iter()
        .zip(pairings)
        .zip(xinvs)
        .map(|((kp, pairing), xinv)| {
            let mut point_buf = vec![0u8; point_len::<C>()];
            kp.public().compress_into_with_xinv(&mut point_buf, xinv);
            let mac = aes_cmac(&pairing.auth_key, &point_buf);
            let hello = ServerHello {
                ephemeral: *kp.public(),
                mac,
            };
            (kp, hello, point_buf)
        })
        .collect()
}

/// Server-side opening of one telemetry payload, given the ECDH
/// shared-secret x-coordinate for the session: derive the session key,
/// verify the truncated HMAC over `ephemeral ‖ ciphertext` (streamed
/// from the two slices, never concatenated), decrypt.
/// Returns `None` on a tag mismatch. Books one SHA-256 (key
/// derivation), two SHA-256 blocks (HMAC) and the AES-CTR blocks on
/// `ledger` — exactly the cost sequence of the pre-suite gateway loop,
/// which now calls this too.
pub fn open_telemetry<C: CurveSpec>(
    shared_x: &medsec_gf2m::Element<C::Field>,
    eph_bytes: &[u8],
    ct: &[u8],
    tag: &[u8],
    ledger: &mut EnergyLedger,
) -> Option<([u8; 32], Vec<u8>)> {
    let session_key = sha256(&shared_x.to_bytes());
    ledger.symmetric(&sha256_hw_profile(), 1);
    let mac_key = &session_key[16..];
    let expect = hmac_sha256_parts(mac_key, &[eph_bytes, ct]);
    ledger.symmetric(&sha256_hw_profile(), 2);
    // lint: ct-begin — secret-dependent compare runs to completion
    // before the (public) accept/reject decision below.
    let tag_ok = verify_tag(&expect[..16], tag);
    // lint: ct-end
    if !tag_ok {
        return None;
    }
    let enc_key: [u8; 16] = session_key[..16].try_into().expect("16 bytes");
    let aes = Aes128::new(&enc_key);
    let mut plaintext = ct.to_vec();
    ctr_xor(&aes, &TELEMETRY_NONCE, &mut plaintext);
    ledger.symmetric(&Aes128::hw_profile(), (ct.len() as u64).div_ceil(16).max(1));
    Some((session_key, plaintext))
}

/// Forged hello from an attacker who does not know the pairing key.
pub fn forged_hello<C: CurveSpec>(mut next_u64: impl FnMut() -> u64) -> ServerHello<C> {
    let kp = KeyPair::<C>::generate(&mut next_u64);
    let mut mac = [0u8; 16];
    for chunk in mac.chunks_mut(8) {
        chunk.copy_from_slice(&next_u64().to_be_bytes());
    }
    ServerHello {
        ephemeral: *kp.public(),
        mac,
    }
}

/// Device energy drained by `n` forged-hello attempts (experiment E11).
pub fn flood_energy<C: CurveSpec>(
    device: &Device<C>,
    n: usize,
    mut next_u64: impl FnMut() -> u64,
    mut fresh_ledger: impl FnMut() -> EnergyLedger,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..n {
        let hello = forged_hello::<C>(&mut next_u64);
        let mut ledger = fresh_ledger();
        let out = device.run_session(&hello, b"hr=62bpm", &mut next_u64, &mut ledger);
        assert_eq!(out, SessionOutcome::ServerRejected);
        total += ledger.total();
    }
    total
}

fn point_len<C: CurveSpec>() -> usize {
    Point::<C>::compressed_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::Toy17;
    use medsec_power::{EnergyReport, RadioModel};
    use medsec_rng::SplitMix64;

    fn ledger() -> EnergyLedger {
        EnergyLedger::new(
            EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
            RadioModel::first_order_default(),
            2.0,
        )
    }

    fn pairing() -> Pairing {
        Pairing {
            auth_key: *b"pacemaker pairkc",
        }
    }

    #[test]
    fn legitimate_session_establishes() {
        let mut rng = SplitMix64::new(6301);
        let device = Device::<Toy17>::new(pairing(), Ordering::ServerFirst);
        let (_kp, hello) = server_hello::<Toy17>(&pairing(), rng.as_fn());
        let mut l = ledger();
        let out = device.run_session(&hello, b"hr=62bpm", rng.as_fn(), &mut l);
        assert!(matches!(out, SessionOutcome::Established { .. }));
        // Two point multiplications dominate the device budget.
        assert!(l.compute() > 2.0 * 5.0e-6);
    }

    #[test]
    fn batched_hellos_establish_like_singles() {
        let mut rng = SplitMix64::new(6306);
        let pairings: Vec<Pairing> = (0..5)
            .map(|i| Pairing {
                auth_key: [i as u8 + 1; 16],
            })
            .collect();
        let refs: Vec<&Pairing> = pairings.iter().collect();
        let hellos = server_hello_batch::<Toy17>(&refs, rng.as_fn());
        assert_eq!(hellos.len(), 5);
        for (pairing, (_kp, hello, eph_bytes)) in pairings.iter().zip(&hellos) {
            // The returned encoding is the canonical compression.
            assert_eq!(*eph_bytes, hello.ephemeral.compress());
            let device = Device::<Toy17>::new(pairing.clone(), Ordering::ServerFirst);
            let mut l = ledger();
            let out = device.run_session(hello, b"hr=60bpm", rng.as_fn(), &mut l);
            assert!(matches!(out, SessionOutcome::Established { .. }));
        }
        assert!(server_hello_batch::<Toy17>(&[], rng.as_fn()).is_empty());
    }

    #[test]
    fn run_session_frame_matches_struct_entry() {
        let mut rng = SplitMix64::new(6307);
        for ordering in [Ordering::ServerFirst, Ordering::DeviceFirst] {
            let device = Device::<Toy17>::new(pairing(), ordering);
            let (_kp, hello) = server_hello::<Toy17>(&pairing(), rng.as_fn());
            // Wire payload = compressed ephemeral ‖ MAC.
            let mut payload = hello.ephemeral.compress();
            payload.extend_from_slice(&hello.mac);
            let mut l = ledger();
            let out = device.run_session_frame(&payload, b"hr=62bpm", rng.as_fn(), &mut l);
            assert!(
                matches!(out, SessionOutcome::Established { .. }),
                "{ordering:?}"
            );
            // Same radio + CMAC + 2-ECPM energy booking as the struct path.
            let mut l2 = ledger();
            let _ = device.run_session(&hello, b"hr=62bpm", rng.as_fn(), &mut l2);
            assert!((l.total() - l2.total()).abs() < 1e-12);
            // Tampered MAC is rejected before decompression.
            let mut bad = payload.clone();
            *bad.last_mut().unwrap() ^= 1;
            let mut l3 = ledger();
            assert_eq!(
                device.run_session_frame(&bad, b"x", rng.as_fn(), &mut l3),
                SessionOutcome::ServerRejected
            );
            // Truncated payloads are rejected outright.
            let mut l4 = ledger();
            assert_eq!(
                device.run_session_frame(&payload[..3], b"x", rng.as_fn(), &mut l4),
                SessionOutcome::ServerRejected
            );
        }
    }

    #[test]
    fn forged_hello_is_rejected_under_both_orderings() {
        let mut rng = SplitMix64::new(6302);
        for ordering in [Ordering::ServerFirst, Ordering::DeviceFirst] {
            let device = Device::<Toy17>::new(pairing(), ordering);
            let hello = forged_hello::<Toy17>(rng.as_fn());
            let mut l = ledger();
            let out = device.run_session(&hello, b"x", rng.as_fn(), &mut l);
            assert_eq!(out, SessionOutcome::ServerRejected);
        }
    }

    #[test]
    fn server_first_ordering_saves_flood_energy() {
        let mut rng = SplitMix64::new(6303);
        let early = Device::<Toy17>::new(pairing(), Ordering::ServerFirst);
        let late = Device::<Toy17>::new(pairing(), Ordering::DeviceFirst);
        let e_early = flood_energy(&early, 10, rng.as_fn(), ledger);
        let e_late = flood_energy(&late, 10, rng.as_fn(), ledger);
        // Receiving the bogus hello costs radio energy either way; what
        // the ordering eliminates is the *useless computation* — two
        // point multiplications per forged attempt (≈10 µJ each time).
        assert!(
            e_late > 2.0 * e_early,
            "expected ≥2× total saving, got {e_early} vs {e_late}"
        );
        let wasted_compute = e_late - e_early;
        assert!(
            (wasted_compute - 10.0 * 2.0 * 5.1e-6).abs() < 0.3 * 10.0 * 2.0 * 5.1e-6,
            "wasted compute {wasted_compute} not ≈ 10 × 2 ECPM"
        );
    }

    #[test]
    fn telemetry_frame_is_bound_to_session() {
        let mut rng = SplitMix64::new(6304);
        let device = Device::<Toy17>::new(pairing(), Ordering::ServerFirst);
        let (_kp, hello) = server_hello::<Toy17>(&pairing(), rng.as_fn());
        let mut l = ledger();
        let SessionOutcome::Established { telemetry_frame } =
            device.run_session(&hello, b"hr=62bpm", rng.as_fn(), &mut l)
        else {
            panic!("session should establish");
        };
        // Frame = point (4 for toy) + ct (8) + tag (16).
        assert_eq!(telemetry_frame.len(), 4 + 8 + 16);
        // Ciphertext differs from plaintext.
        assert_ne!(&telemetry_frame[4..12], b"hr=62bpm");
    }

    #[test]
    fn wrong_pairing_key_cannot_impersonate_server() {
        let mut rng = SplitMix64::new(6305);
        let device = Device::<Toy17>::new(pairing(), Ordering::ServerFirst);
        let wrong = Pairing {
            auth_key: [9u8; 16],
        };
        let (_kp, hello) = server_hello::<Toy17>(&wrong, rng.as_fn());
        let mut l = ledger();
        let out = device.run_session(&hello, b"x", rng.as_fn(), &mut l);
        assert_eq!(out, SessionOutcome::ServerRejected);
    }
}
