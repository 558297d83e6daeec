//! Symmetric-key challenge–response authentication — the secret-key
//! baseline of the paper's protocol comparison: "protocols based on
//! secret key algorithms, like AES, are often cheaper in computation
//! cost but not necessarily in communication cost. Secret key algorithms
//! have also the problem of key distribution and management" (§4).
//!
//! The device authenticates with `AES-CMAC(k, Ns ‖ Nd ‖ id)`. Note the
//! privacy cost baked into the message flow: the device must disclose a
//! stable identity (or the server cannot pick the right key), so an
//! eavesdropper links sessions for free.

use medsec_lwc::{aes_cmac, verify_tag, Aes128, BlockCipher};

use crate::energy::EnergyLedger;

/// A symmetric transcript as seen by an eavesdropper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricTranscript {
    /// Device identity, necessarily in the clear.
    pub device_id: u32,
    /// Server nonce.
    pub server_nonce: [u8; 8],
    /// Device nonce.
    pub device_nonce: [u8; 8],
    /// CMAC tag.
    pub mac: [u8; 16],
}

/// Device side of the symmetric protocol.
#[derive(Debug, Clone)]
pub struct SymmetricDevice {
    id: u32,
    key: [u8; 16],
}

impl SymmetricDevice {
    /// Provision a device with its identity and shared key.
    pub fn new(id: u32, key: [u8; 16]) -> Self {
        Self { id, key }
    }

    /// Answer a server nonce.
    pub fn respond(
        &self,
        server_nonce: [u8; 8],
        mut next_u64: impl FnMut() -> u64,
        ledger: &mut EnergyLedger,
    ) -> SymmetricTranscript {
        ledger.rx(8);
        let device_nonce = next_u64().to_be_bytes();
        let mut msg = Vec::with_capacity(20);
        msg.extend_from_slice(&server_nonce);
        msg.extend_from_slice(&device_nonce);
        msg.extend_from_slice(&self.id.to_be_bytes());
        let mac = aes_cmac(&self.key, &msg);
        // CMAC over 20 bytes = 2 AES blocks + 1 subkey block.
        ledger.symmetric(&Aes128::hw_profile(), 3);
        // id (4) + device nonce (8) + tag (16).
        ledger.tx(4 + 8 + 16);
        SymmetricTranscript {
            device_id: self.id,
            server_nonce,
            device_nonce,
            mac,
        }
    }
}

/// Server side: a key table indexed by device identity.
#[derive(Debug, Clone, Default)]
pub struct SymmetricServer {
    keys: Vec<(u32, [u8; 16])>,
}

impl SymmetricServer {
    /// Empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provision a new device; returns the device object.
    pub fn register_device(
        &mut self,
        id: u32,
        mut next_u64: impl FnMut() -> u64,
    ) -> SymmetricDevice {
        let mut key = [0u8; 16];
        for chunk in key.chunks_mut(8) {
            chunk.copy_from_slice(&next_u64().to_be_bytes());
        }
        self.keys.push((id, key));
        SymmetricDevice::new(id, key)
    }

    /// Generate a challenge nonce.
    pub fn challenge(&self, mut next_u64: impl FnMut() -> u64) -> [u8; 8] {
        next_u64().to_be_bytes()
    }

    /// Verify a device response.
    pub fn verify(&self, transcript: &SymmetricTranscript) -> bool {
        let Some((_, key)) = self.keys.iter().find(|(id, _)| *id == transcript.device_id) else {
            return false;
        };
        let mut msg = Vec::with_capacity(20);
        msg.extend_from_slice(&transcript.server_nonce);
        msg.extend_from_slice(&transcript.device_nonce);
        msg.extend_from_slice(&transcript.device_id.to_be_bytes());
        let expect = aes_cmac(key, &msg);
        // lint: ct-begin — secret-dependent compare; the caller
        // branches on the (public) outcome.
        let ok = verify_tag(&expect, &transcript.mac);
        // lint: ct-end
        ok
    }
}

/// Run one complete symmetric session; device energy booked on `ledger`.
pub fn run_session(
    device: &SymmetricDevice,
    server: &SymmetricServer,
    ledger: &mut EnergyLedger,
    mut next_u64: impl FnMut() -> u64,
) -> (bool, SymmetricTranscript) {
    let nonce = server.challenge(&mut next_u64);
    let transcript = device.respond(nonce, &mut next_u64, ledger);
    (server.verify(&transcript), transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_power::{EnergyReport, RadioModel};
    use medsec_rng::SplitMix64;

    fn ledger() -> EnergyLedger {
        EnergyLedger::new(
            EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
            RadioModel::first_order_default(),
            2.0,
        )
    }

    #[test]
    fn completeness() {
        let mut rng = SplitMix64::new(6201);
        let mut server = SymmetricServer::new();
        let device = server.register_device(42, rng.as_fn());
        let mut l = ledger();
        let (ok, t) = run_session(&device, &server, &mut l, rng.as_fn());
        assert!(ok);
        assert_eq!(t.device_id, 42);
    }

    #[test]
    fn unknown_device_rejected() {
        let mut rng = SplitMix64::new(6202);
        let mut server_a = SymmetricServer::new();
        let server_b = SymmetricServer::new();
        let device = server_a.register_device(1, rng.as_fn());
        let mut l = ledger();
        let (ok, _) = run_session(&device, &server_b, &mut l, rng.as_fn());
        assert!(!ok);
    }

    #[test]
    fn tampered_mac_rejected() {
        let mut rng = SplitMix64::new(6203);
        let mut server = SymmetricServer::new();
        let device = server.register_device(9, rng.as_fn());
        let mut l = ledger();
        let (_, mut t) = run_session(&device, &server, &mut l, rng.as_fn());
        t.mac[0] ^= 1;
        assert!(!server.verify(&t));
    }

    #[test]
    fn device_identity_is_observable() {
        // The linkability cost of symmetric-only auth: identical id in
        // every transcript.
        let mut rng = SplitMix64::new(6204);
        let mut server = SymmetricServer::new();
        let device = server.register_device(77, rng.as_fn());
        let mut l = ledger();
        let (_, t1) = run_session(&device, &server, &mut l, rng.as_fn());
        let (_, t2) = run_session(&device, &server, &mut l, rng.as_fn());
        assert_eq!(t1.device_id, t2.device_id);
        assert_ne!(t1.device_nonce, t2.device_nonce);
    }

    #[test]
    fn symmetric_computation_is_orders_cheaper_than_pkc() {
        let mut rng = SplitMix64::new(6205);
        let mut server = SymmetricServer::new();
        let device = server.register_device(5, rng.as_fn());
        let mut l = ledger();
        let _ = run_session(&device, &server, &mut l, rng.as_fn());
        assert!(
            l.compute() < 5.1e-6 / 50.0,
            "AES session compute {} not ≪ one ECPM",
            l.compute()
        );
    }
}
