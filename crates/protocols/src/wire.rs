//! Wire format for the over-the-air protocol messages.
//!
//! The energy ledgers count every byte on the air (§4: "the
//! communication should be minimized since wireless communication is
//! power-hungry"), so the framing is deliberately tight: a 1-byte tag, a
//! 1-byte length, and the raw field encodings — no self-describing
//! container formats on a µW radio.

use bytes::{BufMut, Bytes, BytesMut};
use medsec_ec::{CurveSpec, Point, Scalar};

use crate::peeters_hermans::PhTranscript;
use crate::suite::{CurveId, ProtocolId};

/// Message type tags.
///
/// `PhCommit`/`PhChallenge`/`PhResponse` are the generic
/// sigma-protocol frames — Schnorr identification reuses them (the
/// Negotiate frame already named the protocol, so the tag bytes don't
/// have to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Tag → reader: commitment point R.
    PhCommit = 0x01,
    /// Reader → tag: challenge scalar e.
    PhChallenge = 0x02,
    /// Tag → reader: response scalar s.
    PhResponse = 0x03,
    /// Server → device: authenticated ephemeral (hello).
    ServerHello = 0x10,
    /// Device → server: encrypted telemetry frame.
    Telemetry = 0x11,
    /// Server → device: symmetric challenge nonce.
    SymChallenge = 0x12,
    /// Device → server: symmetric challenge–response transcript.
    SymResponse = 0x13,
    /// Device → gateway: versioned profile negotiation hello
    /// (profile id ‖ curve id ‖ protocol id).
    Negotiate = 0x20,
    /// Server → device: typed rejection (admission denied, rate
    /// limited, queue full, protocol violation). One reason byte — the
    /// device learns *why* it was turned away without the gateway
    /// spending another frame's worth of radio energy on prose.
    Reject = 0x21,
}

impl MsgType {
    /// Parse a tag byte back into its message type.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x01 => MsgType::PhCommit,
            0x02 => MsgType::PhChallenge,
            0x03 => MsgType::PhResponse,
            0x10 => MsgType::ServerHello,
            0x11 => MsgType::Telemetry,
            0x12 => MsgType::SymChallenge,
            0x13 => MsgType::SymResponse,
            0x20 => MsgType::Negotiate,
            0x21 => MsgType::Reject,
            _ => return None,
        })
    }
}

/// Errors from decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the header promises.
    Truncated,
    /// Unknown message tag byte.
    UnknownType(u8),
    /// Payload is not a valid encoding for the expected type.
    Malformed,
    /// A versioned frame from a protocol revision this gateway does
    /// not speak.
    UnsupportedVersion(u8),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame shorter than its header claims"),
            DecodeError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            DecodeError::Malformed => write!(f, "payload failed validation"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Frame a payload: `[type, len, payload…]`.
///
/// # Panics
///
/// Panics if the payload exceeds 255 bytes (nothing in these protocols
/// does; a µW radio wouldn't either).
pub fn frame(ty: MsgType, payload: &[u8]) -> Bytes {
    // A checked conversion, not `as`: a silently truncated length byte
    // would frame the first `len % 256` bytes as valid and smuggle the
    // rest, so oversize payloads must die here.
    let len: u8 = payload
        .len()
        .try_into()
        .expect("payload too large for 1-byte length");
    let mut b = BytesMut::with_capacity(2 + payload.len());
    b.put_u8(ty as u8);
    b.put_u8(len);
    b.put_slice(payload);
    b.freeze()
}

/// Split a frame into its type and payload.
///
/// Classification is exact: fewer bytes than the header promises
/// (including a frame cut mid-payload, or mid-header) is
/// [`DecodeError::Truncated`]; *more* bytes than the header promises is
/// [`DecodeError::Malformed`] — trailing data is smuggled suffix bytes,
/// not a shorter capture of a valid frame, and a gateway must not
/// conflate the two. Neither case is ever classified by payload
/// content (e.g. as an unknown version), because an incomplete payload
/// has no trustworthy content to classify.
pub fn deframe(bytes: &[u8]) -> Result<(MsgType, &[u8]), DecodeError> {
    if bytes.len() < 2 {
        return Err(DecodeError::Truncated);
    }
    let ty = MsgType::from_u8(bytes[0]).ok_or(DecodeError::UnknownType(bytes[0]))?;
    let len = bytes[1] as usize;
    if bytes.len() < 2 + len {
        return Err(DecodeError::Truncated);
    }
    if bytes.len() > 2 + len {
        return Err(DecodeError::Malformed);
    }
    Ok((ty, &bytes[2..]))
}

/// Largest payload any field/curve in this workspace encodes (F(2^283)
/// point: 36 x-bytes + 1 tag byte). Encoders stage payloads in a stack
/// buffer of this size instead of allocating a `Vec` per frame.
const MAX_PAYLOAD: usize = 64;

/// Encode a point message (compressed) — allocation-free staging via
/// [`Point::compress_into`].
pub fn encode_point<C: CurveSpec>(ty: MsgType, p: &Point<C>) -> Bytes {
    let n = Point::<C>::compressed_len();
    debug_assert!(n <= MAX_PAYLOAD);
    let mut buf = [0u8; MAX_PAYLOAD];
    p.compress_into(&mut buf[..n]);
    frame(ty, &buf[..n])
}

/// Decode a point message, validating curve membership.
pub fn decode_point<C: CurveSpec>(ty: MsgType, bytes: &[u8]) -> Result<Point<C>, DecodeError> {
    Point::<C>::decompress(point_payload(ty, bytes)?).ok_or(DecodeError::Malformed)
}

/// The compressed-point payload of a `ty` frame, not yet decoded: the
/// deframing half of [`decode_point`], for callers that decompress a
/// whole wave of points with one `Point::decompress_batch`.
pub fn point_payload(ty: MsgType, bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let (got, payload) = deframe(bytes)?;
    if got != ty {
        return Err(DecodeError::Malformed);
    }
    Ok(payload)
}

/// Encode a scalar message — allocation-free staging via
/// [`Scalar::to_bytes_into`].
pub fn encode_scalar<C: CurveSpec>(ty: MsgType, s: &Scalar<C>) -> Bytes {
    let n = Scalar::<C>::byte_len();
    debug_assert!(n <= MAX_PAYLOAD);
    let mut buf = [0u8; MAX_PAYLOAD];
    s.to_bytes_into(&mut buf[..n]);
    frame(ty, &buf[..n])
}

/// Frame a `ServerHello` payload (compressed ephemeral ‖ 16-byte MAC)
/// without intermediate allocations — the gateway emits one of these
/// per device per batch.
pub fn encode_server_hello<C: CurveSpec>(ephemeral: &Point<C>, mac: &[u8; 16]) -> Bytes {
    let n = Point::<C>::compressed_len();
    debug_assert!(n + 16 <= MAX_PAYLOAD);
    let mut buf = [0u8; MAX_PAYLOAD];
    ephemeral.compress_into(&mut buf[..n]);
    buf[n..n + 16].copy_from_slice(mac);
    frame(MsgType::ServerHello, &buf[..n + 16])
}

/// [`encode_server_hello`] from an already-compressed ephemeral — the
/// batched hello path produces the encoding once (with its parity
/// inversion shared across the batch) and must not recompress per
/// frame.
pub fn encode_server_hello_payload<C: CurveSpec>(eph_bytes: &[u8], mac: &[u8; 16]) -> Bytes {
    let n = Point::<C>::compressed_len();
    assert_eq!(eph_bytes.len(), n, "ephemeral encoding width");
    debug_assert!(n + 16 <= MAX_PAYLOAD);
    let mut buf = [0u8; MAX_PAYLOAD];
    buf[..n].copy_from_slice(eph_bytes);
    buf[n..n + 16].copy_from_slice(mac);
    frame(MsgType::ServerHello, &buf[..n + 16])
}

/// Version byte the current negotiation codec emits and accepts.
pub const NEGOTIATE_VERSION: u8 = 1;

/// A decoded profile-negotiation hello.
///
/// The triple is deliberately redundant — the profile id encodes the
/// curve and protocol, which the frame also carries explicitly — so a
/// receiver can reject inconsistent frames instead of trusting any one
/// field (see `SecurityProfile::from_negotiate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegotiateFrame {
    /// Negotiation codec version (only [`NEGOTIATE_VERSION`] decodes).
    pub version: u8,
    /// Profile id byte (resolved by the suite layer's registry).
    pub profile: u8,
    /// Curve the device claims to be configured for.
    pub curve: CurveId,
    /// Protocol the device claims to speak.
    pub protocol: ProtocolId,
}

/// Encode a profile-negotiation hello:
/// `[version, profile, curve, protocol]`.
pub fn encode_negotiate(profile: u8, curve: CurveId, protocol: ProtocolId) -> Bytes {
    frame(
        MsgType::Negotiate,
        &[NEGOTIATE_VERSION, profile, curve as u8, protocol as u8],
    )
}

/// Decode a profile-negotiation hello with reject-on-unknown
/// semantics: wrong payload size or unknown curve/protocol bytes are
/// [`DecodeError::Malformed`]; an unknown version is
/// [`DecodeError::UnsupportedVersion`] (so a future gateway can
/// distinguish "garbage" from "newer than me").
///
/// Version classification only ever sees *complete* frames: a frame
/// cut mid-payload (or mid-header) fails [`deframe`]'s length check
/// first and classifies as [`DecodeError::Truncated`], never as an
/// unknown version — a cut capture whose first payload byte happens to
/// differ from [`NEGOTIATE_VERSION`] must not masquerade as a newer
/// protocol revision.
pub fn decode_negotiate(bytes: &[u8]) -> Result<NegotiateFrame, DecodeError> {
    let (ty, payload) = deframe(bytes)?;
    if ty != MsgType::Negotiate || payload.is_empty() {
        return Err(DecodeError::Malformed);
    }
    // Version is classified before the v1 payload shape is enforced —
    // a future revision may well change the payload size, and it must
    // still read as "newer than me", not as garbage.
    if payload[0] != NEGOTIATE_VERSION {
        return Err(DecodeError::UnsupportedVersion(payload[0]));
    }
    if payload.len() != 4 {
        return Err(DecodeError::Malformed);
    }
    Ok(NegotiateFrame {
        version: payload[0],
        profile: payload[1],
        curve: CurveId::from_u8(payload[2]).ok_or(DecodeError::Malformed)?,
        protocol: ProtocolId::from_u8(payload[3]).ok_or(DecodeError::Malformed)?,
    })
}

/// Why a gateway turned a frame away before (or instead of) serving it.
///
/// Carried as the single payload byte of a [`MsgType::Reject`] frame.
/// The ingestion layer emits these *before* any field arithmetic runs,
/// so an attacker flooding the gateway buys rejections at radio cost,
/// not at crypto cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// The device class exhausted its token-bucket rate allowance.
    RateLimited = 0x01,
    /// `admit_negotiate` refused the profile (unknown, mismatched
    /// curve, or not provisioned on this gateway).
    AdmissionDenied = 0x02,
    /// The target lane's batch queue passed its high-water mark —
    /// load was shed to protect the latency SLO.
    QueueFull = 0x03,
    /// The connection violated the protocol state machine (session
    /// traffic before a Negotiate, or a server-role frame from a
    /// device).
    Protocol = 0x04,
}

impl RejectReason {
    /// Parse a reason byte back into its variant.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x01 => RejectReason::RateLimited,
            0x02 => RejectReason::AdmissionDenied,
            0x03 => RejectReason::QueueFull,
            0x04 => RejectReason::Protocol,
            _ => return None,
        })
    }

    /// Stable snake_case name (report/JSON labels).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimited => "rate_limited",
            RejectReason::AdmissionDenied => "admission_denied",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Protocol => "protocol",
        }
    }
}

/// Encode a typed rejection: `[0x21, 1, reason]`.
pub fn encode_reject(reason: RejectReason) -> Bytes {
    frame(MsgType::Reject, &[reason as u8])
}

/// Decode a typed rejection. Wrong type, wrong payload size, or an
/// unknown reason byte are all [`DecodeError::Malformed`].
pub fn decode_reject(bytes: &[u8]) -> Result<RejectReason, DecodeError> {
    let (ty, payload) = deframe(bytes)?;
    if ty != MsgType::Reject || payload.len() != 1 {
        return Err(DecodeError::Malformed);
    }
    RejectReason::from_u8(payload[0]).ok_or(DecodeError::Malformed)
}

/// Decode a scalar message.
pub fn decode_scalar<C: CurveSpec>(ty: MsgType, bytes: &[u8]) -> Result<Scalar<C>, DecodeError> {
    let (got, payload) = deframe(bytes)?;
    if got != ty {
        return Err(DecodeError::Malformed);
    }
    if payload.len() != Scalar::<C>::byte_len() {
        return Err(DecodeError::Malformed);
    }
    Ok(Scalar::from_bytes_mod_order(payload))
}

/// Serialize a full Peeters–Hermans transcript (for logging/audit).
pub fn encode_ph_transcript<C: CurveSpec>(t: &PhTranscript<C>) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(&encode_point(MsgType::PhCommit, &t.commitment));
    b.put_slice(&encode_scalar(MsgType::PhChallenge, &t.challenge));
    b.put_slice(&encode_scalar(MsgType::PhResponse, &t.response));
    b.freeze()
}

/// Parse a serialized transcript back.
pub fn decode_ph_transcript<C: CurveSpec>(
    mut bytes: &[u8],
) -> Result<PhTranscript<C>, DecodeError> {
    let mut take = |ty: MsgType| -> Result<&[u8], DecodeError> {
        if bytes.len() < 2 {
            return Err(DecodeError::Truncated);
        }
        let len = 2 + bytes[1] as usize;
        if bytes.len() < len {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = bytes.split_at(len);
        bytes = rest;
        let (got, _) = deframe(head)?;
        if got != ty {
            return Err(DecodeError::Malformed);
        }
        Ok(head)
    };
    let commitment = decode_point::<C>(MsgType::PhCommit, take(MsgType::PhCommit)?)?;
    let challenge = decode_scalar::<C>(MsgType::PhChallenge, take(MsgType::PhChallenge)?)?;
    let response = decode_scalar::<C>(MsgType::PhResponse, take(MsgType::PhResponse)?)?;
    if !bytes.is_empty() {
        return Err(DecodeError::Malformed);
    }
    Ok(PhTranscript {
        commitment,
        challenge,
        response,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_ec::{ladder, CoordinateBlinding, Toy17, K163};
    use medsec_rng::SplitMix64;

    #[test]
    fn frame_round_trip() {
        let f = frame(MsgType::PhChallenge, b"abc");
        let (ty, payload) = deframe(&f).unwrap();
        assert_eq!(ty, MsgType::PhChallenge);
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn frame_length_boundary() {
        // 255 bytes is the largest representable payload...
        let f = frame(MsgType::PhChallenge, &[0xA5; 255]);
        let (_, payload) = deframe(&f).unwrap();
        assert_eq!(payload.len(), 255);
        // ...and 256 must die loudly, never truncate to `256 % 256 = 0`
        // (a truncated length byte would reframe the payload bytes as
        // smuggled suffix data on the wire).
        let oversize = std::panic::catch_unwind(|| frame(MsgType::PhChallenge, &[0xA5; 256]));
        assert!(oversize.is_err());
    }

    #[test]
    fn deframe_rejects_garbage() {
        assert_eq!(deframe(&[]), Err(DecodeError::Truncated));
        assert_eq!(deframe(&[0x01]), Err(DecodeError::Truncated));
        assert_eq!(deframe(&[0xEE, 0]), Err(DecodeError::UnknownType(0xEE)));
        assert_eq!(deframe(&[0x01, 5, 1, 2]), Err(DecodeError::Truncated));
        // Trailing bytes beyond the declared length are an error too,
        // but classified as Malformed (smuggled suffix data), not as a
        // short capture.
        assert_eq!(deframe(&[0x01, 1, 7, 8]), Err(DecodeError::Malformed));
    }

    #[test]
    fn point_round_trip_validates_curve() {
        let mut rng = SplitMix64::new(1);
        let k = Scalar::<K163>::random_nonzero(rng.as_fn());
        let p = ladder::ladder_mul(
            &k,
            &K163::generator(),
            CoordinateBlinding::RandomZ,
            rng.as_fn(),
        );
        let enc = encode_point(MsgType::PhCommit, &p);
        assert_eq!(decode_point::<K163>(MsgType::PhCommit, &enc).unwrap(), p);
        // K-163 commitment frame: 2 header + 22 point bytes.
        assert_eq!(enc.len(), 24);
        // Corrupting the x-coordinate makes decompression fail.
        let mut bad = enc.to_vec();
        bad[10] ^= 0xff;
        assert!(decode_point::<K163>(MsgType::PhCommit, &bad).is_err());
    }

    #[test]
    fn scalar_round_trip() {
        let mut rng = SplitMix64::new(2);
        let s = Scalar::<Toy17>::random_nonzero(rng.as_fn());
        let enc = encode_scalar(MsgType::PhResponse, &s);
        assert_eq!(
            decode_scalar::<Toy17>(MsgType::PhResponse, &enc).unwrap(),
            s
        );
        // Wrong expected type is rejected.
        assert!(decode_scalar::<Toy17>(MsgType::PhChallenge, &enc).is_err());
    }

    #[test]
    fn negotiate_round_trip_and_rejections() {
        let f = encode_negotiate(0x32, CurveId::K163, ProtocolId::Mutual);
        assert_eq!(f.len(), 6);
        let n = decode_negotiate(&f).unwrap();
        assert_eq!(n.version, NEGOTIATE_VERSION);
        assert_eq!(n.profile, 0x32);
        assert_eq!(n.curve, CurveId::K163);
        assert_eq!(n.protocol, ProtocolId::Mutual);
        // Unknown version is distinguishable from garbage.
        let mut v2 = f.to_vec();
        v2[2] = 2;
        assert_eq!(
            decode_negotiate(&v2),
            Err(DecodeError::UnsupportedVersion(2))
        );
        // …even when the newer version changed the payload size.
        let v2_wide = frame(MsgType::Negotiate, &[2, 0x32, 3, 2, 0xAA]);
        assert_eq!(
            decode_negotiate(&v2_wide),
            Err(DecodeError::UnsupportedVersion(2))
        );
        // A v1 frame with the wrong payload size is still garbage.
        let v1_wide = frame(MsgType::Negotiate, &[1, 0x32, 3, 2, 0xAA]);
        assert_eq!(decode_negotiate(&v1_wide), Err(DecodeError::Malformed));
        // Unknown curve / protocol bytes fail closed.
        let mut bad_curve = f.to_vec();
        bad_curve[4] = 0x7F;
        assert_eq!(decode_negotiate(&bad_curve), Err(DecodeError::Malformed));
        let mut bad_proto = f.to_vec();
        bad_proto[5] = 0x00;
        assert_eq!(decode_negotiate(&bad_proto), Err(DecodeError::Malformed));
        // Wrong frame type fails closed.
        let other = frame(MsgType::Telemetry, &[1, 2, 3, 4]);
        assert_eq!(decode_negotiate(&other), Err(DecodeError::Malformed));
    }

    #[test]
    fn reject_round_trip_and_rejections() {
        for reason in [
            RejectReason::RateLimited,
            RejectReason::AdmissionDenied,
            RejectReason::QueueFull,
            RejectReason::Protocol,
        ] {
            let f = encode_reject(reason);
            // 3 bytes on the air: tag, len, reason.
            assert_eq!(f.len(), 3);
            assert_eq!(decode_reject(&f).unwrap(), reason);
        }
        // Unknown reason byte fails closed.
        let bad = frame(MsgType::Reject, &[0x7F]);
        assert_eq!(decode_reject(&bad), Err(DecodeError::Malformed));
        // Wrong payload width fails closed.
        let wide = frame(MsgType::Reject, &[0x01, 0x01]);
        assert_eq!(decode_reject(&wide), Err(DecodeError::Malformed));
        // Wrong frame type fails closed.
        let other = frame(MsgType::Telemetry, &[0x01]);
        assert_eq!(decode_reject(&other), Err(DecodeError::Malformed));
    }

    #[test]
    fn transcript_round_trip() {
        let mut rng = SplitMix64::new(3);
        let t = PhTranscript::<Toy17> {
            commitment: ladder::ladder_mul(
                &Scalar::random_nonzero(rng.as_fn()),
                &Toy17::generator(),
                CoordinateBlinding::RandomZ,
                rng.as_fn(),
            ),
            challenge: Scalar::random_nonzero(rng.as_fn()),
            response: Scalar::random_nonzero(rng.as_fn()),
        };
        let enc = encode_ph_transcript(&t);
        assert_eq!(decode_ph_transcript::<Toy17>(&enc).unwrap(), t);
        // Truncation anywhere is caught.
        for cut in 1..enc.len() {
            assert!(decode_ph_transcript::<Toy17>(&enc[..cut]).is_err());
        }
    }
}
