//! Wire packet format of the CH3-style device.
//!
//! Every frame on a link is `[frame_len: u32][kind: u8][body ...]` where
//! `frame_len` counts the bytes after the length field itself (kind +
//! body). The packet kinds implement MPICH2's eager and rendezvous
//! protocols plus the synchronous-send acknowledgement:
//!
//! | kind | name      | body |
//! |------|-----------|------|
//! | 0    | Eager     | [`Envelope`] + message data inline |
//! | 1    | RndvRts   | [`Envelope`] (request-to-send; no data) |
//! | 2    | RndvCts   | `sreq: u64, rreq: u64` (clear-to-send) |
//! | 3    | RndvData  | `rreq: u64` + message data |
//! | 4    | SyncAck   | `sreq: u64` (synchronous send matched) |

use crate::error::{MpcError, MpcResult};

/// Frame header length on the wire: 4-byte length + 1-byte kind.
pub const FRAME_HEADER: usize = 5;

/// Packet kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Message data carried inline (small messages).
    Eager = 0,
    /// Rendezvous request-to-send.
    RndvRts = 1,
    /// Rendezvous clear-to-send.
    RndvCts = 2,
    /// Rendezvous data transfer.
    RndvData = 3,
    /// Synchronous-send matched acknowledgement.
    SyncAck = 4,
}

impl PacketKind {
    /// Decode a kind byte.
    pub fn from_u8(b: u8) -> MpcResult<PacketKind> {
        Ok(match b {
            0 => PacketKind::Eager,
            1 => PacketKind::RndvRts,
            2 => PacketKind::RndvCts,
            3 => PacketKind::RndvData,
            4 => PacketKind::SyncAck,
            other => return Err(MpcError::Protocol(format!("unknown packet kind {other}"))),
        })
    }
}

/// Envelope flags.
pub mod env_flags {
    /// Synchronous send: receiver must acknowledge the match.
    pub const SYNC: u8 = 1 << 0;
}

/// The match envelope carried by Eager and RndvRts packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's rank *within the communicator* (what the receiver matches
    /// and reports in `Status`).
    pub src: u32,
    /// Sender's *global* rank (routing key for CTS / SyncAck replies).
    pub gsrc: u32,
    /// Message tag.
    pub tag: i32,
    /// Communicator context id.
    pub context: u32,
    /// Full message data length in bytes.
    pub len: u64,
    /// Sender-side request id (for CTS / SyncAck correlation).
    pub sreq: u64,
    /// Flag bits; see [`env_flags`].
    pub flags: u8,
}

/// Encoded envelope size.
pub const ENVELOPE_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8 + 1;

impl Envelope {
    /// Append the wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.gsrc.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.context.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.sreq.to_le_bytes());
        out.push(self.flags);
    }

    /// Decode from the start of `b`.
    pub fn decode(b: &[u8]) -> MpcResult<Envelope> {
        if b.len() < ENVELOPE_LEN {
            return Err(MpcError::Protocol(format!(
                "short envelope: {} bytes",
                b.len()
            )));
        }
        Ok(Envelope {
            src: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            gsrc: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            tag: i32::from_le_bytes(b[8..12].try_into().unwrap()),
            context: u32::from_le_bytes(b[12..16].try_into().unwrap()),
            len: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            sreq: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            flags: b[32],
        })
    }

    /// Whether the sender requested a synchronous-send acknowledgement.
    pub fn is_sync(&self) -> bool {
        self.flags & env_flags::SYNC != 0
    }
}

/// Build an Eager frame: header + envelope + data.
pub fn encode_eager(env: &Envelope, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_eager_into(&mut out, env, data);
    out
}

/// [`encode_eager`] into `out` (emptied first), whose capacity is reused.
pub fn encode_eager_into(out: &mut Vec<u8>, env: &Envelope, data: &[u8]) {
    debug_assert_eq!(env.len as usize, data.len());
    let body_len = 1 + ENVELOPE_LEN + data.len();
    out.clear();
    out.reserve_exact(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(PacketKind::Eager as u8);
    env.encode(out);
    out.extend_from_slice(data);
}

/// Build a RndvRts frame.
pub fn encode_rts(env: &Envelope) -> Vec<u8> {
    let body_len = 1 + ENVELOPE_LEN;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(PacketKind::RndvRts as u8);
    env.encode(&mut out);
    out
}

/// Build a RndvCts frame.
pub fn encode_cts(sreq: u64, rreq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 16);
    out.extend_from_slice(&(17u32).to_le_bytes());
    out.push(PacketKind::RndvCts as u8);
    out.extend_from_slice(&sreq.to_le_bytes());
    out.extend_from_slice(&rreq.to_le_bytes());
    out
}

/// Build the *header* of a RndvData frame (the data itself is streamed
/// separately, possibly zero-copy from a pinned managed buffer).
pub fn encode_rndv_data_header(rreq: u64, data_len: usize) -> Vec<u8> {
    let body_len = 1 + 8 + data_len;
    let mut out = Vec::with_capacity(4 + 1 + 8);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(PacketKind::RndvData as u8);
    out.extend_from_slice(&rreq.to_le_bytes());
    out
}

/// Build a SyncAck frame.
pub fn encode_sync_ack(sreq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 8);
    out.extend_from_slice(&(9u32).to_le_bytes());
    out.push(PacketKind::SyncAck as u8);
    out.extend_from_slice(&sreq.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        Envelope {
            src: 3,
            gsrc: 3,
            tag: -7,
            context: 11,
            len: 5,
            sreq: 0xDEAD_BEEF,
            flags: env_flags::SYNC,
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let e = env();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), ENVELOPE_LEN);
        let d = Envelope::decode(&buf).unwrap();
        assert_eq!(d, e);
        assert!(d.is_sync());
    }

    #[test]
    fn short_envelope_is_protocol_error() {
        assert!(matches!(
            Envelope::decode(&[0u8; 5]),
            Err(MpcError::Protocol(_))
        ));
    }

    #[test]
    fn eager_frame_layout() {
        let e = env();
        let frame = encode_eager(&e, b"hello");
        let body_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, frame.len() - 4);
        assert_eq!(PacketKind::from_u8(frame[4]).unwrap(), PacketKind::Eager);
        let de = Envelope::decode(&frame[5..]).unwrap();
        assert_eq!(de, e);
        assert_eq!(&frame[5 + ENVELOPE_LEN..], b"hello");
    }

    #[test]
    fn control_frames() {
        let cts = encode_cts(1, 2);
        assert_eq!(PacketKind::from_u8(cts[4]).unwrap(), PacketKind::RndvCts);
        assert_eq!(u64::from_le_bytes(cts[5..13].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(cts[13..21].try_into().unwrap()), 2);

        let ack = encode_sync_ack(77);
        assert_eq!(PacketKind::from_u8(ack[4]).unwrap(), PacketKind::SyncAck);
        assert_eq!(u64::from_le_bytes(ack[5..13].try_into().unwrap()), 77);
    }

    #[test]
    fn rndv_data_header_accounts_for_streamed_data() {
        let h = encode_rndv_data_header(42, 1000);
        let body_len = u32::from_le_bytes(h[0..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, 1 + 8 + 1000);
        assert_eq!(h.len(), 4 + 1 + 8, "header only; data streamed separately");
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(PacketKind::from_u8(99).is_err());
    }
}
