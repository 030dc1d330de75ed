//! Message Passing Core error type.

use std::fmt;

/// Errors surfaced by the message passing library.
#[derive(Debug)]
pub enum MpcError {
    /// The destination or source rank does not exist in the communicator.
    InvalidRank(i32),
    /// A receive buffer was smaller than the matched message.
    Truncation {
        /// Bytes the message carries.
        message: usize,
        /// Bytes the posted buffer can hold.
        buffer: usize,
    },
    /// The transport link failed.
    Transport(motor_pal::PalError),
    /// The link to a peer (global rank) closed while operations toward it
    /// were in flight; those operations will never complete.
    PeerClosed(usize),
    /// Malformed packet on the wire (corruption or protocol bug).
    Protocol(String),
}

/// Result alias for MPC operations.
pub type MpcResult<T> = Result<T, MpcError>;

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            MpcError::Truncation { message, buffer } => {
                write!(
                    f,
                    "message of {message} bytes truncated to {buffer}-byte buffer"
                )
            }
            MpcError::Transport(e) => write!(f, "transport failure: {e}"),
            MpcError::PeerClosed(p) => {
                write!(f, "link to peer rank {p} closed with operations in flight")
            }
            MpcError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for MpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpcError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<motor_pal::PalError> for MpcError {
    fn from(e: motor_pal::PalError) -> Self {
        MpcError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MpcError::InvalidRank(9).to_string().contains("9"));
        let t = MpcError::Truncation {
            message: 100,
            buffer: 10,
        };
        assert!(t.to_string().contains("100") && t.to_string().contains("10"));
        assert!(MpcError::PeerClosed(3).to_string().contains("rank 3"));
    }

    #[test]
    fn pal_error_converts() {
        let e: MpcError = motor_pal::PalError::Disconnected.into();
        assert!(matches!(e, MpcError::Transport(_)));
    }
}
