//! Motor core error type.

use std::fmt;

/// Errors surfaced by the Motor message-passing bindings.
#[derive(Debug)]
pub enum CoreError {
    /// A null object was passed as a message buffer.
    NullBuffer,
    /// The object's type contains references; transporting it raw would
    /// compromise object-model integrity (paper §2.4). Use the extended
    /// object-oriented operations instead.
    ObjectModelIntegrity(String),
    /// Array range (offset, count) out of bounds.
    RangeOutOfBounds {
        /// Requested start element.
        offset: usize,
        /// Requested element count.
        count: usize,
        /// Actual array length.
        len: usize,
    },
    /// The message passing core reported an error.
    Mpc(motor_mpc::MpcError),
    /// A serialized representation could not be decoded.
    Serialization(String),
    /// The receiver does not know a type named in the type table.
    UnknownType(String),
}

/// Result alias for Motor operations.
pub type CoreResult<T> = Result<T, CoreError>;

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NullBuffer => write!(f, "null message buffer"),
            CoreError::ObjectModelIntegrity(ty) => write!(
                f,
                "type `{ty}` contains object references; raw transport refused \
                 (use the extended object-oriented operations)"
            ),
            CoreError::RangeOutOfBounds { offset, count, len } => {
                write!(f, "range {offset}+{count} exceeds array length {len}")
            }
            CoreError::Mpc(e) => write!(f, "message passing core: {e}"),
            CoreError::Serialization(s) => write!(f, "serialization: {s}"),
            CoreError::UnknownType(t) => write!(f, "receiver does not know type `{t}`"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Mpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<motor_mpc::MpcError> for CoreError {
    fn from(e: motor_mpc::MpcError) -> Self {
        CoreError::Mpc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::NullBuffer.to_string().contains("null"));
        assert!(CoreError::ObjectModelIntegrity("Node".into())
            .to_string()
            .contains("Node"));
        let e = CoreError::RangeOutOfBounds {
            offset: 3,
            count: 9,
            len: 10,
        };
        assert!(e.to_string().contains("3+9"));
        assert!(CoreError::UnknownType("X".into()).to_string().contains("X"));
    }

    #[test]
    fn mpc_error_converts() {
        let e: CoreError = motor_mpc::MpcError::InvalidRank(1).into();
        assert!(matches!(e, CoreError::Mpc(_)));
    }
}
