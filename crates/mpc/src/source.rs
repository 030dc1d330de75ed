//! Typed source addressing for receive-side operations.
//!
//! Receive, probe and object-receive operations historically took a raw
//! `i32` rank with `-1` meaning "any source" (the `MPI_ANY_SOURCE`
//! sentinel), while typed variants took `usize` — two encodings for the
//! same concept. [`Source`] replaces both: a concrete rank or an explicit
//! wildcard. Plain `usize` ranks convert implicitly, so
//! `comm.recv_bytes(&mut buf, 3, tag)` still reads naturally while
//! wildcard receives say what they mean: `comm.recv_bytes(&mut buf,
//! Source::Any, tag)`.

use std::fmt;

/// Which rank a receive or probe should match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Match messages from this communicator rank only.
    Rank(usize),
    /// Match messages from any rank (`MPI_ANY_SOURCE`).
    Any,
}

impl Source {
    /// The source as one word where a rank goes — a trace span's peer, a
    /// cost model's argument: the rank, or `u32::MAX` for the wildcard.
    pub fn peer_word(self) -> usize {
        match self {
            Source::Rank(r) => r,
            Source::Any => u32::MAX as usize,
        }
    }
}

impl From<usize> for Source {
    fn from(rank: usize) -> Source {
        Source::Rank(rank)
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Rank(r) => write!(f, "rank {r}"),
            Source::Any => f.write_str("any source"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Source::from(4), Source::Rank(4));
        assert_eq!(Source::Rank(7).peer_word(), 7);
        assert_eq!(Source::Any.peer_word(), u32::MAX as usize);
    }
}
