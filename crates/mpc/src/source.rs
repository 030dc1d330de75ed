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
    /// The `i32` encoding (`-1` wildcard, rank otherwise). The device
    /// matches on global ranks, which `Comm` translates a rank to.
    pub fn to_device(self) -> i32 {
        match self {
            Source::Rank(r) => r as i32,
            Source::Any => crate::device::ANY_SOURCE,
        }
    }

    /// The concrete rank, if any.
    pub fn rank(self) -> Option<usize> {
        match self {
            Source::Rank(r) => Some(r),
            Source::Any => None,
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
        assert_eq!(Source::Rank(4).to_device(), 4);
        assert_eq!(Source::Any.to_device(), crate::device::ANY_SOURCE);
        assert_eq!(Source::Rank(7).rank(), Some(7));
        assert_eq!(Source::Any.rank(), None);
    }
}
