//! The typed failure surface of the durable store.

use slif_core::codec::DecodeError;
use std::fmt;

/// Why a store operation could not complete.
///
/// Corruption of *already-written* data never produces one of these at
/// read time — the journal truncates and quarantines, the cache counts a
/// miss. A `StoreError` means the store could not do its job *now*: a
/// file could not be created, written, fsynced, renamed, or decoded as a
/// container at all.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The operating-system error text.
        message: String,
    },
    /// A record being appended exceeds the journal's size bound.
    RecordTooLarge {
        /// The oversized payload's byte count.
        bytes: usize,
    },
    /// A decoded blob violated its own format in a way recovery cannot
    /// route around (used by strict decode paths, e.g. tests).
    Corrupt {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "store i/o on {path}: {message}"),
            Self::RecordTooLarge { bytes } => {
                write!(f, "journal record too large ({bytes} bytes)")
            }
            Self::Corrupt { context } => write!(f, "store data corrupt: invalid {context}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        Self::Corrupt {
            context: e.context(),
        }
    }
}

impl StoreError {
    /// Builds an [`Io`](Self::Io) from a path and an `io::Error`.
    pub(crate) fn io(path: &std::path::Path, e: &std::io::Error) -> Self {
        Self::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}
