//! Error type of the message-passing substrate.

use core::fmt;

/// Errors produced by the message-passing substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The destination rank does not exist in the communicator.
    InvalidRank {
        /// The requested rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// The peer ranks disconnected (a rank panicked or exited early)
    /// while this rank was blocked in `recv` or a collective.
    Disconnected,
    /// A rank panicked; the panic message is preserved when it was a
    /// string.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
        /// Best-effort panic message.
        message: String,
    },
    /// A decoded message payload was malformed.
    MalformedPayload {
        /// Human-readable description of what failed to decode.
        what: &'static str,
    },
    /// `World::run` was asked for zero ranks.
    EmptyWorld,
}

impl MpiError {
    /// The [`MpiError::RankPanicked`] for `rank`, whose thread panicked
    /// with `payload`; the panic message is kept when it is a string.
    #[must_use]
    pub fn rank_panicked(rank: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        Self::RankPanicked { rank, message }
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRank { rank, size } => {
                write!(f, "rank {rank} is outside the communicator of size {size}")
            }
            Self::Disconnected => write!(f, "peer ranks disconnected"),
            Self::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            Self::MalformedPayload { what } => write!(f, "malformed payload: {what}"),
            Self::EmptyWorld => write!(f, "world size must be at least 1"),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MpiError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("rank 9"));
        assert!(MpiError::Disconnected.to_string().contains("disconnected"));
        assert!(MpiError::EmptyWorld.to_string().contains("at least 1"));
        assert!(MpiError::MalformedPayload {
            what: "truncated f64"
        }
        .to_string()
        .contains("truncated"));
    }
}
