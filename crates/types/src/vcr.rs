//! VCR commands.
//!
//! Once a stream is scheduled, the client talks directly to the MSU over a
//! control connection the MSU establishes (paper §2.1): pause, play, seek,
//! and quit, plus fast forward / fast backward for content whose filtered
//! trick-mode files have been loaded by an administrator (§2.3.1).

use crate::time::MediaTime;
use core::fmt;

/// A VCR command sent from a client to the MSU controlling its stream.
///
/// For a stream group (composite content), one command controls every
/// stream in the group simultaneously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcrCommand {
    /// Resume (or begin) normal-rate playback.
    Play,
    /// Pause playback; the MSU keeps the stream's resources.
    Pause,
    /// Jump to the given offset from the beginning of the content.
    Seek(MediaTime),
    /// Switch to the pre-filtered fast-forward version of the content.
    FastForward,
    /// Switch to the pre-filtered fast-backward version of the content.
    FastBackward,
    /// Terminate the stream and release its resources.
    Quit,
}

impl VcrCommand {
    /// True if the command ends the stream.
    pub const fn is_terminal(self) -> bool {
        matches!(self, VcrCommand::Quit)
    }

    /// True if the command switches which file the MSU reads (trick play).
    pub const fn is_trick(self) -> bool {
        matches!(self, VcrCommand::FastForward | VcrCommand::FastBackward)
    }
}

impl fmt::Display for VcrCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcrCommand::Play => f.write_str("play"),
            VcrCommand::Pause => f.write_str("pause"),
            VcrCommand::Seek(t) => write!(f, "seek {t}"),
            VcrCommand::FastForward => f.write_str("fast-forward"),
            VcrCommand::FastBackward => f.write_str("fast-backward"),
            VcrCommand::Quit => f.write_str("quit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(VcrCommand::Quit.is_terminal());
        assert!(!VcrCommand::Pause.is_terminal());
        assert!(VcrCommand::FastForward.is_trick());
        assert!(VcrCommand::FastBackward.is_trick());
        assert!(!VcrCommand::Seek(MediaTime::from_secs(3)).is_trick());
    }

    #[test]
    fn display() {
        assert_eq!(
            VcrCommand::Seek(MediaTime::from_millis(2500)).to_string(),
            "seek 2.500s"
        );
        assert_eq!(VcrCommand::Quit.to_string(), "quit");
    }
}
