//! End-to-end stream tracing.
//!
//! A [`TraceCtx`] is minted by the Coordinator when a play or record
//! request is admitted and then rides along on every wire message that
//! concerns the stream: the `ScheduleRead`/`ScheduleWrite` grant to the
//! MSU, the `StreamStart`/`RecordStart` handed back to the client, the
//! `GroupReady` the MSU sends on the control connection, and the final
//! `StreamDone`. Every component logs the same 64-bit id, so one
//! `RUST_LOG=trace` grep for `t0000000000000042` reconstructs a stream's
//! life across client, Coordinator, and MSU — and the flight recorder
//! stamps the same id into its binary events.
//!
//! A failover keeps the original trace id (the stream is the *same*
//! viewing from the user's point of view) but switches the span kind to
//! [`SpanKind::Failover`], so the re-admission is visibly part of the
//! original timeline.

use crate::impl_wire;
use core::fmt;

/// What kind of stream lifecycle a trace id belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanKind {
    /// No trace context (id 0): paths that never went through
    /// admission, or peers that predate tracing.
    #[default]
    None = 0,
    /// A playback admitted via `ClientRequest::Play`.
    Play = 1,
    /// A recording admitted via `ClientRequest::Record`.
    Record = 2,
    /// A playback re-admitted on a replica after its MSU or disk died.
    Failover = 3,
}

impl SpanKind {
    /// Short lower-case name used in log lines.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::None => "none",
            SpanKind::Play => "play",
            SpanKind::Record => "record",
            SpanKind::Failover => "failover",
        }
    }
}

/// A trace context: a cluster-unique 64-bit id plus the span kind.
///
/// Encodes as the raw `u64` followed by a tag byte. The default value
/// (`id == 0`, [`SpanKind::None`]) means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// Cluster-unique trace id; 0 means untraced.
    pub id: u64,
    /// Which lifecycle this trace follows.
    pub kind: SpanKind,
}

impl TraceCtx {
    /// A fresh context for an admitted stream.
    pub fn new(id: u64, kind: SpanKind) -> TraceCtx {
        TraceCtx { id, kind }
    }

    /// True if this context carries a real trace id.
    pub fn is_traced(&self) -> bool {
        self.id != 0
    }

    /// The same trace id continuing as a failover span.
    pub fn into_failover(self) -> TraceCtx {
        TraceCtx {
            id: self.id,
            kind: SpanKind::Failover,
        }
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:016x}/{}", self.id, self.kind.name())
    }
}

impl_wire! {
    enum SpanKind as "span kind" { 0 => None, 1 => Play, 2 => Record, 3 => Failover }

    struct TraceCtx { id, kind }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::check_golden;
    use crate::wire::{Wire, WireError};

    #[test]
    fn trace_ctx_round_trips() {
        let id = 0xDEADBEEF_00C0FFEE;
        check_golden(
            &[
                (TraceCtx::new(id, SpanKind::None), "eeffc000efbeadde00"),
                (TraceCtx::new(id, SpanKind::Play), "eeffc000efbeadde01"),
                (TraceCtx::new(id, SpanKind::Record), "eeffc000efbeadde02"),
                (TraceCtx::new(id, SpanKind::Failover), "eeffc000efbeadde03"),
                (TraceCtx::default(), "000000000000000000"),
            ],
            None,
        );
        assert!(!TraceCtx::default().is_traced());
    }

    #[test]
    fn bad_span_kind_tag_is_rejected() {
        let mut bytes = 1u64.to_bytes();
        bytes.push(9);
        assert_eq!(
            TraceCtx::from_bytes(&bytes),
            Err(WireError::BadTag {
                what: "span kind",
                tag: 9
            })
        );
    }

    #[test]
    fn display_is_greppable() {
        let ctx = TraceCtx::new(0x42, SpanKind::Play);
        assert_eq!(ctx.to_string(), "t0000000000000042/play");
        assert_eq!(
            ctx.into_failover().to_string(),
            "t0000000000000042/failover"
        );
    }
}
