//! Control-plane messages.
//!
//! Three TCP conversations exist in a Calliope installation (paper §2):
//!
//! 1. **client ↔ Coordinator** — session setup, table-of-contents
//!    browsing, display-port registration, play/record/delete requests,
//!    and administration ([`ClientRequest`] / [`CoordReply`]).
//! 2. **MSU ↔ Coordinator** — the MSU dials the Coordinator's intra-server
//!    port, registers its disks, receives scheduling decisions, and posts
//!    stream-termination notifications ([`MsuToCoord`] / [`CoordToMsu`],
//!    carried in [`MsuEnvelope`] / [`CoordEnvelope`] with correlation
//!    ids).
//! 3. **MSU ↔ client** — as soon as a stream is scheduled the MSU opens a
//!    control connection *to* the client, over which the client sends VCR
//!    commands ([`MsuToClient`] / [`ClientToMsu`]).

use super::stats::StatsSnapshot;
use crate::content::{ContentEntry, ContentTypeSpec, ProtocolId};
use crate::ids::{DiskId, GroupId, MsuId, SessionId, StreamId};
use crate::impl_wire;
use crate::time::{BitRate, ByteRate};
use crate::trace::TraceCtx;
use crate::vcr::VcrCommand;
use std::net::SocketAddr;

/// Why a stream stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DoneReason {
    /// The content played (or the recording estimate was reached) to the
    /// end.
    Completed,
    /// The client sent a `quit` VCR command.
    ClientQuit,
    /// The Coordinator cancelled the stream.
    Cancelled,
    /// The MSU is shutting down.
    MsuShutdown,
    /// Something went wrong; the message describes it.
    Error(String),
    /// The MSU hit a disk I/O error serving the stream. Distinct from
    /// `Error` so the Coordinator can attempt replica failover and the
    /// client knows the content itself may still be playable elsewhere.
    IoError(String),
}

impl_wire! {
    enum DoneReason as "done reason" {
        0 => Completed,
        1 => ClientQuit,
        2 => Cancelled,
        3 => MsuShutdown,
        4 => Error(msg),
        5 => IoError(msg),
    }
}

/// How the MSU's network process paces a playback stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacingSpec {
    /// Constant bit-rate: the delivery schedule is *calculated* — packet
    /// `i` of size `packet_bytes` is due at `i * packet_bytes * 8 / rate`.
    Constant {
        /// Stream rate.
        rate: BitRate,
        /// Fixed packet payload size in bytes.
        packet_bytes: u32,
    },
    /// Variable bit-rate: delivery times are *stored* in the IB-tree
    /// alongside the data and replayed as recorded.
    Stored,
}

impl_wire! {
    enum PacingSpec as "pacing spec" {
        0 => Constant { rate, packet_bytes },
        1 => Stored,
    }
}

/// Names of the pre-filtered trick-play files for one content item
/// (paper §2.3.1). Loaded by an administrator; the MSU switches between
/// the normal-rate file and these on FF/FB commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrickFiles {
    /// File holding every 15th frame, forward order.
    pub fast_forward: String,
    /// File holding every 15th frame, reverse order.
    pub fast_backward: String,
}

impl_wire! {
    struct TrickFiles { fast_forward, fast_backward }
}

// ---------------------------------------------------------------------
// Conversation 1: client ↔ Coordinator
// ---------------------------------------------------------------------

/// Requests a client sends to the Coordinator over its session connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientRequest {
    /// Opens the session. Must be the first message.
    Hello {
        /// Client's self-reported name (used for the admin database).
        client_name: String,
        /// True if the client claims administrative rights.
        admin: bool,
    },
    /// Asks for the table of contents.
    ListContent,
    /// Asks for the content-type table.
    ListTypes,
    /// Registers an atomic display port: a UDP socket where this client
    /// receives (or sends, when recording) data, plus the TCP listener the
    /// MSU should dial for VCR control.
    RegisterPort {
        /// Port name, unique within the session.
        name: String,
        /// Must name an atomic content type.
        type_name: String,
        /// UDP address of the data socket.
        data_addr: SocketAddr,
        /// TCP address of the client's control listener.
        ctrl_addr: SocketAddr,
    },
    /// Registers a composite display port from previously-registered
    /// component ports (paper §2.1: a Seminar port is built from an RTP
    /// port and a VAT port).
    RegisterCompositePort {
        /// Port name, unique within the session.
        name: String,
        /// Must name a composite content type.
        type_name: String,
        /// Names of already-registered atomic ports, in the composite
        /// type's component order.
        components: Vec<String>,
    },
    /// Removes a display port from the session.
    UnregisterPort {
        /// The port to remove.
        name: String,
    },
    /// Plays existing content to a display port of the same type.
    Play {
        /// Content name from the table of contents.
        content: String,
        /// A registered display port of matching type.
        port: String,
    },
    /// Records new content from a display port. The client must estimate
    /// the recording length so the Coordinator can reserve disk space;
    /// over-estimates are returned when the recording completes.
    Record {
        /// Name for the new content item.
        content: String,
        /// A registered display port of matching type.
        port: String,
        /// Content type of the new item.
        type_name: String,
        /// Client's estimate of the recording length, in seconds.
        est_secs: u32,
    },
    /// Deletes an item of content (requires permission).
    Delete {
        /// The content to delete.
        content: String,
    },
    /// Adds a content type to the type table (admin only — clients may not
    /// define new types without an administrator, paper §2.1).
    AddType {
        /// The new type definition.
        spec: ContentTypeSpec,
    },
    /// Associates offline-filtered fast-forward / fast-backward files with
    /// a content item (admin only, paper §2.3.1).
    AttachTrick {
        /// The normal-rate content.
        content: String,
        /// Names of the filtered versions, already recorded on the server.
        files: TrickFiles,
    },
    /// Replicates a content item onto another disk (admin only): "we
    /// can make copies of popular content on several disks", buying
    /// per-title bandwidth with disk space (paper §2.3.3).
    Replicate {
        /// The content to copy.
        content: String,
    },
    /// Asks for the scheduler's resource view (MSUs, disks, load).
    ServerStatus,
    /// Asks for live metrics snapshots. With `msu: None` the Coordinator
    /// returns its own snapshot plus one per reachable MSU; with
    /// `Some(id)` only that MSU's.
    Stats {
        /// Restrict the report to one MSU.
        msu: Option<MsuId>,
    },
    /// Asks for the Coordinator's merged cluster view: the per-MSU
    /// snapshots it collected piggybacked on the heartbeat plus a
    /// cluster-total aggregate. Unlike [`ClientRequest::Stats`] this
    /// never blocks on an MSU round trip — it reads the Coordinator's
    /// cache.
    ClusterStats,
    /// Ends the session; the Coordinator deallocates the session's ports.
    Bye,
}

impl_wire! {
    enum ClientRequest as "client request" {
        0 => Hello { client_name, admin },
        1 => ListContent,
        2 => ListTypes,
        3 => RegisterPort { name, type_name, data_addr, ctrl_addr },
        4 => RegisterCompositePort { name, type_name, components },
        5 => UnregisterPort { name },
        6 => Play { content, port },
        7 => Record { content, port, type_name, est_secs },
        8 => Delete { content },
        9 => AddType { spec },
        10 => AttachTrick { content, files },
        11 => Bye,
        12 => Replicate { content },
        13 => ServerStatus,
        14 => Stats { msu },
        15 => ClusterStats,
    }
}

/// One scheduled playback stream, as reported to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStart {
    /// The stream id, used in VCR commands.
    pub stream: StreamId,
    /// Which of the client's (possibly composite) component ports this
    /// stream feeds.
    pub port_name: String,
    /// The MSU serving the stream (informational; the MSU dials the
    /// client's control listener itself).
    pub msu: MsuId,
    /// Trace context minted at admission; the same id appears in every
    /// Coordinator and MSU log line and flight-recorder event for this
    /// stream.
    pub trace: TraceCtx,
}

impl_wire! {
    struct StreamStart { stream, port_name, msu, trace }
}

/// One scheduled recording stream, as reported to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordStart {
    /// The stream id, used in VCR commands.
    pub stream: StreamId,
    /// Which component port this stream records from.
    pub port_name: String,
    /// The MSU serving the stream.
    pub msu: MsuId,
    /// UDP address on the MSU where the client must send data packets.
    pub udp_sink: SocketAddr,
    /// Trace context minted at admission.
    pub trace: TraceCtx,
}

impl_wire! {
    struct RecordStart { stream, port_name, msu, udp_sink, trace }
}

/// One disk's load in a [`CoordReply::Status`] report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskStatus {
    /// Global disk id.
    pub disk: DiskId,
    /// Free space, bytes.
    pub free_bytes: u64,
    /// Total capacity, bytes.
    pub capacity_bytes: u64,
    /// Bandwidth reserved, bytes/s.
    pub bw_used: u64,
    /// Bandwidth capacity, bytes/s.
    pub bw_capacity: u64,
}

impl_wire! {
    struct DiskStatus { disk, free_bytes, capacity_bytes, bw_used, bw_capacity }
}

/// One MSU's load in a [`CoordReply::Status`] report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsuStatus {
    /// The MSU.
    pub msu: MsuId,
    /// False while the Coordinator has it marked down.
    pub available: bool,
    /// Network bandwidth reserved, bytes/s.
    pub net_used: u64,
    /// Network bandwidth capacity, bytes/s.
    pub net_capacity: u64,
    /// Its disks.
    pub disks: Vec<DiskStatus>,
}

impl_wire! {
    struct MsuStatus { msu, available, net_used, net_capacity, disks }
}

/// Replies the Coordinator sends to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordReply {
    /// Session established.
    Welcome {
        /// The new session's id.
        session: SessionId,
    },
    /// The table of contents.
    ContentList {
        /// One entry per content item.
        entries: Vec<ContentEntry>,
    },
    /// The content-type table.
    TypeList {
        /// One spec per type.
        types: Vec<ContentTypeSpec>,
    },
    /// Generic success for requests with nothing else to return.
    Ok,
    /// The request is valid but no MSU currently has the resources; it has
    /// been queued and the final reply will follow when it is scheduled
    /// (paper §2.2). Interim message.
    Queued,
    /// Playback scheduled: one stream per component (a singleton group for
    /// atomic content).
    PlayStarted {
        /// The stream group controlling all components together.
        group: GroupId,
        /// Component streams in port order.
        streams: Vec<StreamStart>,
    },
    /// Recording scheduled.
    RecordStarted {
        /// The stream group.
        group: GroupId,
        /// Component streams in port order.
        streams: Vec<RecordStart>,
    },
    /// The request failed.
    Error {
        /// Stable code from [`crate::error::Error::wire_code`].
        code: u16,
        /// Human-readable description.
        msg: String,
    },
    /// The scheduler's resource view.
    Status {
        /// One entry per known MSU.
        msus: Vec<MsuStatus>,
        /// Live stream reservations.
        active_streams: u32,
    },
    /// Reply to [`ClientRequest::Stats`]: one snapshot per component
    /// that answered (MSUs that are down are simply absent).
    Stats {
        /// Coordinator and/or MSU snapshots.
        snapshots: Vec<StatsSnapshot>,
    },
    /// Reply to [`ClientRequest::ClusterStats`]: the Coordinator's
    /// merged cluster view, assembled from heartbeat-piggybacked MSU
    /// snapshots.
    ClusterStats {
        /// Cluster-total aggregate (counters summed, histogram buckets
        /// merged across MSUs), `source == "cluster"`.
        cluster: StatsSnapshot,
        /// The most recent snapshot from each live MSU.
        msus: Vec<StatsSnapshot>,
    },
}

impl_wire! {
    enum CoordReply as "coord reply" {
        0 => Welcome { session },
        1 => ContentList { entries },
        2 => TypeList { types },
        3 => Ok,
        4 => Queued,
        5 => PlayStarted { group, streams },
        6 => RecordStarted { group, streams },
        7 => Error { code, msg },
        8 => Status { msus, active_streams },
        9 => Stats { snapshots },
        10 => ClusterStats { cluster, msus },
    }
}

// ---------------------------------------------------------------------
// Conversation 2: MSU ↔ Coordinator
// ---------------------------------------------------------------------

/// An MSU's description of one of its disks at registration time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskReport {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes currently free.
    pub free_bytes: u64,
    /// Sustained bandwidth the disk can deliver under the duty-cycle
    /// workload (random 256 KB transfers), used by the Coordinator for
    /// admission control.
    pub bandwidth: ByteRate,
}

impl_wire! {
    struct DiskReport { capacity_bytes, free_bytes, bandwidth }
}

/// Messages from an MSU to the Coordinator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsuToCoord {
    /// First message on the connection: announce disks and control
    /// address. If the MSU restarted after a failure it passes its
    /// previous id so the Coordinator can restore (rather than duplicate)
    /// its database entry (paper §2.2 fault tolerance).
    Register {
        /// TCP address other components may use to reach this MSU.
        ctrl_addr: SocketAddr,
        /// One report per local disk, in local disk order.
        disks: Vec<DiskReport>,
        /// Previous identity when re-registering after a crash.
        previous: Option<MsuId>,
    },
    /// Reply to [`CoordToMsu::ScheduleRead`]: either the stream is being
    /// delivered or an error string.
    ReadScheduled {
        /// `None` on success, `Some(message)` on failure.
        error: Option<String>,
    },
    /// Reply to [`CoordToMsu::ScheduleWrite`]: on success carries the UDP
    /// socket the client must send data to.
    WriteScheduled {
        /// `Ok(sink)` or `Err(message)` flattened for the wire.
        udp_sink: Option<SocketAddr>,
        /// Present iff `udp_sink` is `None`.
        error: Option<String>,
    },
    /// Unsolicited: a stream ended. For recordings, `bytes` and
    /// `duration_us` describe the captured content so the Coordinator can
    /// finalize the catalog entry and return over-reserved disk space.
    StreamDone {
        /// Which stream.
        stream: StreamId,
        /// Why it ended.
        reason: DoneReason,
        /// Bytes played or recorded.
        bytes: u64,
        /// Play/record duration in microseconds of media time.
        duration_us: u64,
        /// The trace context the grant carried, echoed back so the
        /// stream's end is attributable to its admission.
        trace: TraceCtx,
    },
    /// Reply to [`CoordToMsu::Ping`]. Carries a fresh metrics snapshot
    /// piggybacked on the heartbeat so the Coordinator's cluster view
    /// stays current without extra round trips (`None` only from
    /// components that cannot produce one).
    Pong {
        /// This MSU's live metrics at ping time.
        snapshot: Option<StatsSnapshot>,
    },
    /// Reply to [`CoordToMsu::DeleteFile`].
    FileDeleted {
        /// `None` on success.
        error: Option<String>,
    },
    /// Reply to [`CoordToMsu::CopyFile`].
    FileCopied {
        /// `None` on success.
        error: Option<String>,
    },
    /// Reply to [`CoordToMsu::GetStats`]: this MSU's live metrics.
    Stats {
        /// The snapshot.
        snapshot: StatsSnapshot,
    },
}

impl_wire! {
    enum MsuToCoord as "msu-to-coord" {
        0 => Register { ctrl_addr, disks, previous },
        1 => ReadScheduled { error },
        2 => WriteScheduled { udp_sink, error },
        3 => StreamDone { stream, reason, bytes, duration_us, trace },
        4 => Pong { snapshot },
        5 => FileDeleted { error },
        6 => FileCopied { error },
        7 => Stats { snapshot },
    }
}

/// Messages from the Coordinator to an MSU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordToMsu {
    /// Reply to [`MsuToCoord::Register`]: the MSU's identity and the
    /// global ids assigned to its disks (in the order reported).
    RegisterAck {
        /// This MSU's id.
        msu: MsuId,
        /// Global disk ids, parallel to the registration's disk list.
        disk_ids: Vec<DiskId>,
    },
    /// Schedule a playback stream (paper §2.2: once scheduled, the client
    /// talks to the MSU directly).
    ScheduleRead {
        /// New stream id.
        stream: StreamId,
        /// Stream group for synchronized VCR control.
        group: GroupId,
        /// Total number of streams in the group (the MSU releases the
        /// group — and starts all members simultaneously — once this
        /// many are primed).
        group_size: u32,
        /// Which local disk holds the content (by global id).
        disk: DiskId,
        /// File name in the MSU file system.
        file: String,
        /// Protocol module to use on output.
        protocol: ProtocolId,
        /// Calculated or stored delivery schedule.
        pacing: PacingSpec,
        /// UDP address of the client's display port.
        client_data: SocketAddr,
        /// TCP listener the MSU must dial for VCR control (one connection
        /// per group; the MSU dials it for the group's first stream).
        client_ctrl: SocketAddr,
        /// Trick-play files, if an administrator attached any.
        trick: Option<TrickFiles>,
        /// Trace context minted at admission (or continued on failover).
        trace: TraceCtx,
    },
    /// Schedule a recording stream.
    ScheduleWrite {
        /// New stream id.
        stream: StreamId,
        /// Stream group.
        group: GroupId,
        /// Total number of streams in the group.
        group_size: u32,
        /// Which local disk receives the recording.
        disk: DiskId,
        /// File name to create in the MSU file system.
        file: String,
        /// Protocol module to use on input (derives delivery times).
        protocol: ProtocolId,
        /// Reserved size in bytes (from the client's length estimate).
        est_bytes: u64,
        /// Whether to store a delivery schedule (variable-rate types) or
        /// rely on a computed one (constant-rate types).
        stores_schedule: bool,
        /// For constant-rate recordings, the nominal rate.
        cbr_rate: Option<BitRate>,
        /// TCP listener the MSU must dial for VCR control.
        client_ctrl: SocketAddr,
        /// Trace context minted at admission.
        trace: TraceCtx,
    },
    /// Cancel a stream (e.g. its group-mate failed to schedule).
    Cancel {
        /// Which stream.
        stream: StreamId,
    },
    /// Deletes a file from one of the MSU's disks (content deletion,
    /// paper §2.1 "with appropriate permissions, the client can delete
    /// an item of content").
    DeleteFile {
        /// Which local disk (by global id).
        disk: DiskId,
        /// The file to remove.
        file: String,
    },
    /// Copies a file between two of the MSU's disks — content
    /// replication: "we can make copies of popular content on several
    /// disks" to buy per-title bandwidth with space (paper §2.3.3).
    CopyFile {
        /// Source disk (global id).
        src_disk: DiskId,
        /// Destination disk (global id, same MSU).
        dst_disk: DiskId,
        /// File name (kept identical on the destination).
        file: String,
    },
    /// Liveness probe.
    Ping,
    /// Asks the MSU for a metrics snapshot ([`MsuToCoord::Stats`]).
    GetStats,
    /// Orderly shutdown: finish nothing, stop everything.
    Shutdown,
}

impl_wire! {
    enum CoordToMsu as "coord-to-msu" {
        0 => RegisterAck { msu, disk_ids },
        1 => ScheduleRead {
            stream, group, group_size, disk, file, protocol, pacing,
            client_data, client_ctrl, trick, trace,
        },
        2 => ScheduleWrite {
            stream, group, group_size, disk, file, protocol, est_bytes,
            stores_schedule, cbr_rate, client_ctrl, trace,
        },
        3 => Cancel { stream },
        4 => Ping,
        5 => Shutdown,
        6 => DeleteFile { disk, file },
        7 => CopyFile { src_disk, dst_disk, file },
        8 => GetStats,
    }
}

/// Envelope for Coordinator→MSU frames: a correlation id plus the body.
///
/// The Coordinator assigns `req_id`s from its own counter; the MSU echoes
/// the id in its reply envelope. Unsolicited messages use id 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordEnvelope {
    /// Correlation id (0 = unsolicited).
    pub req_id: u64,
    /// The message.
    pub body: CoordToMsu,
}

impl_wire! {
    struct CoordEnvelope { req_id, body }
}

/// Envelope for MSU→Coordinator frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsuEnvelope {
    /// Correlation id this frame replies to (0 = unsolicited).
    pub req_id: u64,
    /// The message.
    pub body: MsuToCoord,
}

impl_wire! {
    struct MsuEnvelope { req_id, body }
}

// ---------------------------------------------------------------------
// Conversation 3: MSU ↔ client (VCR control)
// ---------------------------------------------------------------------

/// Messages the MSU sends on the control connection it opens to the
/// client (one connection per stream group).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsuToClient {
    /// Sent right after connecting: the group is about to play/record.
    GroupReady {
        /// The stream group this connection controls.
        group: GroupId,
        /// Member streams.
        streams: Vec<StreamId>,
        /// Trace context of the group's first stream, so client logs
        /// carry the same id as the Coordinator and MSU.
        trace: TraceCtx,
    },
    /// Response to a VCR command.
    VcrAck {
        /// The group the command applied to.
        group: GroupId,
        /// `None` on success, `Some(message)` on failure (e.g. FF without
        /// a trick file).
        error: Option<String>,
    },
    /// The group ended (end of content, quit, error, shutdown).
    GroupEnded {
        /// The group.
        group: GroupId,
        /// Why.
        reason: DoneReason,
    },
}

impl_wire! {
    enum MsuToClient as "msu-to-client" {
        0 => GroupReady { group, streams, trace },
        1 => VcrAck { group, error },
        2 => GroupEnded { group, reason },
    }
}

/// Messages the client sends to the MSU on the control connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientToMsu {
    /// A VCR command for the whole group: one command starts and stops all
    /// member streams simultaneously (paper §2.2).
    Vcr {
        /// The group.
        group: GroupId,
        /// The command.
        cmd: VcrCommand,
    },
}

impl_wire! {
    enum ClientToMsu as "client-to-msu" {
        0 => Vcr { group, cmd },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MediaTime;
    use crate::trace::SpanKind;
    use crate::wire::stats::{MetricEntry, MetricValue};
    use crate::wire::tests::check_golden;
    use crate::wire::Wire;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        assert_eq!(&T::from_bytes(&bytes).expect("decode"), v);
    }

    fn sample_addr() -> SocketAddr {
        "10.1.2.3:5004".parse().unwrap()
    }

    fn ctrl_addr() -> SocketAddr {
        "10.1.2.3:6000".parse().unwrap()
    }

    fn sample_trace() -> TraceCtx {
        TraceCtx::new(0xABCD_1234, SpanKind::Play)
    }

    fn sample_trick() -> TrickFiles {
        TrickFiles {
            fast_forward: "movie.ff".into(),
            fast_backward: "movie.fb".into(),
        }
    }

    fn small_snapshot() -> StatsSnapshot {
        StatsSnapshot {
            source: "msu-1".into(),
            uptime_us: 42_000_000,
            metrics: vec![MetricEntry {
                name: "net.packets_sent".into(),
                value: MetricValue::Counter(1000),
            }],
        }
    }

    #[test]
    fn client_requests_round_trip() {
        check_golden(
            &[(
                sample_trick(),
                "080000006d6f7669652e6666080000006d6f7669652e6662",
            )],
            None,
        );
        check_golden(
            &[
                (
                    ClientRequest::Hello {
                        client_name: "mbone-client".into(),
                        admin: false,
                    },
                    "000c0000006d626f6e652d636c69656e7400",
                ),
                (ClientRequest::ListContent, "01"),
                (ClientRequest::ListTypes, "02"),
                (
                    ClientRequest::RegisterPort {
                        name: "video0".into(),
                        type_name: "nv-video".into(),
                        data_addr: sample_addr(),
                        ctrl_addr: ctrl_addr(),
                    },
                    "0306000000766964656f30080000006e762d766964656f040a0102038c13040a\
                     0102037017",
                ),
                (
                    ClientRequest::RegisterCompositePort {
                        name: "seminar0".into(),
                        type_name: "seminar".into(),
                        components: vec!["video0".into(), "audio0".into()],
                    },
                    "040800000073656d696e6172300700000073656d696e61720200000006000000\
                     766964656f3006000000617564696f30",
                ),
                (
                    ClientRequest::UnregisterPort {
                        name: "video0".into(),
                    },
                    "0506000000766964656f30",
                ),
                (
                    ClientRequest::Play {
                        content: "lecture-1".into(),
                        port: "seminar0".into(),
                    },
                    "06090000006c6563747572652d310800000073656d696e617230",
                ),
                (
                    ClientRequest::Record {
                        content: "new-talk".into(),
                        port: "video0".into(),
                        type_name: "nv-video".into(),
                        est_secs: 3600,
                    },
                    "07080000006e65772d74616c6b06000000766964656f30080000006e762d7669\
                     64656f100e0000",
                ),
                (
                    ClientRequest::Delete {
                        content: "old".into(),
                    },
                    "08030000006f6c64",
                ),
                (
                    ClientRequest::AddType {
                        spec: crate::content::builtin_types().remove(0),
                    },
                    "09050000006d7065673100000060e3160000000000",
                ),
                (
                    ClientRequest::AttachTrick {
                        content: "movie".into(),
                        files: sample_trick(),
                    },
                    "0a050000006d6f766965080000006d6f7669652e6666080000006d6f7669652e\
                     6662",
                ),
                (ClientRequest::Bye, "0b"),
                (
                    ClientRequest::Replicate {
                        content: "popular".into(),
                    },
                    "0c07000000706f70756c6172",
                ),
                (ClientRequest::ServerStatus, "0d"),
                (
                    ClientRequest::Stats {
                        msu: Some(MsuId(3)),
                    },
                    "0e010300000000000000",
                ),
                (ClientRequest::ClusterStats, "0f"),
            ],
            Some("client request"),
        );
    }

    #[test]
    fn coord_replies_round_trip() {
        let stream = StreamStart {
            stream: StreamId(9),
            port_name: "video0".into(),
            msu: MsuId(2),
            trace: sample_trace(),
        };
        let record = RecordStart {
            stream: StreamId(10),
            port_name: "video0".into(),
            msu: MsuId(2),
            udp_sink: sample_addr(),
            trace: TraceCtx::new(77, SpanKind::Record),
        };
        let disk = DiskStatus {
            disk: DiskId(10),
            free_bytes: 1_500_000_000,
            capacity_bytes: 2_000_000_000,
            bw_used: 375_000,
            bw_capacity: 2_400_000,
        };
        let msu = MsuStatus {
            msu: MsuId(1),
            available: true,
            net_used: 375_000,
            net_capacity: 12_500_000,
            disks: vec![disk.clone()],
        };
        check_golden(
            &[(
                stream.clone(),
                "090000000000000006000000766964656f3002000000000000003412cdab0000\
                                         000001",
            )],
            None,
        );
        check_golden(
            &[(
                record.clone(),
                "0a0000000000000006000000766964656f300200000000000000040a0102038c\
                                         134d0000000000000002",
            )],
            None,
        );
        check_golden(
            &[(
                disk,
                "0a00000000000000002f6859000000000094357700000000d8b8050000000000\
                               009f240000000000",
            )],
            None,
        );
        check_golden(&[(msu.clone(), "010000000000000001d8b805000000000020bcbe0000000000010000000a0000\
                                      0000000000002f6859000000000094357700000000d8b8050000000000009f24\
                                      0000000000")], None);
        check_golden(
            &[
                (
                    CoordReply::Welcome {
                        session: SessionId(7),
                    },
                    "000700000000000000",
                ),
                (
                    CoordReply::ContentList {
                        entries: vec![ContentEntry {
                            name: "m".into(),
                            type_name: "mpeg1".into(),
                            bytes: 42,
                            duration_us: 1_000_000,
                        }],
                    },
                    "0101000000010000006d050000006d706567312a0000000000000040420f0000\
                     000000",
                ),
                (
                    CoordReply::TypeList {
                        types: vec![crate::content::builtin_types().remove(3)],
                    },
                    "02010000000700000073656d696e61720102000000080000006e762d76696465\
                     6f090000007661742d617564696f",
                ),
                (CoordReply::Ok, "03"),
                (CoordReply::Queued, "04"),
                (
                    CoordReply::PlayStarted {
                        group: GroupId(1),
                        streams: vec![stream],
                    },
                    "05010000000000000001000000090000000000000006000000766964656f3002\
                     000000000000003412cdab0000000001",
                ),
                (
                    CoordReply::RecordStarted {
                        group: GroupId(2),
                        streams: vec![record],
                    },
                    "060200000000000000010000000a0000000000000006000000766964656f3002\
                     00000000000000040a0102038c134d0000000000000002",
                ),
                (
                    CoordReply::Error {
                        code: 9,
                        msg: "resources exhausted".into(),
                    },
                    "070900130000007265736f757263657320657868617573746564",
                ),
                (
                    CoordReply::Status {
                        msus: vec![msu],
                        active_streams: 3,
                    },
                    "0801000000010000000000000001d8b805000000000020bcbe00000000000100\
                     00000a00000000000000002f6859000000000094357700000000d8b805000000\
                     0000009f24000000000003000000",
                ),
                (
                    CoordReply::Stats {
                        snapshots: vec![small_snapshot()],
                    },
                    "0901000000050000006d73752d3180de80020000000001000000100000006e65\
                     742e7061636b6574735f73656e7400e803000000000000",
                ),
                (
                    CoordReply::ClusterStats {
                        cluster: StatsSnapshot {
                            source: "cluster".into(),
                            uptime_us: 42_000_000,
                            metrics: vec![],
                        },
                        msus: vec![small_snapshot()],
                    },
                    "0a07000000636c757374657280de800200000000000000000100000005000000\
                     6d73752d3180de80020000000001000000100000006e65742e7061636b657473\
                     5f73656e7400e803000000000000",
                ),
            ],
            Some("coord reply"),
        );
    }

    #[test]
    fn msu_coordinator_envelopes_round_trip() {
        let report = DiskReport {
            capacity_bytes: 2_000_000_000,
            free_bytes: 1_500_000_000,
            bandwidth: ByteRate::from_bytes_per_sec(2_400_000),
        };
        let cbr = PacingSpec::Constant {
            rate: BitRate::from_kbps(1500),
            packet_bytes: 4096,
        };
        check_golden(
            &[(
                report.clone(),
                "0094357700000000002f685900000000009f240000000000",
            )],
            None,
        );
        check_golden(
            &[
                (cbr.clone(), "0060e316000000000000100000"),
                (PacingSpec::Stored, "01"),
            ],
            Some("pacing spec"),
        );
        check_golden(
            &[
                (
                    MsuToCoord::Register {
                        ctrl_addr: sample_addr(),
                        disks: vec![report],
                        previous: Some(MsuId(4)),
                    },
                    "00040a0102038c13010000000094357700000000002f685900000000009f2400\
                     00000000010400000000000000",
                ),
                (MsuToCoord::ReadScheduled { error: None }, "0100"),
                (
                    MsuToCoord::WriteScheduled {
                        udp_sink: Some(sample_addr()),
                        error: None,
                    },
                    "0201040a0102038c1300",
                ),
                (
                    MsuToCoord::StreamDone {
                        stream: StreamId(5),
                        reason: DoneReason::ClientQuit,
                        bytes: 1_000_000,
                        duration_us: 60_000_000,
                        trace: sample_trace(),
                    },
                    "0305000000000000000140420f000000000000879303000000003412cdab0000\
                     000001",
                ),
                (MsuToCoord::Pong { snapshot: None }, "0400"),
                (
                    MsuToCoord::FileDeleted {
                        error: Some("no such file".into()),
                    },
                    "05010c0000006e6f20737563682066696c65",
                ),
                (MsuToCoord::FileCopied { error: None }, "0600"),
                (
                    MsuToCoord::Stats {
                        snapshot: small_snapshot(),
                    },
                    "07050000006d73752d3180de80020000000001000000100000006e65742e7061\
                     636b6574735f73656e7400e803000000000000",
                ),
            ],
            Some("msu-to-coord"),
        );
        check_golden(
            &[
                (
                    CoordToMsu::RegisterAck {
                        msu: MsuId(1),
                        disk_ids: vec![DiskId(10), DiskId(11)],
                    },
                    "000100000000000000020000000a000000000000000b00000000000000",
                ),
                (
                    CoordToMsu::ScheduleRead {
                        stream: StreamId(5),
                        group: GroupId(3),
                        group_size: 1,
                        disk: DiskId(10),
                        file: "movie".into(),
                        protocol: ProtocolId::ConstantRate,
                        pacing: cbr,
                        client_data: sample_addr(),
                        client_ctrl: ctrl_addr(),
                        trick: Some(sample_trick()),
                        trace: sample_trace(),
                    },
                    "0105000000000000000300000000000000010000000a00000000000000050000\
                     006d6f766965000060e316000000000000100000040a0102038c13040a010203\
                     701701080000006d6f7669652e6666080000006d6f7669652e66623412cdab00\
                     00000001",
                ),
                (
                    CoordToMsu::ScheduleWrite {
                        stream: StreamId(6),
                        group: GroupId(3),
                        group_size: 2,
                        disk: DiskId(10),
                        file: "new-talk".into(),
                        protocol: ProtocolId::Rtp,
                        est_bytes: 500_000_000,
                        stores_schedule: true,
                        cbr_rate: None,
                        client_ctrl: ctrl_addr(),
                        trace: TraceCtx::new(78, SpanKind::Record),
                    },
                    "0206000000000000000300000000000000020000000a00000000000000080000\
                     006e65772d74616c6b010065cd1d000000000100040a01020370174e00000000\
                     00000002",
                ),
                (
                    CoordToMsu::Cancel {
                        stream: StreamId(6),
                    },
                    "030600000000000000",
                ),
                (CoordToMsu::Ping, "04"),
                (CoordToMsu::Shutdown, "05"),
                (
                    CoordToMsu::DeleteFile {
                        disk: DiskId(10),
                        file: "old".into(),
                    },
                    "060a00000000000000030000006f6c64",
                ),
                (
                    CoordToMsu::CopyFile {
                        src_disk: DiskId(10),
                        dst_disk: DiskId(11),
                        file: "popular".into(),
                    },
                    "070a000000000000000b0000000000000007000000706f70756c6172",
                ),
                (CoordToMsu::GetStats, "08"),
            ],
            Some("coord-to-msu"),
        );
        check_golden(
            &[(
                MsuEnvelope {
                    req_id: 12,
                    body: MsuToCoord::ReadScheduled { error: None },
                },
                "0c000000000000000100",
            )],
            None,
        );
        check_golden(
            &[(
                CoordEnvelope {
                    req_id: 14,
                    body: CoordToMsu::Ping,
                },
                "0e0000000000000004",
            )],
            None,
        );
    }

    #[test]
    fn control_channel_messages_round_trip() {
        check_golden(
            &[
                (
                    MsuToClient::GroupReady {
                        group: GroupId(1),
                        streams: vec![StreamId(1), StreamId(2)],
                        trace: sample_trace(),
                    },
                    "00010000000000000002000000010000000000000002000000000000003412cd\
                     ab0000000001",
                ),
                (
                    MsuToClient::VcrAck {
                        group: GroupId(1),
                        error: Some("no trick file".into()),
                    },
                    "010100000000000000010d0000006e6f20747269636b2066696c65",
                ),
                (
                    MsuToClient::GroupEnded {
                        group: GroupId(1),
                        reason: DoneReason::Error("disk failed".into()),
                    },
                    "020100000000000000040b0000006469736b206661696c6564",
                ),
            ],
            Some("msu-to-client"),
        );
        check_golden(
            &[(
                ClientToMsu::Vcr {
                    group: GroupId(1),
                    cmd: VcrCommand::Seek(MediaTime::from_secs(90)),
                },
                "00010000000000000002804a5d0500000000",
            )],
            Some("client-to-msu"),
        );
    }

    #[test]
    fn stats_messages_round_trip() {
        use crate::wire::stats::HistBucket;
        let snap = StatsSnapshot {
            source: "msu-1".into(),
            uptime_us: 42_000_000,
            metrics: vec![
                MetricEntry {
                    name: "net.packets_sent".into(),
                    value: MetricValue::Counter(1000),
                },
                MetricEntry {
                    name: "net.lateness_us".into(),
                    value: MetricValue::Histogram {
                        buckets: vec![
                            HistBucket { le: 1000, count: 7 },
                            HistBucket {
                                le: u64::MAX,
                                count: 8,
                            },
                        ],
                        count: 8,
                        sum: 12345,
                    },
                },
            ],
        };
        round_trip(&ClientRequest::Stats { msu: None });
        round_trip(&ClientRequest::Stats {
            msu: Some(MsuId(3)),
        });
        round_trip(&CoordReply::Stats {
            snapshots: vec![snap.clone()],
        });
        round_trip(&CoordReply::Stats { snapshots: vec![] });
        round_trip(&ClientRequest::ClusterStats);
        round_trip(&CoordReply::ClusterStats {
            cluster: StatsSnapshot {
                source: "cluster".into(),
                uptime_us: 42_000_000,
                metrics: snap.metrics.clone(),
            },
            msus: vec![snap.clone(), snap.clone()],
        });
        round_trip(&MsuEnvelope {
            req_id: 44,
            body: MsuToCoord::Pong {
                snapshot: Some(snap.clone()),
            },
        });
        round_trip(&MsuEnvelope {
            req_id: 77,
            body: MsuToCoord::Stats { snapshot: snap },
        });
        round_trip(&CoordEnvelope {
            req_id: 77,
            body: CoordToMsu::GetStats,
        });
    }

    #[test]
    fn done_reasons_round_trip() {
        check_golden(
            &[
                (DoneReason::Completed, "00"),
                (DoneReason::ClientQuit, "01"),
                (DoneReason::Cancelled, "02"),
                (DoneReason::MsuShutdown, "03"),
                (DoneReason::Error("boom".into()), "0404000000626f6f6d"),
                (
                    DoneReason::IoError("read block 7 failed".into()),
                    "05130000007265616420626c6f636b2037206661696c6564",
                ),
            ],
            Some("done reason"),
        );
    }

    proptest! {
        #[test]
        fn prop_message_decoders_survive_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = ClientRequest::from_bytes(&bytes);
            let _ = CoordReply::from_bytes(&bytes);
            let _ = CoordEnvelope::from_bytes(&bytes);
            let _ = MsuEnvelope::from_bytes(&bytes);
            let _ = MsuToClient::from_bytes(&bytes);
            let _ = ClientToMsu::from_bytes(&bytes);
        }

        #[test]
        fn prop_play_round_trips(content in "[a-z0-9/_-]{0,64}", port in "[a-z0-9/_-]{0,64}") {
            let req = ClientRequest::Play { content, port };
            let bytes = req.to_bytes();
            prop_assert_eq!(ClientRequest::from_bytes(&bytes).unwrap(), req);
        }
    }
}
