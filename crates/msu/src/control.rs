//! The MSU's central control plane.
//!
//! "A central process handles RPCs from the Coordinator and from
//! clients." (paper §2.3) Three kinds of activity live here:
//!
//! * the **Coordinator connection**: the MSU dials the Coordinator,
//!   registers its disks, then executes `ScheduleRead`/`ScheduleWrite`
//!   requests and posts `StreamDone` notifications;
//! * the **client control connections**: "as soon as it is ready to
//!   deliver the content stream, the MSU establishes a control stream
//!   (TCP connection) with the client" (§2.2) — one per stream group,
//!   carrying VCR commands in and group status out;
//! * the **event loop**: reacts to disk/net events (group released,
//!   playback finished, recording finalized) by notifying the client
//!   and the Coordinator.

use crate::disk::DiskCmd;
use crate::metrics::MsuMetrics;
use crate::net::NetCmd;
use crate::spsc::Doorbell;
use crate::stream::{GroupShared, StreamShared};
use crate::trick::TrickMode;
use calliope_obs::{FlightCode, FlightRecorder};
use calliope_types::error::{Error, Result};
use calliope_types::wire::messages::{
    ClientToMsu, DoneReason, MsuEnvelope, MsuToClient, MsuToCoord,
};
use calliope_types::wire::stats::{MetricEntry, MetricValue, StatsSnapshot};
use calliope_types::wire::{read_frame, write_frame};
use calliope_types::{GroupId, StreamId, VcrCommand};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long control-plane RPCs to the disk threads may take. Seeks
/// traverse the IB-tree on disk, so this is generous.
pub const DISK_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything a stream needs at teardown time.
pub struct StreamInfo {
    /// Shared runtime state.
    pub shared: Arc<StreamShared>,
    /// Its group.
    pub group: Arc<GroupShared>,
    /// Local disk index.
    pub disk: usize,
    /// True for recordings.
    pub is_record: bool,
    /// Stop flag for the recording receiver thread.
    pub record_stop: Option<Arc<AtomicBool>>,
    /// Reason recorded when the control plane initiated a stop (used to
    /// label the eventual `StreamDone`).
    pub quit_reason: Mutex<Option<DoneReason>>,
    /// Set once `StreamDone` has been sent, so duplicate events are
    /// harmless.
    pub done_sent: AtomicBool,
}

impl std::fmt::Debug for StreamInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamInfo")
            .field("disk", &self.disk)
            .field("is_record", &self.is_record)
            .finish_non_exhaustive()
    }
}

/// Per-group control-plane state.
pub struct GroupInfo {
    /// Shared release state.
    pub shared: Arc<GroupShared>,
    /// The client's control listener (the MSU dials it).
    pub client_ctrl: SocketAddr,
    /// The control connection and any `GroupReady` waiting for it.
    pub conn: Mutex<GroupConn>,
}

/// A group's control connection, which the group-control thread dials
/// while the disk threads prime the group.
///
/// `GroupReady` is sent by whichever of the two finishes second: the
/// release finds the connection and sends at once, or parks the
/// message here for [`GroupConn::install`] to send.
#[derive(Debug, Default)]
pub struct GroupConn {
    /// The established connection, if any.
    pub stream: Option<TcpStream>,
    /// `GroupReady` for a group released before the connection landed.
    pending_ready: Option<MsuToClient>,
}

impl GroupConn {
    /// Writes `msg`; a failed write drops the connection.
    fn send(&mut self, msg: &MsuToClient) {
        if let Some(conn) = self.stream.as_mut() {
            if write_frame(conn, msg).is_err() {
                self.stream = None;
            }
        }
    }

    /// Installs the dialed connection and sends a parked `GroupReady`.
    pub fn install(&mut self, conn: TcpStream) {
        self.stream = Some(conn);
        if let Some(ready) = self.pending_ready.take() {
            self.send(&ready);
        }
    }

    /// Sends `GroupEnded` and stops the group-control thread's blocking
    /// read, so it exits now; the connection closes when it does.
    pub fn end(&mut self, ended: &MsuToClient) {
        self.send(ended);
        if let Some(conn) = &self.stream {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
    }

    /// Sends `GroupReady` now, or parks it until the connection lands.
    pub fn ready(&mut self, ready: MsuToClient) {
        if self.stream.is_some() {
            self.send(&ready);
        } else {
            self.pending_ready = Some(ready);
        }
    }
}

impl std::fmt::Debug for GroupInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupInfo")
            .field("client_ctrl", &self.client_ctrl)
            .finish_non_exhaustive()
    }
}

/// Control-plane state shared by every MSU thread.
pub struct ServerShared {
    /// All live streams.
    pub registry: Mutex<HashMap<StreamId, Arc<StreamInfo>>>,
    /// All live groups.
    pub groups: Mutex<HashMap<GroupId, Arc<GroupInfo>>>,
    /// One command channel per disk thread.
    pub disk_txs: Vec<Sender<DiskCmd>>,
    /// One doorbell per disk thread (see [`crate::disk::doorbell`]).
    pub disk_bells: Vec<Arc<Doorbell>>,
    /// The network thread's command channel.
    pub net_tx: Sender<NetCmd>,
    /// Write half of the Coordinator connection.
    pub coord_conn: Mutex<Option<TcpStream>>,
    /// MSU-wide metric handles.
    pub metrics: Arc<MsuMetrics>,
    /// Always-on flight recorder; dumped on I/O errors and panics.
    pub flight: Arc<FlightRecorder>,
    /// Set when the server is shutting down.
    pub stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("disks", &self.disk_txs.len())
            .finish_non_exhaustive()
    }
}

impl ServerShared {
    /// Sends one envelope to the Coordinator (no-op if disconnected —
    /// the Coordinator detects MSU failure by the broken TCP connection
    /// anyway, paper §2.2).
    pub fn send_to_coord(&self, env: &MsuEnvelope) {
        let mut guard = self.coord_conn.lock();
        if let Some(conn) = guard.as_mut() {
            if write_frame(conn, env).is_err() {
                *guard = None;
            }
        }
    }

    /// Issues a disk RPC and waits for the reply.
    pub fn disk_rpc<T: Send + 'static>(
        &self,
        disk: usize,
        make: impl FnOnce(Sender<T>) -> DiskCmd,
    ) -> Result<T> {
        let tx = self
            .disk_txs
            .get(disk)
            .ok_or_else(|| Error::internal(format!("no local disk {disk}")))?;
        let (rtx, rrx) = unbounded();
        tx.send(make(rtx))
            .map_err(|_| Error::internal("disk thread gone"))?;
        rrx.recv_timeout(DISK_RPC_TIMEOUT)
            .map_err(|_| Error::internal("disk thread did not reply"))
    }

    /// Snapshots the MSU-wide metrics plus per-stream delivery counters
    /// for every live stream, sorted by name.
    pub fn snapshot_stats(&self, source: &str) -> StatsSnapshot {
        let mut snap = self.metrics.registry.snapshot(source);
        {
            let reg = self.registry.lock();
            for (id, info) in reg.iter() {
                let s = &info.shared.stats;
                let prefix = format!("stream.{}", id.0);
                // relaxed: stats snapshots tolerate slightly stale
                // counters; the four loads below need no ordering
                // with respect to each other or the stream state.
                snap.metrics.push(MetricEntry {
                    name: format!("{prefix}.packets"),
                    value: MetricValue::Counter(s.packets.load(Ordering::Relaxed)),
                });
                snap.metrics.push(MetricEntry {
                    name: format!("{prefix}.bytes"),
                    value: MetricValue::Counter(s.bytes.load(Ordering::Relaxed)),
                });
                snap.metrics.push(MetricEntry {
                    name: format!("{prefix}.deadline_misses"),
                    value: MetricValue::Counter(s.deadline_misses.load(Ordering::Relaxed)),
                });
                snap.metrics.push(MetricEntry {
                    name: format!("{prefix}.max_late_us"),
                    value: MetricValue::Counter(s.max_late_us.load(Ordering::Relaxed)),
                });
            }
        }
        snap.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// Sends a message on a group's client control connection.
    pub fn send_to_client(&self, group: &GroupInfo, msg: &MsuToClient) {
        group.conn.lock().send(msg);
    }

    /// Tears one stream down and reports `StreamDone` with the given
    /// reason. Idempotent per stream.
    pub fn finish_stream(
        &self,
        info: &StreamInfo,
        reason: DoneReason,
        bytes: u64,
        duration_us: u64,
    ) {
        if info.done_sent.swap(true, Ordering::AcqRel) {
            return;
        }
        tracing::info!(
            "teardown: {} done ({reason:?}), {bytes} bytes in {duration_us} µs [{}]",
            info.shared.id,
            info.shared.trace
        );
        // Same tag scheme as the Coordinator's StreamDone flight events.
        let reason_tag = match &reason {
            DoneReason::Completed => 0,
            DoneReason::ClientQuit => 1,
            DoneReason::Cancelled => 2,
            DoneReason::MsuShutdown => 3,
            DoneReason::Error(_) => 4,
            DoneReason::IoError(_) => 5,
        };
        self.flight.record(
            info.shared.trace.id,
            FlightCode::StreamDone,
            info.shared.id.raw(),
            reason_tag,
        );
        info.shared.ctl.lock().phase = crate::stream::StreamPhase::Done;
        if let Some(stop) = &info.record_stop {
            stop.store(true, Ordering::Release);
        }
        if let Some(tx) = self.disk_txs.get(info.disk) {
            let _ = tx.send(DiskCmd::Remove {
                stream: info.shared.id,
            });
        }
        let _ = self.net_tx.send(NetCmd::Remove {
            stream: info.shared.id,
        });
        let live = {
            let mut reg = self.registry.lock();
            reg.remove(&info.shared.id);
            reg.len()
        };
        self.metrics.streams_active.set(live as u64);
        self.send_to_coord(&MsuEnvelope {
            req_id: 0,
            body: MsuToCoord::StreamDone {
                stream: info.shared.id,
                reason,
                bytes,
                duration_us,
                trace: info.shared.trace,
            },
        });
    }

    /// Ends a whole group: finishes every member and notifies the
    /// client.
    ///
    /// Recordings are *not* torn down synchronously: setting their stop
    /// flag makes the receiver exit, the ring close, and the disk
    /// process finalize the file; the eventual `RecordFinished` event
    /// sends the accurate `StreamDone`.
    pub fn finish_group(&self, group_id: GroupId, reason: DoneReason) {
        let members: Vec<Arc<StreamInfo>> = {
            let reg = self.registry.lock();
            reg.values()
                .filter(|i| i.shared.group == group_id)
                .cloned()
                .collect()
        };
        for info in &members {
            if info.is_record {
                *info.quit_reason.lock() = Some(reason.clone());
                if let Some(stop) = &info.record_stop {
                    stop.store(true, Ordering::Release);
                }
                continue;
            }
            // relaxed: progress polling; any recent value will do.
            let bytes = info.shared.stats.bytes.load(Ordering::Relaxed);
            self.finish_stream(info, reason.clone(), bytes, 0);
        }
        if let Some(group) = self.groups.lock().remove(&group_id) {
            group.conn.lock().end(&MsuToClient::GroupEnded {
                group: group_id,
                reason,
            });
        }
    }

    /// Applies one VCR command to every stream of a group — "all
    /// streams in a group are controlled by the same VCR commands"
    /// (paper §2.2).
    pub fn apply_vcr(&self, group_id: GroupId, cmd: VcrCommand) -> Result<()> {
        let members: Vec<Arc<StreamInfo>> = {
            let reg = self.registry.lock();
            reg.values()
                .filter(|i| i.shared.group == group_id)
                .cloned()
                .collect()
        };
        if members.is_empty() {
            return Err(Error::Internal {
                msg: format!("group {group_id} has no streams"),
            });
        }
        tracing::info!("vcr: {cmd} on {group_id} ({} streams)", members.len());
        let cmd_tag = match cmd {
            VcrCommand::Play => 0,
            VcrCommand::Pause => 1,
            VcrCommand::Seek(_) => 2,
            VcrCommand::FastForward => 3,
            VcrCommand::FastBackward => 4,
            VcrCommand::Quit => 5,
        };
        self.flight.record(
            members[0].shared.trace.id,
            FlightCode::Vcr,
            group_id.raw(),
            cmd_tag,
        );
        let now = std::time::Instant::now();
        let applied = match cmd {
            VcrCommand::Pause => {
                for m in &members {
                    m.shared.ctl.lock().pacer.pause(now);
                }
                Ok(())
            }
            VcrCommand::Play => {
                for m in &members {
                    m.shared.ctl.lock().pacer.resume(now);
                }
                Ok(())
            }
            VcrCommand::Seek(target) => members.iter().try_for_each(|m| {
                self.disk_rpc(m.disk, |reply| DiskCmd::Seek {
                    stream: m.shared.id,
                    target,
                    reply,
                })?
            }),
            VcrCommand::FastForward | VcrCommand::FastBackward => {
                let mode = if cmd == VcrCommand::FastForward {
                    TrickMode::FastForward
                } else {
                    TrickMode::FastBackward
                };
                members.iter().try_for_each(|m| {
                    self.disk_rpc(m.disk, |reply| DiskCmd::Trick {
                        stream: m.shared.id,
                        mode,
                        reply,
                    })?
                })
            }
            VcrCommand::Quit => {
                self.finish_group(group_id, DoneReason::ClientQuit);
                return Ok(());
            }
        };
        // The command changed the members' pacing or generation: have
        // the network thread service them now rather than at a wake
        // computed under the old state (a paused stream has none).
        let _ = self.net_tx.send(NetCmd::Wake {
            streams: members.iter().map(|m| m.shared.id).collect(),
        });
        applied
    }
}

/// Dials the client's control listener for a group and runs the VCR
/// loop until the connection drops or the group ends.
///
/// Every teardown this loop triggers is guarded by *instance* identity,
/// not just group id: a replica failover re-admits the group under the
/// same id, so by the time this (now-stale) handler notices its
/// connection died, `shared.groups` may already hold the replacement.
/// Tearing down by id alone would kill the replacement's streams.
pub fn run_group_ctrl(shared: Arc<ServerShared>, group: Arc<GroupInfo>, group_id: GroupId) {
    let is_current = |s: &ServerShared| matches!(s.groups.lock().get(&group_id), Some(g) if Arc::ptr_eq(g, &group));
    let finish_ours = |s: &ServerShared, reason: DoneReason| {
        if is_current(s) {
            s.finish_group(group_id, reason);
        }
    };
    let conn = match TcpStream::connect(group.client_ctrl) {
        Ok(c) => c,
        Err(_) => {
            finish_ours(&shared, DoneReason::Error("client unreachable".into()));
            return;
        }
    };
    let mut read_half = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => {
            finish_ours(&shared, DoneReason::Error("socket clone failed".into()));
            return;
        }
    };
    group.conn.lock().install(conn);

    loop {
        // The group may have ended (playback completed) — or been
        // re-admitted as a new instance by a failover — while we waited.
        // Ending a group shuts this read down (`GroupConn::end`), so the
        // read below blocks with no timeout.
        if shared.stop.load(Ordering::Acquire) || !is_current(&shared) {
            return;
        }
        let msg: Option<ClientToMsu> = read_frame(&mut read_half).unwrap_or(None);
        let Some(ClientToMsu::Vcr { group: g, cmd }) = msg else {
            // Client closed the control connection: treat as quit —
            // unless a failover already replaced this group instance
            // (the client drops the old connection when it adopts the
            // replacement; that must not kill the replacement).
            finish_ours(&shared, DoneReason::ClientQuit);
            return;
        };
        if g != group_id {
            shared.send_to_client(
                &group,
                &MsuToClient::VcrAck {
                    group: group_id,
                    error: Some(format!("connection controls {group_id}, not {g}")),
                },
            );
            continue;
        }
        let is_quit = cmd.is_terminal();
        let error = shared.apply_vcr(group_id, cmd).err().map(|e| e.to_string());
        if !is_quit {
            shared.send_to_client(
                &group,
                &MsuToClient::VcrAck {
                    group: group_id,
                    error,
                },
            );
        } else {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_rpc_to_missing_disk_errors() {
        let (net_tx, _net_rx) = unbounded();
        let shared = ServerShared {
            registry: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            disk_txs: Vec::new(),
            disk_bells: Vec::new(),
            net_tx,
            coord_conn: Mutex::new(None),
            metrics: MsuMetrics::new(),
            flight: Arc::new(FlightRecorder::new(64)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let r: Result<u64> = shared.disk_rpc(0, |reply| DiskCmd::FreeBytes { reply });
        assert!(r.is_err());
    }

    #[test]
    fn vcr_on_unknown_group_errors() {
        let (net_tx, _net_rx) = unbounded();
        let shared = ServerShared {
            registry: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            disk_txs: Vec::new(),
            disk_bells: Vec::new(),
            net_tx,
            coord_conn: Mutex::new(None),
            metrics: MsuMetrics::new(),
            flight: Arc::new(FlightRecorder::new(64)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        assert!(shared.apply_vcr(GroupId(9), VcrCommand::Pause).is_err());
    }

    #[test]
    fn send_to_coord_without_connection_is_noop() {
        let (net_tx, _net_rx) = unbounded();
        let shared = ServerShared {
            registry: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            disk_txs: Vec::new(),
            disk_bells: Vec::new(),
            net_tx,
            coord_conn: Mutex::new(None),
            metrics: MsuMetrics::new(),
            flight: Arc::new(FlightRecorder::new(64)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        shared.send_to_coord(&MsuEnvelope {
            req_id: 0,
            body: MsuToCoord::Pong { snapshot: None },
        });
    }
}
