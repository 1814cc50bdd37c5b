//! MSU assembly: disks, threads, and the Coordinator protocol.
//!
//! [`MsuServer::start`] builds the whole unit: it opens (or formats)
//! the file-backed disks, spawns one disk thread per disk plus the
//! network thread, the event loop and the replication copier, dials the
//! Coordinator, registers its disks, and then executes scheduling
//! requests until shut down.
//! If the Coordinator connection breaks, the MSU keeps serving its
//! streams and re-registers (with its previous identity) once the
//! Coordinator is reachable again — the paper's §2.2 fault-tolerance
//! behaviour.

use crate::config::MsuConfig;
use crate::control::{run_group_ctrl, GroupInfo, ServerShared, StreamInfo};
use crate::disk::{self, DiskCmd, DiskEvent, TrickNames};
use crate::metrics::MsuMetrics;
use crate::net::{self, NetCmd, NetEvent};
use crate::spsc;
use crate::stream::{ActiveFile, GroupShared, StreamCtl, StreamPhase, StreamShared};
use crate::trick::TrickMode;
use calliope_obs::{FlightCode, FlightRecorder};
use calliope_proto::module::registry as proto_registry;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::FileKind;
use calliope_storage::page::Geometry;
use calliope_storage::{BlockDevice, FaultControl, FaultyDisk, FileDisk, MsuFs, BLOCK_SIZE};
use calliope_types::error::{Error, Result};
use calliope_types::time::ByteRate;
use calliope_types::wire::messages::{
    CoordEnvelope, CoordToMsu, DiskReport, DoneReason, MsuEnvelope, MsuToClient, MsuToCoord,
    PacingSpec, TrickFiles,
};
use calliope_types::wire::{read_frame, write_frame};
use calliope_types::{DiskId, GroupId, MsuId, StreamId, TraceCtx};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sustained per-disk bandwidth reported to the Coordinator for
/// admission control — the paper's measured 2.4 MB/s per disk under
/// the combined workload.
pub const REPORTED_DISK_BANDWIDTH: u64 = 2_400_000;

/// Pages a replication copy reads per disk command (2 MB of 256 KB
/// pages). The cap bounds the copy's transient buffers and how long one
/// command keeps the source disk thread away from its duty cycle.
const COPY_CHUNK_PAGES: u64 = 8;

enum ServerEvent {
    Disk(DiskEvent),
    Net(NetEvent),
}

/// A running MSU.
pub struct MsuServer {
    shared: Arc<ServerShared>,
    stop: Arc<AtomicBool>,
    msu_id: MsuId,
    disk_ids: Arc<Mutex<Vec<DiskId>>>,
    handles: Vec<JoinHandle<()>>,
    /// Runtime fault handles, parallel to the config's disk order
    /// (`Some` only where the config armed a fault plan).
    fault_controls: Vec<Option<Arc<FaultControl>>>,
    /// Chaos switch: the Coordinator control loop stops reading.
    wedged: Arc<AtomicBool>,
    /// Chaos switch: outgoing media packets are silently discarded.
    blackhole: Arc<AtomicBool>,
}

impl std::fmt::Debug for MsuServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsuServer")
            .field("msu_id", &self.msu_id)
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl MsuServer {
    /// Starts an MSU per the configuration: opens disks, spawns the
    /// device threads, registers with the Coordinator, and begins
    /// serving. Blocks until registration completes.
    pub fn start(cfg: MsuConfig) -> Result<MsuServer> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let stop = Arc::new(AtomicBool::new(false));

        // Open or create the disks, wrapping each in the fault injector
        // when its spec arms one.
        let mut filesystems = Vec::new();
        let mut reports = Vec::new();
        let mut fault_controls: Vec<Option<Arc<FaultControl>>> = Vec::new();
        for (i, spec) in cfg.disks.iter().enumerate() {
            let path = cfg.data_dir.join(format!("disk{i}.img"));
            let exists = path.exists();
            let raw = if exists {
                FileDisk::open(&path, BLOCK_SIZE)?
            } else {
                FileDisk::create(&path, BLOCK_SIZE, spec.blocks)?
            };
            let device: Box<dyn BlockDevice> = match &spec.fault {
                Some(plan) => {
                    let faulty = FaultyDisk::new(raw, plan.clone());
                    fault_controls.push(Some(faulty.control()));
                    Box::new(faulty)
                }
                None => {
                    fault_controls.push(None);
                    Box::new(raw)
                }
            };
            let fs = if exists {
                MsuFs::open(device)?
            } else {
                MsuFs::format(device)?
            };
            reports.push(DiskReport {
                capacity_bytes: fs.capacity_bytes(),
                free_bytes: fs.free_bytes(),
                bandwidth: ByteRate::from_bytes_per_sec(REPORTED_DISK_BANDWIDTH),
            });
            filesystems.push(fs);
        }

        // Channels and threads.
        let metrics = MsuMetrics::new();
        let wedged = Arc::new(AtomicBool::new(false));
        let blackhole = Arc::new(AtomicBool::new(false));
        let (events_tx, events_rx) = unbounded::<ServerEvent>();
        let mut disk_txs = Vec::new();
        let mut disk_bells = Vec::new();
        let mut handles = Vec::new();
        for fs in filesystems {
            let (tx, rx) = unbounded::<DiskCmd>();
            let (dtx, drx) = unbounded::<DiskEvent>();
            let fwd = events_tx.clone();
            handles.push(std::thread::spawn(move || {
                for ev in drx {
                    if fwd.send(ServerEvent::Disk(ev)).is_err() {
                        return;
                    }
                }
            }));
            let dm = Arc::clone(&metrics);
            handles.push(std::thread::spawn(move || disk::run(fs, rx, dtx, dm)));
            disk_bells.push(disk::doorbell(&tx));
            disk_txs.push(tx);
        }
        let (net_tx, net_rx) = unbounded::<NetCmd>();
        let send_socket = UdpSocket::bind((cfg.bind_ip, 0))?;
        {
            let (ntx, nrx) = unbounded::<NetEvent>();
            let fwd = events_tx.clone();
            handles.push(std::thread::spawn(move || {
                for ev in nrx {
                    if fwd.send(ServerEvent::Net(ev)).is_err() {
                        return;
                    }
                }
            }));
            let grain = cfg.net_tick;
            let nm = Arc::clone(&metrics);
            let bh = Arc::clone(&blackhole);
            handles.push(std::thread::spawn(move || {
                net::run(send_socket, grain, net_rx, ntx, nm, bh)
            }));
        }

        let flight = Arc::new(
            FlightRecorder::from_env()
                .with_dropped_counter(metrics.registry.counter("obs.flight_dropped")),
        );
        let shared = Arc::new(ServerShared {
            registry: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            disk_txs,
            disk_bells,
            net_tx,
            coord_conn: Mutex::new(None),
            metrics,
            flight,
            stop: Arc::clone(&stop),
        });

        // Register with the Coordinator.
        let (conn, msu_id, ids) = register(&cfg, &reports, cfg.previous_id)?;
        tracing::info!(
            "register: {msu_id} up with {} disks at {}",
            ids.len(),
            cfg.coordinator
        );
        // The recorder joins the global dump set only once it has a
        // Coordinator-assigned name to be dumped under.
        calliope_obs::flight::register(&msu_id.to_string(), Arc::clone(&shared.flight));
        *shared.coord_conn.lock() = Some(conn.try_clone()?);
        let disk_ids = Arc::new(Mutex::new(ids));

        // Event loop.
        {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                run_event_loop(shared, events_rx, stop)
            }));
        }

        // Copier: runs replication copies handed over by the reader. It
        // exits once the reader, the only sender, is gone.
        let (copies_tx, copies_rx) = unbounded::<CopyJob>();
        {
            let shared = Arc::clone(&shared);
            let disk_ids = Arc::clone(&disk_ids);
            handles.push(std::thread::spawn(move || {
                run_copier(shared, disk_ids, copies_rx)
            }));
        }

        // Coordinator reader (with reconnection).
        {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let cfg = cfg.clone();
            let disk_ids = Arc::clone(&disk_ids);
            let events_tx = events_tx.clone();
            let wedged = Arc::clone(&wedged);
            handles.push(std::thread::spawn(move || {
                coordinator_loop(
                    shared, cfg, conn, msu_id, disk_ids, events_tx, copies_tx, stop, wedged,
                )
            }));
        }

        Ok(MsuServer {
            shared,
            stop,
            msu_id,
            disk_ids,
            handles,
            fault_controls,
            wedged,
            blackhole,
        })
    }

    /// This MSU's Coordinator-assigned identity.
    pub fn id(&self) -> MsuId {
        self.msu_id
    }

    /// Global ids of the local disks (parallel to the config order).
    pub fn disk_ids(&self) -> Vec<DiskId> {
        self.disk_ids.lock().clone()
    }

    /// Number of live streams.
    pub fn stream_count(&self) -> usize {
        self.shared.registry.lock().len()
    }

    /// This MSU's metrics (counters like `msu.io_errors`).
    pub fn metrics(&self) -> &MsuMetrics {
        &self.shared.metrics
    }

    /// This MSU's flight recorder (tests inspect recorded events).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
    }

    /// The runtime fault handle for local disk `disk` (config order).
    /// `None` when that disk's spec armed no fault plan.
    pub fn fault_control(&self, disk: usize) -> Option<Arc<FaultControl>> {
        self.fault_controls.get(disk).and_then(Option::clone)
    }

    /// Chaos: wedges the Coordinator control loop. The TCP connection
    /// stays open but no request — including `Ping` — is read or
    /// answered again, so only the heartbeat monitor can detect the
    /// failure (a TCP break alone cannot).
    pub fn wedge_control(&self) {
        self.wedged.store(true, Ordering::Release);
    }

    /// Chaos: severs the Coordinator connection. Streams keep playing
    /// and the MSU re-registers with its previous identity (§2.2); the
    /// Coordinator sees the TCP break and marks this MSU down at once.
    pub fn drop_coord_conn(&self) {
        if let Some(conn) = self.shared.coord_conn.lock().as_ref() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Chaos: silently discards every outgoing media packet from here
    /// on. Pacing, accounting, and control traffic continue as if the
    /// network were healthy — it models a dead switch port, which only
    /// the client can notice.
    pub fn blackhole_udp(&self) {
        self.blackhole.store(true, Ordering::Release);
    }

    /// Crashes the MSU: every thread is torn down abruptly, WITHOUT the
    /// orderly `GroupEnded` / `StreamDone` farewells that
    /// [`shutdown`](Self::shutdown) sends. Clients see their control
    /// connections break and the Coordinator sees the TCP connection
    /// die — the closest safe equivalent of `kill -9`.
    pub fn crash(mut self) {
        calliope_obs::flight::unregister(&self.msu_id.to_string());
        self.stop.store(true, Ordering::Release);
        if let Some(conn) = self.shared.coord_conn.lock().take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let groups: Vec<Arc<GroupInfo>> =
            self.shared.groups.lock().drain().map(|(_, g)| g).collect();
        for g in groups {
            if let Some(conn) = g.conn.lock().stream.as_ref() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        for tx in &self.shared.disk_txs {
            let _ = tx.send(DiskCmd::Shutdown);
        }
        let _ = self.shared.net_tx.send(NetCmd::Shutdown);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Stops every thread and tears down all streams.
    pub fn shutdown(mut self) {
        calliope_obs::flight::unregister(&self.msu_id.to_string());
        self.stop.store(true, Ordering::Release);
        let groups: Vec<GroupId> = self.shared.groups.lock().keys().copied().collect();
        for g in groups {
            self.shared.finish_group(g, DoneReason::MsuShutdown);
        }
        for tx in &self.shared.disk_txs {
            let _ = tx.send(DiskCmd::Shutdown);
        }
        let _ = self.shared.net_tx.send(NetCmd::Shutdown);
        if let Some(conn) = self.shared.coord_conn.lock().take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Dials the Coordinator and performs the registration handshake.
fn register(
    cfg: &MsuConfig,
    reports: &[DiskReport],
    previous: Option<MsuId>,
) -> Result<(TcpStream, MsuId, Vec<DiskId>)> {
    let mut conn = TcpStream::connect(cfg.coordinator)?;
    conn.set_nodelay(true).ok();
    let ctrl_addr = conn.local_addr()?;
    write_frame(
        &mut conn,
        &MsuEnvelope {
            req_id: 0,
            body: MsuToCoord::Register {
                ctrl_addr,
                disks: reports.to_vec(),
                previous,
            },
        },
    )?;
    let ack: Option<CoordEnvelope> = read_frame(&mut conn)?;
    match ack {
        Some(CoordEnvelope {
            body: CoordToMsu::RegisterAck { msu, disk_ids },
            ..
        }) => Ok((conn, msu, disk_ids)),
        other => Err(Error::internal(format!(
            "expected RegisterAck, got {other:?}"
        ))),
    }
}

fn run_event_loop(shared: Arc<ServerShared>, rx: Receiver<ServerEvent>, stop: Arc<AtomicBool>) {
    loop {
        let ev = match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(ev) => ev,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        };
        match ev {
            ServerEvent::Disk(DiskEvent::GroupReleased(gid)) => {
                let group = shared.groups.lock().get(&gid).cloned();
                let Some(group) = group else { continue };
                let streams: Vec<StreamId> = group.shared.members.lock().clone();
                // The group rides under its first member's trace (all
                // members were admitted together by one request).
                let trace = {
                    let reg = shared.registry.lock();
                    streams
                        .first()
                        .and_then(|s| reg.get(s))
                        .map(|i| i.shared.trace)
                        .unwrap_or_default()
                };
                shared.flight.record(
                    trace.id,
                    FlightCode::GroupReady,
                    gid.raw(),
                    streams.len() as u64,
                );
                // Pacing starts now, not at the network thread's next
                // wake; ids of recordings are ignored there.
                let _ = shared.net_tx.send(NetCmd::Wake {
                    streams: streams.clone(),
                });
                // The group-control thread may still be dialing; if so,
                // it sends the parked GroupReady when the dial lands.
                group.conn.lock().ready(MsuToClient::GroupReady {
                    group: gid,
                    streams,
                    trace,
                });
            }
            ServerEvent::Disk(DiskEvent::RecordFinished {
                stream,
                bytes,
                duration_us,
            }) => {
                let info = shared.registry.lock().get(&stream).cloned();
                if let Some(info) = info {
                    let reason = info
                        .quit_reason
                        .lock()
                        .clone()
                        .unwrap_or(DoneReason::Completed);
                    let gid = info.shared.group;
                    shared.finish_stream(&info, reason.clone(), bytes, duration_us);
                    maybe_end_group(&shared, gid, reason);
                }
            }
            ServerEvent::Disk(DiskEvent::StreamFailed { stream, msg }) => {
                let info = shared.registry.lock().get(&stream).cloned();
                if let Some(info) = info {
                    shared.metrics.io_errors.inc();
                    shared.flight.record(
                        info.shared.trace.id,
                        FlightCode::IoError,
                        stream.raw(),
                        info.shared.disk as u64,
                    );
                    let gid = info.shared.group;
                    // IoError (not a generic Error) tells the
                    // Coordinator this stream is a failover candidate.
                    let reason = DoneReason::IoError(msg);
                    shared.finish_stream(&info, reason.clone(), 0, 0);
                    maybe_end_group(&shared, gid, reason);
                    // A disk failure is exactly what the flight recorder
                    // exists for: dump unconditionally, no env vars.
                    shared.flight.dump("msu", "stream io error");
                }
            }
            ServerEvent::Net(NetEvent::PlayFinished { stream }) => {
                let info = shared.registry.lock().get(&stream).cloned();
                if let Some(info) = info {
                    // relaxed: progress polling; staleness only
                    // delays completion detection by one tick.
                    let bytes = info.shared.stats.bytes.load(Ordering::Relaxed);
                    let duration = info.shared.ctl.lock().file.duration_us;
                    let gid = info.shared.group;
                    shared.finish_stream(&info, DoneReason::Completed, bytes, duration);
                    maybe_end_group(&shared, gid, DoneReason::Completed);
                }
            }
        }
    }
}

/// Sends `GroupEnded` and drops the group once its last member is gone.
fn maybe_end_group(shared: &ServerShared, gid: GroupId, reason: DoneReason) {
    let empty = !shared
        .registry
        .lock()
        .values()
        .any(|i| i.shared.group == gid);
    if empty {
        if let Some(group) = shared.groups.lock().remove(&gid) {
            group
                .conn
                .lock()
                .end(&MsuToClient::GroupEnded { group: gid, reason });
        }
    }
}

/// Reads Coordinator requests, reconnecting (and re-registering with
/// the previous identity) after connection loss.
#[allow(clippy::too_many_arguments)]
fn coordinator_loop(
    shared: Arc<ServerShared>,
    cfg: MsuConfig,
    mut conn: TcpStream,
    msu_id: MsuId,
    disk_ids: Arc<Mutex<Vec<DiskId>>>,
    events_tx: Sender<ServerEvent>,
    copies: Sender<CopyJob>,
    stop: Arc<AtomicBool>,
    wedged: Arc<AtomicBool>,
) {
    conn.set_read_timeout(Some(Duration::from_millis(200))).ok();
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Wedged (chaos): keep the connection open but stop serving.
        if wedged.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let env: Option<CoordEnvelope> = match read_frame(&mut conn) {
            Ok(env) => env,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => None,
        };
        let Some(env) = env else {
            // Connection lost. Streams keep playing; re-register when the
            // Coordinator returns (paper §2.2).
            *shared.coord_conn.lock() = None;
            loop {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(500));
                // Free-space figures may have changed; re-stat the disks.
                let reports: Vec<DiskReport> = (0..shared.disk_txs.len())
                    .map(|d| {
                        let free = shared
                            .disk_rpc(d, |reply| DiskCmd::FreeBytes { reply })
                            .unwrap_or(0);
                        DiskReport {
                            capacity_bytes: 0,
                            free_bytes: free,
                            bandwidth: ByteRate::from_bytes_per_sec(REPORTED_DISK_BANDWIDTH),
                        }
                    })
                    .collect();
                match register(&cfg, &reports, Some(msu_id)) {
                    Ok((new_conn, id, ids)) => {
                        debug_assert_eq!(id, msu_id, "coordinator must restore our identity");
                        if let Ok(clone) = new_conn.try_clone() {
                            *shared.coord_conn.lock() = Some(clone);
                        }
                        *disk_ids.lock() = ids;
                        conn = new_conn;
                        conn.set_read_timeout(Some(Duration::from_millis(200))).ok();
                        break;
                    }
                    Err(_) => continue,
                }
            }
            continue;
        };

        let reply = handle_coord_request(
            &shared, &cfg, &disk_ids, &events_tx, &copies, msu_id, env.req_id, env.body,
        );
        match reply {
            Some(body) => shared.send_to_coord(&MsuEnvelope {
                req_id: env.req_id,
                body,
            }),
            None => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn local_disk(disk_ids: &Mutex<Vec<DiskId>>, id: DiskId) -> Result<usize> {
    disk_ids
        .lock()
        .iter()
        .position(|d| *d == id)
        .ok_or_else(|| Error::Disk {
            disk: id,
            msg: "not a local disk".into(),
        })
}

#[allow(clippy::too_many_arguments)]
fn handle_coord_request(
    shared: &Arc<ServerShared>,
    cfg: &MsuConfig,
    disk_ids: &Arc<Mutex<Vec<DiskId>>>,
    events_tx: &Sender<ServerEvent>,
    copies: &Sender<CopyJob>,
    msu_id: MsuId,
    req_id: u64,
    body: CoordToMsu,
) -> Option<MsuToCoord> {
    match body {
        CoordToMsu::RegisterAck { .. } => None, // handshake artifact; ignore
        // The Pong piggybacks a full stats snapshot, feeding the
        // Coordinator's cluster view at heartbeat cost — no extra RPC.
        CoordToMsu::Ping => Some(MsuToCoord::Pong {
            snapshot: Some(shared.snapshot_stats(&msu_id.to_string())),
        }),
        CoordToMsu::GetStats => Some(MsuToCoord::Stats {
            snapshot: shared.snapshot_stats(&msu_id.to_string()),
        }),
        // A copy can take seconds; the copier thread runs it and replies
        // under `req_id`, so this reader keeps answering Pings meanwhile.
        CoordToMsu::CopyFile {
            src_disk,
            dst_disk,
            file,
        } => copies
            .send(CopyJob {
                req_id,
                src_disk,
                dst_disk,
                file,
            })
            .err()
            .map(|_| MsuToCoord::FileCopied {
                error: Some("the copier thread is gone".into()),
            }),
        CoordToMsu::DeleteFile { disk, file } => {
            let error = (|| -> Result<()> {
                let local = local_disk(disk_ids, disk)?;
                let deleted: Result<()> =
                    shared.disk_rpc(local, |reply| DiskCmd::Delete { name: file, reply })?;
                deleted
            })()
            .err()
            .map(|e| e.to_string());
            Some(MsuToCoord::FileDeleted { error })
        }
        CoordToMsu::Shutdown => {
            shared.stop.store(true, Ordering::Release);
            None
        }
        CoordToMsu::Cancel { stream } => {
            let info = shared.registry.lock().get(&stream).cloned();
            if let Some(info) = info {
                shared
                    .flight
                    .record(info.shared.trace.id, FlightCode::Cancel, stream.raw(), 0);
                *info.quit_reason.lock() = Some(DoneReason::Cancelled);
                let gid = info.shared.group;
                shared.finish_stream(&info, DoneReason::Cancelled, 0, 0);
                maybe_end_group(shared, gid, DoneReason::Cancelled);
            }
            None
        }
        CoordToMsu::ScheduleRead {
            stream,
            group,
            group_size,
            disk,
            file,
            protocol: _,
            pacing,
            client_data,
            client_ctrl,
            trick,
            trace,
        } => {
            let error = schedule_read(
                shared,
                disk_ids,
                stream,
                group,
                group_size,
                disk,
                file,
                pacing,
                client_data,
                client_ctrl,
                trick,
                trace,
            )
            .err()
            .map(|e| e.to_string());
            Some(MsuToCoord::ReadScheduled { error })
        }
        CoordToMsu::ScheduleWrite {
            stream,
            group,
            group_size,
            disk,
            file,
            protocol,
            est_bytes,
            stores_schedule,
            cbr_rate,
            client_ctrl,
            trace,
        } => match schedule_write(
            shared,
            cfg,
            disk_ids,
            events_tx,
            stream,
            group,
            group_size,
            disk,
            file,
            protocol,
            est_bytes,
            stores_schedule,
            cbr_rate,
            client_ctrl,
            trace,
        ) {
            Ok(sink) => Some(MsuToCoord::WriteScheduled {
                udp_sink: Some(sink),
                error: None,
            }),
            Err(e) => Some(MsuToCoord::WriteScheduled {
                udp_sink: None,
                error: Some(e.to_string()),
            }),
        },
    }
}

/// Finds or creates the group entry, spawning its client-control thread
/// on first sight.
fn group_entry(
    shared: &Arc<ServerShared>,
    group: GroupId,
    group_size: u32,
    client_ctrl: SocketAddr,
) -> Arc<GroupInfo> {
    let mut groups = shared.groups.lock();
    if let Some(g) = groups.get(&group) {
        return Arc::clone(g);
    }
    let info = Arc::new(GroupInfo {
        shared: GroupShared::new(group, group_size),
        client_ctrl,
        conn: Mutex::new(Default::default()),
    });
    groups.insert(group, Arc::clone(&info));
    let shared2 = Arc::clone(shared);
    let info2 = Arc::clone(&info);
    std::thread::spawn(move || run_group_ctrl(shared2, info2, group));
    info
}

/// A `CopyFile` request on its way from the Coordinator reader to the
/// copier thread, with the id its `FileCopied` reply must carry.
struct CopyJob {
    req_id: u64,
    src_disk: DiskId,
    dst_disk: DiskId,
    file: String,
}

/// The copier thread: runs replication copies one at a time and answers
/// each under its request id. The Coordinator routes replies by id, so
/// a `FileCopied` may arrive after the replies to later requests.
fn run_copier(
    shared: Arc<ServerShared>,
    disk_ids: Arc<Mutex<Vec<DiskId>>>,
    jobs: Receiver<CopyJob>,
) {
    for job in jobs {
        let error = copy_file(&shared, &disk_ids, job.src_disk, job.dst_disk, &job.file)
            .err()
            .map(|e| e.to_string());
        shared.send_to_coord(&MsuEnvelope {
            req_id: job.req_id,
            body: MsuToCoord::FileCopied { error },
        });
    }
}

/// Copies a file between two local disks through the disk threads'
/// RPCs — the replication mechanism of paper §2.3.3. The source is read
/// [`COPY_CHUNK_PAGES`] pages per command, each chunk in as few
/// transfers as the file's layout allows. A copy that fails after
/// creating its destination deletes it again, so the reservation is
/// returned and a retry starts clean.
fn copy_file(
    shared: &Arc<ServerShared>,
    disk_ids: &Arc<Mutex<Vec<DiskId>>>,
    src_disk: DiskId,
    dst_disk: DiskId,
    file: &str,
) -> Result<()> {
    if src_disk == dst_disk {
        return Err(Error::Disk {
            disk: dst_disk,
            msg: "source and destination are the same disk".into(),
        });
    }
    let src = local_disk(disk_ids, src_disk)?;
    let dst = local_disk(disk_ids, dst_disk)?;
    let meta: ActiveFile = shared.disk_rpc(src, |reply| DiskCmd::Stat {
        name: file.to_owned(),
        reply,
    })??;
    let created: Result<()> = shared.disk_rpc(dst, |reply| DiskCmd::Create {
        name: file.to_owned(),
        kind: meta.kind,
        reserve_bytes: meta.pages * BLOCK_SIZE as u64,
        reply,
    })?;
    created?;
    let copied = copy_pages(shared, src, dst, &meta);
    if copied.is_err() {
        // Best effort: the copy's own error is what the caller needs.
        let _ = shared.disk_rpc(dst, |reply| DiskCmd::Delete {
            name: file.to_owned(),
            reply,
        });
    }
    copied
}

/// Appends every page of `meta` from disk `src` to the file of the same
/// name just created on disk `dst`, then finalizes it.
fn copy_pages(shared: &ServerShared, src: usize, dst: usize, meta: &ActiveFile) -> Result<()> {
    let file = &meta.name;
    let mut remaining = meta.len_bytes;
    let mut first = 0;
    while first < meta.pages {
        let count = COPY_CHUNK_PAGES.min(meta.pages - first);
        let chunk: Result<Vec<Vec<u8>>> = shared.disk_rpc(src, |reply| DiskCmd::ReadPages {
            name: file.clone(),
            first,
            count,
            reply,
        })?;
        for data in chunk? {
            // `len_bytes` accounting: raw files split it across pages;
            // for IB-tree files the per-page attribution is irrelevant
            // (pages are parsed whole), so the running remainder works
            // for both.
            let payload = remaining.min(match meta.kind {
                FileKind::Raw => BLOCK_SIZE as u64,
                FileKind::IbTree => remaining,
            });
            remaining -= payload;
            let appended: Result<u64> = shared.disk_rpc(dst, |reply| DiskCmd::AppendPage {
                name: file.clone(),
                data,
                payload_bytes: payload,
                reply,
            })?;
            appended?;
        }
        first += count;
    }
    let finalized: Result<()> = shared.disk_rpc(dst, |reply| DiskCmd::Finalize {
        name: file.clone(),
        duration_us: meta.duration_us,
        // Root entries are file-relative page indices: valid verbatim.
        root: meta.root.clone(),
        reply,
    })?;
    finalized
}

#[allow(clippy::too_many_arguments)]
fn schedule_read(
    shared: &Arc<ServerShared>,
    disk_ids: &Arc<Mutex<Vec<DiskId>>>,
    stream: StreamId,
    group: GroupId,
    group_size: u32,
    disk: DiskId,
    file: String,
    pacing: PacingSpec,
    client_data: SocketAddr,
    client_ctrl: SocketAddr,
    trick: Option<TrickFiles>,
    trace: TraceCtx,
) -> Result<()> {
    let local = local_disk(disk_ids, disk)?;
    let active: ActiveFile = shared.disk_rpc(local, |reply| DiskCmd::Stat {
        name: file.clone(),
        reply,
    })??;
    // The pacing spec must match the file's shape.
    let schedule = match (&pacing, active.kind) {
        (PacingSpec::Constant { rate, packet_bytes }, FileKind::Raw) => {
            Some(CbrSchedule::new(*rate, *packet_bytes))
        }
        (PacingSpec::Stored, FileKind::IbTree) => None,
        _ => {
            return Err(Error::Protocol {
                msg: format!(
                    "pacing {pacing:?} does not match file kind {:?}",
                    active.kind
                ),
            })
        }
    };

    let ginfo = group_entry(shared, group, group_size, client_ctrl);
    ginfo.shared.members.lock().push(stream);

    let stream_shared = Arc::new(StreamShared {
        id: stream,
        group,
        disk: local,
        trace,
        ctl: Mutex::new(StreamCtl {
            phase: StreamPhase::Priming,
            gen: 0,
            mode: TrickMode::Normal,
            eof: active.pages == 0,
            next_page: 0,
            pending_skip: 0,
            skip_until_us: 0,
            start_seq: 0,
            pacer: crate::pacer::Pacer::new(),
            file: active,
        }),
        stats: Default::default(),
    });

    // Four slots: two in flight for double buffering plus slack for the
    // disk thread's elevator read-ahead (MAX_READ_AHEAD pages per cycle).
    // Pops wake the disk thread, and every push may end the pacer's
    // wait for data.
    let disk_bell = Arc::clone(&shared.disk_bells[local]);
    let net_bell = net::doorbell(&shared.net_tx, stream);
    let bells = spsc::Bells {
        slack: Some(Arc::clone(&disk_bell)),
        data: Some((Arc::clone(&net_bell), 1)),
    };
    let (producer, consumer) = spsc::ring_with_bells(4, bells);
    shared.disk_txs[local]
        .send(DiskCmd::AddRead {
            shared: Arc::clone(&stream_shared),
            group: Arc::clone(&ginfo.shared),
            producer,
            bell: disk_bell,
            schedule,
            trick: TrickNames {
                fast_forward: trick.as_ref().map(|t| t.fast_forward.clone()),
                fast_backward: trick.as_ref().map(|t| t.fast_backward.clone()),
            },
        })
        .map_err(|_| Error::internal("disk thread gone"))?;
    shared
        .net_tx
        .send(NetCmd::AddPlay {
            shared: Arc::clone(&stream_shared),
            group: Arc::clone(&ginfo.shared),
            consumer,
            bell: net_bell,
            dest: client_data,
            pacing,
            geometry: Geometry::paper(),
        })
        .map_err(|_| Error::internal("net thread gone"))?;

    let live = {
        let mut reg = shared.registry.lock();
        reg.insert(
            stream,
            Arc::new(StreamInfo {
                shared: stream_shared,
                group: ginfo.shared.clone(),
                disk: local,
                is_record: false,
                record_stop: None,
                quit_reason: Mutex::new(None),
                done_sent: AtomicBool::new(false),
            }),
        );
        reg.len()
    };
    shared.metrics.streams_active.set(live as u64);
    shared
        .flight
        .record(trace.id, FlightCode::Schedule, stream.raw(), local as u64);
    tracing::info!(
        "play: {stream} ({group}) reading {file:?} from disk {local} to {client_data} [{trace}]"
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn schedule_write(
    shared: &Arc<ServerShared>,
    cfg: &MsuConfig,
    disk_ids: &Arc<Mutex<Vec<DiskId>>>,
    events_tx: &Sender<ServerEvent>,
    stream: StreamId,
    group: GroupId,
    group_size: u32,
    disk: DiskId,
    file: String,
    protocol: calliope_types::content::ProtocolId,
    est_bytes: u64,
    stores_schedule: bool,
    cbr_rate: Option<calliope_types::time::BitRate>,
    client_ctrl: SocketAddr,
    trace: TraceCtx,
) -> Result<SocketAddr> {
    let local = local_disk(disk_ids, disk)?;
    let kind = if stores_schedule {
        FileKind::IbTree
    } else {
        FileKind::Raw
    };
    let created: Result<()> = shared.disk_rpc(local, |reply| DiskCmd::Create {
        name: file.clone(),
        kind,
        reserve_bytes: est_bytes,
        reply,
    })?;
    created?;

    let sink = UdpSocket::bind((cfg.bind_ip, 0))?;
    let sink_addr = sink.local_addr()?;

    let ginfo = group_entry(shared, group, group_size, client_ctrl);
    ginfo.shared.members.lock().push(stream);

    let stream_shared = Arc::new(StreamShared {
        id: stream,
        group,
        disk: local,
        trace,
        ctl: Mutex::new(StreamCtl {
            phase: StreamPhase::Running,
            gen: 0,
            mode: TrickMode::Normal,
            eof: false,
            next_page: 0,
            pending_skip: 0,
            skip_until_us: 0,
            start_seq: 0,
            pacer: crate::pacer::Pacer::new(),
            file: ActiveFile {
                name: file,
                kind,
                pages: 0,
                len_bytes: 0,
                root: Vec::new(),
                duration_us: 0,
            },
        }),
        stats: Default::default(),
    });

    let disk_bell = Arc::clone(&shared.disk_bells[local]);
    let bells = spsc::Bells {
        data: Some((Arc::clone(&disk_bell), disk::WRITE_BATCH)),
        slack: None,
    };
    let (producer, consumer) = spsc::ring_with_bells(256, bells);
    shared.disk_txs[local]
        .send(DiskCmd::AddWrite {
            shared: Arc::clone(&stream_shared),
            consumer,
            bell: disk_bell,
            stores_schedule,
            cbr_rate,
        })
        .map_err(|_| Error::internal("disk thread gone"))?;

    let stop = Arc::new(AtomicBool::new(false));
    let module = proto_registry(protocol, cbr_rate);
    net::spawn_record_receiver(
        sink,
        Arc::clone(&stream_shared),
        module,
        producer,
        Arc::clone(&stop),
        Arc::clone(&shared.metrics),
    );

    let live = {
        let mut reg = shared.registry.lock();
        reg.insert(
            stream,
            Arc::new(StreamInfo {
                shared: stream_shared,
                group: ginfo.shared.clone(),
                disk: local,
                is_record: true,
                record_stop: Some(stop),
                quit_reason: Mutex::new(None),
                done_sent: AtomicBool::new(false),
            }),
        );
        reg.len()
    };
    shared.metrics.streams_active.set(live as u64);
    shared
        .flight
        .record(trace.id, FlightCode::Schedule, stream.raw(), local as u64);
    tracing::info!("record: {stream} ({group}) to disk {local}, sink {sink_addr} [{trace}]");

    // A recording is "primed" as soon as its sink exists.
    if ginfo.shared.prime(stream) {
        let _ = events_tx.send(ServerEvent::Disk(DiskEvent::GroupReleased(group)));
    }
    Ok(sink_addr)
}
