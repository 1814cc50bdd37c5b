//! The Coordinator server.
//!
//! Two listeners: one for clients (sessions implementing the §2.1
//! interface) and one for MSUs (registration + scheduling RPCs).
//! "For very small installations, the Coordinator and MSU software may
//! run on the same machine" — both listeners bind loopback-friendly
//! ephemeral ports by default, so tests and examples run everything in
//! one process.

use crate::db::{AdminDb, Component, ContentRecord, ContentStatus, Location};
use crate::rpc::MsuConns;
use crate::sched::Scheduler;
use crate::stats::CoordStats;
use calliope_obs::{FlightCode, FlightRecorder};
use calliope_types::content::{ContentKind, ContentTypeSpec, TypeBody};
use calliope_types::error::{Error, Result};
use calliope_types::ids::IdAllocator;
use calliope_types::wire::messages::{
    ClientRequest, CoordReply, CoordToMsu, DiskStatus, DoneReason, MsuEnvelope, MsuStatus,
    MsuToCoord, PacingSpec, RecordStart, StreamStart, TrickFiles,
};
use calliope_types::wire::stats::{HistBucket, MetricEntry, MetricValue, StatsSnapshot};
use calliope_types::wire::{read_frame, write_frame, Wire};
use calliope_types::{DiskId, GroupId, MsuId, SessionId, SpanKind, StreamId, TraceCtx};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// IP to bind both listeners on.
    pub bind_ip: IpAddr,
    /// Client port (0 = ephemeral).
    pub client_port: u16,
    /// MSU (intra-server) port (0 = ephemeral).
    pub msu_port: u16,
    /// How often the heartbeat monitor pings each MSU. A TCP break
    /// still marks an MSU down instantly; the heartbeat catches the
    /// *wedged* MSU whose connection stays open but which stopped
    /// serving. [`Duration::ZERO`] disables the monitor.
    pub heartbeat_interval: Duration,
    /// Consecutive missed beats before an MSU is declared down.
    pub heartbeat_misses: u32,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            bind_ip: IpAddr::V4(Ipv4Addr::LOCALHOST),
            client_port: 0,
            msu_port: 0,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_misses: 3,
        }
    }
}

/// A display port registered in a session.
#[derive(Clone, Debug)]
enum Port {
    Atomic {
        type_name: String,
        data_addr: SocketAddr,
        ctrl_addr: SocketAddr,
    },
    Composite {
        type_name: String,
        components: Vec<String>,
    },
}

/// Tracks an in-progress recording component.
struct RecordTrack {
    content: String,
    component: usize,
}

/// Everything needed to re-admit a playback stream on a replica after
/// its disk or MSU fails.
#[derive(Clone)]
struct PlayTrack {
    content: String,
    component: usize,
    group: GroupId,
    client_data: SocketAddr,
    client_ctrl: SocketAddr,
    /// Bandwidth reserved for the stream, bytes/s.
    bw: u64,
    trick: Option<TrickFiles>,
    /// The trace minted at admission. A failover re-admission keeps the
    /// id (so one grep follows the stream across MSUs) but switches the
    /// span kind to [`SpanKind::Failover`].
    trace: TraceCtx,
    /// Locations that already failed for this stream; a `None` disk
    /// means the whole MSU. Never retried.
    failed: Vec<(MsuId, Option<DiskId>)>,
}

struct Inner {
    db: Mutex<AdminDb>,
    sched: Scheduler,
    conns: MsuConns,
    stats: CoordStats,
    ids: IdAllocator,
    recordings: Mutex<HashMap<StreamId, RecordTrack>>,
    /// Remaining components per recording content.
    record_remaining: Mutex<HashMap<String, usize>>,
    /// Live playback streams, kept so a failed one can be re-admitted
    /// on a replica (paper §2.2 fault tolerance).
    plays: Mutex<HashMap<StreamId, PlayTrack>>,
    /// Serializes grant retirement between the MSU reaper ([`fail_msu`])
    /// and the `StreamDone` teardown path: a late `StreamDone` must
    /// never release the grant of a stream the reaper already failed
    /// over (that grant belongs to the stream's new home).
    failures: Mutex<()>,
    /// Next trace id. Starts at 1: id 0 is the untraced sentinel.
    trace_ids: AtomicU64,
    /// Latest stats snapshot from each MSU, piggybacked on heartbeat
    /// `Pong`s. `ClusterStats` serves from this cache so it never
    /// blocks a client on an MSU round trip.
    cluster: Mutex<HashMap<MsuId, StatsSnapshot>>,
    /// Always-on flight recorder for the control plane; dumped on
    /// `fail_msu`, stream I/O errors, panics, and `SIGUSR1`.
    flight: Arc<FlightRecorder>,
    stop: AtomicBool,
    /// Notified at shutdown so the heartbeat loop's interval wait ends
    /// at once instead of polling `stop`.
    stop_signal: (std::sync::Mutex<()>, std::sync::Condvar),
}

/// Mints a fresh end-to-end trace context.
fn mint_trace(inner: &Inner, kind: SpanKind) -> TraceCtx {
    // relaxed: trace ids only need to be unique; they order nothing.
    TraceCtx::new(inner.trace_ids.fetch_add(1, Ordering::Relaxed), kind)
}

/// A running Coordinator.
pub struct CoordServer {
    inner: Arc<Inner>,
    /// Where clients connect.
    pub client_addr: SocketAddr,
    /// Where MSUs register.
    pub msu_addr: SocketAddr,
    handles: Vec<JoinHandle<()>>,
}

impl CoordServer {
    /// Starts the Coordinator and both listeners.
    pub fn start(cfg: CoordConfig) -> Result<CoordServer> {
        let client_listener = TcpListener::bind((cfg.bind_ip, cfg.client_port))?;
        let msu_listener = TcpListener::bind((cfg.bind_ip, cfg.msu_port))?;
        let client_addr = client_listener.local_addr()?;
        let msu_addr = msu_listener.local_addr()?;

        let stats = CoordStats::new();
        let flight = Arc::new(
            FlightRecorder::from_env()
                .with_dropped_counter(stats.registry.counter("obs.flight_dropped")),
        );
        calliope_obs::flight::register("coord", Arc::clone(&flight));
        let inner = Arc::new(Inner {
            db: Mutex::new(AdminDb::with_builtin_types()),
            sched: Scheduler::new(),
            conns: MsuConns::new(),
            stats,
            ids: IdAllocator::new(),
            recordings: Mutex::new(HashMap::new()),
            record_remaining: Mutex::new(HashMap::new()),
            plays: Mutex::new(HashMap::new()),
            failures: Mutex::new(()),
            trace_ids: AtomicU64::new(1),
            cluster: Mutex::new(HashMap::new()),
            flight,
            stop: AtomicBool::new(false),
            stop_signal: Default::default(),
        });

        let mut handles = Vec::new();
        {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || accept_msus(inner, msu_listener)));
        }
        {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || {
                accept_clients(inner, client_listener)
            }));
        }
        if cfg.heartbeat_interval > Duration::ZERO {
            let inner = Arc::clone(&inner);
            let (interval, misses) = (cfg.heartbeat_interval, cfg.heartbeat_misses.max(1));
            handles.push(std::thread::spawn(move || {
                heartbeat_loop(&inner, interval, misses)
            }));
        }

        Ok(CoordServer {
            inner,
            client_addr,
            msu_addr,
            handles,
        })
    }

    /// Load statistics (for the §3.3 experiment).
    pub fn stats(&self) -> &CoordStats {
        &self.inner.stats
    }

    /// The control plane's flight recorder (post-mortem assertions and
    /// operator dumps read it through here).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.inner.flight
    }

    /// Number of registered-and-reachable MSUs.
    pub fn msu_count(&self) -> usize {
        self.inner.conns.len()
    }

    /// Number of live resource grants (≈ active streams).
    pub fn active_streams(&self) -> usize {
        self.inner.sched.grant_count()
    }

    /// Stops the listeners (existing sessions drain on their own).
    pub fn shutdown(mut self) {
        calliope_obs::flight::unregister("coord");
        self.inner.stop.store(true, Ordering::Release);
        {
            // Taken so the notify cannot fall between the heartbeat
            // loop's `stop` check and its wait.
            let (lock, cv) = &self.inner.stop_signal;
            let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
            cv.notify_all();
        }
        // Poke the listeners so `accept` returns.
        let _ = TcpStream::connect(self.client_addr);
        let _ = TcpStream::connect(self.msu_addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// MSU side
// ---------------------------------------------------------------------

fn accept_msus(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || msu_connection(inner, stream));
    }
}

fn msu_connection(inner: Arc<Inner>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    // First frame must be Register.
    let env: Option<MsuEnvelope> = match read_frame(&mut stream) {
        Ok(e) => e,
        Err(_) => return,
    };
    let Some(MsuEnvelope {
        body:
            MsuToCoord::Register {
                ctrl_addr,
                disks,
                previous,
            },
        ..
    }) = env
    else {
        return;
    };
    let started = Instant::now();

    // Identity: restore the previous one after a crash, else allocate.
    let msu: MsuId = match previous {
        Some(prev) if inner.sched.msu(prev).is_some() => prev,
        Some(_) | None => inner.ids.next(),
    };
    // Disk ids: reuse the prior assignment when the disk count matches.
    let prior = inner.sched.msu(msu).map(|m| m.disks).unwrap_or_default();
    let disk_ids: Vec<DiskId> = if prior.len() == disks.len() {
        prior
    } else {
        disks.iter().map(|_| inner.ids.next()).collect()
    };
    let reports: Vec<(DiskId, u64, u64, calliope_types::time::ByteRate)> = disk_ids
        .iter()
        .zip(&disks)
        .map(|(id, r)| (*id, r.capacity_bytes, r.free_bytes, r.bandwidth))
        .collect();
    inner.sched.register_msu(msu, ctrl_addr, &reports);

    let conn = match stream.try_clone() {
        Ok(w) => inner.conns.install(msu, w),
        Err(_) => return,
    };
    {
        let mut w = conn.writer.lock();
        if write_frame(
            &mut *w,
            &calliope_types::wire::messages::CoordEnvelope {
                req_id: 0,
                body: CoordToMsu::RegisterAck {
                    msu,
                    disk_ids: disk_ids.clone(),
                },
            },
        )
        .is_err()
        {
            fail_msu(&inner, msu);
            return;
        }
    }
    inner.stats.note_busy(started.elapsed());
    tracing::info!(
        "register: {msu} up with {} disks at {ctrl_addr}",
        disk_ids.len()
    );

    // Read loop.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let env: Option<MsuEnvelope> = match read_frame(&mut stream) {
            Ok(e) => e,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => None,
        };
        let Some(env) = env else {
            // "The Coordinator detects when one of the MSUs fails by a
            // break in the TCP connection." (§2.2)
            tracing::warn!("{msu} connection broke; marked down");
            fail_msu(&inner, msu);
            return;
        };
        inner.stats.note_bytes(env.to_bytes().len() + 4);
        if let Some(unsolicited) = inner.conns.route(msu, env.req_id, env.body) {
            // Handled off this thread: an `IoError` teardown may fail
            // the stream over with an RPC to this very MSU (its other
            // disk holds the replica), and only this reader thread can
            // route that RPC's reply.
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let t = Instant::now();
                handle_msu_notification(&inner, msu, unsolicited);
                inner.stats.note_busy(t.elapsed());
            });
        }
    }
}

/// The single failure path for an MSU: drop its connection (fast-
/// failing in-flight RPCs), reap every grant it held, abandon its
/// recordings, and try to move its playback streams to live replicas.
/// Idempotent — the TCP-break detector and the heartbeat monitor both
/// funnel through here.
fn fail_msu(inner: &Inner, msu: MsuId) {
    inner.conns.remove(msu);
    inner.cluster.lock().remove(&msu);
    let _order = inner.failures.lock();
    let reaped = inner.sched.mark_down(msu);
    inner
        .flight
        .record(0, FlightCode::FailMsu, msu.raw(), reaped.len() as u64);
    if reaped.is_empty() {
        return;
    }
    inner.stats.grants_reaped.add(reaped.len() as u64);
    tracing::warn!("{msu} down: reaped {} grant(s)", reaped.len());
    for (stream, _) in reaped {
        let rec = inner.recordings.lock().remove(&stream);
        if let Some(rec) = rec {
            // A partial recording is unrecoverable garbage: drop the
            // catalog entry so the name can be reused. (The blocks on
            // the dead MSU are reclaimed when it reformats or the
            // content name is re-recorded over them.)
            inner.record_remaining.lock().remove(&rec.content);
            let _ = inner.db.lock().remove_content(&rec.content);
            tracing::warn!("recording {:?} lost with {msu}", rec.content);
        } else if !fail_over(inner, stream, msu, None) {
            tracing::warn!("{stream} lost with {msu}");
        }
    }
    // The post-mortem: everything above (admissions, schedules, the
    // FailMsu event, any Failover re-admissions) in one dump, with no
    // logging configured.
    inner.flight.dump("coord", "fail_msu");
}

/// Pings every connected MSU once per `interval`; `max_misses`
/// consecutive unanswered probes fail the MSU. This is the detector for
/// *wedged* MSUs — process alive, TCP connection open, control loop
/// stuck — which the §2.2 TCP-break detector cannot see.
fn heartbeat_loop(inner: &Arc<Inner>, interval: Duration, max_misses: u32) {
    let mut misses: HashMap<MsuId, u32> = HashMap::new();
    loop {
        // Sleep one whole interval; shutdown notifies the condvar, so
        // it stays prompt without waking to poll.
        {
            let (lock, cv) = &inner.stop_signal;
            let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
            let _ = cv.wait_timeout_while(guard, interval, |_| !inner.stop.load(Ordering::Acquire));
        }
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        for msu in inner.conns.ids() {
            if inner.stop.load(Ordering::Acquire) {
                return;
            }
            match inner
                .conns
                .rpc_with_timeout(msu, CoordToMsu::Ping, interval)
            {
                Ok(reply) => {
                    misses.remove(&msu);
                    // An MSU piggybacks its stats snapshot on the Pong;
                    // fold it into the cluster view so `ClusterStats`
                    // answers without another round trip.
                    if let MsuToCoord::Pong {
                        snapshot: Some(snapshot),
                    } = reply
                    {
                        inner.stats.snapshots_merged.inc();
                        inner.flight.record(
                            0,
                            FlightCode::SnapshotMerged,
                            msu.raw(),
                            snapshot.metrics.len() as u64,
                        );
                        inner.cluster.lock().insert(msu, snapshot);
                    }
                }
                Err(_) => {
                    inner.stats.heartbeat_misses.inc();
                    let m = misses.entry(msu).or_insert(0);
                    *m += 1;
                    inner
                        .flight
                        .record(0, FlightCode::HeartbeatMiss, msu.raw(), *m as u64);
                    tracing::warn!("heartbeat: {msu} missed beat {m} of {max_misses}");
                    if *m >= max_misses {
                        misses.remove(&msu);
                        fail_msu(inner, msu);
                    }
                }
            }
        }
    }
}

/// Re-admits a playback stream on a live replica after its disk or MSU
/// failed (`failed_disk` of `None` condemns every disk of `failed_msu`).
/// The stream and group ids are reused, so the replacement MSU dials
/// the same client control listener and the client resumes on the new
/// connection; playback restarts from the beginning of the title (the
/// control protocol carries no resume offset). Returns true if a
/// replica took the stream over.
fn fail_over(
    inner: &Inner,
    stream: StreamId,
    failed_msu: MsuId,
    failed_disk: Option<DiskId>,
) -> bool {
    let track = {
        let mut plays = inner.plays.lock();
        let Some(t) = plays.get_mut(&stream) else {
            return false;
        };
        t.failed.push((failed_msu, failed_disk));
        t.clone()
    };
    let gone = |why: &str| {
        tracing::warn!("failover: {stream} ({:?}) abandoned: {why}", track.content);
        inner.plays.lock().remove(&stream);
        false
    };
    // Replicas still believed healthy.
    let (locations, spec) = {
        let db = inner.db.lock();
        let Ok(rec) = db.content(&track.content) else {
            return gone("content deleted");
        };
        let Some(comp) = rec.components.get(track.component) else {
            return gone("component vanished from the catalog");
        };
        let Ok(spec) = db.content_type(&comp.type_name) else {
            return gone("content type vanished");
        };
        (comp.locations.clone(), spec.clone())
    };
    let is_failed = |l: &Location| {
        track
            .failed
            .iter()
            .any(|(m, d)| *m == l.msu && d.is_none_or(|d| d == l.disk))
    };
    let live: Vec<Location> = locations.into_iter().filter(|l| !is_failed(l)).collect();
    if live.is_empty() {
        return gone("no live replica");
    }
    let (Ok(protocol), Ok(pacing)) = (spec.protocol(), pacing_of(&spec)) else {
        return gone("unusable type spec");
    };
    let wants: Vec<crate::sched::PlayWant> = vec![(
        stream,
        live.iter().map(|l| (l.msu, l.disk)).collect(),
        track.bw,
    )];
    // No queueing here: a failing stream either moves now or ends.
    let picks = match inner.sched.admit_play(&wants) {
        Ok(p) => p,
        Err(e) => return gone(&format!("no replica admitted ({e})")),
    };
    let (_, msu, disk) = picks[0];
    let loc = live
        .iter()
        .find(|l| l.msu == msu && l.disk == disk)
        .expect("pick came from the live-replica list");
    // Same trace id as the original admission — one grep follows the
    // stream from its first Play through the failure to the replica —
    // but the span kind flips so the re-admission is distinguishable.
    let trace = track.trace.into_failover();
    let result = inner.conns.rpc(
        msu,
        CoordToMsu::ScheduleRead {
            stream,
            group: track.group,
            // A fresh group entry on the new MSU must release without
            // waiting for siblings that are not moving with us; if the
            // old group entry survived (same-MSU disk failover), the
            // size is ignored.
            group_size: 1,
            disk,
            file: loc.file.clone(),
            protocol,
            pacing,
            client_data: track.client_data,
            client_ctrl: track.client_ctrl,
            trick: track.trick.clone(),
            trace,
        },
    );
    match result {
        Ok(MsuToCoord::ReadScheduled { error: None }) => {
            inner.stats.failovers.inc();
            inner.stats.note_stream_started();
            inner
                .flight
                .record(trace.id, FlightCode::Failover, stream.raw(), disk.raw());
            tracing::info!(
                "failover: {stream} ({:?}) resumed on {msu} disk {disk} [{trace}]",
                track.content
            );
            true
        }
        _ => {
            inner.sched.release(stream, 0);
            gone("replacement MSU refused the stream")
        }
    }
}

/// Handles an unsolicited message `from` one MSU's reader thread
/// (dispatched off that thread — see `msu_connection`).
fn handle_msu_notification(inner: &Inner, from: MsuId, msg: MsuToCoord) {
    let MsuToCoord::StreamDone {
        stream,
        reason,
        bytes,
        duration_us,
        trace,
    } = msg
    else {
        return;
    };
    let reason_tag = match &reason {
        DoneReason::Completed => 0,
        DoneReason::ClientQuit => 1,
        DoneReason::Cancelled => 2,
        DoneReason::MsuShutdown => 3,
        DoneReason::Error(_) => 4,
        DoneReason::IoError(_) => 5,
    };
    inner
        .flight
        .record(trace.id, FlightCode::StreamDone, stream.raw(), reason_tag);
    tracing::info!(
        "teardown: {stream} done ({reason:?}, {bytes} bytes, {duration_us} µs) [{trace}]"
    );
    // Recording? Finalize the catalog entry.
    let track = inner.recordings.lock().remove(&stream);
    if let Some(track) = track {
        inner.stats.note_stream_done();
        let mut db = inner.db.lock();
        if let Ok(rec) = db.content_mut(&track.content) {
            if let Some(c) = rec.components.get_mut(track.component) {
                c.bytes = bytes;
                c.duration_us = duration_us;
            }
        }
        drop(db);
        let mut remaining = inner.record_remaining.lock();
        if let Some(n) = remaining.get_mut(&track.content) {
            *n -= 1;
            if *n == 0 {
                remaining.remove(&track.content);
                if let Ok(rec) = inner.db.lock().content_mut(&track.content) {
                    rec.status = ContentStatus::Ready;
                }
            }
        }
        inner.sched.release(stream, bytes);
        return;
    }
    // Playback teardown, serialized against the MSU reaper.
    let _order = inner.failures.lock();
    let Some(res) = inner.sched.reservation_of(stream) else {
        // Already reaped by `fail_msu` (this report raced the reaper or
        // arrived from a wedged MSU after the heartbeat gave up on it).
        // The reaper owns the stream's fate — releasing here could take
        // down the grant of a successful failover.
        return;
    };
    if res.msu != from {
        // Stale report: this MSU lost the stream (the reaper already
        // moved it to a replica on another MSU while this notification
        // waited its turn). The grant belongs to the replacement now.
        tracing::debug!("{stream}: stale StreamDone from {from}; now on {}", res.msu);
        return;
    }
    inner.stats.note_stream_done();
    inner.sched.release(stream, 0);
    if let DoneReason::IoError(msg) = &reason {
        // The disk under the stream died. The grant is released; try a
        // replica before surfacing the error to the client.
        inner
            .flight
            .record(trace.id, FlightCode::IoError, stream.raw(), res.disk.raw());
        tracing::warn!("{stream} failed on {} disk {} ({msg})", res.msu, res.disk);
        let moved = fail_over(inner, stream, res.msu, Some(res.disk));
        // Dump after the failover attempt so the post-mortem includes
        // the Failover event (or its absence — the replicas ran out).
        inner.flight.dump("coord", "stream io error");
        if moved {
            return;
        }
    }
    inner.plays.lock().remove(&stream);
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

fn accept_clients(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || client_session(inner, stream));
    }
}

struct Session {
    id: SessionId,
    client_name: String,
    admin: bool,
    ports: HashMap<String, Port>,
}

fn client_session(inner: Arc<Inner>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut session: Option<Session> = None;
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let req: Option<ClientRequest> = match read_frame(&mut stream) {
            Ok(r) => r,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => None,
        };
        let Some(req) = req else {
            // Session drop: "when this session is dropped, the
            // Coordinator deallocates its local representation of the
            // ports" — ports die with `session`.
            return;
        };
        inner.stats.note_bytes(req.to_bytes().len() + 4);
        if matches!(req, ClientRequest::Bye) {
            let _ = write_frame(&mut stream, &CoordReply::Ok);
            return;
        }
        let t = Instant::now();
        let mut waits = Duration::ZERO;
        let reply = dispatch(&inner, &mut session, &mut stream, req, &mut waits);
        // Waiting on MSU RPCs or in the admission queue is not CPU.
        inner.stats.note_request(t.elapsed().saturating_sub(waits));
        inner.stats.note_bytes(reply.to_bytes().len() + 4);
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

fn err_reply(e: Error) -> CoordReply {
    CoordReply::Error {
        code: e.wire_code(),
        msg: e.to_string(),
    }
}

fn dispatch(
    inner: &Arc<Inner>,
    session: &mut Option<Session>,
    stream: &mut TcpStream,
    req: ClientRequest,
    waits: &mut Duration,
) -> CoordReply {
    // Hello establishes the session; everything else requires one.
    if let ClientRequest::Hello { client_name, admin } = &req {
        let id: SessionId = inner.ids.next();
        inner.db.lock().touch_customer(client_name, *admin);
        tracing::info!("hello: {id} opened for client {client_name:?} (admin={admin})");
        *session = Some(Session {
            id,
            client_name: client_name.clone(),
            admin: *admin,
            ports: HashMap::new(),
        });
        return CoordReply::Welcome { session: id };
    }
    let Some(sess) = session.as_mut() else {
        return err_reply(Error::SessionClosed);
    };
    match handle_request(inner, sess, stream, req, waits) {
        Ok(reply) => reply,
        Err(e) => err_reply(e),
    }
}

/// Runs an MSU RPC, charging the time to `waits` (the Coordinator's CPU
/// is idle while the MSU works).
fn timed_rpc(
    inner: &Inner,
    waits: &mut Duration,
    msu: MsuId,
    body: CoordToMsu,
) -> Result<MsuToCoord> {
    let t = Instant::now();
    let r = inner.conns.rpc(msu, body);
    *waits += t.elapsed();
    r
}

fn handle_request(
    inner: &Arc<Inner>,
    sess: &mut Session,
    stream: &mut TcpStream,
    req: ClientRequest,
    waits: &mut Duration,
) -> Result<CoordReply> {
    match req {
        ClientRequest::Hello { .. } | ClientRequest::Bye => unreachable!("handled by caller"),
        ClientRequest::ListContent => Ok(CoordReply::ContentList {
            entries: inner.db.lock().toc(),
        }),
        ClientRequest::ListTypes => Ok(CoordReply::TypeList {
            types: inner.db.lock().types(),
        }),
        ClientRequest::RegisterPort {
            name,
            type_name,
            data_addr,
            ctrl_addr,
        } => {
            let db = inner.db.lock();
            let spec = db.content_type(&type_name)?;
            if spec.is_composite() {
                return Err(Error::Protocol {
                    msg: format!("port {name:?} must use an atomic type"),
                });
            }
            drop(db);
            if sess.ports.contains_key(&name) {
                return Err(Error::AlreadyExists { kind: "port", name });
            }
            sess.ports.insert(
                name,
                Port::Atomic {
                    type_name,
                    data_addr,
                    ctrl_addr,
                },
            );
            Ok(CoordReply::Ok)
        }
        ClientRequest::RegisterCompositePort {
            name,
            type_name,
            components,
        } => {
            let db = inner.db.lock();
            let spec = db.content_type(&type_name)?.clone();
            let TypeBody::Composite {
                components: expect_types,
            } = &spec.body
            else {
                return Err(Error::Protocol {
                    msg: format!("{type_name:?} is not composite"),
                });
            };
            if expect_types.len() != components.len() {
                return Err(Error::Protocol {
                    msg: format!(
                        "{type_name:?} has {} components, {} given",
                        expect_types.len(),
                        components.len()
                    ),
                });
            }
            drop(db);
            // Each named port must exist, be atomic, and match the
            // composite's component type in order (§2.1).
            for (port_name, expect) in components.iter().zip(expect_types) {
                match sess.ports.get(port_name) {
                    Some(Port::Atomic { type_name, .. }) if type_name == expect => {}
                    Some(Port::Atomic { type_name, .. }) => {
                        return Err(Error::TypeMismatch {
                            content_type: expect.clone(),
                            port_type: type_name.clone(),
                        })
                    }
                    Some(Port::Composite { .. }) => {
                        return Err(Error::Protocol {
                            msg: format!("component port {port_name:?} is itself composite"),
                        })
                    }
                    None => {
                        return Err(Error::NoSuchPort {
                            name: port_name.clone(),
                        })
                    }
                }
            }
            if sess.ports.contains_key(&name) {
                return Err(Error::AlreadyExists { kind: "port", name });
            }
            sess.ports.insert(
                name,
                Port::Composite {
                    type_name,
                    components,
                },
            );
            Ok(CoordReply::Ok)
        }
        ClientRequest::UnregisterPort { name } => {
            sess.ports.remove(&name).ok_or(Error::NoSuchPort { name })?;
            Ok(CoordReply::Ok)
        }
        ClientRequest::Play { content, port } => {
            handle_play(inner, sess, stream, content, port, waits)
        }
        ClientRequest::Record {
            content,
            port,
            type_name,
            est_secs,
        } => handle_record(
            inner, sess, stream, content, port, type_name, est_secs, waits,
        ),
        ClientRequest::Delete { content } => {
            if !sess.admin {
                return Err(Error::PermissionDenied { op: "delete" });
            }
            let rec = inner.db.lock().remove_content(&content)?;
            for comp in &rec.components {
                for loc in &comp.locations {
                    // Best effort: a down MSU keeps the blocks until it
                    // returns; the catalog entry is gone regardless.
                    let _ = timed_rpc(
                        inner,
                        waits,
                        loc.msu,
                        CoordToMsu::DeleteFile {
                            disk: loc.disk,
                            file: loc.file.clone(),
                        },
                    );
                    inner.sched.return_space(loc.disk, comp.bytes);
                }
            }
            Ok(CoordReply::Ok)
        }
        ClientRequest::AddType { spec } => {
            if !sess.admin {
                return Err(Error::PermissionDenied { op: "add-type" });
            }
            inner.db.lock().add_type(spec)?;
            Ok(CoordReply::Ok)
        }
        ClientRequest::ServerStatus => {
            let msus = inner
                .sched
                .snapshot()
                .into_iter()
                .map(|(id, m, disks)| MsuStatus {
                    msu: id,
                    available: m.available,
                    net_used: m.net_used,
                    net_capacity: m.net_capacity,
                    disks: disks
                        .into_iter()
                        .map(|(d, ds)| DiskStatus {
                            disk: d,
                            free_bytes: ds.free_bytes,
                            capacity_bytes: ds.capacity,
                            bw_used: ds.bw_used,
                            bw_capacity: ds.bw_capacity,
                        })
                        .collect(),
                })
                .collect();
            Ok(CoordReply::Status {
                msus,
                active_streams: inner.sched.grant_count() as u32,
            })
        }
        ClientRequest::Replicate { content } => {
            if !sess.admin {
                return Err(Error::PermissionDenied { op: "replicate" });
            }
            handle_replicate(inner, &content, waits)
        }
        ClientRequest::Stats { msu } => {
            let mut snapshots = Vec::new();
            match msu {
                Some(id) => match timed_rpc(inner, waits, id, CoordToMsu::GetStats)? {
                    MsuToCoord::Stats { snapshot } => snapshots.push(snapshot),
                    other => return Err(Error::internal(format!("unexpected reply {other:?}"))),
                },
                None => {
                    snapshots.push(inner.stats.snapshot("coordinator"));
                    for (id, m, _) in inner.sched.snapshot() {
                        if !m.available {
                            continue;
                        }
                        // A down or slow MSU drops out of the report
                        // rather than failing the whole request.
                        if let Ok(MsuToCoord::Stats { snapshot }) =
                            timed_rpc(inner, waits, id, CoordToMsu::GetStats)
                        {
                            snapshots.push(snapshot);
                        }
                    }
                }
            }
            Ok(CoordReply::Stats { snapshots })
        }
        ClientRequest::ClusterStats => {
            // Served entirely from the heartbeat-fed cache: a client
            // polling `top --watch` never adds MSU round trips, and a
            // wedged MSU cannot stall the report (its last snapshot
            // simply goes stale until the reaper drops it).
            let mut msus: Vec<StatsSnapshot> = inner.cluster.lock().values().cloned().collect();
            msus.sort_by(|a, b| a.source.cmp(&b.source));
            Ok(CoordReply::ClusterStats {
                cluster: merge_snapshots(&msus),
                msus,
            })
        }
        ClientRequest::AttachTrick { content, files } => {
            if !sess.admin {
                return Err(Error::PermissionDenied { op: "attach-trick" });
            }
            let mut db = inner.db.lock();
            // Both filtered versions must be recorded content with a
            // single raw component.
            let ff = db.content(&files.fast_forward)?;
            let fb = db.content(&files.fast_backward)?;
            for t in [ff, fb] {
                if t.components.len() != 1 {
                    return Err(Error::Protocol {
                        msg: "trick files must be atomic content".into(),
                    });
                }
            }
            let ff_file = ff.components[0].locations[0].file.clone();
            let fb_file = fb.components[0].locations[0].file.clone();
            let rec = db.content_mut(&content)?;
            rec.trick = Some(TrickFiles {
                fast_forward: ff_file,
                fast_backward: fb_file,
            });
            Ok(CoordReply::Ok)
        }
    }
}

/// Folds per-MSU snapshots into one cluster-total snapshot tagged
/// `source == "cluster"`: counters sum, histograms merge bucket-wise
/// (so quantiles of the merged histogram reflect every MSU's samples),
/// and gauges sum both value and high-water mark — the sum of marks is
/// an upper bound on the cluster's true simultaneous high water, which
/// per-MSU sampling cannot reconstruct exactly. Uptime is the maximum,
/// the age of the longest-running MSU.
fn merge_snapshots(snaps: &[StatsSnapshot]) -> StatsSnapshot {
    use std::collections::btree_map::Entry;
    let mut merged: std::collections::BTreeMap<String, MetricValue> =
        std::collections::BTreeMap::new();
    let mut uptime_us = 0;
    for snap in snaps {
        uptime_us = uptime_us.max(snap.uptime_us);
        for m in &snap.metrics {
            match merged.entry(m.name.clone()) {
                Entry::Vacant(v) => {
                    v.insert(m.value.clone());
                }
                Entry::Occupied(mut o) => merge_value(o.get_mut(), &m.value),
            }
        }
    }
    StatsSnapshot {
        source: "cluster".into(),
        uptime_us,
        metrics: merged
            .into_iter()
            .map(|(name, value)| MetricEntry { name, value })
            .collect(),
    }
}

/// Accumulates one metric value into the cluster total. Mismatched
/// kinds under one name keep the first value seen.
fn merge_value(into: &mut MetricValue, from: &MetricValue) {
    match (into, from) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (
            MetricValue::Gauge { value, high_water },
            MetricValue::Gauge {
                value: v,
                high_water: h,
            },
        ) => {
            *value += v;
            *high_water += h;
        }
        (
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            },
            MetricValue::Histogram {
                buckets: b2,
                count: c2,
                sum: s2,
            },
        ) => {
            *count += c2;
            *sum += s2;
            if buckets.len() == b2.len() && buckets.iter().zip(b2).all(|(x, y)| x.le == y.le) {
                for (x, y) in buckets.iter_mut().zip(b2) {
                    x.count += y.count;
                }
            } else {
                // Mixed bucket layouts (components of different
                // versions): merge on the union of bounds. Both series
                // are cumulative step functions, so the merged count at
                // a bound is the sum of each series' value at or below
                // that bound.
                let mut bounds: Vec<u64> = buckets
                    .iter()
                    .map(|b| b.le)
                    .chain(b2.iter().map(|b| b.le))
                    .collect();
                bounds.sort_unstable();
                bounds.dedup();
                let at = |bs: &[HistBucket], le: u64| {
                    bs.iter().rev().find(|b| b.le <= le).map_or(0, |b| b.count)
                };
                let unioned: Vec<HistBucket> = bounds
                    .into_iter()
                    .map(|le| HistBucket {
                        le,
                        count: at(buckets, le) + at(b2, le),
                    })
                    .collect();
                *buckets = unioned;
            }
        }
        _ => {}
    }
}

/// Replicates every component of a content item onto another disk of
/// its MSU — "we can make copies of popular content on several disks"
/// (paper §2.3.3). Play admission can then use either replica, doubling
/// the title's bandwidth ceiling at the cost of disk space.
fn handle_replicate(inner: &Arc<Inner>, content: &str, waits: &mut Duration) -> Result<CoordReply> {
    let rec = inner.db.lock().content(content)?.clone();
    if rec.status != ContentStatus::Ready {
        return Err(Error::NoSuchContent {
            name: content.to_owned(),
        });
    }
    let mut new_locations: Vec<(usize, Location)> = Vec::new();
    for (ci, comp) in rec.components.iter().enumerate() {
        let src = comp
            .locations
            .first()
            .ok_or_else(|| Error::internal("component without a location"))?;
        let msu_state = inner
            .sched
            .msu(src.msu)
            .ok_or(Error::MsuUnavailable { msu: src.msu })?;
        // Pick a different disk on the same MSU with room for the copy,
        // not already holding a replica.
        let taken: Vec<DiskId> = comp.locations.iter().map(|l| l.disk).collect();
        let dst = msu_state
            .disks
            .iter()
            .copied()
            .find(|d| {
                !taken.contains(d)
                    && inner
                        .sched
                        .disk(*d)
                        .is_some_and(|ds| ds.free_bytes >= comp.bytes)
            })
            .ok_or(Error::ResourcesExhausted {
                what: format!("no spare disk on {} for a replica", src.msu),
            })?;
        let reply = timed_rpc(
            inner,
            waits,
            src.msu,
            CoordToMsu::CopyFile {
                src_disk: src.disk,
                dst_disk: dst,
                file: src.file.clone(),
            },
        )?;
        match reply {
            MsuToCoord::FileCopied { error: None } => {}
            MsuToCoord::FileCopied { error: Some(e) } => return Err(Error::Protocol { msg: e }),
            other => return Err(Error::internal(format!("unexpected reply {other:?}"))),
        }
        inner.sched.consume_space(dst, comp.bytes);
        new_locations.push((
            ci,
            Location {
                msu: src.msu,
                disk: dst,
                file: src.file.clone(),
            },
        ));
    }
    let mut db = inner.db.lock();
    let rec = db.content_mut(content)?;
    for (ci, loc) in new_locations {
        rec.components[ci].locations.push(loc);
    }
    Ok(CoordReply::Ok)
}

/// A resolved atomic component of a display port: its type name, data
/// address, and control address.
type PortAtom = (String, SocketAddr, SocketAddr);

/// Resolves a port into its atomic parts: `(type, data, ctrl)` per
/// component stream.
fn resolve_port(sess: &Session, port: &str) -> Result<(String, Vec<PortAtom>)> {
    match sess.ports.get(port) {
        None => Err(Error::NoSuchPort {
            name: port.to_owned(),
        }),
        Some(Port::Atomic {
            type_name,
            data_addr,
            ctrl_addr,
        }) => Ok((
            type_name.clone(),
            vec![(type_name.clone(), *data_addr, *ctrl_addr)],
        )),
        Some(Port::Composite {
            type_name,
            components,
        }) => {
            let mut out = Vec::new();
            for c in components {
                let Some(Port::Atomic {
                    type_name: t,
                    data_addr,
                    ctrl_addr,
                }) = sess.ports.get(c)
                else {
                    return Err(Error::NoSuchPort { name: c.clone() });
                };
                out.push((t.clone(), *data_addr, *ctrl_addr));
            }
            Ok((type_name.clone(), out))
        }
    }
}

/// Bandwidth (bytes/s) to reserve for one atomic type.
fn bandwidth_of(spec: &ContentTypeSpec) -> Result<u64> {
    Ok(spec.bandwidth()?.as_byte_rate().bytes_per_sec())
}

/// The pacing spec the MSU should use for one atomic type.
fn pacing_of(spec: &ContentTypeSpec) -> Result<PacingSpec> {
    match &spec.body {
        TypeBody::Atomic {
            kind: ContentKind::Constant { rate },
            ..
        } => Ok(PacingSpec::Constant {
            rate: *rate,
            packet_bytes: 4096,
        }),
        TypeBody::Atomic {
            kind: ContentKind::Variable { .. },
            ..
        } => Ok(PacingSpec::Stored),
        TypeBody::Composite { .. } => Err(Error::CompositeHasNoRate {
            type_name: spec.name.clone(),
        }),
    }
}

/// True if the session's peer has closed its connection. Clients are
/// strictly request/reply, so pending inbound bytes also mean the
/// session is out of sync and should end.
fn peer_closed(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    stream.set_nonblocking(true).ok();
    let closed = !matches!(
        stream.peek(&mut probe),
        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    stream.set_nonblocking(false).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    closed
}

/// Admission with queueing: retries until granted, sending one interim
/// `Queued` to the client while waiting (§2.2: "the Coordinator queues
/// the request until an MSU with the necessary resources becomes
/// available"). A queued request whose client disconnects is abandoned
/// so the session thread does not wait forever.
fn admit_with_queue<T>(
    inner: &Inner,
    stream: &mut TcpStream,
    waits: &mut Duration,
    mut admit: impl FnMut() -> Result<T>,
) -> Result<T> {
    let arrived = Instant::now();
    let mut queued_sent = false;
    loop {
        match admit() {
            Ok(v) => {
                let waited = arrived.elapsed();
                inner.stats.admissions.inc();
                inner.stats.queue_wait_us.record(waited.as_micros() as u64);
                if queued_sent {
                    tracing::info!("admit: granted after queueing {waited:?}");
                }
                return Ok(v);
            }
            Err(Error::ResourcesExhausted { .. }) if !inner.stop.load(Ordering::Acquire) => {
                if !queued_sent {
                    queued_sent = true;
                    tracing::info!("admit: resources exhausted, request queued");
                    write_frame(stream, &CoordReply::Queued)?;
                }
                if peer_closed(stream) {
                    return Err(Error::SessionClosed);
                }
                let gen = inner.sched.generation();
                let t = Instant::now();
                inner.sched.wait_for_change(gen, Duration::from_millis(500));
                *waits += t.elapsed();
            }
            Err(e) => {
                inner.stats.rejections.inc();
                tracing::info!("admit: rejected ({e})");
                return Err(e);
            }
        }
    }
}

fn handle_play(
    inner: &Arc<Inner>,
    sess: &mut Session,
    stream: &mut TcpStream,
    content_name: String,
    port_name: String,
    waits: &mut Duration,
) -> Result<CoordReply> {
    let (port_type, atoms) = resolve_port(sess, &port_name)?;
    // Load everything we need from the catalog up front.
    let (components, specs, trick, content_type) = {
        let db = inner.db.lock();
        let rec = db.content(&content_name)?;
        if rec.status != ContentStatus::Ready {
            return Err(Error::NoSuchContent { name: content_name });
        }
        if rec.type_name != port_type {
            return Err(Error::TypeMismatch {
                content_type: rec.type_name.clone(),
                port_type,
            });
        }
        let specs: Vec<ContentTypeSpec> = rec
            .components
            .iter()
            .map(|c| db.content_type(&c.type_name).cloned())
            .collect::<Result<_>>()?;
        (
            rec.components.clone(),
            specs,
            rec.trick.clone(),
            rec.type_name.clone(),
        )
    };
    if components.len() != atoms.len() {
        return Err(Error::Protocol {
            msg: format!(
                "content {content_name:?} ({content_type}) has {} components, port {port_name:?} offers {}",
                components.len(),
                atoms.len()
            ),
        });
    }

    // Allocate ids and build the admission request. The trace minted
    // here rides every wire message the stream's life touches.
    let group: GroupId = inner.ids.next();
    let trace = mint_trace(inner, SpanKind::Play);
    let streams: Vec<StreamId> = components.iter().map(|_| inner.ids.next()).collect();
    let wants: Vec<crate::sched::PlayWant> = components
        .iter()
        .zip(&streams)
        .zip(&specs)
        .map(|((c, s), spec)| {
            let locs = c.locations.iter().map(|l| (l.msu, l.disk)).collect();
            Ok((*s, locs, bandwidth_of(spec)?))
        })
        .collect::<Result<_>>()?;

    let picks = admit_with_queue(inner, stream, waits, || inner.sched.admit_play(&wants))?;
    inner
        .flight
        .record(trace.id, FlightCode::Admit, group.raw(), picks.len() as u64);
    // The whole group shares one control connection: the first
    // component port's control listener.
    let group_ctrl = atoms[0].2;

    // Schedule each component on its MSU; roll back everything on any
    // failure.
    let mut scheduled: Vec<StreamStart> = Vec::new();
    let mut tracks: Vec<(StreamId, PlayTrack)> = Vec::new();
    for (i, (stream_id, msu, disk)) in picks.iter().enumerate() {
        let comp = &components[i];
        let loc = comp
            .locations
            .iter()
            .find(|l| l.msu == *msu && l.disk == *disk)
            .ok_or_else(|| Error::internal("admitted replica vanished"))?;
        let pacing = pacing_of(&specs[i])?;
        let send_trick = if components.len() == 1 {
            trick.clone()
        } else {
            None
        };
        let result = timed_rpc(
            inner,
            waits,
            *msu,
            CoordToMsu::ScheduleRead {
                stream: *stream_id,
                group,
                group_size: picks.len() as u32,
                disk: *disk,
                file: loc.file.clone(),
                protocol: specs[i].protocol()?,
                pacing,
                client_data: atoms[i].1,
                client_ctrl: group_ctrl,
                trick: send_trick.clone(),
                trace,
            },
        );
        let err = match result {
            Ok(MsuToCoord::ReadScheduled { error: None }) => None,
            Ok(MsuToCoord::ReadScheduled { error: Some(e) }) => Some(Error::Protocol { msg: e }),
            Ok(other) => Some(Error::internal(format!("unexpected reply {other:?}"))),
            Err(e) => Some(e),
        };
        if let Some(e) = err {
            for s in &streams {
                inner.sched.release(*s, 0);
            }
            for done in &scheduled {
                let _ = inner.conns.notify(
                    *msu,
                    CoordToMsu::Cancel {
                        stream: done.stream,
                    },
                );
            }
            return Err(e);
        }
        inner.stats.note_stream_started();
        inner
            .flight
            .record(trace.id, FlightCode::Schedule, stream_id.raw(), disk.raw());
        tracks.push((
            *stream_id,
            PlayTrack {
                content: content_name.clone(),
                component: i,
                group,
                client_data: atoms[i].1,
                client_ctrl: group_ctrl,
                bw: wants[i].2,
                trick: send_trick,
                trace,
                failed: Vec::new(),
            },
        ));
        scheduled.push(StreamStart {
            stream: *stream_id,
            port_name: port_name.clone(),
            msu: *msu,
            trace,
        });
    }
    // Only fully scheduled groups become failover candidates.
    inner.plays.lock().extend(tracks);
    let _ = sess.id; // sessions own ports; streams outlive the check
    tracing::info!(
        "play: {content_name:?} admitted as {group} ({} streams) [{trace}]",
        scheduled.len()
    );
    Ok(CoordReply::PlayStarted {
        group,
        streams: scheduled,
    })
}

#[allow(clippy::too_many_arguments)]
fn handle_record(
    inner: &Arc<Inner>,
    sess: &mut Session,
    stream: &mut TcpStream,
    content_name: String,
    port_name: String,
    type_name: String,
    est_secs: u32,
    waits: &mut Duration,
) -> Result<CoordReply> {
    let (port_type, atoms) = resolve_port(sess, &port_name)?;
    if port_type != type_name {
        return Err(Error::TypeMismatch {
            content_type: type_name,
            port_type,
        });
    }
    let specs = inner.db.lock().atomic_components(&type_name)?;
    if inner.db.lock().content(&content_name).is_ok() {
        return Err(Error::AlreadyExists {
            kind: "content",
            name: content_name,
        });
    }
    if specs.len() != atoms.len() {
        return Err(Error::Protocol {
            msg: "port does not match the type's component count".into(),
        });
    }

    let group: GroupId = inner.ids.next();
    let trace = mint_trace(inner, SpanKind::Record);
    let streams: Vec<StreamId> = specs.iter().map(|_| inner.ids.next()).collect();
    let wants: Vec<(StreamId, u64, u64)> = specs
        .iter()
        .zip(&streams)
        .map(|(spec, s)| {
            let bw = bandwidth_of(spec)?;
            let space = spec.storage_rate()?.bytes_for_secs(est_secs as u64);
            Ok((*s, bw, space))
        })
        .collect::<Result<_>>()?;

    let picks = admit_with_queue(inner, stream, waits, || inner.sched.admit_record(&wants))?;
    inner
        .flight
        .record(trace.id, FlightCode::Admit, group.raw(), picks.len() as u64);
    let group_ctrl = atoms[0].2;

    let mut starts: Vec<RecordStart> = Vec::new();
    let mut components: Vec<Component> = Vec::new();
    for (i, (stream_id, msu, disk)) in picks.iter().enumerate() {
        let spec = &specs[i];
        let file = if specs.len() == 1 {
            content_name.clone()
        } else {
            format!("{content_name}.{}", spec.name)
        };
        let cbr_rate = match &spec.body {
            TypeBody::Atomic {
                kind: ContentKind::Constant { rate },
                ..
            } => Some(*rate),
            _ => None,
        };
        let result = timed_rpc(
            inner,
            waits,
            *msu,
            CoordToMsu::ScheduleWrite {
                stream: *stream_id,
                group,
                group_size: picks.len() as u32,
                disk: *disk,
                file: file.clone(),
                protocol: spec.protocol()?,
                est_bytes: wants[i].2,
                stores_schedule: spec.stores_schedule(),
                cbr_rate,
                client_ctrl: group_ctrl,
                trace,
            },
        );
        let (sink, err) = match result {
            Ok(MsuToCoord::WriteScheduled {
                udp_sink: Some(sink),
                error: None,
            }) => (Some(sink), None),
            Ok(MsuToCoord::WriteScheduled { error: Some(e), .. }) => {
                (None, Some(Error::Protocol { msg: e }))
            }
            Ok(other) => (
                None,
                Some(Error::internal(format!("unexpected reply {other:?}"))),
            ),
            Err(e) => (None, Some(e)),
        };
        if let Some(e) = err {
            for s in &streams {
                inner.sched.release(*s, 0);
                inner.recordings.lock().remove(s);
            }
            for done in &starts {
                let _ = inner.conns.notify(
                    *msu,
                    CoordToMsu::Cancel {
                        stream: done.stream,
                    },
                );
            }
            return Err(e);
        }
        inner.stats.note_stream_started();
        inner
            .flight
            .record(trace.id, FlightCode::Schedule, stream_id.raw(), disk.raw());
        inner.recordings.lock().insert(
            *stream_id,
            RecordTrack {
                content: content_name.clone(),
                component: i,
            },
        );
        components.push(Component {
            type_name: spec.name.clone(),
            locations: vec![Location {
                msu: *msu,
                disk: *disk,
                file,
            }],
            bytes: 0,
            duration_us: 0,
        });
        starts.push(RecordStart {
            stream: *stream_id,
            port_name: port_name.clone(),
            msu: *msu,
            udp_sink: sink.expect("error handled above"),
            trace,
        });
    }

    inner
        .record_remaining
        .lock()
        .insert(content_name.clone(), picks.len());
    inner.db.lock().insert_content(ContentRecord {
        name: content_name.clone(),
        type_name,
        components,
        status: ContentStatus::Recording,
        trick: None,
    })?;
    let _ = &sess.client_name;
    tracing::info!(
        "record: {content_name:?} admitted as {group} ({} streams) [{trace}]",
        starts.len()
    );
    Ok(CoordReply::RecordStarted {
        group,
        streams: starts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_msu::FakeMsu;

    fn start_coord() -> CoordServer {
        CoordServer::start(CoordConfig::default()).unwrap()
    }

    struct TestClient {
        conn: TcpStream,
    }

    impl TestClient {
        fn connect(addr: SocketAddr, name: &str, admin: bool) -> TestClient {
            let conn = TcpStream::connect(addr).unwrap();
            let mut c = TestClient { conn };
            let reply = c.request(ClientRequest::Hello {
                client_name: name.into(),
                admin,
            });
            assert!(matches!(reply, CoordReply::Welcome { .. }));
            c
        }

        fn request(&mut self, req: ClientRequest) -> CoordReply {
            write_frame(&mut self.conn, &req).unwrap();
            loop {
                let r: Option<CoordReply> = read_frame(&mut self.conn).unwrap();
                match r.unwrap() {
                    CoordReply::Queued => continue, // interim
                    other => return other,
                }
            }
        }
    }

    #[test]
    fn msu_registration_and_failure_detection() {
        let coord = start_coord();
        let fake = FakeMsu::start(coord.msu_addr, 2, Duration::from_millis(1)).unwrap();
        // Wait for registration to settle.
        for _ in 0..100 {
            if coord.msu_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(coord.msu_count(), 1);
        let id = fake.id;
        assert!(coord.inner.sched.is_available(id));
        fake.stop();
        for _ in 0..100 {
            if !coord.inner.sched.is_available(id) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !coord.inner.sched.is_available(id),
            "TCP break marks it down"
        );
        coord.shutdown();
    }

    #[test]
    fn session_lists_types_and_content() {
        let coord = start_coord();
        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        match client.request(ClientRequest::ListTypes) {
            CoordReply::TypeList { types } => {
                assert!(types.iter().any(|t| t.name == "mpeg1"));
            }
            other => panic!("{other:?}"),
        }
        match client.request(ClientRequest::ListContent) {
            CoordReply::ContentList { entries } => assert!(entries.is_empty()),
            other => panic!("{other:?}"),
        }
        coord.shutdown();
    }

    #[test]
    fn requests_before_hello_are_rejected() {
        let coord = start_coord();
        let mut conn = TcpStream::connect(coord.client_addr).unwrap();
        write_frame(&mut conn, &ClientRequest::ListTypes).unwrap();
        let r: Option<CoordReply> = read_frame(&mut conn).unwrap();
        assert!(matches!(r.unwrap(), CoordReply::Error { .. }));
        coord.shutdown();
    }

    #[test]
    fn port_registration_validates_types() {
        let coord = start_coord();
        let mut client = TestClient::connect(coord.client_addr, "bob", false);
        let data: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        let ctrl: SocketAddr = "127.0.0.1:5001".parse().unwrap();
        // Unknown type.
        assert!(matches!(
            client.request(ClientRequest::RegisterPort {
                name: "p".into(),
                type_name: "ghost".into(),
                data_addr: data,
                ctrl_addr: ctrl,
            }),
            CoordReply::Error { .. }
        ));
        // Composite type on an atomic port.
        assert!(matches!(
            client.request(ClientRequest::RegisterPort {
                name: "p".into(),
                type_name: "seminar".into(),
                data_addr: data,
                ctrl_addr: ctrl,
            }),
            CoordReply::Error { .. }
        ));
        // Good atomic ports.
        for (name, ty) in [("v", "nv-video"), ("a", "vat-audio")] {
            assert!(matches!(
                client.request(ClientRequest::RegisterPort {
                    name: name.into(),
                    type_name: ty.into(),
                    data_addr: data,
                    ctrl_addr: ctrl,
                }),
                CoordReply::Ok
            ));
        }
        // Duplicate name.
        assert!(matches!(
            client.request(ClientRequest::RegisterPort {
                name: "v".into(),
                type_name: "nv-video".into(),
                data_addr: data,
                ctrl_addr: ctrl,
            }),
            CoordReply::Error { .. }
        ));
        // Composite port out of them, wrong order first.
        assert!(matches!(
            client.request(ClientRequest::RegisterCompositePort {
                name: "sem".into(),
                type_name: "seminar".into(),
                components: vec!["a".into(), "v".into()],
            }),
            CoordReply::Error { .. }
        ));
        assert!(matches!(
            client.request(ClientRequest::RegisterCompositePort {
                name: "sem".into(),
                type_name: "seminar".into(),
                components: vec!["v".into(), "a".into()],
            }),
            CoordReply::Ok
        ));
        // Unregister.
        assert!(matches!(
            client.request(ClientRequest::UnregisterPort { name: "sem".into() }),
            CoordReply::Ok
        ));
        assert!(matches!(
            client.request(ClientRequest::UnregisterPort { name: "sem".into() }),
            CoordReply::Error { .. }
        ));
        coord.shutdown();
    }

    #[test]
    fn admin_operations_require_admin() {
        let coord = start_coord();
        let mut user = TestClient::connect(coord.client_addr, "mallory", false);
        assert!(matches!(
            user.request(ClientRequest::Delete {
                content: "x".into()
            }),
            CoordReply::Error { code, .. } if code == Error::PermissionDenied { op: "" }.wire_code()
        ));
        assert!(matches!(
            user.request(ClientRequest::AddType {
                spec: ContentTypeSpec::constant(
                    "new",
                    calliope_types::content::ProtocolId::ConstantRate,
                    calliope_types::time::BitRate::from_mbps(1)
                )
            }),
            CoordReply::Error { .. }
        ));
        let mut admin = TestClient::connect(coord.client_addr, "root", true);
        assert!(matches!(
            admin.request(ClientRequest::AddType {
                spec: ContentTypeSpec::constant(
                    "new",
                    calliope_types::content::ProtocolId::ConstantRate,
                    calliope_types::time::BitRate::from_mbps(1)
                )
            }),
            CoordReply::Ok
        ));
        coord.shutdown();
    }

    #[test]
    fn play_without_content_errors() {
        let coord = start_coord();
        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        let data: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        client.request(ClientRequest::RegisterPort {
            name: "p".into(),
            type_name: "mpeg1".into(),
            data_addr: data,
            ctrl_addr: data,
        });
        assert!(matches!(
            client.request(ClientRequest::Play {
                content: "ghost".into(),
                port: "p".into()
            }),
            CoordReply::Error { .. }
        ));
        coord.shutdown();
    }

    #[test]
    fn record_via_fake_msu_reserves_and_releases() {
        let coord = start_coord();
        let _fake = FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(5)).unwrap();
        for _ in 0..100 {
            if coord.msu_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        let data: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        client.request(ClientRequest::RegisterPort {
            name: "p".into(),
            type_name: "mpeg1".into(),
            data_addr: data,
            ctrl_addr: data,
        });
        let reply = client.request(ClientRequest::Record {
            content: "talk".into(),
            port: "p".into(),
            type_name: "mpeg1".into(),
            est_secs: 60,
        });
        match reply {
            CoordReply::RecordStarted { streams, .. } => {
                assert_eq!(streams.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // The fake MSU reports immediate termination: the grant clears
        // and the content finalizes (zero-length, but Ready).
        for _ in 0..100 {
            if coord.active_streams() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(coord.active_streams(), 0);
        // Duplicate content name is rejected.
        assert!(matches!(
            client.request(ClientRequest::Record {
                content: "talk".into(),
                port: "p".into(),
                type_name: "mpeg1".into(),
                est_secs: 60,
            }),
            CoordReply::Error { .. }
        ));
        coord.shutdown();
    }

    #[test]
    fn queued_request_completes_when_capacity_frees() {
        let coord = start_coord();
        let _fake = FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(5)).unwrap();
        for _ in 0..100 {
            if coord.msu_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Exhaust the single disk's space with one huge reservation...
        // actually exhaust *bandwidth*: 12 recordings of mpeg1 fill a
        // 2.4 MB/s disk. The 13th parks in the queue; the fake MSU's
        // instant terminations then free capacity and it completes.
        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        let data: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        client.request(ClientRequest::RegisterPort {
            name: "p".into(),
            type_name: "mpeg1".into(),
            data_addr: data,
            ctrl_addr: data,
        });
        for i in 0..14 {
            let reply = client.request(ClientRequest::Record {
                content: format!("c{i}"),
                port: "p".into(),
                type_name: "mpeg1".into(),
                est_secs: 1,
            });
            assert!(
                matches!(reply, CoordReply::RecordStarted { .. }),
                "request {i}: {reply:?}"
            );
        }
        coord.shutdown();
    }

    /// Polls until `f` holds or the timeout elapses.
    fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        f()
    }

    /// Inserts a ready one-component mpeg1 title with a replica at each
    /// given location, as if recorded and replicated.
    fn insert_replicated_content(coord: &CoordServer, name: &str, locations: Vec<Location>) {
        coord
            .inner
            .db
            .lock()
            .insert_content(ContentRecord {
                name: name.into(),
                type_name: "mpeg1".into(),
                components: vec![Component {
                    type_name: "mpeg1".into(),
                    locations,
                    bytes: 1_000_000,
                    duration_us: 5_000_000,
                }],
                status: ContentStatus::Ready,
                trick: None,
            })
            .unwrap();
    }

    fn register_port(client: &mut TestClient) {
        let data: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        assert!(matches!(
            client.request(ClientRequest::RegisterPort {
                name: "p".into(),
                type_name: "mpeg1".into(),
                data_addr: data,
                ctrl_addr: data,
            }),
            CoordReply::Ok
        ));
    }

    #[test]
    fn heartbeat_marks_a_wedged_msu_down() {
        let coord = CoordServer::start(CoordConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_misses: 2,
            ..CoordConfig::default()
        })
        .unwrap();
        let fake = FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(1)).unwrap();
        assert!(wait_for(Duration::from_secs(2), || coord.msu_count() == 1));
        let id = fake.id;
        // Healthy: beats are answered, the MSU stays available.
        std::thread::sleep(Duration::from_millis(300));
        assert!(coord.inner.sched.is_available(id));
        // Wedge it: the TCP connection stays open but nothing answers.
        // The §2.2 TCP-break detector never fires; the heartbeat must.
        fake.wedge();
        assert!(
            wait_for(Duration::from_secs(5), || !coord
                .inner
                .sched
                .is_available(id)),
            "heartbeat did not mark the wedged MSU down"
        );
        assert!(coord.stats().heartbeat_misses.get() >= 2);
        fake.stop();
        coord.shutdown();
    }

    /// The §2.2 recovery path end to end at the control-plane level:
    /// an MSU dies mid-play, the reaper reclaims its grant, and the
    /// stream is re-admitted on the MSU holding the replica.
    #[test]
    fn msu_death_fails_playback_over_to_a_replica() {
        let coord = start_coord();
        let fakes = [
            FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(5)).unwrap(),
            FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(5)).unwrap(),
        ];
        for f in &fakes {
            f.set_linger();
        }
        assert!(wait_for(Duration::from_secs(2), || coord.msu_count() == 2));
        let locations: Vec<Location> = fakes
            .iter()
            .map(|f| Location {
                msu: f.id,
                disk: coord.inner.sched.msu(f.id).unwrap().disks[0],
                file: "movie".into(),
            })
            .collect();
        insert_replicated_content(&coord, "movie", locations);

        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        register_port(&mut client);
        let (victim, stream) = match client.request(ClientRequest::Play {
            content: "movie".into(),
            port: "p".into(),
        }) {
            CoordReply::PlayStarted { streams, .. } => (streams[0].msu, streams[0].stream),
            other => panic!("{other:?}"),
        };
        assert_eq!(coord.active_streams(), 1);

        let mut fakes = Vec::from(fakes);
        let idx = fakes.iter().position(|f| f.id == victim).unwrap();
        let survivor = fakes[1 - idx].id;
        fakes.remove(idx).stop();

        assert!(
            wait_for(Duration::from_secs(5), || coord.stats().failovers.get()
                == 1),
            "stream did not fail over to the replica"
        );
        assert_eq!(coord.stats().grants_reaped.get(), 1);
        let res = coord
            .inner
            .sched
            .reservation_of(stream)
            .expect("grant moved, not dropped");
        assert_eq!(res.msu, survivor);
        assert_eq!(coord.active_streams(), 1, "exactly the moved grant remains");
        coord.shutdown();
    }

    /// Disk-level failover: the MSU reports `StreamDone(IoError)` and
    /// the Coordinator re-admits the stream on the replica disk of the
    /// same MSU. A second I/O error exhausts the replicas and the
    /// stream ends with nothing stranded.
    #[test]
    fn disk_io_error_fails_over_to_the_replica_disk() {
        let coord = start_coord();
        let fake = FakeMsu::start(coord.msu_addr, 2, Duration::from_millis(5)).unwrap();
        fake.set_linger();
        assert!(wait_for(Duration::from_secs(2), || coord.msu_count() == 1));
        let locations: Vec<Location> = coord
            .inner
            .sched
            .msu(fake.id)
            .unwrap()
            .disks
            .iter()
            .map(|d| Location {
                msu: fake.id,
                disk: *d,
                file: "movie".into(),
            })
            .collect();
        insert_replicated_content(&coord, "movie", locations);

        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        register_port(&mut client);
        let (stream, trace) = match client.request(ClientRequest::Play {
            content: "movie".into(),
            port: "p".into(),
        }) {
            CoordReply::PlayStarted { streams, .. } => (streams[0].stream, streams[0].trace),
            other => panic!("{other:?}"),
        };
        assert!(trace.is_traced(), "admission must mint a trace");
        assert_eq!(trace.kind, SpanKind::Play);
        let first = coord.inner.sched.reservation_of(stream).unwrap().disk;

        handle_msu_notification(
            &coord.inner,
            fake.id,
            MsuToCoord::StreamDone {
                stream,
                reason: DoneReason::IoError("injected: read failed".into()),
                bytes: 0,
                duration_us: 0,
                trace,
            },
        );
        assert_eq!(coord.stats().failovers.get(), 1);
        // The flight recorder holds the whole story under one trace id:
        // admission, scheduling, the I/O error, and the re-admission.
        let events = coord.flight().snapshot();
        for code in [
            calliope_obs::FlightCode::Admit,
            calliope_obs::FlightCode::Schedule,
            calliope_obs::FlightCode::IoError,
            calliope_obs::FlightCode::Failover,
        ] {
            assert!(
                events.iter().any(|e| e.code == code && e.trace == trace.id),
                "missing {} for {trace} in {events:?}",
                code.name()
            );
        }
        let second = coord
            .inner
            .sched
            .reservation_of(stream)
            .expect("grant moved, not dropped")
            .disk;
        assert_ne!(second, first, "failover must pick the other disk");

        handle_msu_notification(
            &coord.inner,
            fake.id,
            MsuToCoord::StreamDone {
                stream,
                reason: DoneReason::IoError("injected: read failed".into()),
                bytes: 0,
                duration_us: 0,
                trace: trace.into_failover(),
            },
        );
        assert_eq!(
            coord.stats().failovers.get(),
            1,
            "no third replica to move to"
        );
        assert_eq!(coord.active_streams(), 0, "no stranded reservation");
        assert!(
            coord.inner.plays.lock().is_empty(),
            "no stranded play track"
        );
        fake.stop();
        coord.shutdown();
    }

    /// The cluster-total merge: counters sum, same-layout histograms
    /// merge bucket-wise, mixed layouts merge on the union of bounds,
    /// and gauges sum value and high-water.
    #[test]
    fn merge_snapshots_sums_counters_and_histograms() {
        let h = |bounds: &[(u64, u64)], count, sum| MetricValue::Histogram {
            buckets: bounds
                .iter()
                .map(|&(le, count)| HistBucket { le, count })
                .collect(),
            count,
            sum,
        };
        let snap = |source: &str, uptime_us, metrics: Vec<(&str, MetricValue)>| StatsSnapshot {
            source: source.into(),
            uptime_us,
            metrics: metrics
                .into_iter()
                .map(|(name, value)| MetricEntry {
                    name: name.into(),
                    value,
                })
                .collect(),
        };
        let a = snap(
            "msu-1",
            500,
            vec![
                ("net.packets_sent", MetricValue::Counter(10)),
                (
                    "net.send_lateness_us",
                    h(&[(100, 4), (1000, 9), (u64::MAX, 10)], 10, 2_000),
                ),
                (
                    "spsc.depth",
                    MetricValue::Gauge {
                        value: 2,
                        high_water: 5,
                    },
                ),
            ],
        );
        let b = snap(
            "msu-2",
            900,
            vec![
                ("net.packets_sent", MetricValue::Counter(32)),
                (
                    "net.send_lateness_us",
                    h(&[(100, 1), (1000, 2), (u64::MAX, 3)], 3, 900),
                ),
                ("disk.reads", MetricValue::Counter(7)),
            ],
        );
        let merged = merge_snapshots(&[a, b]);
        assert_eq!(merged.source, "cluster");
        assert_eq!(merged.uptime_us, 900);
        assert_eq!(merged.counter("net.packets_sent"), 42);
        assert_eq!(merged.counter("disk.reads"), 7);
        match merged.get("net.send_lateness_us").unwrap() {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                assert_eq!(*count, 13);
                assert_eq!(*sum, 2_900);
                assert_eq!(buckets[0], HistBucket { le: 100, count: 5 });
                assert_eq!(
                    buckets[1],
                    HistBucket {
                        le: 1000,
                        count: 11
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        match merged.get("spsc.depth").unwrap() {
            MetricValue::Gauge { value, high_water } => {
                assert_eq!((*value, *high_water), (2, 5));
            }
            other => panic!("{other:?}"),
        }
        // Mixed bucket layouts take the union-of-bounds path.
        let c = snap(
            "msu-3",
            1,
            vec![("net.send_lateness_us", h(&[(50, 2), (u64::MAX, 2)], 2, 60))],
        );
        let d = snap(
            "msu-4",
            1,
            vec![(
                "net.send_lateness_us",
                h(&[(100, 3), (u64::MAX, 4)], 4, 500),
            )],
        );
        match merge_snapshots(&[c, d])
            .get("net.send_lateness_us")
            .unwrap()
        {
            MetricValue::Histogram { buckets, count, .. } => {
                assert_eq!(*count, 6);
                assert_eq!(buckets[0], HistBucket { le: 50, count: 2 });
                assert_eq!(buckets[1], HistBucket { le: 100, count: 5 });
                assert_eq!(
                    buckets[2],
                    HistBucket {
                        le: u64::MAX,
                        count: 6
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // The empty cluster is a valid, empty snapshot.
        assert!(merge_snapshots(&[]).metrics.is_empty());
    }

    /// A recording has no replica to move to: reaping its MSU abandons
    /// the partial recording and scrubs every table it touched.
    #[test]
    fn reaped_recordings_are_abandoned_cleanly() {
        let coord = start_coord();
        let fake = FakeMsu::start(coord.msu_addr, 1, Duration::from_millis(5)).unwrap();
        fake.set_linger();
        assert!(wait_for(Duration::from_secs(2), || coord.msu_count() == 1));
        let mut client = TestClient::connect(coord.client_addr, "alice", false);
        register_port(&mut client);
        assert!(matches!(
            client.request(ClientRequest::Record {
                content: "talk".into(),
                port: "p".into(),
                type_name: "mpeg1".into(),
                est_secs: 60,
            }),
            CoordReply::RecordStarted { .. }
        ));
        assert_eq!(coord.active_streams(), 1);
        assert!(coord.inner.db.lock().content("talk").is_ok());

        fake.stop();
        assert!(
            wait_for(Duration::from_secs(5), || coord.active_streams() == 0),
            "reaper did not reclaim the recording grant"
        );
        assert!(
            coord.inner.db.lock().content("talk").is_err(),
            "partial recording must leave the catalog"
        );
        assert!(coord.inner.recordings.lock().is_empty());
        assert!(coord.inner.record_remaining.lock().is_empty());
        assert_eq!(coord.stats().grants_reaped.get(), 1);
        coord.shutdown();
    }
}
