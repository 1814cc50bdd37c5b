//! The load generator: one event loop on the main thread plus the UDP
//! receiver thread (`rx`).
//!
//! The generator opens exactly one connection itself, its session with
//! the Coordinator. Every display port it registers shares one UDP data
//! socket and one control listener; the per-group control connections
//! the MSU dials back (paper §2.2) are accepted on that listener and
//! polled from the loop, so no thread runs per stream. It speaks the
//! protocol directly through `wire::{read_frame, write_frame}` and
//! `DataHeader`, not through `DisplayPort` (which costs two threads per
//! port).
//!
//! Viewers and recorders run closed loops. Each start is due at a set
//! time; the loop records how late it ran against that time.

use crate::rx::{RxEvent, RxShared};
use crate::workload::{Media, Rng, Title, Workload};
use calliope_types::wire::data::{DataHeader, PacketKind};
use calliope_types::wire::messages::{ClientRequest, CoordReply, DoneReason, MsuToClient};
use calliope_types::wire::stats::StatsSnapshot;
use calliope_types::wire::{read_frame, write_frame};
use calliope_types::{GroupId, MediaTime, StreamId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Least pause between one play's `GroupEnded` and the next start, so
/// the Coordinator has released the old reservation before the next
/// admission at the bandwidth ceiling.
pub const THINK: Duration = Duration::from_millis(20);
/// Seeded spread added to each pause (µs). Without it every start would
/// sit at the same phase of the MSU's 10 ms pacing tick as the `GroupEnded`
/// before it, and startup latency would depend on that one phase.
const THINK_JITTER_US: usize = 10_000;
/// How often every control connection is polled, hot or not.
const SWEEP: Duration = Duration::from_millis(250);
/// How much faster than real time setup uploads are sent.
const UPLOAD_SPEEDUP: f64 = 10.0;
/// Length of the stand-in clips a recorder starts with.
const PRE_CLIP_SECS: u32 = 1;
/// How long a finished recording may take to appear in the catalog.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The generator's session with the Coordinator: its one connection.
#[derive(Debug)]
pub struct Session {
    conn: TcpStream,
}

impl Session {
    /// Connects and says hello (with administrative rights, which
    /// replicate and delete need).
    pub fn connect(addr: SocketAddr) -> Result<Session, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let mut s = Session { conn };
        match s.request(&ClientRequest::Hello {
            client_name: "perfbench".into(),
            admin: true,
        })? {
            (CoordReply::Welcome { .. }, _) => Ok(s),
            (other, _) => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    /// Sends one request and reads its final reply. The flag says
    /// whether the Coordinator queued the request on the way.
    pub fn request(&mut self, req: &ClientRequest) -> Result<(CoordReply, bool), String> {
        write_frame(&mut self.conn, req).map_err(|e| format!("send: {e}"))?;
        let mut queued = false;
        loop {
            match read_frame(&mut self.conn) {
                Ok(Some(CoordReply::Queued)) => queued = true,
                Ok(Some(CoordReply::Error { code, msg })) => {
                    return Err(format!("coordinator error {code}: {msg}"))
                }
                Ok(Some(reply)) => return Ok((reply, queued)),
                Ok(None) => return Err("coordinator closed the session".into()),
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Fetches the Coordinator's and every MSU's registry.
    pub fn stats(&mut self) -> Result<Vec<StatsSnapshot>, String> {
        match self.request(&ClientRequest::Stats { msu: None })? {
            (CoordReply::Stats { snapshots }, _) => Ok(snapshots),
            (other, _) => Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// A span around one call into a layer, keyed by the stream's trace id.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, e.g. `coord.play`.
    pub name: &'static str,
    /// The `TraceCtx` id the Coordinator minted for the stream.
    pub trace: u64,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

/// One play or recording.
#[derive(Clone, Debug)]
pub struct Op {
    /// When its request was sent.
    pub start: Instant,
    /// When it ended, if it has.
    pub end: Option<Instant>,
    /// Why it failed, if it did.
    pub failed: Option<String>,
}

/// Everything the loop measured.
#[derive(Debug, Default)]
pub struct Log {
    /// Plays and recordings.
    pub ops: Vec<Op>,
    /// (Play sent, ms to the first media datagram).
    pub startup: Vec<(Instant, f64)>,
    /// (EOS sent, ms until completed and in the catalog).
    pub commit: Vec<(Instant, f64)>,
    /// (When it ran, ms late against its due time) per timed action.
    pub lag: Vec<(Instant, f64)>,
    /// Spans, when tracing.
    pub spans: Vec<Span>,
    /// When each stream was delivering (played: first packet to EOS;
    /// recorded: `GroupReady` to EOS), for stream-seconds per interval.
    pub delivering: Vec<(Instant, Instant)>,
    /// Outputs that failed verification (payloads, catalog sizes).
    pub mismatches: u64,
    /// Time spent recording spans.
    pub span_cost: Duration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    StartPlay(usize),
    StartRecord(usize),
    Send(usize),
    Commit(usize),
    Finalize(usize),
}

#[derive(Debug)]
struct Play {
    op: usize,
    title: Arc<Title>,
    group: GroupId,
    stream: StreamId,
    trace: u64,
    sent: Instant,
    reply: Instant,
    ready: Option<Instant>,
    first: Option<Instant>,
    eos: Option<Instant>,
    ended: Option<(Instant, DoneReason)>,
}

#[derive(Debug)]
struct Rec {
    op: usize,
    content: String,
    title: Arc<Title>,
    group: GroupId,
    stream: StreamId,
    sink: SocketAddr,
    trace: u64,
    speedup: f64,
    sent: Instant,
    ready: Option<Instant>,
    next: usize,
    eos: Option<Instant>,
    ended: Option<Instant>,
}

#[derive(Debug)]
enum State {
    Idle,
    Playing(Play),
    Recording(Rec),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Viewer,
    Recorder,
    Uploader,
}

#[derive(Debug)]
struct Actor {
    role: Role,
    port: String,
    rng: Rng,
    state: State,
    round: u64,
    /// A recorder's finished clips, oldest first.
    clips: VecDeque<String>,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    group: Option<GroupId>,
    hot: bool,
}

/// The load generator.
#[derive(Debug)]
pub struct Gen {
    session: Option<Session>,
    udp: UdpSocket,
    data_addr: SocketAddr,
    listener: TcpListener,
    ctrl_addr: SocketAddr,
    rx: Arc<Mutex<RxShared>>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    group_conn: HashMap<GroupId, u64>,
    timers: BinaryHeap<Reverse<(Instant, u64, Action)>>,
    timer_seq: u64,
    actors: Vec<Actor>,
    groups: HashMap<GroupId, usize>,
    streams: HashMap<StreamId, usize>,
    titles: Vec<Arc<Title>>,
    clips: Vec<Arc<Title>>,
    upload_queue: VecDeque<(String, Arc<Title>)>,
    uploads_done: usize,
    stopping: bool,
    tracing: bool,
    media_type: &'static str,
    last_sweep: Instant,
    send_buf: Vec<u8>,
    /// What was measured.
    pub log: Log,
    /// Fatal problems (setup failures, protocol violations).
    pub errors: Vec<String>,
}

fn title_name(i: usize) -> String {
    format!("t{i}")
}

impl Gen {
    /// Builds the generator around its shared sockets. `udp` is the
    /// data socket every port shares; the receiver thread owns a clone.
    pub fn new(
        udp: UdpSocket,
        listener: TcpListener,
        rx: Arc<Mutex<RxShared>>,
        titles: Vec<Arc<Title>>,
        clips: Vec<Arc<Title>>,
        tracing: bool,
    ) -> Result<Gen, String> {
        let data_addr = udp.local_addr().map_err(|e| e.to_string())?;
        let ctrl_addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Gen {
            session: None,
            udp,
            data_addr,
            listener,
            ctrl_addr,
            rx,
            conns: HashMap::new(),
            next_conn: 0,
            group_conn: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            actors: Vec::new(),
            groups: HashMap::new(),
            streams: HashMap::new(),
            titles,
            clips,
            upload_queue: VecDeque::new(),
            uploads_done: 0,
            stopping: false,
            tracing,
            media_type: "mpeg1",
            last_sweep: Instant::now(),
            send_buf: Vec::with_capacity(2_048),
            log: Log::default(),
            errors: Vec::new(),
        })
    }

    /// The receiver's state.
    pub fn rx(&self) -> std::sync::MutexGuard<'_, RxShared> {
        self.rx.lock().expect("rx state poisoned")
    }

    /// The Coordinator session.
    pub fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("session open")
    }

    fn span(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) {
        if self.tracing {
            let t = Instant::now();
            self.log.spans.push(Span {
                name,
                trace,
                start,
                end: end.max(start),
            });
            self.log.span_cost += t.elapsed();
        }
    }

    fn at(&mut self, due: Instant, action: Action) {
        self.timer_seq += 1;
        self.timers.push(Reverse((due, self.timer_seq, action)));
    }

    fn fail(&mut self, op: usize, why: String) {
        let o = &mut self.log.ops[op];
        o.failed.get_or_insert(why);
    }

    fn new_op(&mut self, now: Instant) -> usize {
        self.log.ops.push(Op {
            start: now,
            end: None,
            failed: None,
        });
        self.log.ops.len() - 1
    }

    /// Sets up a fresh server: opens the session, registers every port,
    /// uploads the titles, checks their catalog sizes, and replicates
    /// them onto the second disk.
    pub fn setup(
        &mut self,
        coord: SocketAddr,
        w: &Workload,
        seed: u64,
        parallel_uploads: usize,
    ) -> Result<(), String> {
        self.reset();
        self.session = Some(Session::connect(coord)?);
        // MSU registration is asynchronous: wait until it is admitted.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let (CoordReply::Status { msus, .. }, _) =
                self.session().request(&ClientRequest::ServerStatus)?
            {
                if msus.iter().any(|m| m.available && m.disks.len() == 2) {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("the MSU never registered".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let type_name = w.media.type_name();
        self.media_type = type_name;
        let add = |g: &mut Gen, role: Role, i: usize, ty: &str| -> Result<(), String> {
            let port = match role {
                Role::Viewer => format!("v{i}"),
                Role::Recorder => format!("r{i}"),
                Role::Uploader => format!("u{i}"),
            };
            let req = ClientRequest::RegisterPort {
                name: port.clone(),
                type_name: ty.to_owned(),
                data_addr: g.data_addr,
                ctrl_addr: g.ctrl_addr,
            };
            g.session().request(&req)?;
            g.actors.push(Actor {
                role,
                port,
                rng: Rng::new(seed, 1_000 + g.actors.len() as u64),
                state: State::Idle,
                round: 0,
                clips: VecDeque::new(),
            });
            Ok(())
        };
        for i in 0..parallel_uploads {
            add(self, Role::Uploader, i, type_name)?;
        }
        for i in 0..w.viewers {
            add(self, Role::Viewer, i, type_name)?;
        }
        for i in 0..w.recorders {
            add(self, Role::Recorder, i, "mpeg1")?;
        }
        // Uploads: the titles, plus short stand-ins for each recorder's
        // clips of the last three rounds, so deleting the clip from
        // three rounds back starts with the first round. Each uploader
        // records from the queue until it is empty.
        self.upload_queue = (0..self.titles.len())
            .map(|i| (title_name(i), Arc::clone(&self.titles[i])))
            .collect();
        for a in 0..self.actors.len() {
            if self.actors[a].role == Role::Recorder {
                for round in 0..3 {
                    let name = self.clip_name(a, round);
                    let seed = self.actors[a].rng.next_u64();
                    let stand_in = Title::generate(Media::Mpeg, PRE_CLIP_SECS, seed);
                    self.upload_queue.push_back((name.clone(), stand_in));
                    self.actors[a].clips.push_back(name);
                }
                self.actors[a].round = 3;
            }
        }
        let total = self.upload_queue.len();
        self.uploads_done = 0;
        let now = Instant::now();
        for a in 0..parallel_uploads {
            self.next_upload(a, now);
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while self.uploads_done < total {
            self.step()?;
            if let Some(e) = self.errors.first() {
                return Err(format!("setup: {e}"));
            }
            if Instant::now() > deadline {
                return Err("setup: uploads timed out".into());
            }
        }
        if let Some(bad) = self.log.ops.iter().find_map(|o| o.failed.clone()) {
            return Err(format!("setup: an upload failed: {bad}"));
        }
        for i in 0..self.titles.len() {
            self.session().request(&ClientRequest::Replicate {
                content: title_name(i),
            })?;
        }
        Ok(())
    }

    /// Forgets the previous server's state (a setup repeated in one
    /// run starts from scratch).
    fn reset(&mut self) {
        self.session = None;
        self.conns.clear();
        self.group_conn.clear();
        self.timers.clear();
        self.actors.clear();
        self.groups.clear();
        self.streams.clear();
        *self.rx.lock().expect("rx state poisoned") = RxShared::default();
        self.log = Log::default();
        self.errors.clear();
        self.stopping = false;
    }

    fn next_upload(&mut self, actor: usize, now: Instant) {
        if let Some((name, title)) = self.upload_queue.pop_front() {
            self.start_record(actor, name, title, UPLOAD_SPEEDUP, now);
        }
    }

    /// The content name of recorder `a`'s clip of `round`.
    fn clip_name(&self, a: usize, round: u64) -> String {
        format!("clip-{}-{round}", self.actors[a].port)
    }

    /// The media recorder `a` sends in `round`: two seeded clips per
    /// recorder, alternating.
    fn clip(&self, a: usize, round: u64) -> Arc<Title> {
        let r = self.actors[..a]
            .iter()
            .filter(|x| x.role == Role::Recorder)
            .count();
        Arc::clone(&self.clips[(r * 2 + round as usize % 2) % self.clips.len()])
    }

    /// Starts the closed loops: viewers staggered evenly over one title
    /// length, recorders over one clip length.
    pub fn start_load(&mut self, w: &Workload, t0: Instant) {
        let title = Duration::from_secs(w.title_secs as u64);
        let clip = Duration::from_secs(w.clip_secs as u64);
        let (mut v, mut r) = (0u32, 0u32);
        for a in 0..self.actors.len() {
            match self.actors[a].role {
                Role::Viewer => {
                    self.at(t0 + title * v / w.viewers as u32, Action::StartPlay(a));
                    v += 1;
                }
                Role::Recorder => {
                    self.at(t0 + clip * r / w.recorders as u32, Action::StartRecord(a));
                    r += 1;
                }
                Role::Uploader => {}
            }
        }
    }

    /// Opens the measurement window `[from, to)`.
    pub fn set_window(&mut self, from: Instant, to: Instant) {
        self.rx
            .lock()
            .expect("rx state poisoned")
            .set_window(from, to);
    }

    /// Stops starting new work and accounts for everything still in
    /// flight at the end of the window (its received prefix was checked
    /// packet by packet).
    pub fn stop(&mut self, at: Instant) {
        self.stopping = true;
        let rx = self.rx.lock().expect("rx state poisoned");
        for actor in &self.actors {
            match &actor.state {
                State::Playing(p) => {
                    if let Some(first) = p.first {
                        self.log.delivering.push((first, p.eos.unwrap_or(at)));
                    }
                    if rx.get(p.stream).is_some_and(|s| s.mismatched > 0) {
                        self.log.ops[p.op]
                            .failed
                            .get_or_insert("payload mismatch".into());
                    }
                }
                State::Recording(r) => {
                    if let Some(ready) = r.ready {
                        self.log.delivering.push((ready, r.eos.unwrap_or(at)));
                    }
                }
                State::Idle => {}
            }
        }
    }

    /// Live count of plays and recordings.
    pub fn active(&self) -> usize {
        self.actors
            .iter()
            .filter(|a| !matches!(a.state, State::Idle))
            .count()
    }

    /// One loop iteration: accept and poll control connections, take
    /// the receiver's events, run due actions, then sleep until the
    /// next due time (at most 1 ms).
    pub fn step(&mut self) -> Result<(), String> {
        let now = Instant::now();
        self.accept()?;
        self.poll_conns(now);
        let events = std::mem::take(&mut self.rx.lock().expect("rx state poisoned").events);
        for ev in events {
            self.on_rx(ev);
        }
        while let Some(Reverse((due, _, action))) = self.timers.peek().copied() {
            let now = Instant::now();
            if due > now {
                break;
            }
            self.timers.pop();
            self.log
                .lag
                .push((now, now.duration_since(due).as_secs_f64() * 1e3));
            self.run(action, now)?;
        }
        let mut until = Instant::now() + Duration::from_millis(1);
        if let Some(Reverse((due, _, _))) = self.timers.peek() {
            until = until.min(*due);
        }
        let left = until.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
        Ok(())
    }

    /// Runs the loop until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) -> Result<(), String> {
        while Instant::now() < deadline {
            self.step()?;
        }
        Ok(())
    }

    fn accept(&mut self) -> Result<(), String> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).ok();
                    self.next_conn += 1;
                    self.conns.insert(
                        self.next_conn,
                        Conn {
                            stream,
                            buf: Vec::new(),
                            group: None,
                            hot: true,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
    }

    fn on_rx(&mut self, ev: RxEvent) {
        let (RxEvent::First(stream, _) | RxEvent::Eos(stream, _)) = ev;
        let Some(&a) = self.streams.get(&stream) else {
            return;
        };
        let State::Playing(p) = &mut self.actors[a].state else {
            return;
        };
        match ev {
            RxEvent::First(_, at) => {
                p.first = Some(at);
                let (sent, from, trace) = (p.sent, p.ready.unwrap_or(p.reply), p.trace);
                self.log
                    .startup
                    .push((sent, at.duration_since(sent).as_secs_f64() * 1e3));
                self.span("msu.first_packet", trace, from, at);
            }
            RxEvent::Eos(_, at) => {
                p.eos = Some(at);
                let (first, trace, group) = (p.first.unwrap_or(at), p.trace, p.group);
                self.span("play.eos", trace, first, at);
                if let Some(c) = self
                    .group_conn
                    .get(&group)
                    .and_then(|c| self.conns.get_mut(c))
                {
                    c.hot = true;
                }
            }
        }
    }

    fn poll_conns(&mut self, now: Instant) {
        let sweep = now.duration_since(self.last_sweep) >= SWEEP;
        if sweep {
            self.last_sweep = now;
        }
        let ids: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.hot || sweep)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let mut msgs = Vec::new();
            let mut closed = false;
            {
                let c = self.conns.get_mut(&id).expect("listed");
                let mut chunk = [0u8; 4_096];
                loop {
                    match c.stream.read(&mut chunk) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                while c.buf.len() >= 4 {
                    let len = u32::from_le_bytes([c.buf[0], c.buf[1], c.buf[2], c.buf[3]]) as usize;
                    if c.buf.len() < 4 + len {
                        break;
                    }
                    let msg: std::io::Result<Option<MsuToClient>> =
                        read_frame(&mut &c.buf[..4 + len]);
                    c.buf.drain(..4 + len);
                    match msg {
                        Ok(Some(m)) => msgs.push(m),
                        _ => closed = true,
                    }
                }
            }
            let at = Instant::now();
            for m in msgs {
                match m {
                    MsuToClient::GroupReady { group, .. } => {
                        if let Some(c) = self.conns.get_mut(&id) {
                            c.group = Some(group);
                            c.hot = false;
                        }
                        self.group_conn.insert(group, id);
                        self.on_ready(group, at);
                    }
                    MsuToClient::GroupEnded { group, reason } => {
                        closed = true;
                        self.on_ended(group, reason, at);
                    }
                    MsuToClient::VcrAck { .. } => {}
                }
            }
            if closed {
                if let Some(c) = self.conns.remove(&id) {
                    if let Some(g) = c.group {
                        self.group_conn.remove(&g);
                        if self.groups.contains_key(&g) {
                            self.on_ended(
                                g,
                                DoneReason::Error("control connection lost".into()),
                                at,
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_ready(&mut self, group: GroupId, at: Instant) {
        let Some(&a) = self.groups.get(&group) else {
            return;
        };
        match &mut self.actors[a].state {
            State::Playing(p) => {
                p.ready = Some(at);
                let (reply, trace) = (p.reply, p.trace);
                self.span("msu.ready", trace, reply, at);
            }
            State::Recording(r) => {
                r.ready = Some(at);
                self.at(at, Action::Send(a));
            }
            State::Idle => {}
        }
    }

    fn on_ended(&mut self, group: GroupId, reason: DoneReason, at: Instant) {
        let Some(a) = self.groups.remove(&group) else {
            return;
        };
        self.group_conn.remove(&group);
        match &mut self.actors[a].state {
            State::Playing(p) => {
                p.ended = Some((at, reason));
                // The end-of-stream datagram may still be queued behind
                // the receiver: give it a moment before judging.
                let eos_seen = self
                    .rx
                    .lock()
                    .expect("rx")
                    .get(p.stream)
                    .is_some_and(|s| s.eos_at.is_some());
                let settle = if eos_seen {
                    at
                } else {
                    at + Duration::from_millis(200)
                };
                self.at(settle, Action::Finalize(a));
            }
            State::Recording(r) => {
                r.ended = Some(at);
                let op = r.op;
                if reason == DoneReason::Completed {
                    self.at(at, Action::Commit(a));
                } else {
                    self.fail(op, format!("recording ended: {reason:?}"));
                    self.log.ops[op].end = Some(at);
                    self.end_record(a, at);
                }
            }
            State::Idle => {}
        }
    }

    fn run(&mut self, action: Action, now: Instant) -> Result<(), String> {
        match action {
            Action::StartPlay(a) => {
                if !self.stopping {
                    let t = self.actors[a].rng.below(self.titles.len());
                    let title = Arc::clone(&self.titles[t]);
                    self.start_play(a, title_name(t), title, now);
                }
            }
            Action::StartRecord(a) => {
                if !self.stopping {
                    let round = self.actors[a].round;
                    let (name, clip) = (self.clip_name(a, round), self.clip(a, round));
                    self.start_record(a, name, clip, 1.0, now);
                }
            }
            Action::Send(a) => self.send_due(a, now)?,
            Action::Commit(a) => self.commit(a, now)?,
            Action::Finalize(a) => self.finalize_play(a, now),
        }
        Ok(())
    }

    fn start_play(&mut self, a: usize, content: String, title: Arc<Title>, now: Instant) {
        let op = self.new_op(now);
        let port = self.actors[a].port.clone();
        let sent = Instant::now();
        let res = self
            .session()
            .request(&ClientRequest::Play { content, port });
        let reply = Instant::now();
        match res {
            Ok((CoordReply::PlayStarted { group, streams }, queued)) if streams.len() == 1 => {
                if queued {
                    self.fail(op, "queued".into());
                }
                let (stream, trace) = (streams[0].stream, streams[0].trace.id);
                self.span("coord.play", trace, sent, reply);
                self.rx
                    .lock()
                    .expect("rx")
                    .register(stream, Arc::clone(&title));
                self.groups.insert(group, a);
                self.streams.insert(stream, a);
                self.actors[a].state = State::Playing(Play {
                    op,
                    title,
                    group,
                    stream,
                    trace,
                    sent,
                    reply,
                    ready: None,
                    first: None,
                    eos: None,
                    ended: None,
                });
            }
            other => {
                let why = match other {
                    Ok((r, _)) => format!("unexpected reply {r:?}"),
                    Err(e) => e,
                };
                self.fail(op, why);
                self.log.ops[op].end = Some(reply);
                self.rx
                    .lock()
                    .expect("rx")
                    .count_lost(title.packets() as u64, reply);
                self.after_play(a, reply + Duration::from_secs(1));
            }
        }
    }

    fn finalize_play(&mut self, a: usize, now: Instant) {
        let State::Playing(p) = std::mem::replace(&mut self.actors[a].state, State::Idle) else {
            return;
        };
        self.streams.remove(&p.stream);
        let (ended, reason) = p.ended.clone().expect("finalized after GroupEnded");
        let st = self.rx.lock().expect("rx state poisoned").take(p.stream);
        self.log.ops[p.op].end = Some(ended);
        let eos = st.as_ref().and_then(|s| s.eos_at).or(p.eos);
        match &st {
            Some(s) if reason == DoneReason::Completed && s.verified() => {}
            Some(s) => {
                if s.eos_at.is_none() {
                    self.rx
                        .lock()
                        .expect("rx")
                        .count_lost(s.missing().saturating_sub(s.lost), now);
                }
                if s.mismatched > 0 {
                    self.log.mismatches += 1;
                }
                self.fail(
                    p.op,
                    format!(
                        "play ended {reason:?}: {} of {} packets, {} lost, {} mismatched",
                        s.received,
                        p.title.packets(),
                        s.lost,
                        s.mismatched
                    ),
                );
            }
            None => self.fail(p.op, "stream state missing".into()),
        }
        if let Some(first) = p.first {
            self.log.delivering.push((first, eos.unwrap_or(ended)));
        }
        if let Some(e) = eos {
            self.span("msu.teardown", p.trace, e, ended);
        }
        self.span("play", p.trace, p.sent, ended);
        let think = THINK + Duration::from_micros(self.actors[a].rng.below(THINK_JITTER_US) as u64);
        self.after_play(a, ended + think);
    }

    /// What an actor does once its play is over.
    fn after_play(&mut self, a: usize, next: Instant) {
        self.actors[a].state = State::Idle;
        match self.actors[a].role {
            Role::Viewer => self.at(next, Action::StartPlay(a)),
            Role::Recorder => {
                // The clip has been played back; drop the one from
                // three rounds back.
                if self.actors[a].clips.len() > 3 {
                    let old = self.actors[a].clips.pop_front().expect("non-empty");
                    let t = Instant::now();
                    match self.session().request(&ClientRequest::Delete {
                        content: old.clone(),
                    }) {
                        Ok((CoordReply::Ok, _)) => self.span("coord.delete", 0, t, Instant::now()),
                        other => self.errors.push(format!("delete {old}: {other:?}")),
                    }
                }
                self.actors[a].round += 1;
                self.at(next, Action::StartRecord(a));
            }
            Role::Uploader => {}
        }
    }

    fn start_record(
        &mut self,
        a: usize,
        content: String,
        title: Arc<Title>,
        speedup: f64,
        now: Instant,
    ) {
        let op = self.new_op(now);
        let sent = Instant::now();
        let type_name = match self.actors[a].role {
            Role::Uploader => self.media_type.to_owned(),
            _ => "mpeg1".to_owned(),
        };
        let req = ClientRequest::Record {
            content: content.clone(),
            port: self.actors[a].port.clone(),
            type_name,
            est_secs: title.secs + 1,
        };
        let res = self.session().request(&req);
        let reply = Instant::now();
        match res {
            Ok((CoordReply::RecordStarted { group, streams }, queued)) if streams.len() == 1 => {
                if queued {
                    self.fail(op, "queued".into());
                }
                let s = &streams[0];
                self.span("coord.record", s.trace.id, sent, reply);
                self.groups.insert(group, a);
                self.actors[a].state = State::Recording(Rec {
                    op,
                    content,
                    title,
                    group,
                    stream: s.stream,
                    sink: s.udp_sink,
                    trace: s.trace.id,
                    speedup,
                    sent,
                    ready: None,
                    next: 0,
                    eos: None,
                    ended: None,
                });
            }
            other => {
                let why = match other {
                    Ok((r, _)) => format!("unexpected reply {r:?}"),
                    Err(e) => e,
                };
                self.fail(op, why.clone());
                self.log.ops[op].end = Some(reply);
                if self.actors[a].role == Role::Uploader {
                    self.errors.push(format!("upload {content}: {why}"));
                } else {
                    self.at(reply + Duration::from_secs(1), Action::StartRecord(a));
                }
            }
        }
    }

    fn send_due(&mut self, a: usize, now: Instant) -> Result<(), String> {
        let State::Recording(r) = &mut self.actors[a].state else {
            return Ok(());
        };
        let Some(base) = r.ready else { return Ok(()) };
        if r.eos.is_some() {
            return Ok(());
        }
        while r.next < r.title.upload.len() {
            let (t_us, range) = r.title.upload[r.next].clone();
            let due = base + Duration::from_secs_f64(t_us as f64 / 1e6 / r.speedup);
            if due > now {
                self.at(due, Action::Send(a));
                return Ok(());
            }
            let header = DataHeader {
                stream: r.stream,
                seq: r.next as u32,
                offset: MediaTime::ZERO,
                kind: PacketKind::Media,
            };
            header.encode_packet_into(&r.title.bytes[range], &mut self.send_buf);
            self.udp
                .send_to(&self.send_buf, r.sink)
                .map_err(|e| format!("record send: {e}"))?;
            r.next += 1;
        }
        let header = DataHeader {
            stream: r.stream,
            seq: r.next as u32,
            offset: MediaTime::ZERO,
            kind: PacketKind::EndOfStream,
        };
        header.encode_packet_into(&[], &mut self.send_buf);
        self.udp
            .send_to(&self.send_buf, r.sink)
            .map_err(|e| format!("record send: {e}"))?;
        r.eos = Some(Instant::now());
        let group = r.group;
        if let Some(c) = self
            .group_conn
            .get(&group)
            .and_then(|c| self.conns.get_mut(c))
        {
            c.hot = true;
        }
        Ok(())
    }

    fn commit(&mut self, a: usize, now: Instant) -> Result<(), String> {
        let State::Recording(r) = &self.actors[a].state else {
            return Ok(());
        };
        let (content, op, len) = (r.content.clone(), r.op, r.title.bytes.len() as u64);
        let entries = match self.session().request(&ClientRequest::ListContent)? {
            (CoordReply::ContentList { entries }, _) => entries,
            (other, _) => return Err(format!("unexpected reply {other:?}")),
        };
        let listed = Instant::now();
        let State::Recording(r) = &self.actors[a].state else {
            unreachable!()
        };
        let Some(entry) = entries.iter().find(|e| e.name == content) else {
            if now > r.ended.unwrap_or(now) + COMMIT_TIMEOUT {
                self.fail(op, "recording never reached the catalog".into());
                self.log.ops[op].end = Some(now);
                self.end_record(a, now);
            } else {
                self.at(now + Duration::from_millis(2), Action::Commit(a));
            }
            return Ok(());
        };
        let eos = r.eos.unwrap_or(listed);
        let (trace, sent, ready) = (r.trace, r.sent, r.ready);
        if entry.bytes != len {
            self.log.mismatches += 1;
            self.fail(
                op,
                format!("{content}: catalog size {} != {len}", entry.bytes),
            );
        }
        self.log.ops[op].end = Some(listed);
        self.log
            .commit
            .push((eos, listed.duration_since(eos).as_secs_f64() * 1e3));
        if let Some(ready) = ready {
            self.log.delivering.push((ready, eos));
        }
        self.span("record.commit", trace, eos, listed);
        self.span("record", trace, sent, listed);
        let State::Recording(r) = std::mem::replace(&mut self.actors[a].state, State::Idle) else {
            unreachable!()
        };
        match self.actors[a].role {
            Role::Uploader => {
                self.uploads_done += 1;
                self.next_upload(a, listed);
            }
            Role::Recorder => {
                // Verify the clip by playing it back at once, on the
                // disk slot its recording just released.
                self.actors[a].clips.push_back(r.content.clone());
                self.start_play(a, r.content, r.title, listed);
            }
            Role::Viewer => {}
        }
        Ok(())
    }

    fn end_record(&mut self, a: usize, now: Instant) {
        self.actors[a].state = State::Idle;
        match self.actors[a].role {
            Role::Uploader => self.errors.push("an upload failed".into()),
            Role::Recorder => self.at(now + Duration::from_secs(1), Action::StartRecord(a)),
            Role::Viewer => {}
        }
    }
}
