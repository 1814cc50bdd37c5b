//! The network process: deadline-driven pacing and recording receivers.
//!
//! "The network process then packetizes the buffer and sends it out
//! through the high speed interface. The network process ensures that
//! packet delivery proceeds on schedule." (paper §2.3)
//!
//! One thread paces every play stream. It keeps a timer heap keyed by
//! each stream's next packet deadline, sleeps until the earliest one,
//! and services only the streams that are due: it tops up their packet
//! queues from the page ring and transmits every packet whose deadline
//! has arrived. No packet is ever sent before its deadline.
//!
//! The paper's network process woke on a 10 ms timer, so a packet
//! could leave up to a tick late (§2.2.1). Here the only slack is the
//! *grain* (`MsuConfig::net_tick`, 1.5 ms by default): the least
//! spacing between two wakeups, so packets due within one grain share
//! one. A wakeup costs CPU however few packets it sends, which is why
//! the grain is not zero.
//!
//! A stream with nothing due is not polled. Unreleased, paused and
//! drained streams drop out of the heap, and the event that ends the
//! wait re-arms them: [`NetCmd::Wake`] on group release and after each
//! VCR command, and the stream's [`Doorbell`] (built by [`doorbell`]
//! into its page ring) when the disk thread pushes a page. Popping a
//! page rings the disk thread's bell in turn.
//!
//! Recordings run one receiver thread per stream: it owns the UDP sink
//! socket, feeds packets through the stream's protocol module (which
//! derives delivery times, §2.3.2), and pushes the records into the
//! ring the disk process drains.

use crate::metrics::MsuMetrics;
use crate::pacer::Pacer;
use crate::spsc::{Consumer, Doorbell, PopError, Producer, PushError};
use crate::stream::{GroupShared, PageBuf, StreamPhase, StreamShared, DEADLINE_MISS_US};
use calliope_proto::module::ProtocolModule;
use calliope_proto::record::PacketRecord;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::FileKind;
use calliope_storage::page::Geometry;
use calliope_types::wire::data::{DataHeader, PacketKind};
use calliope_types::wire::messages::PacingSpec;
use calliope_types::{MediaTime, StreamId};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events the network thread reports to the control plane.
#[derive(Debug)]
pub enum NetEvent {
    /// A play stream delivered its last packet and the end-of-stream
    /// marker.
    PlayFinished {
        /// Which stream.
        stream: StreamId,
    },
}

/// Commands accepted by the network thread.
pub enum NetCmd {
    /// Registers a play stream.
    AddPlay {
        /// Shared stream state.
        shared: Arc<StreamShared>,
        /// Group (pacing starts only after release).
        group: Arc<GroupShared>,
        /// Page ring from the disk thread.
        consumer: Consumer<PageBuf>,
        /// The stream's doorbell, which the ring rings on every push.
        bell: Arc<Doorbell>,
        /// Client display-port address.
        dest: SocketAddr,
        /// Calculated (CBR) or stored (IB-tree) schedule.
        pacing: PacingSpec,
        /// Page geometry (for parsing IB-tree pages).
        geometry: Geometry,
    },
    /// Drops a play stream.
    Remove {
        /// Which stream.
        stream: StreamId,
    },
    /// Services these streams now: their group was released, or a VCR
    /// command changed their pacing. Unknown ids are ignored.
    Wake {
        /// Which streams.
        streams: Vec<StreamId>,
    },
    /// A stream's page-ring doorbell: the disk thread pushed a page.
    Kick {
        /// Which stream.
        stream: StreamId,
    },
    /// Stops the thread.
    Shutdown,
}

impl std::fmt::Debug for NetCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NetCmd::AddPlay { .. } => "AddPlay",
            NetCmd::Remove { .. } => "Remove",
            NetCmd::Wake { .. } => "Wake",
            NetCmd::Kick { .. } => "Kick",
            NetCmd::Shutdown => "Shutdown",
        };
        write!(f, "NetCmd::{name}")
    }
}

/// Where a queued packet's payload lives.
enum PktPayload {
    /// A range of a refcounted disk page — queuing it made no copy, and
    /// the page returns to its pool when the last packet referencing it
    /// is sent.
    Shared(crate::pool::PageData, std::ops::Range<usize>),
    /// An owned buffer: packets stitched across a page boundary, parsed
    /// IB-tree records, and the end-of-stream flush.
    Owned(Vec<u8>),
}

impl PktPayload {
    fn as_slice(&self) -> &[u8] {
        match self {
            PktPayload::Shared(page, r) => &page[r.clone()],
            PktPayload::Owned(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

struct QueuedPkt {
    offset: MediaTime,
    kind: PacketKind,
    payload: PktPayload,
}

struct PlayIo {
    shared: Arc<StreamShared>,
    group: Arc<GroupShared>,
    consumer: Consumer<PageBuf>,
    /// Rung by the disk thread's pushes; cleared when its kick arrives.
    bell: Arc<Doorbell>,
    dest: SocketAddr,
    geometry: Geometry,
    packetizer: Option<crate::packetize::CbrPacketizer>,
    queue: VecDeque<QueuedPkt>,
    local_gen: u64,
    skip_until: MediaTime,
    wire_seq: u32,
    flushed: bool,
}

/// The pacer's timer heap: at most one live wake per play stream.
///
/// Re-arming a stream leaves its old heap entry behind; an entry whose
/// instant no longer matches the stream's armed wake is stale and is
/// skipped when it surfaces.
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, StreamId)>>,
    armed: HashMap<StreamId, Instant>,
    grain: Duration,
}

impl Timers {
    fn new(grain: Duration) -> Timers {
        Timers {
            heap: BinaryHeap::new(),
            armed: HashMap::new(),
            grain,
        }
    }

    /// Sets `id`'s next wake, replacing any earlier one.
    fn arm(&mut self, id: StreamId, at: Instant) {
        self.armed.insert(id, at);
        self.heap.push(Reverse((at, id)));
    }

    /// Cancels `id`'s wake.
    fn disarm(&mut self, id: StreamId) {
        self.armed.remove(&id);
    }

    fn is_live(&self, at: Instant, id: StreamId) -> bool {
        self.armed.get(&id) == Some(&at)
    }

    /// When the loop should wake next: the earliest live wake, but no
    /// sooner than one grain after `pass_start`. `None` means nothing
    /// is armed and the loop sleeps until a command arrives.
    fn sleep_until(&mut self, pass_start: Instant) -> Option<Instant> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if self.is_live(at, id) {
                return Some(at.max(pass_start + self.grain));
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the next stream due at `now`, disarming it.
    fn pop_due(&mut self, now: Instant) -> Option<StreamId> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if at > now {
                return None;
            }
            self.heap.pop();
            if self.is_live(at, id) {
                self.armed.remove(&id);
                return Some(id);
            }
        }
        None
    }
}

/// What a stream needs after a service pass.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    /// Service again at this instant (its front packet's deadline).
    At(Instant),
    /// Nothing is due: unreleased, paused, or out of data. Only a
    /// `Wake` or the ring's doorbell re-arms it.
    Idle,
    /// Finished or torn down; forget it.
    Drop,
}

/// The wake for a queue whose front packet plays at `front`: its
/// deadline, or `Idle` for an empty queue, a paused stream, or one
/// whose group is not yet released.
fn next_wake(pacer: &Pacer, front: Option<MediaTime>) -> Next {
    match front.and_then(|offset| pacer.deadline(offset)) {
        Some(at) => Next::At(at),
        None => Next::Idle,
    }
}

/// A play stream's doorbell: its kick is a [`NetCmd::Kick`] for
/// `stream` on `tx`. Build the stream's page ring with it as the data
/// bell (batch 1), and hand it over in `AddPlay`.
pub fn doorbell(tx: &Sender<NetCmd>, stream: StreamId) -> Arc<Doorbell> {
    let tx = tx.clone();
    Doorbell::new(move || {
        let _ = tx.send(NetCmd::Kick { stream });
    })
}

/// The network thread main loop.
///
/// `grain` is the least spacing between two wakeups. `blackhole` is
/// the chaos switch: while set, media packets are paced and accounted
/// normally but never actually transmitted — the failure only the
/// client can observe.
pub fn run(
    socket: UdpSocket,
    grain: Duration,
    rx: Receiver<NetCmd>,
    events: Sender<NetEvent>,
    metrics: Arc<MsuMetrics>,
    blackhole: Arc<AtomicBool>,
) {
    let mut plays: HashMap<StreamId, PlayIo> = HashMap::new();
    let mut timers = Timers::new(grain);
    // One datagram scratch buffer for every stream: header + payload are
    // encoded into it in place, so steady-state sends never allocate.
    let mut scratch: Vec<u8> = Vec::with_capacity(65_536);
    let mut pass_start = Instant::now();
    loop {
        // Sleep until the next wake is due or a command arrives.
        let mut cmd = match timers.sleep_until(pass_start) {
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            },
        };
        metrics.net_wakeups.inc();
        let now = Instant::now();
        pass_start = now;
        while let Some(c) = cmd.take() {
            match c {
                NetCmd::Shutdown => return,
                c => handle_inline(c, &mut plays, &mut timers, now, &metrics),
            }
            cmd = match rx.try_recv() {
                Ok(c) => Some(c),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => return,
            };
        }

        let dropping = blackhole.load(Ordering::Acquire);
        while let Some(id) = timers.pop_due(now) {
            let Some(io) = plays.get_mut(&id) else {
                continue;
            };
            match service_play(&socket, io, now, &events, &metrics, &mut scratch, dropping) {
                Next::At(at) => timers.arm(id, at),
                Next::Idle => {}
                Next::Drop => {
                    plays.remove(&id);
                }
            }
        }
    }
}

fn handle_inline(
    cmd: NetCmd,
    plays: &mut HashMap<StreamId, PlayIo>,
    timers: &mut Timers,
    now: Instant,
    metrics: &Arc<MsuMetrics>,
) {
    match cmd {
        NetCmd::AddPlay {
            shared,
            group,
            consumer,
            bell,
            dest,
            pacing,
            geometry,
        } => {
            let packetizer = match pacing {
                PacingSpec::Constant { rate, packet_bytes } => Some(
                    crate::packetize::CbrPacketizer::new(CbrSchedule::new(rate, packet_bytes)),
                ),
                PacingSpec::Stored => None,
            };
            tracing::debug!("play stream {} delivering to {dest}", shared.id);
            let id = shared.id;
            // The disk thread may have pushed, and rung, before the
            // stream was known here; that kick was dropped. Clear the
            // bell and let the first service re-check the ring.
            bell.clear();
            plays.insert(
                id,
                PlayIo {
                    shared,
                    group,
                    consumer,
                    bell,
                    dest,
                    geometry,
                    packetizer,
                    queue: VecDeque::new(),
                    local_gen: 0,
                    skip_until: MediaTime::ZERO,
                    wire_seq: 0,
                    flushed: false,
                },
            );
            timers.arm(id, now);
        }
        NetCmd::Remove { stream } => {
            timers.disarm(stream);
            if let Some(io) = plays.remove(&stream) {
                metrics
                    .play_ring_depth
                    .observe_peak(io.consumer.high_water() as u64);
            }
        }
        NetCmd::Wake { streams } => {
            for id in streams {
                if plays.contains_key(&id) {
                    timers.arm(id, now);
                }
            }
        }
        NetCmd::Kick { stream } => {
            if let Some(io) = plays.get(&stream) {
                io.bell.clear();
                timers.arm(stream, now);
            }
        }
        NetCmd::Shutdown => {}
    }
}

/// Services one play stream and says when it next needs service.
/// `blackhole` suppresses the actual sends (chaos injection).
fn service_play(
    socket: &UdpSocket,
    io: &mut PlayIo,
    now: Instant,
    events: &Sender<NetEvent>,
    metrics: &Arc<MsuMetrics>,
    scratch: &mut Vec<u8>,
    blackhole: bool,
) -> Next {
    // Snapshot the control block.
    let (phase, gen, start_seq, skip_until_us, eof, pacer, kind): (
        StreamPhase,
        u64,
        u64,
        u64,
        bool,
        Pacer,
        FileKind,
    ) = {
        let mut ctl = io.shared.ctl.lock();
        // Pacing starts once the group is released and the stream has
        // data to send: all group members start simultaneously.
        if io.group.is_released() && !ctl.pacer.is_started() {
            ctl.pacer.start(now);
            ctl.phase = StreamPhase::Running;
        }
        (
            ctl.phase,
            ctl.gen,
            ctl.start_seq,
            ctl.skip_until_us,
            ctl.eof,
            ctl.pacer.clone(),
            ctl.file.kind,
        )
    };
    if phase == StreamPhase::Done {
        return Next::Drop;
    }

    // Generation change (seek / trick switch): discard buffered packets.
    if io.local_gen != gen {
        io.local_gen = gen;
        io.queue.clear();
        io.skip_until = MediaTime(skip_until_us);
        io.flushed = false;
        if let Some(pk) = io.packetizer.as_mut() {
            pk.reset(start_seq);
        }
    }

    // Top up the packet queue from the page ring.
    while io.queue.len() < 512 {
        match io.consumer.pop() {
            Ok(buf) => {
                if buf.gen != gen {
                    continue; // stale page from before a seek
                }
                match kind {
                    FileKind::Raw => {
                        let pk = io.packetizer.as_mut().expect("raw files have a packetizer");
                        let start = buf.skip.min(buf.valid);
                        for (offset, pb) in pk.feed_ranges(&buf.data[start..buf.valid]) {
                            // In-page packets share the pooled page; only
                            // boundary-straddling packets own their bytes.
                            let payload = match pb {
                                crate::packetize::PacketBytes::Range(r) => PktPayload::Shared(
                                    buf.data.clone(),
                                    start + r.start..start + r.end,
                                ),
                                crate::packetize::PacketBytes::Stitched(v) => PktPayload::Owned(v),
                            };
                            io.queue.push_back(QueuedPkt {
                                offset,
                                kind: PacketKind::Media,
                                payload,
                            });
                        }
                    }
                    FileKind::IbTree => {
                        match crate::packetize::unpack_ib_page(&io.geometry, &buf.data) {
                            Ok(records) => {
                                for r in records {
                                    if r.offset >= io.skip_until {
                                        io.queue.push_back(QueuedPkt {
                                            offset: r.offset,
                                            kind: r.kind,
                                            payload: PktPayload::Owned(r.payload),
                                        });
                                    }
                                }
                            }
                            Err(_) => {
                                // A corrupt page loses its packets but must
                                // not kill the stream.
                                continue;
                            }
                        }
                    }
                }
            }
            Err(PopError::Empty) | Err(PopError::Closed) => break,
        }
    }

    // Transmit everything due.
    while let Some(front) = io.queue.front() {
        if !pacer.is_due(front.offset, now) {
            break;
        }
        let pkt = io.queue.pop_front().expect("front exists");
        let late_us = pacer
            .deadline(pkt.offset)
            .map(|d| now.saturating_duration_since(d).as_micros() as u64)
            .unwrap_or(0);
        let header = DataHeader {
            stream: io.shared.id,
            seq: io.wire_seq,
            offset: pkt.offset,
            kind: pkt.kind,
        };
        io.wire_seq = io.wire_seq.wrapping_add(1);
        header.encode_packet_into(pkt.payload.as_slice(), scratch);
        // A transient send failure drops the packet (UDP semantics); the
        // client's sequence numbers expose the loss. A blackholed send
        // is accounted as sent — the NIC doesn't know the port is dead.
        if !blackhole {
            let _ = socket.send_to(scratch, io.dest);
        }
        io.shared.stats.note_packet(pkt.payload.len(), late_us);
        metrics.packets_sent.inc();
        metrics.bytes_sent.add(pkt.payload.len() as u64);
        metrics.send_lateness_us.record(late_us);
        if late_us > DEADLINE_MISS_US {
            metrics.deadline_misses.inc();
            tracing::trace!(
                "deadline miss: stream {} packet at {} was {late_us} µs late",
                io.shared.id,
                pkt.offset
            );
        }
    }
    metrics
        .play_ring_depth
        .observe_peak(io.consumer.high_water() as u64);

    // End of stream: flush the final short packet, then the marker.
    if eof && io.queue.is_empty() && io.consumer.is_empty() && pacer.is_playing() {
        let tail = if io.flushed {
            None
        } else {
            io.flushed = true;
            io.packetizer.as_mut().and_then(|pk| pk.flush())
        };
        match tail {
            // The short packet is paced like any other.
            Some((offset, payload)) => io.queue.push_back(QueuedPkt {
                offset,
                kind: PacketKind::Media,
                payload: PktPayload::Owned(payload),
            }),
            None => {
                let header = DataHeader {
                    stream: io.shared.id,
                    seq: io.wire_seq,
                    offset: pacer.position(now),
                    kind: PacketKind::EndOfStream,
                };
                if !blackhole {
                    let _ = socket.send_to(&header.encode_packet(&[]), io.dest);
                }
                io.shared.ctl.lock().phase = StreamPhase::Done;
                let _ = events.send(NetEvent::PlayFinished {
                    stream: io.shared.id,
                });
                return Next::Drop;
            }
        }
    }
    next_wake(&pacer, io.queue.front().map(|p| p.offset))
}

/// Spawns the receiver thread for one recording stream.
///
/// The receiver owns the UDP sink socket; each datagram is decoded,
/// passed through the protocol module (which derives the delivery
/// time), and pushed into the ring toward the disk process. The thread
/// exits on the client's end-of-stream marker or when `stop` is set;
/// dropping the producer closes the ring, which tells the disk process
/// to finalize the file.
pub fn spawn_record_receiver(
    socket: UdpSocket,
    shared: Arc<StreamShared>,
    mut module: Box<dyn ProtocolModule>,
    mut producer: Producer<PacketRecord>,
    stop: Arc<AtomicBool>,
    metrics: Arc<MsuMetrics>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("socket read timeout");
        let start = Instant::now();
        let mut buf = vec![0u8; 65_536];
        let mut next_seq: u32 = 0;
        while !stop.load(Ordering::Acquire) {
            let n = match socket.recv(&mut buf) {
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let Ok((header, payload)) = DataHeader::decode_packet(&buf[..n]) else {
                continue; // not a Calliope packet; ignore
            };
            if header.stream != shared.id {
                continue;
            }
            // Senders number a recording's datagrams from 0 with no
            // gaps, end-of-stream marker included.
            if header.seq > next_seq {
                metrics
                    .record_seq_gaps
                    .add(u64::from(header.seq - next_seq));
            }
            next_seq = next_seq.max(header.seq.saturating_add(1));
            if header.kind == PacketKind::EndOfStream {
                break;
            }
            let arrival_us = start.elapsed().as_micros() as u64;
            let record = match module.on_record(header.kind, payload, arrival_us) {
                Ok(Some(r)) => r.record,
                Ok(None) => continue,
                Err(_) => continue,
            };
            shared.stats.note_packet(record.payload.len(), 0);
            metrics.packets_recorded.inc();
            metrics.bytes_recorded.add(record.payload.len() as u64);
            let mut rec = record;
            loop {
                match producer.push(rec) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        rec = back;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(PushError::Closed(_)) => {
                        metrics
                            .record_ring_depth
                            .observe_peak(producer.high_water() as u64);
                        return;
                    }
                }
            }
        }
        metrics
            .record_ring_depth
            .observe_peak(producer.high_water() as u64);
        // Producer drops here: the disk process finalizes the file.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::{self, Bells};
    use crate::stream::{ActiveFile, StreamCtl};
    use calliope_types::time::BitRate;
    use calliope_types::{GroupId, StreamId};
    use crossbeam::channel::unbounded;
    use parking_lot::Mutex;

    /// A play ring as the server builds it, minus the disk's bell.
    fn play_ring(
        tx: &Sender<NetCmd>,
        id: u64,
        capacity: usize,
    ) -> (Producer<PageBuf>, Consumer<PageBuf>, Arc<Doorbell>) {
        let bell = doorbell(tx, StreamId(id));
        let bells = Bells {
            data: Some((Arc::clone(&bell), 1)),
            slack: None,
        };
        let (p, c) = spsc::ring_with_bells(capacity, bells);
        (p, c, bell)
    }

    fn mk_stream(id: u64, kind: FileKind, pages: u64, len: u64) -> Arc<StreamShared> {
        Arc::new(StreamShared {
            id: StreamId(id),
            group: GroupId(id),
            disk: 0,
            trace: Default::default(),
            ctl: Mutex::new(StreamCtl {
                phase: StreamPhase::Priming,
                gen: 0,
                mode: crate::trick::TrickMode::Normal,
                file: ActiveFile {
                    name: "x".into(),
                    kind,
                    pages,
                    len_bytes: len,
                    root: vec![],
                    duration_us: 0,
                },
                next_page: 0,
                pending_skip: 0,
                eof: false,
                skip_until_us: 0,
                start_seq: 0,
                pacer: Pacer::new(),
            }),
            stats: Default::default(),
        })
    }

    /// Packets captured off the wire: headers plus one shared byte
    /// arena, so collecting N packets costs one growing buffer rather
    /// than N per-packet heap copies.
    struct RecvLog {
        arena: Vec<u8>,
        entries: Vec<(DataHeader, std::ops::Range<usize>)>,
    }

    impl RecvLog {
        fn iter(&self) -> impl Iterator<Item = (&DataHeader, &[u8])> {
            self.entries
                .iter()
                .map(|(h, r)| (h, &self.arena[r.clone()]))
        }

        fn last(&self) -> Option<(&DataHeader, &[u8])> {
            self.entries
                .last()
                .map(|(h, r)| (h, &self.arena[r.clone()]))
        }

        fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }

    fn recv_all(socket: &UdpSocket, until_eos: bool, timeout: Duration) -> RecvLog {
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut log = RecvLog {
            arena: Vec::new(),
            entries: Vec::new(),
        };
        let deadline = Instant::now() + timeout;
        let mut buf = vec![0u8; 65536];
        while Instant::now() < deadline {
            if let Ok(n) = socket.recv(&mut buf) {
                let (h, p) = DataHeader::decode_packet(&buf[..n]).unwrap();
                let at = log.arena.len();
                log.arena.extend_from_slice(p);
                log.entries.push((h, at..at + p.len()));
                if h.kind == PacketKind::EndOfStream && until_eos {
                    break;
                }
            }
        }
        log
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn stale_heap_entries_are_skipped() {
        let t0 = Instant::now();
        let mut timers = Timers::new(ms(1));
        timers.arm(StreamId(1), t0 + ms(5));
        // Re-armed earlier, then later: only the last wake is live.
        timers.arm(StreamId(1), t0 + ms(2));
        timers.arm(StreamId(1), t0 + ms(8));
        assert_eq!(timers.sleep_until(t0), Some(t0 + ms(8)));
        assert_eq!(timers.pop_due(t0 + ms(7)), None, "stale wakes never fire");
        assert_eq!(timers.pop_due(t0 + ms(8)), Some(StreamId(1)));
        assert_eq!(timers.pop_due(t0 + ms(100)), None, "one service per wake");
        assert_eq!(timers.sleep_until(t0 + ms(8)), None, "nothing left armed");
    }

    #[test]
    fn wakes_closer_than_one_grain_coalesce() {
        let t0 = Instant::now();
        let mut timers = Timers::new(ms(1));
        timers.arm(StreamId(1), t0 + Duration::from_micros(200));
        timers.arm(StreamId(2), t0 + Duration::from_micros(700));
        timers.arm(StreamId(3), t0 + Duration::from_micros(2500));
        // The last pass began at t0: sleep one grain, not 200 µs.
        let wake = timers.sleep_until(t0).unwrap();
        assert_eq!(wake, t0 + ms(1));
        let mut due = Vec::new();
        while let Some(id) = timers.pop_due(wake) {
            due.push(id);
        }
        assert_eq!(
            due,
            vec![StreamId(1), StreamId(2)],
            "one wakeup serves both"
        );
        // A wake more than a grain away is slept to exactly.
        assert_eq!(
            timers.sleep_until(wake),
            Some(t0 + Duration::from_micros(2500))
        );
    }

    #[test]
    fn a_paused_stream_is_not_rearmed_until_a_wake() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new();
        assert_eq!(
            next_wake(&pacer, Some(MediaTime::ZERO)),
            Next::Idle,
            "unreleased"
        );
        pacer.start(t0);
        assert_eq!(
            next_wake(&pacer, Some(MediaTime(3_000))),
            Next::At(t0 + ms(3))
        );
        assert_eq!(next_wake(&pacer, None), Next::Idle, "out of data");
        pacer.pause(t0 + ms(1));
        assert_eq!(next_wake(&pacer, Some(MediaTime(3_000))), Next::Idle);

        // The loop arms nothing for an idle stream, so no wake fires...
        let mut timers = Timers::new(ms(1));
        assert_eq!(timers.sleep_until(t0), None);
        assert_eq!(timers.pop_due(t0 + ms(1_000)), None);
        // ...until the VCR path's Wake arms it at once.
        pacer.resume(t0 + ms(50));
        timers.arm(StreamId(4), t0 + ms(50));
        assert_eq!(timers.pop_due(t0 + ms(50)), Some(StreamId(4)));
        assert_eq!(
            next_wake(&pacer, Some(MediaTime(3_000))),
            Next::At(t0 + ms(52)),
            "the pause froze the position at 1 ms"
        );
    }

    #[test]
    fn a_removed_stream_is_never_serviced() {
        let t0 = Instant::now();
        let mut timers = Timers::new(ms(1));
        timers.arm(StreamId(1), t0 + ms(1));
        timers.arm(StreamId(2), t0 + ms(2));
        timers.disarm(StreamId(1));
        assert_eq!(timers.sleep_until(t0), Some(t0 + ms(2)));
        assert_eq!(timers.pop_due(t0 + ms(10)), Some(StreamId(2)));
        assert_eq!(timers.pop_due(t0 + ms(10)), None);
    }

    #[test]
    fn plays_a_raw_stream_to_completion() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let tick = Duration::from_millis(2);
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                tick,
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        // 2.5 pages of content at a fast rate.
        let page = 4096usize;
        let len = page as u64 * 2 + 1000;
        let shared = mk_stream(7, FileKind::Raw, 3, len);
        let group = GroupShared::new(GroupId(7), 1);
        let (mut p, c, bell) = play_ring(&tx, 7, 2);
        let geometry = Geometry {
            page_size: page,
            internal_size: 512,
            max_keys: 8,
        };
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            consumer: c,
            bell,
            dest,
            // 8 Mbit/s, 1000-byte packets: ~5 ms per packet.
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry,
        })
        .unwrap();

        // Feed pages like the disk thread would, then mark EOF.
        for i in 0..3u64 {
            let valid = if i == 2 { 1000 } else { page };
            let buf = PageBuf {
                gen: 0,
                index: i,
                skip: 0,
                valid,
                data: vec![i as u8 + 1; page].into(),
            };
            let mut b = buf;
            loop {
                match p.push(b) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        b = back;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(PushError::Closed(_)) => panic!("closed"),
                }
            }
        }
        // The disk thread marks EOF when it claims the last page, and
        // the control plane announces the release with a Wake.
        shared.ctl.lock().eof = true;
        group.prime(StreamId(7));
        tx.send(NetCmd::Wake {
            streams: vec![StreamId(7)],
        })
        .unwrap();

        let pkts = recv_all(&client, true, Duration::from_secs(10));
        let eos = pkts.last().unwrap();
        assert_eq!(eos.0.kind, PacketKind::EndOfStream);
        let media: Vec<_> = pkts
            .iter()
            .filter(|(h, _)| h.kind == PacketKind::Media)
            .collect();
        let total: usize = media.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total as u64, len, "every byte delivered");
        // Sequence numbers are dense.
        for (i, (h, _)) in pkts.iter().enumerate() {
            assert_eq!(h.seq, i as u32);
        }
        // Offsets are monotone and paced (~5 ms apart at 8 Mbit/s).
        for w in media.windows(2) {
            assert!(w[1].0.offset >= w[0].0.offset);
        }
        match erx.recv_timeout(Duration::from_secs(2)).unwrap() {
            NetEvent::PlayFinished { stream } => assert_eq!(stream, StreamId(7)),
        }
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn pacing_waits_for_group_release() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, _erx) = unbounded();
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                Duration::from_millis(2),
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        let shared = mk_stream(9, FileKind::Raw, 1, 1000);
        let group = GroupShared::new(GroupId(9), 2); // expects TWO members
        let (mut p, c, bell) = play_ring(&tx, 9, 2);
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            consumer: c,
            bell,
            dest,
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry: Geometry {
                page_size: 4096,
                internal_size: 512,
                max_keys: 8,
            },
        })
        .unwrap();
        p.push(PageBuf {
            gen: 0,
            index: 0,
            skip: 0,
            valid: 1000,
            data: vec![5; 4096].into(),
        })
        .unwrap();
        group.prime(StreamId(9)); // only one of two members primed

        // Nothing may be sent while the group is unreleased.
        let pkts = recv_all(&client, false, Duration::from_millis(300));
        assert!(pkts.is_empty(), "unreleased group must stay silent");

        // Release and observe delivery.
        shared.ctl.lock().eof = true;
        group.prime(StreamId(10));
        tx.send(NetCmd::Wake {
            streams: vec![StreamId(9)],
        })
        .unwrap();
        let pkts = recv_all(&client, true, Duration::from_secs(5));
        assert!(!pkts.is_empty());
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn stale_generation_pages_are_discarded() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, _erx) = unbounded();
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                Duration::from_millis(2),
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        let shared = mk_stream(11, FileKind::Raw, 2, 2000);
        // Pretend a seek already happened: current gen is 1.
        {
            let mut ctl = shared.ctl.lock();
            ctl.gen = 1;
            ctl.start_seq = 0;
        }
        let group = GroupShared::new(GroupId(11), 1);
        let (mut p, c, bell) = play_ring(&tx, 11, 4);
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            consumer: c,
            bell,
            dest,
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry: Geometry {
                page_size: 4096,
                internal_size: 512,
                max_keys: 8,
            },
        })
        .unwrap();
        // A stale page (gen 0) followed by a current one (gen 1).
        p.push(PageBuf {
            gen: 0,
            index: 0,
            skip: 0,
            valid: 1000,
            data: vec![0xAA; 4096].into(),
        })
        .unwrap();
        p.push(PageBuf {
            gen: 1,
            index: 1,
            skip: 0,
            valid: 1000,
            data: vec![0xBB; 4096].into(),
        })
        .unwrap();
        shared.ctl.lock().eof = true;
        group.prime(StreamId(11));
        tx.send(NetCmd::Wake {
            streams: vec![StreamId(11)],
        })
        .unwrap();

        let pkts = recv_all(&client, true, Duration::from_secs(5));
        let media: Vec<_> = pkts
            .iter()
            .filter(|(h, _)| h.kind == PacketKind::Media)
            .collect();
        assert_eq!(media.len(), 1);
        assert!(
            media[0].1.iter().all(|&b| b == 0xBB),
            "only the gen-1 page plays"
        );
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn record_receiver_builds_records_and_closes_ring() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let shared = mk_stream(21, FileKind::IbTree, 0, 0);
        let (producer, mut consumer) = spsc::ring(64);
        let stop = Arc::new(AtomicBool::new(false));
        let module = calliope_proto::module::registry(
            calliope_types::content::ProtocolId::ConstantRate,
            Some(BitRate::from_kbps(64)),
        );
        let h = spawn_record_receiver(
            sink,
            Arc::clone(&shared),
            module,
            producer,
            Arc::clone(&stop),
            MsuMetrics::new(),
        );

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..5u32 {
            let header = DataHeader {
                stream: StreamId(21),
                seq,
                offset: MediaTime::ZERO,
                kind: PacketKind::Media,
            };
            client
                .send_to(&header.encode_packet(&[seq as u8; 100]), sink_addr)
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        // End-of-stream marker terminates the receiver.
        let eos = DataHeader {
            stream: StreamId(21),
            seq: 5,
            offset: MediaTime::ZERO,
            kind: PacketKind::EndOfStream,
        };
        client.send_to(&eos.encode_packet(&[]), sink_addr).unwrap();
        h.join().unwrap();

        let mut records = Vec::new();
        loop {
            match consumer.pop() {
                Ok(r) => records.push(r),
                Err(PopError::Empty) => std::thread::sleep(Duration::from_millis(1)),
                Err(PopError::Closed) => break,
            }
        }
        assert_eq!(records.len(), 5);
        assert_eq!(
            records[0].offset,
            MediaTime::ZERO,
            "first packet is time zero"
        );
        for w in records.windows(2) {
            assert!(
                w[1].offset >= w[0].offset,
                "arrival-derived schedule is monotone"
            );
        }
        // relaxed: single-threaded test readback.
        assert_eq!(shared.stats.packets.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn record_receiver_counts_sequence_gaps() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let shared = mk_stream(41, FileKind::IbTree, 0, 0);
        let (producer, _consumer) = spsc::ring(64);
        let module = calliope_proto::module::registry(
            calliope_types::content::ProtocolId::ConstantRate,
            Some(BitRate::from_kbps(64)),
        );
        let metrics = MsuMetrics::new();
        let h = spawn_record_receiver(
            sink,
            Arc::clone(&shared),
            module,
            producer,
            Arc::new(AtomicBool::new(false)),
            Arc::clone(&metrics),
        );
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Datagrams 2 and 3 are "lost", and so is 7 just before the
        // end-of-stream marker.
        for (seq, kind) in [
            (0, PacketKind::Media),
            (1, PacketKind::Media),
            (4, PacketKind::Media),
            (5, PacketKind::Media),
            (6, PacketKind::Media),
            (8, PacketKind::EndOfStream),
        ] {
            let header = DataHeader {
                stream: StreamId(41),
                seq,
                offset: MediaTime::ZERO,
                kind,
            };
            client
                .send_to(&header.encode_packet(&[7; 100]), sink_addr)
                .unwrap();
        }
        h.join().unwrap();
        assert_eq!(metrics.record_seq_gaps.get(), 3);
        // relaxed: single-threaded test readback.
        assert_eq!(shared.stats.packets.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn record_receiver_ignores_foreign_and_garbage_datagrams() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let shared = mk_stream(31, FileKind::IbTree, 0, 0);
        let (producer, mut consumer) = spsc::ring(16);
        let stop = Arc::new(AtomicBool::new(false));
        let module = calliope_proto::module::registry(
            calliope_types::content::ProtocolId::ConstantRate,
            None,
        );
        let h = spawn_record_receiver(
            sink,
            shared,
            module,
            producer,
            Arc::clone(&stop),
            MsuMetrics::new(),
        );
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"not a calliope packet", sink_addr).unwrap();
        // A packet for a different stream id.
        let foreign = DataHeader {
            stream: StreamId(999),
            seq: 0,
            offset: MediaTime::ZERO,
            kind: PacketKind::Media,
        };
        client
            .send_to(&foreign.encode_packet(&[1; 10]), sink_addr)
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
        h.join().unwrap();
        assert_eq!(consumer.pop(), Err(PopError::Closed), "nothing recorded");
    }
}
