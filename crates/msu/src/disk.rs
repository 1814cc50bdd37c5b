//! The disk process: one thread per disk.
//!
//! "When the client starts a read stream, the MSU's disk process loads
//! data from disk into a shared memory buffer. … The disk process makes
//! sure that the network process always has buffered data ready to
//! send. When data is recorded, the network process fills buffers and
//! the disk process writes full ones to disk." (paper §2.3)
//!
//! Each pass of the duty cycle (§2.2.1) claims the next pages of every
//! read stream with ring slack, up to [`MAX_READ_AHEAD`] each, reads
//! the whole batch in elevator order, and drains the recording rings
//! into the file system. The thread also owns the MSU file system for
//! its disk, so metadata operations (stat, create, seek, trick-switch)
//! arrive as commands with reply channels.
//!
//! When a pass makes no progress the thread blocks on its command
//! channel with no timeout. Work can only appear through that channel:
//! a command, or a [`DiskCmd::Kick`] from the disk's [`Doorbell`]
//! (built by [`doorbell`]), which every ring it serves is built with.
//! A play ring rings it when the network thread pops a page (slack
//! appeared). A record ring rings it when [`WRITE_BATCH`] records are
//! buffered, when the receiver finds the ring full, and when the
//! receiver closes it, which triggers finalize. An idle disk thread
//! never wakes.

use crate::metrics::{MsuMetrics, DISK_CYCLE_BUDGET_US};
use crate::pool::{PageData, PagePool};
use crate::spsc::{Consumer, Doorbell, PopError, Producer};
use crate::stream::{raw_seek, ActiveFile, PageBuf, StreamCtl, StreamPhase, StreamShared};
use crate::trick::{self, TrickMode};
use calliope_proto::record::PacketRecord;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::FileKind;
use calliope_storage::ibtree::{IbTreeReader, IbTreeWriter};
use calliope_storage::page::Geometry;
use calliope_storage::{coalesce_runs, ElevatorState, MsuFs};
use calliope_types::error::{Error, Result};
use calliope_types::time::MediaTime;
use calliope_types::wire::data::PacketKind;
use calliope_types::StreamId;
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Events the disk thread reports to the control plane.
#[derive(Debug)]
pub enum DiskEvent {
    /// A group became fully primed and was released.
    GroupReleased(calliope_types::GroupId),
    /// A recording finished (ring closed) and was finalized.
    RecordFinished {
        /// Which stream.
        stream: StreamId,
        /// Payload bytes recorded.
        bytes: u64,
        /// Recording duration, µs.
        duration_us: u64,
    },
    /// A stream died on an I/O error.
    StreamFailed {
        /// Which stream.
        stream: StreamId,
        /// What happened.
        msg: String,
    },
}

/// Names of the trick-play files attached to a read stream.
#[derive(Clone, Debug, Default)]
pub struct TrickNames {
    /// Fast-forward file, if loaded.
    pub fast_forward: Option<String>,
    /// Fast-backward file, if loaded.
    pub fast_backward: Option<String>,
}

/// Commands accepted by a disk thread.
pub enum DiskCmd {
    /// Looks up a file's metadata (used by the Coordinator RPC path).
    Stat {
        /// File name.
        name: String,
        /// Reply channel.
        reply: Sender<Result<ActiveFile>>,
    },
    /// Creates a file for a recording, reserving space.
    Create {
        /// File name.
        name: String,
        /// Raw or IB-tree.
        kind: FileKind,
        /// Bytes to reserve from the client's length estimate.
        reserve_bytes: u64,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Deletes a file.
    Delete {
        /// File name.
        name: String,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Reports free space, in bytes.
    FreeBytes {
        /// Reply channel.
        reply: Sender<u64>,
    },
    /// Reads file pages `first .. first + count` (the replication copy
    /// path) in as few transfers as their layout allows: physically
    /// adjacent blocks are read as one run, as in the duty cycle.
    ReadPages {
        /// File name.
        name: String,
        /// File-relative index of the first page.
        first: u64,
        /// Number of pages.
        count: u64,
        /// Reply channel (one full block per page, in page order).
        reply: Sender<Result<Vec<Vec<u8>>>>,
    },
    /// Appends one page to an unfinalized file (replication copy path).
    AppendPage {
        /// File name.
        name: String,
        /// The page (one block).
        data: Vec<u8>,
        /// Payload bytes the page contributes to `len_bytes`.
        payload_bytes: u64,
        /// Reply channel.
        reply: Sender<Result<u64>>,
    },
    /// Finalizes a file created through the copy path.
    Finalize {
        /// File name.
        name: String,
        /// Play duration, µs.
        duration_us: u64,
        /// IB-tree root (empty for raw files).
        root: Vec<calliope_storage::catalog::RootEntry>,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Registers a play stream: the disk thread fills `producer` with
    /// pages.
    AddRead {
        /// Shared stream state.
        shared: Arc<StreamShared>,
        /// Group for release coordination.
        group: Arc<crate::stream::GroupShared>,
        /// The page ring (capacity 2 = double buffering).
        producer: Producer<PageBuf>,
        /// The disk's doorbell, which the ring rings on every pop.
        bell: Arc<Doorbell>,
        /// CBR schedule for raw files (None for stored schedules).
        schedule: Option<CbrSchedule>,
        /// Trick-play files, if any.
        trick: TrickNames,
    },
    /// Registers a recording stream: the disk thread drains `consumer`.
    AddWrite {
        /// Shared stream state (its `ctl.file.name` names the file).
        shared: Arc<StreamShared>,
        /// Records from the protocol module.
        consumer: Consumer<PacketRecord>,
        /// The disk's doorbell, which the ring rings every
        /// [`WRITE_BATCH`] records, when full, and on close.
        bell: Arc<Doorbell>,
        /// Whether to store the delivery schedule (IB-tree) or
        /// concatenate payloads (raw).
        stores_schedule: bool,
        /// For constant-rate recordings, the nominal rate: the
        /// finalized duration is `bytes / rate`, independent of how
        /// fast the packets arrived.
        cbr_rate: Option<calliope_types::time::BitRate>,
    },
    /// Seeks a play stream to a media time.
    Seek {
        /// Which stream.
        stream: StreamId,
        /// Target offset.
        target: MediaTime,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Switches a play stream between normal and trick-mode files.
    Trick {
        /// Which stream.
        stream: StreamId,
        /// Desired mode.
        mode: TrickMode,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Drops a stream (its rings are torn down by the owner).
    Remove {
        /// Which stream.
        stream: StreamId,
    },
    /// The thread's doorbell: some ring it serves gained slack or data.
    Kick,
    /// Stops the thread.
    Shutdown,
}

impl std::fmt::Debug for DiskCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DiskCmd::Stat { .. } => "Stat",
            DiskCmd::Create { .. } => "Create",
            DiskCmd::Delete { .. } => "Delete",
            DiskCmd::FreeBytes { .. } => "FreeBytes",
            DiskCmd::ReadPages { .. } => "ReadPages",
            DiskCmd::AppendPage { .. } => "AppendPage",
            DiskCmd::Finalize { .. } => "Finalize",
            DiskCmd::AddRead { .. } => "AddRead",
            DiskCmd::AddWrite { .. } => "AddWrite",
            DiskCmd::Seek { .. } => "Seek",
            DiskCmd::Trick { .. } => "Trick",
            DiskCmd::Remove { .. } => "Remove",
            DiskCmd::Kick => "Kick",
            DiskCmd::Shutdown => "Shutdown",
        };
        write!(f, "DiskCmd::{name}")
    }
}

struct ReadIo {
    shared: Arc<StreamShared>,
    group: Arc<crate::stream::GroupShared>,
    producer: Producer<PageBuf>,
    schedule: Option<CbrSchedule>,
    trick: TrickNames,
    primed: bool,
    /// The normal-rate file (for trick-position math once `ctl.file` is
    /// a filtered one).
    normal: ActiveFile,
}

/// Per-stream read-ahead ceiling: with the ring at capacity 4, up to two
/// pages ride each duty cycle while two are still being drained —
/// double buffering (§2.2.1) with one cycle of slack.
pub const MAX_READ_AHEAD: usize = 2;

/// Records a recording drain takes per pass; a record ring rings the
/// disk thread's doorbell once this many are buffered. Small, because
/// buffered records are live memory: 16 of 4 KB MPEG packets is 64 KB
/// per recording, against a few disk wakeups a second at 1.5 Mbit/s.
pub const WRITE_BATCH: usize = 16;

/// One page "ticket" claimed from a stream's control block during the
/// gather phase; the I/O happens later, elevator-ordered and coalesced.
struct Claim {
    id: StreamId,
    gen: u64,
    index: u64,
    skip: usize,
    valid: usize,
    /// Absolute device block address (the elevator's sort key).
    abs: u64,
}

enum WriteSink {
    Ib {
        writer: IbTreeWriter,
    },
    Raw {
        buf: Vec<u8>,
        payload_bytes: u64,
        last_offset: MediaTime,
        cbr_rate: Option<calliope_types::time::BitRate>,
    },
}

struct WriteIo {
    consumer: Consumer<PacketRecord>,
    sink: WriteSink,
    file: String,
    failed: bool,
}

/// A disk thread's doorbell: its kick is a [`DiskCmd::Kick`] on `tx`.
/// Build every ring the thread serves with it, and hand it over in
/// `AddRead`/`AddWrite`.
pub fn doorbell(tx: &Sender<DiskCmd>) -> Arc<Doorbell> {
    let tx = tx.clone();
    Doorbell::new(move || {
        let _ = tx.send(DiskCmd::Kick);
    })
}

/// The disk thread main loop. Runs until `Shutdown` or channel
/// disconnection.
pub fn run(
    mut fs: MsuFs,
    rx: Receiver<DiskCmd>,
    events: Sender<DiskEvent>,
    metrics: Arc<MsuMetrics>,
) {
    // The disk's doorbell, as handed over by `AddRead`/`AddWrite`. A
    // kick always follows the `Add` that brought it: the server queues
    // the `Add` before the ring's other endpoint can pop or push.
    let mut bell: Option<Arc<Doorbell>> = None;
    let geo = geometry_for(&fs);
    let pool = PagePool::new(fs.block_size());
    let mut elevator = ElevatorState::new();
    let mut reads: HashMap<StreamId, ReadIo> = HashMap::new();
    let mut writes: HashMap<StreamId, WriteIo> = HashMap::new();
    let mut order: Vec<StreamId> = Vec::new();
    let mut rr: usize = 0;

    let mut woken: Option<DiskCmd> = None;
    loop {
        // Drain the command queue (starting with the one that woke us).
        // A kick clears the bell here, before the pass below re-checks
        // the rings, so a ring that fires meanwhile sends a fresh kick.
        loop {
            let cmd = match woken.take() {
                Some(cmd) => cmd,
                None => match rx.try_recv() {
                    Ok(cmd) => cmd,
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => return,
                },
            };
            match cmd {
                DiskCmd::Shutdown => return,
                DiskCmd::Kick => {
                    if let Some(bell) = &bell {
                        bell.clear();
                    }
                }
                cmd => {
                    if let DiskCmd::AddRead { bell: b, .. } | DiskCmd::AddWrite { bell: b, .. } =
                        &cmd
                    {
                        bell = Some(Arc::clone(b));
                    }
                    handle_cmd(
                        &mut fs,
                        geo,
                        &pool,
                        cmd,
                        &mut reads,
                        &mut writes,
                        &mut order,
                    )
                }
            }
        }

        let mut progressed = false;
        let cycle_start = Instant::now();

        // Duty cycle, gather phase: claim every eligible stream's next
        // pages (up to the ring's slack, capped at MAX_READ_AHEAD) so the
        // whole cycle's I/O can be elevator-ordered and coalesced. The
        // claims advance `next_page` under the lock; the reads happen
        // outside it — a concurrent seek bumps `gen` and the network
        // thread discards the stale pages.
        let mut claims: Vec<Claim> = Vec::new();
        let mut failed: Vec<(StreamId, String)> = Vec::new();
        if !order.is_empty() {
            for probe in 0..order.len() {
                let id = order[(rr + probe) % order.len()];
                let Some(io) = reads.get_mut(&id) else {
                    continue;
                };
                if io.producer.is_closed() {
                    continue;
                }
                let slack = io.producer.slack().min(MAX_READ_AHEAD);
                if slack == 0 {
                    continue;
                }
                let mut ctl = io.shared.ctl.lock();
                if ctl.phase == StreamPhase::Done {
                    continue;
                }
                for _ in 0..slack {
                    if ctl.eof || ctl.next_page >= ctl.file.pages {
                        ctl.eof = true;
                        break;
                    }
                    let page_idx = ctl.next_page;
                    ctl.next_page += 1;
                    if ctl.next_page >= ctl.file.pages {
                        ctl.eof = true;
                    }
                    let skip = std::mem::take(&mut ctl.pending_skip);
                    let valid = match ctl.file.kind {
                        FileKind::Raw => {
                            let start = page_idx * fs.block_size() as u64;
                            (ctl.file.len_bytes - start.min(ctl.file.len_bytes))
                                .min(fs.block_size() as u64) as usize
                        }
                        FileKind::IbTree => fs.block_size(),
                    };
                    match fs.page_block(&ctl.file.name, page_idx) {
                        Ok(abs) => claims.push(Claim {
                            id,
                            gen: ctl.gen,
                            index: page_idx,
                            skip,
                            valid,
                            abs,
                        }),
                        Err(e) => {
                            ctl.phase = StreamPhase::Done;
                            failed.push((id, e.to_string()));
                            break;
                        }
                    }
                }
            }
            rr = (rr + 1) % order.len();
        }

        // Issue phase: SCAN-order the batch, merge physically adjacent
        // blocks into single transfers, and read into pooled buffers.
        if !claims.is_empty() {
            let addrs: Vec<u64> = claims.iter().map(|c| c.abs).collect();
            let head_before = elevator.head;
            let issue = elevator.plan(&addrs);
            let planned: Vec<u64> = issue.iter().map(|&i| addrs[i]).collect();
            let gather_travel = ElevatorState::travel(head_before, &addrs);
            let scan_travel = ElevatorState::travel(head_before, &planned);
            metrics
                .disk_seek_saved_blocks
                .add(gather_travel.saturating_sub(scan_travel));
            metrics.disk_batch_pages.record(claims.len() as u64);
            metrics.disk_batched_pages_total.add(claims.len() as u64);

            let mut results: Vec<Option<PageData>> = (0..claims.len()).map(|_| None).collect();
            for run in coalesce_runs(&addrs, &issue) {
                metrics.disk_coalesced_runs.add(1);
                if run.len() >= 2 {
                    metrics.disk_batched_pages.add(run.len() as u64);
                }
                let read_start = Instant::now();
                let mut bufs: Vec<crate::pool::PooledBuf> =
                    (0..run.len()).map(|_| pool.get()).collect();
                let res = {
                    let mut refs: Vec<&mut [u8]> =
                        bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                    fs.read_blocks_abs(run.start, &mut refs)
                };
                match res {
                    Ok(()) => {
                        metrics
                            .disk_read_us
                            .record(read_start.elapsed().as_micros() as u64);
                        for (buf, &ci) in bufs.into_iter().zip(&run.members) {
                            results[ci] = Some(buf.freeze());
                        }
                    }
                    Err(e) => {
                        // Unread pooled buffers return via drop. Fail every
                        // stream with a page in this run, once each.
                        for &ci in &run.members {
                            let id = claims[ci].id;
                            if !failed.iter().any(|(f, _)| *f == id) {
                                failed.push((id, e.to_string()));
                            }
                        }
                    }
                }
            }
            let exhausted = pool.drain_heap_fallbacks();
            if exhausted > 0 {
                metrics.pool_exhausted.add(exhausted);
            }

            // Deliver phase: push per stream in claim order — claims were
            // taken in ascending page order per stream, so rings stay
            // ordered no matter how the elevator reordered the I/O.
            for (ci, claim) in claims.iter().enumerate() {
                let Some(data) = results[ci].take() else {
                    continue;
                };
                let Some(io) = reads.get_mut(&claim.id) else {
                    continue;
                };
                let page = PageBuf {
                    gen: claim.gen,
                    index: claim.index,
                    skip: claim.skip,
                    valid: claim.valid,
                    data,
                };
                // We claimed at most the ring's slack and are the sole
                // producer, so Full is impossible; Closed pages recycle
                // via drop.
                if io.producer.push(page).is_ok() {
                    progressed = true;
                    if !io.primed {
                        io.primed = true;
                        if io.group.prime(claim.id) {
                            let _ = events.send(DiskEvent::GroupReleased(io.group.id));
                        }
                    }
                }
            }
        }
        for (id, msg) in failed {
            if let Some(io) = reads.get(&id) {
                io.shared.ctl.lock().phase = StreamPhase::Done;
            }
            let _ = events.send(DiskEvent::StreamFailed { stream: id, msg });
        }

        // Drain recording rings.
        let mut finished: Vec<StreamId> = Vec::new();
        for (id, w) in writes.iter_mut() {
            let write_start = Instant::now();
            let served = serve_write(&mut fs, w);
            if !matches!(served, Ok(ServeWrite::Idle)) {
                metrics
                    .disk_write_us
                    .record(write_start.elapsed().as_micros() as u64);
            }
            match served {
                Ok(ServeWrite::Progress) => progressed = true,
                Ok(ServeWrite::Idle) => {}
                Ok(ServeWrite::Finished { bytes, duration_us }) => {
                    let _ = events.send(DiskEvent::RecordFinished {
                        stream: *id,
                        bytes,
                        duration_us,
                    });
                    finished.push(*id);
                    progressed = true;
                }
                Err(e) => {
                    let _ = events.send(DiskEvent::StreamFailed {
                        stream: *id,
                        msg: e.to_string(),
                    });
                    finished.push(*id);
                }
            }
        }
        for id in finished {
            writes.remove(&id);
        }

        // Duty-cycle accounting: a pass that outruns the 10 ms timer
        // granularity means this disk is oversubscribed.
        if progressed {
            let pass_us = cycle_start.elapsed().as_micros() as u64;
            if pass_us > DISK_CYCLE_BUDGET_US {
                metrics
                    .disk_cycle_overrun_us
                    .record(pass_us - DISK_CYCLE_BUDGET_US);
                tracing::debug!(
                    "duty cycle overran its budget by {} µs",
                    pass_us - DISK_CYCLE_BUDGET_US
                );
            }
        }

        if !progressed {
            // Idle: sleep until a command or a doorbell kick arrives.
            match rx.recv() {
                Ok(cmd) => woken = Some(cmd),
                Err(_) => return,
            }
            metrics.disk_wakeups.inc();
        }
    }
}

fn geometry_for(fs: &MsuFs) -> Geometry {
    let mut geo = Geometry::paper();
    if fs.block_size() != geo.page_size {
        // Test configurations use small blocks; scale the internal page
        // down proportionally.
        geo = Geometry {
            page_size: fs.block_size(),
            internal_size: (fs.block_size() / 8).max(144),
            max_keys: 8,
        };
    }
    geo
}

fn stat_file(fs: &MsuFs, name: &str) -> Result<ActiveFile> {
    let meta = fs.file(name)?;
    Ok(ActiveFile {
        name: meta.name.clone(),
        kind: meta.kind,
        pages: meta.pages(),
        len_bytes: meta.len_bytes,
        root: meta.root.clone(),
        duration_us: meta.duration_us,
    })
}

/// Reads file pages `first .. first + count`, one vectored transfer per
/// run of physically adjacent blocks. Every page is resolved (and
/// range-checked) before the first read.
fn read_pages(fs: &mut MsuFs, name: &str, first: u64, count: u64) -> Result<Vec<Vec<u8>>> {
    let addrs = (first..first.saturating_add(count))
        .map(|page| fs.page_block(name, page))
        .collect::<Result<Vec<u64>>>()?;
    // Pages are requested in ascending order, so the read order is the
    // identity; a run may still grow downward if the file's blocks do.
    let order: Vec<usize> = (0..addrs.len()).collect();
    let mut pages: Vec<Vec<u8>> = vec![Vec::new(); addrs.len()];
    for run in coalesce_runs(&addrs, &order) {
        let mut bufs = vec![vec![0u8; fs.block_size()]; run.len()];
        let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        fs.read_blocks_abs(run.start, &mut refs)?;
        for (buf, &page) in bufs.into_iter().zip(&run.members) {
            pages[page] = buf;
        }
    }
    Ok(pages)
}

fn handle_cmd(
    fs: &mut MsuFs,
    geo: Geometry,
    pool: &PagePool,
    cmd: DiskCmd,
    reads: &mut HashMap<StreamId, ReadIo>,
    writes: &mut HashMap<StreamId, WriteIo>,
    order: &mut Vec<StreamId>,
) {
    match cmd {
        DiskCmd::Stat { name, reply } => {
            let _ = reply.send(stat_file(fs, &name));
        }
        DiskCmd::Create {
            name,
            kind,
            reserve_bytes,
            reply,
        } => {
            let _ = reply.send(fs.create(&name, kind, reserve_bytes));
        }
        DiskCmd::Delete { name, reply } => {
            let _ = reply.send(fs.delete(&name));
        }
        DiskCmd::FreeBytes { reply } => {
            let _ = reply.send(fs.free_bytes());
        }
        DiskCmd::ReadPages {
            name,
            first,
            count,
            reply,
        } => {
            let _ = reply.send(read_pages(fs, &name, first, count));
        }
        DiskCmd::AppendPage {
            name,
            data,
            payload_bytes,
            reply,
        } => {
            let _ = reply.send(fs.append_page(&name, &data, payload_bytes));
        }
        DiskCmd::Finalize {
            name,
            duration_us,
            root,
            reply,
        } => {
            let _ = reply.send(fs.finalize(&name, duration_us, root));
        }
        DiskCmd::AddRead {
            shared,
            group,
            producer,
            bell: _,
            schedule,
            trick,
        } => {
            let id = shared.id;
            let normal = shared.ctl.lock().file.clone();
            // Size the pool here, on the control path, so the duty cycle
            // never allocates: every stream can have a full ring of pages
            // outstanding plus the one the network thread popped and is
            // still transmitting from.
            let need: u64 = reads
                .values()
                .map(|io| io.producer.capacity() as u64 + 1)
                .sum::<u64>()
                + producer.capacity() as u64
                + 1;
            pool.ensure_capacity(need);
            reads.insert(
                id,
                ReadIo {
                    shared,
                    group,
                    producer,
                    schedule,
                    trick,
                    primed: false,
                    normal,
                },
            );
            order.push(id);
        }
        DiskCmd::AddWrite {
            shared,
            consumer,
            bell: _,
            stores_schedule,
            cbr_rate,
        } => {
            let id = shared.id;
            let file = shared.ctl.lock().file.name.clone();
            drop(shared);
            let sink = if stores_schedule {
                match IbTreeWriter::new(geo) {
                    Ok(writer) => WriteSink::Ib { writer },
                    Err(e) => {
                        // Geometry was validated at startup; treat as fatal
                        // for this stream only.
                        let _ = e;
                        return;
                    }
                }
            } else {
                WriteSink::Raw {
                    buf: Vec::with_capacity(fs.block_size()),
                    payload_bytes: 0,
                    last_offset: MediaTime::ZERO,
                    cbr_rate,
                }
            };
            writes.insert(
                id,
                WriteIo {
                    consumer,
                    sink,
                    file,
                    failed: false,
                },
            );
        }
        DiskCmd::Seek {
            stream,
            target,
            reply,
        } => {
            let res = match reads.get_mut(&stream) {
                Some(io) => do_seek(fs, geo, io, target),
                None => Err(Error::NoSuchStream { stream }),
            };
            let _ = reply.send(res);
        }
        DiskCmd::Trick {
            stream,
            mode,
            reply,
        } => {
            let res = match reads.get_mut(&stream) {
                Some(io) => do_trick(fs, io, mode),
                None => Err(Error::NoSuchStream { stream }),
            };
            let _ = reply.send(res);
        }
        DiskCmd::Remove { stream } => {
            reads.remove(&stream);
            order.retain(|s| *s != stream);
            // Recording removal happens via the ring closing; dropping
            // here only matters if the receiver never started.
            writes.remove(&stream);
        }
        DiskCmd::Kick | DiskCmd::Shutdown => unreachable!("handled by the caller"),
    }
}

enum ServeWrite {
    Progress,
    Idle,
    Finished { bytes: u64, duration_us: u64 },
}

/// Drains up to a bounded batch of records from a recording ring.
fn serve_write(fs: &mut MsuFs, w: &mut WriteIo) -> Result<ServeWrite> {
    let mut any = false;
    for _ in 0..WRITE_BATCH {
        match w.consumer.pop() {
            Ok(rec) => {
                any = true;
                if !w.failed {
                    if let Err(e) = sink_push(fs, w, rec) {
                        // Keep draining so the receiver does not wedge,
                        // but stop writing and surface the error once.
                        w.failed = true;
                        return Err(e);
                    }
                }
            }
            Err(PopError::Empty) => {
                return Ok(if any {
                    ServeWrite::Progress
                } else {
                    ServeWrite::Idle
                })
            }
            Err(PopError::Closed) => {
                let (bytes, duration_us) = sink_finish(fs, w)?;
                return Ok(ServeWrite::Finished { bytes, duration_us });
            }
        }
    }
    Ok(ServeWrite::Progress)
}

fn sink_push(fs: &mut MsuFs, w: &mut WriteIo, rec: PacketRecord) -> Result<()> {
    match &mut w.sink {
        WriteSink::Ib { writer } => {
            if let Some(page) = writer.push(&rec)? {
                fs.append_page(&w.file, &page.data, page.payload_bytes)?;
            }
        }
        WriteSink::Raw {
            buf,
            payload_bytes,
            last_offset,
            ..
        } => {
            if rec.kind == PacketKind::Media {
                buf.extend_from_slice(&rec.payload);
                *payload_bytes += rec.payload.len() as u64;
                *last_offset = rec.offset;
                let bs = fs.block_size();
                while buf.len() >= bs {
                    let page: Vec<u8> = buf.drain(..bs).collect();
                    fs.append_page(&w.file, &page, bs as u64)?;
                }
            }
        }
    }
    Ok(())
}

fn sink_finish(fs: &mut MsuFs, w: &mut WriteIo) -> Result<(u64, u64)> {
    match std::mem::replace(
        &mut w.sink,
        WriteSink::Raw {
            buf: Vec::new(),
            payload_bytes: 0,
            last_offset: MediaTime::ZERO,
            cbr_rate: None,
        },
    ) {
        WriteSink::Ib { writer } => {
            let (pages, root, stats) = writer.finish()?;
            for p in pages {
                fs.append_page(&w.file, &p.data, p.payload_bytes)?;
            }
            fs.finalize(&w.file, stats.duration.as_micros(), root)?;
            Ok((stats.payload_bytes, stats.duration.as_micros()))
        }
        WriteSink::Raw {
            mut buf,
            payload_bytes,
            last_offset,
            cbr_rate,
        } => {
            if !buf.is_empty() {
                let valid = buf.len() as u64;
                buf.resize(fs.block_size(), 0);
                fs.append_page(&w.file, &buf, valid)?;
            }
            // Constant-rate content plays at its nominal rate, so its
            // duration is bytes/rate; arrival spacing (which may be a
            // fast upload) is irrelevant.
            let duration_us = match cbr_rate {
                Some(rate) if rate.bps() > 0 => rate.transmit_time(payload_bytes).as_micros(),
                _ => last_offset.as_micros(),
            };
            fs.finalize(&w.file, duration_us, Vec::new())?;
            Ok((payload_bytes, duration_us))
        }
    }
}

fn do_seek(fs: &mut MsuFs, geo: Geometry, io: &mut ReadIo, target: MediaTime) -> Result<()> {
    let now = Instant::now();
    let mut ctl = io.shared.ctl.lock();
    match ctl.file.kind {
        FileKind::Raw => {
            let schedule = io.schedule.ok_or_else(|| Error::Protocol {
                msg: "raw file without a calculated schedule".into(),
            })?;
            let (page, skip, seq) = raw_seek(&schedule, target, fs.block_size());
            apply_seek(&mut ctl, page, skip, seq, 0, schedule.offset_of(seq), now);
        }
        FileKind::IbTree => {
            let reader = IbTreeReader::new(geo, ctl.file.root.clone(), ctl.file.pages)?;
            let file = ctl.file.name.clone();
            // The tree traversal reads pages through the file system; the
            // lock is held, but seeks are rare and the paper accepts "a
            // few seconds of delay" on VCR repositioning.
            let pos = reader.seek(target, |idx, buf| fs.read_page(&file, idx, buf))?;
            apply_seek(&mut ctl, pos.page, 0, 0, target.as_micros(), target, now);
        }
    }
    Ok(())
}

fn apply_seek(
    ctl: &mut StreamCtl,
    page: u64,
    skip: usize,
    seq: u64,
    skip_until_us: u64,
    pace_origin: MediaTime,
    now: Instant,
) {
    ctl.gen += 1;
    ctl.next_page = page;
    ctl.pending_skip = skip;
    ctl.start_seq = seq;
    ctl.skip_until_us = skip_until_us;
    ctl.eof = page >= ctl.file.pages;
    ctl.pacer.rebase(now, pace_origin);
}

fn do_trick(fs: &mut MsuFs, io: &mut ReadIo, mode: TrickMode) -> Result<()> {
    let schedule = io.schedule.ok_or_else(|| Error::Protocol {
        msg: "trick play requires a constant-rate stream".into(),
    })?;
    let target_name = match mode {
        TrickMode::Normal => Some(io.normal.name.clone()),
        TrickMode::FastForward => io.trick.fast_forward.clone(),
        TrickMode::FastBackward => io.trick.fast_backward.clone(),
    };
    let Some(target_name) = target_name else {
        return Err(Error::NoTrickFile {
            content: io.normal.name.clone(),
        });
    };
    let target = stat_file(fs, &target_name)?;

    let now = Instant::now();
    let mut ctl = io.shared.ctl.lock();
    let cur_pos = ctl.pacer.position(now);
    let normal_dur = MediaTime(io.normal.duration_us);
    let to_pos = trick::switch_position(ctl.mode, mode, cur_pos, normal_dur, trick::SKIP);
    // Trick files are raw CBR; seek within the target file.
    let (page, skip, seq) = raw_seek(&schedule, to_pos, fs.block_size());
    ctl.mode = mode;
    ctl.file = target;
    apply_seek(&mut ctl, page, skip, seq, 0, schedule.offset_of(seq), now);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::{self, Bells, PushError};
    use crate::stream::GroupShared;
    use calliope_storage::block::MemDisk;
    use calliope_types::time::BitRate;
    use calliope_types::GroupId;
    use crossbeam::channel::unbounded;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    const BS: usize = 4096;

    fn test_fs() -> MsuFs {
        MsuFs::format_with(Box::new(MemDisk::new(BS, 128)), 4).unwrap()
    }

    fn spawn_disk() -> (
        Sender<DiskCmd>,
        Arc<Doorbell>,
        Receiver<DiskEvent>,
        std::thread::JoinHandle<()>,
    ) {
        spawn_disk_on(test_fs())
    }

    fn spawn_disk_on(
        fs: MsuFs,
    ) -> (
        Sender<DiskCmd>,
        Arc<Doorbell>,
        Receiver<DiskEvent>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let h = std::thread::spawn(move || run(fs, rx, etx, MsuMetrics::new()));
        let bell = doorbell(&tx);
        (tx, bell, erx, h)
    }

    /// A play ring as the server builds it, minus the pacer's bell.
    fn read_ring(bell: &Arc<Doorbell>, capacity: usize) -> (Producer<PageBuf>, Consumer<PageBuf>) {
        let bells = Bells {
            slack: Some(Arc::clone(bell)),
            data: None,
        };
        spsc::ring_with_bells(capacity, bells)
    }

    /// A recording ring as the server builds it.
    fn write_ring(
        bell: &Arc<Doorbell>,
        capacity: usize,
    ) -> (Producer<PacketRecord>, Consumer<PacketRecord>) {
        let bells = Bells {
            data: Some((Arc::clone(bell), WRITE_BATCH)),
            slack: None,
        };
        spsc::ring_with_bells(capacity, bells)
    }

    fn rpc<T: Send + 'static>(tx: &Sender<DiskCmd>, make: impl FnOnce(Sender<T>) -> DiskCmd) -> T {
        let (rtx, rrx) = unbounded();
        tx.send(make(rtx)).unwrap();
        rrx.recv_timeout(Duration::from_secs(5))
            .expect("disk thread reply")
    }

    fn make_stream(id: u64, file: ActiveFile) -> Arc<StreamShared> {
        Arc::new(StreamShared {
            id: StreamId(id),
            group: GroupId(id),
            disk: 0,
            trace: Default::default(),
            ctl: Mutex::new(StreamCtl {
                phase: StreamPhase::Priming,
                gen: 0,
                mode: TrickMode::Normal,
                eof: file.pages == 0,
                file,
                next_page: 0,
                pending_skip: 0,
                skip_until_us: 0,
                start_seq: 0,
                pacer: crate::pacer::Pacer::new(),
            }),
            stats: Default::default(),
        })
    }

    fn write_raw_content(tx: &Sender<DiskCmd>, bell: &Arc<Doorbell>, name: &str, bytes: &[u8]) {
        let r: Result<()> = rpc(tx, |reply| DiskCmd::Create {
            name: name.into(),
            kind: FileKind::Raw,
            reserve_bytes: bytes.len() as u64,
            reply,
        });
        r.unwrap();
        // Feed through the write path.
        let shared = make_stream(
            999,
            ActiveFile {
                name: name.into(),
                kind: FileKind::Raw,
                pages: 0,
                len_bytes: 0,
                root: vec![],
                duration_us: 0,
            },
        );
        let (mut p, c) = write_ring(bell, 64);
        tx.send(DiskCmd::AddWrite {
            shared,
            consumer: c,
            bell: Arc::clone(bell),
            stores_schedule: false,
            cbr_rate: None,
        })
        .unwrap();
        for (i, chunk) in bytes.chunks(1000).enumerate() {
            let rec = PacketRecord::media(MediaTime(i as u64 * 10_000), chunk.to_vec());
            let mut rec = rec;
            loop {
                match p.push(rec) {
                    Ok(()) => break,
                    Err(PushError::Full(r)) => {
                        rec = r;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(PushError::Closed(_)) => panic!("ring closed"),
                }
            }
        }
        drop(p);
    }

    #[test]
    fn record_then_stat_then_play_pages_flow() {
        let (tx, bell, erx, _h) = spawn_disk();
        let content: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write_raw_content(&tx, &bell, "movie", &content);

        // Wait for the RecordFinished event.
        let ev = erx.recv_timeout(Duration::from_secs(5)).unwrap();
        match ev {
            DiskEvent::RecordFinished { bytes, .. } => assert_eq!(bytes, 10_000),
            other => panic!("{other:?}"),
        }

        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "movie".into(),
            reply,
        });
        let file = file.unwrap();
        assert_eq!(file.len_bytes, 10_000);
        assert_eq!(file.pages, (10_000u64).div_ceil(BS as u64));

        // Play it back through a page ring.
        let shared = make_stream(1, file.clone());
        let group = GroupShared::new(GroupId(1), 1);
        let (p, mut c) = read_ring(&bell, 2);
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            producer: p,
            bell: Arc::clone(&bell),
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(64), 1000)),
            trick: TrickNames::default(),
        })
        .unwrap();

        // The group releases once the first page is buffered.
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::GroupReleased(g) => assert_eq!(g, GroupId(1)),
            other => panic!("{other:?}"),
        }

        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 10_000 {
            match c.pop() {
                Ok(buf) => {
                    assert_eq!(buf.gen, 0);
                    got.extend_from_slice(&buf.data[buf.skip..buf.valid]);
                }
                Err(PopError::Empty) => {
                    assert!(
                        Instant::now() < deadline,
                        "timed out with {} bytes",
                        got.len()
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PopError::Closed) => break,
            }
        }
        assert_eq!(got, content);
        // EOF reached.
        assert!(shared.ctl.lock().eof);
    }

    #[test]
    fn stat_missing_file_errors() {
        let (tx, _bell, _erx, _h) = spawn_disk();
        let r: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "nope".into(),
            reply,
        });
        assert!(r.is_err());
    }

    #[test]
    fn seek_bumps_generation_and_position() {
        let (tx, bell, erx, _h) = spawn_disk();
        let content = vec![7u8; BS * 4];
        write_raw_content(&tx, &bell, "f", &content);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "f".into(),
            reply,
        });
        let file = file.unwrap();

        let shared = make_stream(2, file);
        let group = GroupShared::new(GroupId(2), 1);
        let (p, mut c) = read_ring(&bell, 2);
        let schedule = CbrSchedule::new(BitRate::from_kbps(800), 100);
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group,
            producer: p,
            bell: Arc::clone(&bell),
            schedule: Some(schedule),
            trick: TrickNames::default(),
        })
        .unwrap();

        // Let it read a page, then seek past the middle.
        std::thread::sleep(Duration::from_millis(20));
        let target = schedule.offset_of((2 * BS / 100) as u64 + 3);
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Seek {
            stream: StreamId(2),
            target,
            reply,
        });
        r.unwrap();
        assert_eq!(shared.ctl.lock().gen, 1);

        // Eventually a gen-1 page arrives for page ≥ 2.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.pop() {
                Ok(buf) if buf.gen == 1 => {
                    assert!(buf.index >= 2);
                    assert!(buf.skip > 0, "seek landed mid-page");
                    break;
                }
                Ok(_) => {}
                Err(PopError::Empty) => {
                    assert!(Instant::now() < deadline);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PopError::Closed) => panic!("ring closed"),
            }
        }
    }

    #[test]
    fn trick_without_files_is_a_clean_error() {
        let (tx, bell, erx, _h) = spawn_disk();
        write_raw_content(&tx, &bell, "g", &vec![1u8; 2000]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "g".into(),
            reply,
        });
        let shared = make_stream(3, file.unwrap());
        let group = GroupShared::new(GroupId(3), 1);
        let (p, _c) = read_ring(&bell, 2);
        tx.send(DiskCmd::AddRead {
            shared,
            group,
            producer: p,
            bell: Arc::clone(&bell),
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(64), 100)),
            trick: TrickNames::default(),
        })
        .unwrap();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(3),
            mode: TrickMode::FastForward,
            reply,
        });
        assert!(matches!(r, Err(Error::NoTrickFile { .. })));
    }

    #[test]
    fn trick_switch_changes_file_and_mode() {
        let (tx, bell, erx, _h) = spawn_disk();
        write_raw_content(&tx, &bell, "n", &vec![1u8; BS * 8]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        write_raw_content(&tx, &bell, "n.ff", &vec![2u8; BS]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();

        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "n".into(),
            reply,
        });
        let shared = make_stream(4, file.unwrap());
        let group = GroupShared::new(GroupId(4), 1);
        let (p, _c) = read_ring(&bell, 2);
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group,
            producer: p,
            bell: Arc::clone(&bell),
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(800), 100)),
            trick: TrickNames {
                fast_forward: Some("n.ff".into()),
                fast_backward: None,
            },
        })
        .unwrap();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::FastForward,
            reply,
        });
        r.unwrap();
        {
            let ctl = shared.ctl.lock();
            assert_eq!(ctl.mode, TrickMode::FastForward);
            assert_eq!(ctl.file.name, "n.ff");
        }
        // FB is not loaded.
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::FastBackward,
            reply,
        });
        assert!(r.is_err());
        // And back to normal.
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::Normal,
            reply,
        });
        r.unwrap();
        assert_eq!(shared.ctl.lock().file.name, "n");
    }

    #[test]
    fn ib_recording_round_trips_through_fs() {
        let (tx, bell, erx, _h) = spawn_disk();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Create {
            name: "vbr".into(),
            kind: FileKind::IbTree,
            reserve_bytes: 20 * BS as u64,
            reply,
        });
        r.unwrap();
        let shared = make_stream(
            5,
            ActiveFile {
                name: "vbr".into(),
                kind: FileKind::IbTree,
                pages: 0,
                len_bytes: 0,
                root: vec![],
                duration_us: 0,
            },
        );
        let (mut p, c) = write_ring(&bell, 64);
        tx.send(DiskCmd::AddWrite {
            shared,
            consumer: c,
            bell: Arc::clone(&bell),
            stores_schedule: true,
            cbr_rate: None,
        })
        .unwrap();
        let records: Vec<PacketRecord> = (0..200)
            .map(|i| PacketRecord::media(MediaTime(i * 20_000), vec![(i % 250) as u8; 120]))
            .collect();
        for rec in &records {
            let mut r = rec.clone();
            loop {
                match p.push(r) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        r = back;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(PushError::Closed(_)) => panic!("closed"),
                }
            }
        }
        drop(p);
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::RecordFinished {
                bytes, duration_us, ..
            } => {
                assert_eq!(bytes, 200 * 120);
                assert_eq!(duration_us, 199 * 20_000);
            }
            other => panic!("{other:?}"),
        }
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "vbr".into(),
            reply,
        });
        let file = file.unwrap();
        assert!(file.pages > 0);
        assert!(!file.root.is_empty(), "IB-tree root recorded");
    }

    #[test]
    fn concurrent_streams_all_complete_with_zero_heap_fallbacks() {
        // The batched duty cycle must serve every stream (no starvation
        // under elevator reordering) and, once the pool is sized at
        // admission, steady-state playback must never fall back to the
        // heap for a page buffer.
        let fs = test_fs();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let metrics = MsuMetrics::new();
        let h = std::thread::spawn({
            let m = Arc::clone(&metrics);
            move || run(fs, rx, etx, m)
        });
        let bell = doorbell(&tx);

        let content: Vec<u8> = (0..BS * 8).map(|i| (i % 241) as u8).collect();
        write_raw_content(&tx, &bell, "movie", &content);
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::RecordFinished { .. } => {}
            other => panic!("{other:?}"),
        }
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "movie".into(),
            reply,
        });
        let file = file.unwrap();

        const STREAMS: u64 = 6;
        let mut drains = Vec::new();
        for sid in 0..STREAMS {
            let shared = make_stream(sid + 10, file.clone());
            let group = GroupShared::new(GroupId(sid + 10), 1);
            let (p, mut c) = read_ring(&bell, 4);
            tx.send(DiskCmd::AddRead {
                shared,
                group,
                producer: p,
                bell: Arc::clone(&bell),
                schedule: Some(CbrSchedule::new(BitRate::from_kbps(800), 1000)),
                trick: TrickNames::default(),
            })
            .unwrap();
            let want = content.clone();
            drains.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(10);
                while got.len() < want.len() {
                    match c.pop() {
                        Ok(buf) => got.extend_from_slice(&buf.data[buf.skip..buf.valid]),
                        Err(PopError::Empty) => {
                            assert!(
                                Instant::now() < deadline,
                                "stream starved with {} of {} bytes",
                                got.len(),
                                want.len()
                            );
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(PopError::Closed) => break,
                    }
                }
                assert_eq!(got, want);
            }));
        }
        for d in drains {
            d.join().unwrap();
        }
        let mut released = 0;
        while let Ok(ev) = erx.recv_timeout(Duration::from_millis(200)) {
            match ev {
                DiskEvent::GroupReleased(_) => released += 1,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(released, STREAMS, "every group primed and released");

        let snap = metrics.registry.snapshot("disk-test");
        assert_eq!(
            snap.counter("disk.pool_exhausted"),
            0,
            "steady-state playback heap-allocated a page"
        );
        assert_eq!(
            snap.counter("disk.batched_pages_total"),
            STREAMS * file.pages,
            "every page went through the batched path exactly once"
        );
        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }

    /// Counts read transfers: a vectored multi-block read is one.
    struct CountingDisk {
        inner: MemDisk,
        reads: Arc<AtomicU64>,
    }

    impl calliope_storage::BlockDevice for CountingDisk {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_block(&mut self, idx: u64, buf: &mut [u8]) -> Result<()> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.read_block(idx, buf)
        }
        fn read_blocks_into(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.read_blocks_into(start, bufs)
        }
        fn write_block(&mut self, idx: u64, buf: &[u8]) -> Result<()> {
            self.inner.write_block(idx, buf)
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn read_pages_coalesces_adjacent_blocks_and_splits_at_gaps() {
        let reads = Arc::new(AtomicU64::new(0));
        let dev = CountingDisk {
            inner: MemDisk::new(BS, 128),
            reads: Arc::clone(&reads),
        };
        let mut fs = MsuFs::format_with(Box::new(dev), 4).unwrap();
        let page = |tag: u8| vec![tag; BS];
        // "long": 11 pages on consecutive blocks. "gappy": 3 pages, then
        // a page of "wedge" takes the next block, then 3 more pages.
        for name in ["long", "gappy", "wedge"] {
            fs.create(name, FileKind::Raw, 0).unwrap();
        }
        for i in 0..11u8 {
            fs.append_page("long", &page(i), BS as u64).unwrap();
        }
        for i in 0..3u8 {
            fs.append_page("gappy", &page(100 + i), BS as u64).unwrap();
        }
        fs.append_page("wedge", &page(200), BS as u64).unwrap();
        for i in 3..6u8 {
            fs.append_page("gappy", &page(100 + i), BS as u64).unwrap();
        }
        let blocks = |fs: &MsuFs, name: &str, n: u64| -> Vec<u64> {
            (0..n).map(|p| fs.page_block(name, p).unwrap()).collect()
        };
        let long_blocks = blocks(&fs, "long", 11);
        assert!(long_blocks.windows(2).all(|w| w[1] == w[0] + 1));
        let gappy_blocks = blocks(&fs, "gappy", 6);
        assert_eq!(gappy_blocks[3], gappy_blocks[2] + 2, "one block between");
        // What per-page reads return, for comparison.
        let per_page = |fs: &mut MsuFs, name: &str, n: u64| -> Vec<Vec<u8>> {
            (0..n)
                .map(|p| {
                    let mut buf = vec![0u8; BS];
                    fs.read_page(name, p, &mut buf).unwrap();
                    buf
                })
                .collect()
        };
        let long_pages = per_page(&mut fs, "long", 11);
        let gappy_pages = per_page(&mut fs, "gappy", 6);

        let (tx, _bell, _erx, h) = spawn_disk_on(fs);
        let read = |name: &str, first: u64, count: u64| -> (Result<Vec<Vec<u8>>>, u64) {
            let before = reads.load(Ordering::SeqCst);
            let r = rpc(&tx, |reply| DiskCmd::ReadPages {
                name: name.into(),
                first,
                count,
                reply,
            });
            (r, reads.load(Ordering::SeqCst) - before)
        };

        // Contiguous: 11 pages in chunks of 8 are ⌈11/8⌉ = 2 transfers.
        let (head, n1) = read("long", 0, 8);
        let (tail, n2) = read("long", 8, 3);
        assert_eq!((n1, n2), (1, 1));
        let got: Vec<Vec<u8>> = head.unwrap().into_iter().chain(tail.unwrap()).collect();
        assert_eq!(got, long_pages);

        // A gap in the layout splits the run there.
        let (got, n) = read("gappy", 0, 6);
        assert_eq!(n, 2);
        assert_eq!(got.unwrap(), gappy_pages);

        // A range past the end fails before any transfer.
        let (err, n) = read("long", 8, 4);
        assert!(err.is_err(), "page 11 of an 11-page file must not read");
        assert_eq!(n, 0);
        let (err, n) = read("missing", 0, 1);
        assert!(err.is_err());
        assert_eq!(n, 0);

        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn shutdown_stops_the_thread() {
        let (tx, _bell, _erx, h) = spawn_disk();
        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }
}
