//! An always-on, lock-free flight recorder.
//!
//! Every component keeps a fixed-size ring of compact binary events —
//! timestamp, trace id, event code, two argument words — written from
//! hot paths with relaxed atomics and *no* allocation, locks, or
//! syscalls. The ring is normally invisible; it is dumped to stderr
//! (and to `CALLIOPE_FLIGHT_FILE` when set) only when something goes
//! wrong: an MSU failure, a stream I/O error, a panic, or a `SIGUSR1`
//! poke from an operator. Like an aircraft flight recorder, the cost
//! of writing is paid always so the evidence exists when a crash needs
//! an autopsy.
//!
//! # Ring protocol
//!
//! The ring is multi-producer single-consumer and *overwriting*: when
//! it is full, new events replace the oldest ones (a counter of
//! overwritten events is kept — `obs.flight_dropped` in the metrics
//! glossary). The model checker's atomics shim has no
//! `compare_exchange`, so the ring is built from `fetch_add` ticket
//! claiming plus a per-slot sequence word:
//!
//! * A writer claims ticket `t` with `head.fetch_add(1)` and owns slot
//!   `t % capacity`. It stores `2t+1` (odd: in progress) into the
//!   slot's `seq`, writes the payload words, stores an XOR checksum
//!   keyed on `2t+2`, then stores `2t+2` (even: complete).
//! * The dumper reads `seq`, skips empty (0) or in-progress (odd)
//!   slots, reads the payload, re-reads `seq`, and accepts the event
//!   only if `seq` was stable *and* the checksum matches. Two writers
//!   lapping each other on the same slot can interleave their payload
//!   words, but such a torn slot cannot produce a matching checksum
//!   for either ticket, so it is discarded rather than misreported.
//!
//! The protocol is modeled under `calliope-check`
//! (`tests/model_flight.rs`).

use crate::metrics::Counter;
use calliope_check::sync::atomic::{AtomicU64, Ordering};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Default ring capacity (events) when `CALLIOPE_FLIGHT_EVENTS` is not
/// set. 4096 events × 56 bytes ≈ 224 KiB per component.
pub const DEFAULT_FLIGHT_EVENTS: usize = 4096;

/// Environment variable overriding the per-component ring capacity.
pub const FLIGHT_EVENTS_ENV: &str = "CALLIOPE_FLIGHT_EVENTS";

/// Environment variable naming a file that dumps are appended to (in
/// addition to stderr).
pub const FLIGHT_FILE_ENV: &str = "CALLIOPE_FLIGHT_FILE";

/// What happened, in one word. Codes are stable u64s so they survive
/// the binary ring; `arg0`/`arg1` meanings are per code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightCode {
    /// A play/record request was admitted. arg0 = group id, arg1 =
    /// stream count.
    Admit = 1,
    /// A stream grant was sent to (Coordinator) or accepted by (MSU)
    /// an MSU. arg0 = stream id, arg1 = disk id.
    Schedule = 2,
    /// A stream group released and started sending. arg0 = group id,
    /// arg1 = stream count.
    GroupReady = 3,
    /// A stream ended. arg0 = stream id, arg1 = done-reason tag.
    StreamDone = 4,
    /// A stream hit a disk I/O error. arg0 = stream id, arg1 = disk id.
    IoError = 5,
    /// An MSU was declared failed. arg0 = MSU id, arg1 = grants reaped.
    FailMsu = 6,
    /// A stream was re-admitted on a replica. arg0 = stream id, arg1 =
    /// replacement disk id.
    Failover = 7,
    /// A heartbeat went unanswered. arg0 = MSU id, arg1 = consecutive
    /// misses.
    HeartbeatMiss = 8,
    /// A heartbeat-piggybacked stats snapshot was merged into the
    /// cluster view. arg0 = MSU id, arg1 = metric count.
    SnapshotMerged = 9,
    /// A stream grant was cancelled. arg0 = stream id.
    Cancel = 10,
    /// A VCR command was applied. arg0 = group id, arg1 = command tag.
    Vcr = 11,
    /// A send deadline was missed. arg0 = stream id, arg1 = lateness µs.
    DeadlineMiss = 12,
}

impl FlightCode {
    fn from_u64(v: u64) -> Option<FlightCode> {
        Some(match v {
            1 => FlightCode::Admit,
            2 => FlightCode::Schedule,
            3 => FlightCode::GroupReady,
            4 => FlightCode::StreamDone,
            5 => FlightCode::IoError,
            6 => FlightCode::FailMsu,
            7 => FlightCode::Failover,
            8 => FlightCode::HeartbeatMiss,
            9 => FlightCode::SnapshotMerged,
            10 => FlightCode::Cancel,
            11 => FlightCode::Vcr,
            12 => FlightCode::DeadlineMiss,
            _ => return None,
        })
    }

    /// Short lower-case name used in dump lines.
    pub fn name(self) -> &'static str {
        match self {
            FlightCode::Admit => "admit",
            FlightCode::Schedule => "schedule",
            FlightCode::GroupReady => "group_ready",
            FlightCode::StreamDone => "stream_done",
            FlightCode::IoError => "io_error",
            FlightCode::FailMsu => "fail_msu",
            FlightCode::Failover => "failover",
            FlightCode::HeartbeatMiss => "heartbeat_miss",
            FlightCode::SnapshotMerged => "snapshot_merged",
            FlightCode::Cancel => "cancel",
            FlightCode::Vcr => "vcr",
            FlightCode::DeadlineMiss => "deadline_miss",
        }
    }
}

/// One ring slot: a sequence word framing the payload, plus a checksum
/// that detects payload words from two different tickets.
#[derive(Debug)]
struct Slot {
    /// 0 = never written; `2t+1` = ticket `t` in progress; `2t+2` =
    /// ticket `t` complete.
    seq: AtomicU64,
    ts_us: AtomicU64,
    trace: AtomicU64,
    code: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
    checksum: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            code: AtomicU64::new(0),
            arg0: AtomicU64::new(0),
            arg1: AtomicU64::new(0),
            checksum: AtomicU64::new(0),
        }
    }
}

fn checksum(done_seq: u64, ts: u64, trace: u64, code: u64, arg0: u64, arg1: u64) -> u64 {
    done_seq
        ^ ts.rotate_left(8)
        ^ trace.rotate_left(16)
        ^ code.rotate_left(24)
        ^ arg0.rotate_left(32)
        ^ arg1.rotate_left(40)
}

/// A decoded event pulled out of the ring by [`FlightRecorder::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEventRecord {
    /// Global write ticket; orders events across the whole ring.
    pub ticket: u64,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Trace id (0 = untraced).
    pub trace: u64,
    /// What happened.
    pub code: FlightCode,
    /// First argument word (meaning per code).
    pub arg0: u64,
    /// Second argument word.
    pub arg1: u64,
}

/// The per-component event ring. Cheap enough to write on every
/// control-plane action; see the module docs for the protocol.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    overwritten: AtomicU64,
    dropped_counter: Option<Arc<Counter>>,
    t0: Instant,
}

impl FlightRecorder {
    /// A ring holding `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            dropped_counter: None,
            t0: Instant::now(),
        }
    }

    /// A ring sized from `CALLIOPE_FLIGHT_EVENTS` (default
    /// [`DEFAULT_FLIGHT_EVENTS`]).
    pub fn from_env() -> FlightRecorder {
        let cap = std::env::var(FLIGHT_EVENTS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_FLIGHT_EVENTS);
        FlightRecorder::new(cap)
    }

    /// Mirrors the overwritten-event count into a registry counter
    /// (conventionally named `obs.flight_dropped`).
    pub fn with_dropped_counter(mut self, counter: Arc<Counter>) -> FlightRecorder {
        self.dropped_counter = Some(counter);
        self
    }

    /// Number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events overwritten before anyone could read them.
    pub fn dropped(&self) -> u64 {
        // relaxed: a statistic; readers tolerate staleness.
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Records one event. Allocation-free, lock-free, and wait-free up
    /// to the atomics themselves; safe from any thread.
    #[inline]
    pub fn record(&self, trace: u64, code: FlightCode, arg0: u64, arg1: u64) {
        // relaxed: the ticket only needs to be unique; the slot's seq
        // word (release/acquire) does the publication.
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        if t >= cap {
            // relaxed: a statistic (see `dropped`).
            self.overwritten.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.dropped_counter {
                c.inc();
            }
        }
        let slot = &self.slots[(t % cap) as usize];
        let in_progress = 2 * t + 1;
        let done = 2 * t + 2;
        slot.seq.store(in_progress, Ordering::Release);
        let ts = self.t0.elapsed().as_micros() as u64;
        let code = code as u64;
        // relaxed: payload words are framed by the two `seq` stores and
        // validated by the checksum at read time; a torn mix of two
        // tickets' words fails the checksum and is discarded.
        slot.ts_us.store(ts, Ordering::Relaxed);
        // relaxed: see above.
        slot.trace.store(trace, Ordering::Relaxed);
        // relaxed: see above.
        slot.code.store(code, Ordering::Relaxed);
        // relaxed: see above.
        slot.arg0.store(arg0, Ordering::Relaxed);
        // relaxed: see above.
        slot.arg1.store(arg1, Ordering::Relaxed);
        // relaxed: see above.
        slot.checksum.store(
            checksum(done, ts, trace, code, arg0, arg1),
            Ordering::Relaxed,
        );
        slot.seq.store(done, Ordering::Release);
    }

    /// Reads every valid event out of the ring, oldest first. Events
    /// concurrently being overwritten are skipped, never misreported.
    pub fn snapshot(&self) -> Vec<FlightEventRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // empty or mid-write
            }
            // relaxed: validated below — the seq re-read plus checksum
            // reject any slot a lapping writer touched meanwhile.
            let ts = slot.ts_us.load(Ordering::Relaxed);
            // relaxed: see above.
            let trace = slot.trace.load(Ordering::Relaxed);
            // relaxed: see above.
            let code = slot.code.load(Ordering::Relaxed);
            // relaxed: see above.
            let arg0 = slot.arg0.load(Ordering::Relaxed);
            // relaxed: see above.
            let arg1 = slot.arg1.load(Ordering::Relaxed);
            // relaxed: see above.
            let sum = slot.checksum.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s2 != s1 || sum != checksum(s1, ts, trace, code, arg0, arg1) {
                continue; // torn by a lapping writer
            }
            let Some(code) = FlightCode::from_u64(code) else {
                continue;
            };
            out.push(FlightEventRecord {
                ticket: s1 / 2 - 1,
                ts_us: ts,
                trace,
                code,
                arg0,
                arg1,
            });
        }
        out.sort_by_key(|e| e.ticket);
        out
    }

    /// Writes a human-readable dump of the ring to `w`.
    pub fn dump_to<W: Write>(&self, name: &str, reason: &str, w: &mut W) -> io::Result<()> {
        let events = self.snapshot();
        writeln!(
            w,
            "=== flight recorder: {name} ({reason}; {} events, {} overwritten) ===",
            events.len(),
            self.dropped()
        )?;
        for e in &events {
            writeln!(
                w,
                "[{:>12}us] t{:016x} {:<14} arg0={} arg1={}",
                e.ts_us,
                e.trace,
                e.code.name(),
                e.arg0,
                e.arg1
            )?;
        }
        writeln!(w, "=== end flight recorder: {name} ===")
    }

    /// Dumps to stderr, and appends to `CALLIOPE_FLIGHT_FILE` if set.
    pub fn dump(&self, name: &str, reason: &str) {
        let mut buf = Vec::with_capacity(4096);
        if self.dump_to(name, reason, &mut buf).is_ok() {
            echo_to_stderr(&buf);
            if let Ok(path) = std::env::var(FLIGHT_FILE_ENV) {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = f.write_all(&buf);
                }
            }
        }
    }
}

/// Copies a rendered dump to stderr. Test builds (this crate's own, and
/// any crate that enables the `capture-dumps` feature from its
/// dev-dependencies) go through `eprint!`, so the test harness captures
/// the dump with the test that caused it instead of splicing it into
/// the runner's `test name ... ok` lines. Other builds write to the
/// handle directly: `eprint!` panics when stderr is broken, and a dump
/// must never take a server thread down.
fn echo_to_stderr(buf: &[u8]) {
    if cfg!(any(test, feature = "capture-dumps")) {
        eprint!("{}", String::from_utf8_lossy(buf));
    } else {
        let _ = io::stderr().write_all(buf);
    }
}

// ---------------------------------------------------------------------
// Process-wide recorder registry: panic hook and SIGUSR1 dump every
// component's ring, not just the one that noticed trouble.
// ---------------------------------------------------------------------

type RegistryEntries = Vec<(String, Arc<FlightRecorder>)>;

fn registry() -> &'static Mutex<RegistryEntries> {
    static REGISTRY: OnceLock<Mutex<RegistryEntries>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a recorder under a component name so panic/SIGUSR1 dumps
/// include it. Also installs the process-wide panic hook and SIGUSR1
/// watcher on first use.
pub fn register(name: &str, rec: Arc<FlightRecorder>) {
    registry().lock().unwrap().push((name.to_owned(), rec));
    install_panic_hook();
    crate::signal::install_sigusr1_watcher();
}

/// Removes every recorder registered under `name` (component
/// shutdown; tests reuse names).
pub fn unregister(name: &str) {
    registry().lock().unwrap().retain(|(n, _)| n != name);
}

/// Dumps every registered recorder to stderr (and the flight file).
pub fn dump_all(reason: &str) {
    let recs: Vec<(String, Arc<FlightRecorder>)> = registry().lock().unwrap().clone();
    for (name, rec) in recs {
        rec.dump(&name, reason);
    }
}

/// Installs a panic hook that dumps all registered recorders before
/// delegating to the previous hook. Idempotent.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_all("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_with_payloads_intact() {
        let rec = FlightRecorder::new(8);
        rec.record(0x11, FlightCode::Admit, 1, 2);
        rec.record(0x11, FlightCode::Schedule, 3, 4);
        rec.record(0x22, FlightCode::StreamDone, 5, 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].code, FlightCode::Admit);
        assert_eq!(events[0].trace, 0x11);
        assert_eq!(events[0].arg0, 1);
        assert_eq!(events[1].code, FlightCode::Schedule);
        assert_eq!(events[2].trace, 0x22);
        assert!(events.windows(2).all(|w| w[0].ticket < w[1].ticket));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn the_ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i, FlightCode::Vcr, i, 0);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        // The newest four survive.
        let traces: Vec<u64> = events.iter().map(|e| e.trace).collect();
        assert_eq!(traces, [6, 7, 8, 9]);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn dropped_counter_mirrors_overwrites() {
        let reg = crate::Registry::new();
        let c = reg.counter("obs.flight_dropped");
        let rec = FlightRecorder::new(2).with_dropped_counter(c.clone());
        for _ in 0..5 {
            rec.record(0, FlightCode::Admit, 0, 0);
        }
        assert_eq!(c.get(), 3);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let rec = Arc::new(FlightRecorder::new(16));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    // Each writer's events have a self-consistent
                    // payload: trace == arg0 == arg1.
                    for i in 0..1000 {
                        let v = t * 10_000 + i;
                        rec.record(v, FlightCode::DeadlineMiss, v, v);
                    }
                })
            })
            .collect();
        // Snapshot continuously while writers lap the ring.
        for _ in 0..50 {
            for e in rec.snapshot() {
                assert_eq!(e.trace, e.arg0, "torn event surfaced");
                assert_eq!(e.trace, e.arg1, "torn event surfaced");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 16, "quiescent full ring is fully valid");
        assert_eq!(rec.dropped(), 4000 - 16);
    }

    #[test]
    fn dump_renders_every_event() {
        let rec = FlightRecorder::new(4);
        rec.record(7, FlightCode::FailMsu, 1, 2);
        let mut out = Vec::new();
        rec.dump_to("coord", "test", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("flight recorder: coord"));
        assert!(text.contains("t0000000000000007"));
        assert!(text.contains("fail_msu"));
    }

    #[test]
    fn env_capacity_is_respected() {
        // Not using from_env here (tests run in parallel; the env is
        // process-global) — just the explicit constructor floor.
        assert_eq!(FlightRecorder::new(0).capacity(), 1);
        assert_eq!(FlightRecorder::new(64).capacity(), 64);
    }

    #[test]
    fn registry_register_dump_unregister() {
        let rec = Arc::new(FlightRecorder::new(4));
        rec.record(1, FlightCode::Admit, 0, 0);
        register("test-component", rec.clone());
        dump_all("unit test");
        unregister("test-component");
        dump_all("unit test again"); // no longer includes it; must not panic
    }
}
