//! The generator's one UDP receiver thread.
//!
//! Every viewer's display port shares one socket. The thread
//! demultiplexes datagrams by stream id, checks each payload against the
//! generator's own copy of the title, tracks sequence gaps, and measures
//! arrival lateness the way `calliope_client::port` does: the first
//! packet of a stream fixes the wall time of its offset zero.

use crate::workload::Title;
use calliope_types::wire::data::{DataHeader, PacketKind};
use calliope_types::StreamId;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's on-time threshold.
pub const ONTIME_US: u64 = 50_000;

/// What the event loop learns from the receiver.
#[derive(Clone, Copy, Debug)]
pub enum RxEvent {
    /// A stream's first media packet arrived, at this instant.
    First(StreamId, Instant),
    /// A stream's end-of-stream marker arrived, at this instant.
    Eos(StreamId, Instant),
}

/// Receive state of one playing stream.
#[derive(Debug)]
pub struct RxStream {
    title: Arc<Title>,
    base: Option<(Instant, u64)>,
    next_seq: u32,
    /// Media packets received.
    pub received: u64,
    /// Packets missing by sequence gap (or never sent before EOS).
    pub lost: u64,
    /// Packets whose payload differs from the title, or out of order.
    pub mismatched: u64,
    /// Arrival of the first media packet.
    pub first_at: Option<Instant>,
    /// Arrival of the end-of-stream marker.
    pub eos_at: Option<Instant>,
}

impl RxStream {
    /// True when every packet of the title arrived intact and in order.
    pub fn verified(&self) -> bool {
        self.eos_at.is_some()
            && self.mismatched == 0
            && self.lost == 0
            && self.received == self.title.packets() as u64
    }

    /// Packets of the title not (yet) received.
    pub fn missing(&self) -> u64 {
        (self.title.packets() as u64).saturating_sub(self.received)
    }
}

/// Arrival statistics of the measurement window.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// (Arrival in ms since the window opened, lateness in µs) of each
    /// packet that arrived in the window.
    pub late: Vec<(u32, u32)>,
    /// Packets that arrived no more than 50 ms late.
    pub on_time: u64,
    /// Packets found missing during the window.
    pub lost: u64,
}

/// State shared between the receiver thread and the event loop.
#[derive(Debug, Default)]
pub struct RxShared {
    streams: HashMap<StreamId, RxStream>,
    /// Datagrams of streams the loop has not registered yet (the MSU
    /// can start sending before the `PlayStarted` reply is handled).
    pending: HashMap<StreamId, Vec<(Instant, DataHeader, Vec<u8>)>>,
    window: Option<(Instant, Instant)>,
    /// The window's figures.
    pub win: WindowStats,
    /// Events for the loop, drained each iteration.
    pub events: Vec<RxEvent>,
}

impl RxShared {
    fn in_window(&self, t: Instant) -> bool {
        matches!(self.window, Some((a, b)) if t >= a && t < b)
    }

    /// Starts counting window statistics for arrivals in `[from, to)`.
    pub fn set_window(&mut self, from: Instant, to: Instant) {
        self.window = Some((from, to));
    }

    /// Counts packets that will never arrive (a failed or cut-short
    /// play) as lost, if `at` falls in the window.
    pub fn count_lost(&mut self, n: u64, at: Instant) {
        if self.in_window(at) {
            self.win.lost += n;
        }
    }

    /// Starts tracking `stream`, replaying anything that arrived early.
    pub fn register(&mut self, stream: StreamId, title: Arc<Title>) {
        self.streams.insert(
            stream,
            RxStream {
                title,
                base: None,
                next_seq: 0,
                received: 0,
                lost: 0,
                mismatched: 0,
                first_at: None,
                eos_at: None,
            },
        );
        for (at, header, payload) in self.pending.remove(&stream).unwrap_or_default() {
            self.on_packet(at, header, &payload);
        }
    }

    /// A tracked stream's state.
    pub fn get(&self, stream: StreamId) -> Option<&RxStream> {
        self.streams.get(&stream)
    }

    /// Stops tracking `stream` and returns its final state.
    pub fn take(&mut self, stream: StreamId) -> Option<RxStream> {
        self.pending.remove(&stream);
        self.streams.remove(&stream)
    }

    fn on_packet(&mut self, now: Instant, header: DataHeader, payload: &[u8]) {
        let in_window = self.in_window(now);
        let Some(st) = self.streams.get_mut(&header.stream) else {
            self.pending
                .entry(header.stream)
                .or_default()
                .push((now, header, payload.to_vec()));
            return;
        };
        if header.kind == PacketKind::EndOfStream {
            if st.eos_at.is_none() {
                st.eos_at = Some(now);
                let tail = (st.title.packets() as u64).saturating_sub(st.next_seq as u64);
                st.lost += tail;
                if in_window {
                    self.win.lost += tail;
                }
                self.events.push(RxEvent::Eos(header.stream, now));
            }
            return;
        }
        if st.first_at.is_none() {
            st.first_at = Some(now);
            self.events.push(RxEvent::First(header.stream, now));
        }
        st.received += 1;
        if header.seq > st.next_seq {
            let gap = (header.seq - st.next_seq) as u64;
            st.lost += gap;
            if in_window {
                self.win.lost += gap;
            }
        } else if header.seq < st.next_seq {
            st.mismatched += 1;
        }
        st.next_seq = st.next_seq.max(header.seq.wrapping_add(1));
        if st.title.packet(header.seq) != Some(payload) {
            st.mismatched += 1;
        }
        let off = header.offset.as_micros();
        let (base_at, base_off) = *st.base.get_or_insert((now, off));
        let due = base_at + Duration::from_micros(off.saturating_sub(base_off));
        let late_us = now.saturating_duration_since(due).as_micros() as u64;
        if let Some((from, _)) = self.window.filter(|_| in_window) {
            let at_ms = now.duration_since(from).as_millis() as u32;
            self.win
                .late
                .push((at_ms, late_us.min(u32::MAX as u64) as u32));
            if late_us <= ONTIME_US {
                self.win.on_time += 1;
            }
        }
    }
}

/// Spawns the receiver thread on `socket`.
pub fn spawn(
    socket: UdpSocket,
    shared: Arc<Mutex<RxShared>>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    socket.set_read_timeout(Some(Duration::from_millis(20)))?;
    std::thread::Builder::new()
        .name("perfbench-rx".into())
        .spawn(move || {
            let mut buf = vec![0u8; 65_536];
            while !stop.load(Ordering::Acquire) {
                let n = match socket.recv(&mut buf) {
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => return,
                };
                let now = Instant::now();
                // Only the MSU sends here; anything that is not a
                // Calliope data packet is ignored.
                if let Ok((header, payload)) = DataHeader::decode_packet(&buf[..n]) {
                    let mut sh = shared.lock().expect("rx state poisoned");
                    sh.on_packet(now, header, payload);
                }
            }
        })
}
