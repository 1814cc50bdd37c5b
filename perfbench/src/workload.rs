//! The three workloads and the media they are made of.
//!
//! Everything here derives from the `--seed` argument: the same seed
//! gives the same titles, clips and play order.

use calliope_media::{mpeg, vat};
use calliope_types::time::BitRate;
use std::sync::Arc;
use std::time::Duration;

/// MPEG-1 system rate, the `mpeg1` content type's reservation.
pub const MPEG_KBPS: u64 = 1_500;
/// Playback packet size of the `mpeg1` type.
pub const MPEG_PACKET: usize = 4_096;
/// Packet size used when recording MPEG-1 (one Ethernet-sized chunk).
pub const RECORD_CHUNK: usize = 1_400;

/// What a workload's titles are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Media {
    /// Constant-rate MPEG-1, stored raw, played in 4 KB packets.
    Mpeg,
    /// VAT audio, stored as timestamped packets in an IB-tree.
    Vat,
}

impl Media {
    /// The built-in content type name.
    pub fn type_name(self) -> &'static str {
        match self {
            Media::Mpeg => "mpeg1",
            Media::Vat => "vat-audio",
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Media of the titles.
    pub media: Media,
    /// Number of titles, each replicated onto both disks.
    pub titles: usize,
    /// Length of each title.
    pub title_secs: u32,
    /// Closed-loop viewers.
    pub viewers: usize,
    /// Closed-loop recorders (MPEG-1 clips at 1x).
    pub recorders: usize,
    /// Length of each recorded clip.
    pub clip_secs: u32,
    /// Arm both disks with the simulator's access latency.
    pub timed_disks: bool,
    /// 256 KB blocks per disk.
    pub disk_blocks: u64,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            media: Media::Mpeg,
            titles: 8,
            title_secs: 15,
            viewers: 0,
            recorders: 0,
            clip_secs: 10,
            timed_disks: false,
            disk_blocks: 256,
        };
        Some(match name {
            "graph1_mpeg22" => Workload {
                name: "graph1_mpeg22",
                viewers: 22,
                timed_disks: true,
                ..base
            },
            "vat_fanout400" => Workload {
                name: "vat_fanout400",
                media: Media::Vat,
                title_secs: 20,
                viewers: 400,
                disk_blocks: 64,
                ..base
            },
            "record_mix" => Workload {
                name: "record_mix",
                title_secs: 10,
                viewers: 12,
                recorders: 8,
                disk_blocks: 512,
                ..base
            },
            _ => return None,
        })
    }

    /// Warm-up before the measurement window: one title length.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs(self.title_secs as u64)
    }
}

/// A piece of media as the generator expects to receive it: the bytes,
/// cut at the packet boundaries playback will use.
#[derive(Debug)]
pub struct Title {
    /// Every payload byte, in order.
    pub bytes: Vec<u8>,
    /// Packet `s` carries `bytes[starts[s]..starts[s + 1]]`.
    pub starts: Vec<usize>,
    /// Recording packets: (delivery offset µs, payload range).
    pub upload: Vec<(u64, std::ops::Range<usize>)>,
    /// Playing time.
    pub secs: u32,
}

impl Title {
    /// Packets playback delivers.
    pub fn packets(&self) -> usize {
        self.starts.len() - 1
    }

    /// The expected payload of packet `seq`, if it exists.
    pub fn packet(&self, seq: u32) -> Option<&[u8]> {
        let s = seq as usize;
        let end = *self.starts.get(s + 1)?;
        Some(&self.bytes[self.starts[s]..end])
    }

    /// MPEG-1 at the `mpeg1` rate: recorded in 1400-byte chunks at
    /// their constant-rate times, played back in 4 KB packets.
    pub fn mpeg(secs: u32, seed: u64) -> Title {
        let rate = BitRate::from_kbps(MPEG_KBPS);
        let bytes = mpeg::generate(rate, secs, seed);
        let mut starts: Vec<usize> = (0..bytes.len()).step_by(MPEG_PACKET).collect();
        starts.push(bytes.len());
        let upload = (0..bytes.len())
            .step_by(RECORD_CHUNK)
            .map(|at| {
                let t = rate.transmit_time(at as u64).as_micros();
                (t, at..(at + RECORD_CHUNK).min(bytes.len()))
            })
            .collect();
        Title {
            bytes,
            starts,
            upload,
            secs,
        }
    }

    /// VAT audio: played back packet for packet as recorded.
    pub fn vat(secs: u32, seed: u64) -> Title {
        let mut bytes = Vec::new();
        let mut starts = vec![0];
        let mut upload = Vec::new();
        for p in vat::generate(secs, seed) {
            let at = bytes.len();
            bytes.extend_from_slice(&p.payload);
            starts.push(bytes.len());
            upload.push((p.time_us, at..bytes.len()));
        }
        Title {
            bytes,
            starts,
            upload,
            secs,
        }
    }

    /// A title of the given media.
    pub fn generate(media: Media, secs: u32, seed: u64) -> Arc<Title> {
        Arc::new(match media {
            Media::Mpeg => Title::mpeg(secs, seed),
            Media::Vat => Title::vat(secs, seed),
        })
    }
}

/// SplitMix64: a tiny seeded generator for play order and jitter.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
