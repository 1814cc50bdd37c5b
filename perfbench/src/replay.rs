//! No-I/O layer replays: the public per-packet and per-cycle functions
//! of the MSU's layers, timed on inputs shaped like the workload's.
//!
//! Each figure is the median over several batches of the time per call
//! (or per packet), so one descheduled batch does not move it.

use crate::workload::{Media, Rng, Title, Workload, MPEG_KBPS, MPEG_PACKET};
use calliope_msu::packetize::{unpack_ib_page, CbrPacketizer};
use calliope_proto::record::PacketRecord;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::page::Geometry;
use calliope_storage::{coalesce_runs, ElevatorState, IbTreeWriter};
use calliope_types::time::BitRate;
use calliope_types::wire::data::{DataHeader, PacketKind};
use calliope_types::wire::messages::{ClientRequest, CoordReply, MsuToClient, StreamStart};
use calliope_types::wire::Wire;
use calliope_types::{GroupId, MediaTime, MsuId, SpanKind, StreamId, TraceCtx};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over `BATCHES` of the nanoseconds per call of `f`, run
/// `iters` times per batch.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

/// One replayed layer figure: name, value, unit.
pub type Figure = (&'static str, f64, &'static str);

/// Runs every replay for workload `w`.
pub fn run(w: &Workload, seed: u64) -> Vec<Figure> {
    let mut rng = Rng::new(seed, 7);
    let mut out = Vec::new();

    // Elevator: one duty cycle's batch on one disk, a page per stream.
    let per_disk = ((w.viewers + w.recorders) / 2).max(1);
    let addrs: Vec<u64> = (0..per_disk)
        .map(|_| rng.below(w.disk_blocks as usize) as u64)
        .collect();
    let mut elevator = ElevatorState::new();
    out.push((
        "elevator.plan_ns",
        ns_per_call(2_000, || {
            let order = elevator.plan(black_box(&addrs));
            black_box(coalesce_runs(&addrs, &order));
        }),
        "ns",
    ));

    // CBR packetizer: one 256 KB page into 4 KB packets.
    let page: Vec<u8> = (0..Geometry::paper().page_size)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let mut packetizer = CbrPacketizer::new(CbrSchedule::new(
        BitRate::from_kbps(MPEG_KBPS),
        MPEG_PACKET as u32,
    ));
    let pkts_per_page = (page.len() / MPEG_PACKET) as f64;
    out.push((
        "packetize.cbr_ns_per_pkt",
        ns_per_call(200, || {
            black_box(packetizer.feed_ranges(black_box(&page)));
        }) / pkts_per_page,
        "ns",
    ));

    // IB-tree page unpack: one full page of VAT records.
    let geo = Geometry::paper();
    let vat = Title::vat(60, seed);
    let mut writer = IbTreeWriter::new(geo).expect("paper geometry is valid");
    let mut first_page = None;
    for (t_us, range) in &vat.upload {
        let rec = PacketRecord::media(
            MediaTime::from_micros(*t_us),
            vat.bytes[range.clone()].to_vec(),
        );
        if let Some(p) = writer.push(&rec).expect("record fits a page") {
            first_page.get_or_insert(p.data);
        }
    }
    let vat_page = first_page.expect("60 s of VAT fills a page");
    out.push((
        "packetize.ib_unpack_us",
        ns_per_call(20, || {
            black_box(unpack_ib_page(&geo, black_box(&vat_page)).expect("valid page"));
        }) / 1_000.0,
        "us",
    ));

    // Data-packet header codec at the workload's packet size.
    let payload_len = match w.media {
        Media::Mpeg => MPEG_PACKET,
        Media::Vat => vat.packet(0).map_or(168, <[u8]>::len),
    };
    let payload = &page[..payload_len];
    let header = DataHeader {
        stream: StreamId(7),
        seq: 1_234,
        offset: MediaTime::from_millis(5_678),
        kind: PacketKind::Media,
    };
    let mut buf = Vec::with_capacity(payload_len + 64);
    out.push((
        "wire.data_encode_ns",
        ns_per_call(20_000, || {
            header.encode_packet_into(black_box(payload), &mut buf);
            black_box(&buf);
        }),
        "ns",
    ));
    header.encode_packet_into(payload, &mut buf);
    out.push((
        "wire.data_decode_ns",
        ns_per_call(20_000, || {
            black_box(DataHeader::decode_packet(black_box(&buf)).expect("valid packet"));
        }),
        "ns",
    ));

    // Control messages of one play: request, reply, release.
    let trace = TraceCtx::new(42, SpanKind::Play);
    let play = ClientRequest::Play {
        content: "t3".into(),
        port: "v17".into(),
    };
    let started = CoordReply::PlayStarted {
        group: GroupId(9),
        streams: vec![StreamStart {
            stream: StreamId(10),
            port_name: "v17".into(),
            msu: MsuId(1),
            trace,
        }],
    };
    let ready = MsuToClient::GroupReady {
        group: GroupId(9),
        streams: vec![StreamId(10)],
        trace,
    };
    out.push((
        "wire.ctrl_codec_ns",
        ns_per_call(5_000, || {
            black_box(ClientRequest::from_bytes(&black_box(&play).to_bytes()).expect("round trip"));
            black_box(CoordReply::from_bytes(&black_box(&started).to_bytes()).expect("round trip"));
            black_box(MsuToClient::from_bytes(&black_box(&ready).to_bytes()).expect("round trip"));
        }) / 3.0,
        "ns",
    ));
    out
}
