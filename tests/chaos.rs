//! Chaos tests: injected disk faults, abrupt MSU crashes, and wedged
//! control loops, driven through the public cluster API. The
//! Coordinator must detect each failure (heartbeat or broken
//! connection), reap the dead party's grants, and — when a replica
//! exists — fail playback over without the client doing anything.

use calliope::cluster::Cluster;
use calliope::content;
use calliope_obs::FlightCode;
use calliope_storage::FaultPlan;
use calliope_types::error::Error;
use calliope_types::wire::messages::DoneReason;
use std::time::{Duration, Instant};

/// Scenario narration rides the `chaos` tracing target: set
/// `RUST_LOG=chaos=info` to watch a run unfold (silent otherwise).
macro_rules! narrate {
    ($($arg:tt)+) => { tracing::info!(target: "chaos", $($arg)+) };
}

fn wait_for<T>(timeout: Duration, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A disk dies mid-playback but the title has a replica on the sibling
/// disk: the MSU reports `StreamDone { IoError }`, the Coordinator
/// re-admits the stream on the replica, the MSU dials the client's
/// control listener again, and playback completes — the viewer never
/// sees an error.
#[test]
fn disk_death_fails_over_to_the_replica_disk() {
    calliope_obs::init_logging();
    // The MSU reads ahead as fast as the disk allows (delivery, not
    // reading, is what gets paced), so a healthy disk would hand over
    // the whole clip before the kill switch lands. 300 ms per transfer
    // keeps reads outstanding past the kill, deterministically.
    let slow = FaultPlan {
        read_latency: Duration::from_millis(300),
        ..FaultPlan::default()
    };
    let cluster = Cluster::builder()
        .msus(1)
        .disks_per_msu(2)
        .fault(0, 0, slow.clone())
        .fault(0, 1, slow)
        .build()
        .unwrap();
    let mut admin = cluster.client("root", true).unwrap();
    let original = content::upload_mpeg(&mut admin, "movie", 8, 11).unwrap();
    admin.replicate("movie").unwrap();

    let port = admin.open_port("tv", "mpeg1").unwrap();
    let mut play = admin.play("movie", "tv", &[&port]).unwrap();
    let stream = play.streams[0];
    let trace = play.traces[0];
    assert!(trace.is_traced(), "admission must mint a trace id");
    narrate!("playing {stream} [{trace}]; waiting for first packets");
    wait_for(Duration::from_secs(10), || {
        (port.stats(stream).packets > 2).then_some(())
    });

    // Kill the disk actually serving the stream (registration order in
    // the status matches the builder's disk order).
    let (msus, _) = admin.server_status().unwrap();
    let victim = msus[0]
        .disks
        .iter()
        .position(|d| d.bw_used > 0)
        .expect("one disk holds the stream's bandwidth grant");
    narrate!("killing disk {victim} under {stream}");
    cluster.fail_disk(0, victim).expect("disk is fault-armed");

    // The client blocks straight through the failover; playback
    // restarts from the beginning on the replica and completes.
    let reason = play.wait_end(Duration::from_secs(60)).unwrap();
    narrate!("playback ended: {reason:?}");
    assert_eq!(reason, DoneReason::Completed);
    assert_eq!(cluster.coord.stats().failovers.get(), 1);

    // The always-on flight recorder (no env vars set here) traced the
    // whole life of the stream under one id: admission, the grant, the
    // disk death, and the replica re-admission. The I/O error also
    // dumped both recorders to stderr unconditionally.
    let events = cluster.coord.flight().snapshot();
    for code in [
        FlightCode::Admit,
        FlightCode::Schedule,
        FlightCode::IoError,
        FlightCode::Failover,
    ] {
        assert!(
            events.iter().any(|e| e.code == code && e.trace == trace.id),
            "coordinator flight recorder missing {code:?} for [{trace}]: {events:#?}"
        );
    }
    let msu_events = cluster.msus[0].flight().snapshot();
    assert!(
        msu_events
            .iter()
            .filter(|e| e.code == FlightCode::Schedule && e.trace == trace.id)
            .count()
            >= 2,
        "MSU must have scheduled the stream twice (original + failover) \
         under one trace id: {msu_events:#?}"
    );
    assert!(
        msu_events
            .iter()
            .any(|e| e.code == FlightCode::IoError && e.trace == trace.id),
        "MSU flight recorder missing the disk failure: {msu_events:#?}"
    );

    // The full clip arrived after the restart (plus whatever the first
    // attempt delivered before the disk died).
    let stats = wait_for(Duration::from_secs(5), || {
        let s = port.stats(stream);
        s.eos.then_some(s)
    });
    assert!(
        stats.bytes >= original.len() as u64,
        "replayed clip shorter than the original: {} < {}",
        stats.bytes,
        original.len()
    );
    // Everything drains: no stranded grants.
    wait_for(Duration::from_secs(10), || {
        (cluster.coord.active_streams() == 0).then_some(())
    });
    cluster.shutdown();
}

/// The only copy's disk dies: no replica to move to, so the failure
/// surfaces to the client as a clean I/O error — after the failover
/// grace expires — and the Coordinator releases every grant.
#[test]
fn disk_death_without_a_replica_is_a_clean_error() {
    calliope_obs::init_logging();
    let cluster = Cluster::builder()
        .msus(1)
        .disks_per_msu(1)
        // Slow reads down so the clip is still being read — not already
        // fully buffered — when the kill switch lands.
        .fault(
            0,
            0,
            FaultPlan {
                read_latency: Duration::from_millis(300),
                ..FaultPlan::default()
            },
        )
        .build()
        .unwrap();
    let mut client = cluster.client("alice", false).unwrap();
    content::upload_mpeg(&mut client, "solo", 8, 12).unwrap();

    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("solo", "tv", &[&port]).unwrap();
    let stream = play.streams[0];
    wait_for(Duration::from_secs(10), || {
        (port.stats(stream).packets > 2).then_some(())
    });
    narrate!("killing the only disk under {stream}");
    cluster.fail_disk(0, 0).expect("disk is fault-armed");

    let reason = play.wait_end(Duration::from_secs(30)).unwrap();
    narrate!("playback ended: {reason:?}");
    assert!(
        matches!(reason, DoneReason::IoError(_)),
        "expected an I/O error, got {reason:?}"
    );
    assert_eq!(cluster.coord.stats().failovers.get(), 0);
    assert_eq!(
        cluster.msus[0].metrics().io_errors.get(),
        1,
        "msu.io_errors"
    );

    // No stranded grants: the stream's bandwidth came back.
    wait_for(Duration::from_secs(10), || {
        (cluster.coord.active_streams() == 0).then_some(())
    });
    let (msus, _) = client.server_status().unwrap();
    assert_eq!(msus[0].net_used, 0);
    assert!(msus[0].available, "an MSU survives its disk");
    cluster.shutdown();
}

/// An MSU crashes abruptly — no farewell to anyone. The Coordinator
/// notices the broken connection, reaps the grant, finds no replica,
/// and the client's session closes after the failover grace.
#[test]
fn msu_crash_without_a_replica_reaps_the_grants() {
    calliope_obs::init_logging();
    let mut cluster = Cluster::builder().msus(1).build().unwrap();
    let mut client = cluster.client("alice", false).unwrap();
    content::upload_mpeg(&mut client, "doomed", 4, 13).unwrap();

    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("doomed", "tv", &[&port]).unwrap();
    let stream = play.streams[0];
    wait_for(Duration::from_secs(10), || {
        (port.stats(stream).packets > 2).then_some(())
    });

    let id = cluster.crash_msu(0);
    narrate!("crashed {id}; expecting the session to close");
    let err = play.wait_end(Duration::from_secs(30));
    assert!(
        matches!(err, Err(Error::SessionClosed)),
        "expected SessionClosed, got {err:?}"
    );
    wait_for(Duration::from_secs(10), || {
        (cluster.coord.msu_count() == 0).then_some(())
    });
    assert_eq!(cluster.coord.stats().grants_reaped.get(), 1);
    assert_eq!(cluster.coord.active_streams(), 0, "no stranded grants");
    // `fail_msu` dumped the flight recorder; its event names the victim.
    let events = cluster.coord.flight().snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.code == FlightCode::FailMsu && e.arg0 == id.raw()),
        "coordinator flight recorder missing FailMsu for {id}: {events:#?}"
    );
    cluster.shutdown();
}

/// A wedged MSU answers nothing but keeps its TCP connection open — a
/// failure mode only the heartbeat can see. With a fast heartbeat the
/// Coordinator marks it down within a few intervals.
#[test]
fn heartbeat_reaps_a_wedged_msu() {
    calliope_obs::init_logging();
    let cluster = Cluster::builder()
        .msus(2)
        .heartbeat(Duration::from_millis(50), 2)
        .build()
        .unwrap();
    assert_eq!(cluster.coord.msu_count(), 2);

    narrate!("wedging MSU #1; only the heartbeat can notice");
    cluster.wedge_msu(1);
    wait_for(Duration::from_secs(10), || {
        (cluster.coord.msu_count() == 1).then_some(())
    });
    assert!(cluster.coord.stats().heartbeat_misses.get() >= 2);
    // The misses and the eventual reap are both on the flight record.
    let events = cluster.coord.flight().snapshot();
    assert!(
        events.iter().any(|e| e.code == FlightCode::HeartbeatMiss),
        "missing HeartbeatMiss events: {events:#?}"
    );
    assert!(
        events.iter().any(|e| e.code == FlightCode::FailMsu),
        "missing the FailMsu reap: {events:#?}"
    );
    cluster.shutdown();
}

/// Replicating a title takes a while on a slow disk. The MSU copies on
/// its own copier thread, so its Coordinator reader keeps answering
/// heartbeats meanwhile: with a 50 ms heartbeat and 300 ms per read,
/// the copy succeeds and the MSU is never suspected.
#[test]
fn heartbeats_are_answered_during_a_long_copy() {
    calliope_obs::init_logging();
    let slow = FaultPlan {
        read_latency: Duration::from_millis(300),
        ..FaultPlan::default()
    };
    let cluster = Cluster::builder()
        .msus(1)
        .disks_per_msu(2)
        .fault(0, 0, slow.clone())
        .fault(0, 1, slow)
        .heartbeat(Duration::from_millis(50), 2)
        .build()
        .unwrap();
    let mut admin = cluster.client("root", true).unwrap();
    content::upload_mpeg(&mut admin, "movie", 8, 11).unwrap();

    let stats = cluster.coord.stats();
    let (pongs_before, misses_before) =
        (stats.snapshots_merged.get(), stats.heartbeat_misses.get());
    let started = Instant::now();
    admin.replicate("movie").unwrap();
    narrate!("replicated in {:?}", started.elapsed());
    assert!(
        stats.snapshots_merged.get() > pongs_before,
        "no heartbeat was answered while the copy ran"
    );
    assert_eq!(
        stats.heartbeat_misses.get(),
        misses_before,
        "coord.heartbeat_misses grew during the copy"
    );
    let (msus, _) = admin.server_status().unwrap();
    assert!(msus[0].available, "the copying MSU must stay up");
    assert_eq!(cluster.coord.msu_count(), 1);
    cluster.shutdown();
}

/// A copy that fails partway deletes its half-written destination, so
/// the reservation comes back and a retry can succeed; the replica then
/// serves the whole title.
#[test]
fn a_failed_copy_can_be_retried() {
    calliope_obs::init_logging();
    // Uploads land on the first disk with room, so the title's source
    // is disk 0, and the copy's first read fails.
    let cluster = Cluster::builder()
        .msus(1)
        .disks_per_msu(2)
        .fault(0, 0, FaultPlan::fail_read(1))
        .build()
        .unwrap();
    let mut admin = cluster.client("root", true).unwrap();
    let original = content::upload_mpeg(&mut admin, "movie", 2, 21).unwrap();

    let err = admin.replicate("movie").unwrap_err();
    narrate!("first copy failed: {err}");
    assert!(
        err.to_string().contains("injected fault on read #1"),
        "unexpected error: {err}"
    );
    admin.replicate("movie").unwrap();

    // Fill the original's disk so the next viewer lands on the replica.
    let mut holds = Vec::new();
    let mut hold_ports = Vec::new();
    for i in 0..12 {
        hold_ports.push(admin.open_port(&format!("hold{i}"), "mpeg1").unwrap());
    }
    for (i, port) in hold_ports.iter().enumerate() {
        holds.push(admin.play("movie", &format!("hold{i}"), &[port]).unwrap());
    }
    let port = admin.open_port("tv", "mpeg1").unwrap();
    let mut play = admin.play("movie", "tv", &[&port]).unwrap();
    let stream = play.streams[0];
    let (msus, _) = admin.server_status().unwrap();
    assert!(
        msus[0].disks[1].bw_used > 0,
        "the viewer must be served by the replica: {:?}",
        msus[0].disks
    );
    assert_eq!(
        play.wait_end(Duration::from_secs(30)).unwrap(),
        DoneReason::Completed
    );
    let stats = wait_for(Duration::from_secs(5), || {
        let s = port.stats(stream);
        s.eos.then_some(s)
    });
    assert_eq!(stats.bytes, original.len() as u64, "every byte delivered");
    assert_eq!(stats.lost, 0);
    for mut p in holds {
        p.quit().ok();
    }
    cluster.shutdown();
}
