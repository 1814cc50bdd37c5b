//! Whole-installation bring-up.
//!
//! [`Cluster`] starts a Coordinator and N MSUs on loopback with
//! file-backed disks under a scratch directory — the paper's Figure 1
//! topology in one process. Tests, examples, and benchmarks all build
//! on it.

use calliope_client::CalliopeClient;
use calliope_coord::{CoordConfig, CoordServer};
use calliope_msu::config::{DiskSpec, MsuConfig, DEFAULT_NET_GRAIN};
use calliope_msu::MsuServer;
use calliope_storage::{FaultControl, FaultPlan};
use calliope_types::error::Result;
use calliope_types::MsuId;
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    msus: usize,
    disks_per_msu: usize,
    disk_blocks: u64,
    net_tick: Duration,
    data_dir: Option<PathBuf>,
    fault_plans: Vec<(usize, usize, FaultPlan)>,
    heartbeat_interval: Duration,
    heartbeat_misses: u32,
}

impl ClusterBuilder {
    /// Number of MSUs (default 1).
    pub fn msus(mut self, n: usize) -> Self {
        self.msus = n;
        self
    }

    /// Disks per MSU (default 2, like the paper's test machine).
    pub fn disks_per_msu(mut self, n: usize) -> Self {
        self.disks_per_msu = n;
        self
    }

    /// Blocks (256 KB each) per disk (default 64 = 16 MB, sparse).
    pub fn disk_blocks(mut self, n: u64) -> Self {
        self.disk_blocks = n;
        self
    }

    /// The MSUs' pacing grain, the least spacing between two network
    /// thread wakeups (default [`DEFAULT_NET_GRAIN`], 1.5 ms; see
    /// `MsuConfig::net_tick`).
    pub fn net_tick(mut self, tick: Duration) -> Self {
        self.net_tick = tick;
        self
    }

    /// Where disk images live (default: a fresh scratch directory).
    pub fn data_dir(mut self, dir: PathBuf) -> Self {
        self.data_dir = Some(dir);
        self
    }

    /// Arms fault injection on one disk: `msu`/`disk` are start-order
    /// indices. An all-defaults [`FaultPlan`] injects nothing but still
    /// enables the runtime kill switch ([`Cluster::fail_disk`]).
    pub fn fault(mut self, msu: usize, disk: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((msu, disk, plan));
        self
    }

    /// Tunes the Coordinator's heartbeat monitor (`Duration::ZERO`
    /// disables it; the default is the Coordinator's own default).
    pub fn heartbeat(mut self, interval: Duration, misses: u32) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_misses = misses;
        self
    }

    /// Starts everything.
    pub fn build(self) -> Result<Cluster> {
        let bind_ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let data_dir = self.data_dir.unwrap_or_else(scratch_dir);
        std::fs::create_dir_all(&data_dir)?;
        let coord = CoordServer::start(CoordConfig {
            bind_ip,
            client_port: 0,
            msu_port: 0,
            heartbeat_interval: self.heartbeat_interval,
            heartbeat_misses: self.heartbeat_misses,
        })?;
        let mut msus = Vec::new();
        for i in 0..self.msus {
            let cfg = MsuConfig {
                coordinator: coord.msu_addr,
                data_dir: data_dir.join(format!("msu{i}")),
                disks: (0..self.disks_per_msu)
                    .map(|d| DiskSpec {
                        blocks: self.disk_blocks,
                        fault: self
                            .fault_plans
                            .iter()
                            .find(|(m, k, _)| *m == i && *k == d)
                            .map(|(_, _, plan)| plan.clone()),
                    })
                    .collect(),
                bind_ip,
                net_tick: self.net_tick,
                previous_id: None,
            };
            msus.push(MsuServer::start(cfg)?);
        }
        Ok(Cluster {
            coord,
            msus,
            data_dir,
            bind_ip,
            disk_blocks: self.disk_blocks,
            disks_per_msu: self.disks_per_msu,
            net_tick: self.net_tick,
        })
    }
}

fn scratch_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // relaxed: a fresh-id counter for scratch directory names.
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("calliope-cluster-{}-{n}", std::process::id()))
}

/// A running installation: one Coordinator plus its MSUs.
pub struct Cluster {
    /// The Coordinator.
    pub coord: CoordServer,
    /// The MSUs, in start order.
    pub msus: Vec<MsuServer>,
    data_dir: PathBuf,
    bind_ip: IpAddr,
    disk_blocks: u64,
    disks_per_msu: usize,
    net_tick: Duration,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        let coord_defaults = CoordConfig::default();
        ClusterBuilder {
            msus: 1,
            disks_per_msu: 2,
            disk_blocks: 64,
            net_tick: DEFAULT_NET_GRAIN,
            data_dir: None,
            fault_plans: Vec::new(),
            heartbeat_interval: coord_defaults.heartbeat_interval,
            heartbeat_misses: coord_defaults.heartbeat_misses,
        }
    }

    /// Opens a client session against this cluster's Coordinator.
    pub fn client(&self, name: &str, admin: bool) -> Result<CalliopeClient> {
        CalliopeClient::connect(self.coord.client_addr, self.bind_ip, name, admin)
    }

    /// Stops MSU `i` (taking it out of the vector), simulating a crash.
    /// Returns its identity for a later [`Cluster::restart_msu`].
    pub fn kill_msu(&mut self, i: usize) -> MsuId {
        let msu = self.msus.remove(i);
        let id = msu.id();
        msu.shutdown();
        id
    }

    /// Crashes MSU `i` abruptly: no `GroupEnded`, no `StreamDone` — the
    /// Coordinator and the clients both discover the death the hard
    /// way. Returns the identity for [`Cluster::restart_msu`].
    pub fn crash_msu(&mut self, i: usize) -> MsuId {
        let msu = self.msus.remove(i);
        let id = msu.id();
        msu.crash();
        id
    }

    /// Chaos: wedges MSU `i`'s Coordinator control loop (TCP stays
    /// open, nothing is answered). Only the heartbeat can notice.
    pub fn wedge_msu(&self, i: usize) {
        self.msus[i].wedge_control();
    }

    /// Chaos: MSU `i` silently drops all outgoing media packets.
    pub fn blackhole_msu(&self, i: usize) {
        self.msus[i].blackhole_udp();
    }

    /// Chaos: severs MSU `i`'s Coordinator connection; the MSU keeps
    /// serving and re-registers under its previous identity (§2.2).
    pub fn drop_msu_coord_conn(&self, i: usize) {
        self.msus[i].drop_coord_conn();
    }

    /// Kills one fault-armed disk at runtime (every subsequent transfer
    /// errors). Returns the control handle, or `None` if that disk was
    /// built without a [`FaultPlan`].
    pub fn fail_disk(&self, msu: usize, disk: usize) -> Option<Arc<FaultControl>> {
        let ctl = self.msus[msu].fault_control(disk)?;
        ctl.kill();
        Some(ctl)
    }

    /// Restarts a previously killed MSU from its on-disk state,
    /// re-registering under its previous identity (paper §2.2).
    pub fn restart_msu(&mut self, i: usize, previous: MsuId) -> Result<()> {
        let cfg = MsuConfig {
            coordinator: self.coord.msu_addr,
            data_dir: self.data_dir.join(format!("msu{i}")),
            // A restarted MSU comes back with healthy disks.
            disks: (0..self.disks_per_msu)
                .map(|_| DiskSpec::healthy(self.disk_blocks))
                .collect(),
            bind_ip: self.bind_ip,
            net_tick: self.net_tick,
            previous_id: Some(previous),
        };
        self.msus.push(MsuServer::start(cfg)?);
        Ok(())
    }

    /// The scratch directory holding the disk images.
    pub fn data_dir(&self) -> &PathBuf {
        &self.data_dir
    }

    /// Orderly shutdown of every component; removes the scratch
    /// directory.
    pub fn shutdown(self) {
        for msu in self.msus {
            msu.shutdown();
        }
        self.coord.shutdown();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}
