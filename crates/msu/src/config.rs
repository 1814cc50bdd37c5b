//! MSU configuration.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::time::Duration;

/// Default pacing grain ([`MsuConfig::net_tick`]). Each wakeup of the
/// network thread costs CPU whether it sends one packet or ten, so the
/// grain sets the trade between lateness and wakeups: at 1.5 ms a
/// 22-stream MPEG load leaves packets ~0.7 ms late at the median with
/// server CPU within a few percent of the old 10 ms tick.
pub const DEFAULT_NET_GRAIN: Duration = Duration::from_micros(1500);

/// Geometry of one local disk (a file-backed raw device).
#[derive(Clone, Debug)]
pub struct DiskSpec {
    /// Number of 256 KB blocks. A 1995 Seagate Barracuda held 2 GB ≈
    /// 8192 blocks; tests use far fewer (the backing file is sparse).
    pub blocks: u64,
    /// Fault-injection plan for chaos tests; `None` opens the disk
    /// without the [`calliope_storage::FaultyDisk`] wrapper. Even an
    /// all-defaults plan is useful: it arms the runtime kill switch.
    pub fault: Option<calliope_storage::FaultPlan>,
}

impl DiskSpec {
    /// A disk with no fault injection.
    pub fn healthy(blocks: u64) -> DiskSpec {
        DiskSpec {
            blocks,
            fault: None,
        }
    }
}

/// Configuration for one MSU.
#[derive(Clone, Debug)]
pub struct MsuConfig {
    /// The Coordinator's intra-server (MSU registration) address.
    pub coordinator: SocketAddr,
    /// Directory for the disk image files (`disk0.img`, `disk1.img`, …).
    pub data_dir: PathBuf,
    /// Local disks to create or open.
    pub disks: Vec<DiskSpec>,
    /// IP to bind the MSU's sockets on.
    pub bind_ip: IpAddr,
    /// The pacing grain: the least spacing between two network-thread
    /// wakeups. The thread sleeps until the earliest packet deadline,
    /// but no sooner than one grain after its last wakeup, so packets
    /// due within one grain share a wakeup and a packet leaves at most
    /// about one grain late. Default [`DEFAULT_NET_GRAIN`] (1.5 ms). The
    /// paper's FreeBSD network process woke on a fixed 10 ms tick
    /// instead; a larger grain trades lateness for fewer wakeups.
    pub net_tick: Duration,
    /// Previous identity when re-registering after a crash (paper §2.2
    /// fault tolerance).
    pub previous_id: Option<calliope_types::MsuId>,
}

impl MsuConfig {
    /// A small configuration suitable for tests and examples: two
    /// 16 MB disks, loopback networking, the default pacing grain.
    pub fn small(coordinator: SocketAddr, data_dir: PathBuf) -> MsuConfig {
        MsuConfig {
            coordinator,
            data_dir,
            disks: vec![DiskSpec::healthy(64), DiskSpec::healthy(64)],
            bind_ip: IpAddr::V4(Ipv4Addr::LOCALHOST),
            net_tick: DEFAULT_NET_GRAIN,
            previous_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_uses_the_default_pacing_grain() {
        let cfg = MsuConfig::small("127.0.0.1:9000".parse().unwrap(), "/tmp/x".into());
        assert_eq!(cfg.net_tick, Duration::from_micros(1500));
        assert_eq!(cfg.disks.len(), 2);
        assert!(cfg.previous_id.is_none());
    }
}
