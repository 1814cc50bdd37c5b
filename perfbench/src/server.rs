//! The system under test, in a child process of its own.
//!
//! The benchmark re-executes itself with `--serve`; this side builds a
//! Coordinator and one MSU through the public `ClusterBuilder`, prints
//! `ready <coordinator client address>`, and then answers one-line
//! commands on stdin: `usage` replies with the process's CPU time and
//! context switches, `quit` (or EOF) shuts the cluster down. Keeping the
//! server in its own process means its CPU, memory and threads can be
//! read without the load generator's own counting.

use crate::sys;
use crate::workload::Workload;
use calliope::cluster::Cluster;
use calliope_sim::machine::DiskParams;
use calliope_storage::FaultPlan;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Access time of one transfer on the simulator's default disk: head
/// settle, mean seek, half a rotation and command overhead. Media
/// transfer time is left out: `FaultyDisk` charges its latency once per
/// transfer whatever its length.
pub fn disk_access_latency() -> Duration {
    let d = DiskParams::default();
    // E[sqrt(|x - y|)] for two uniform positions on [0, 1] is 8/15.
    let mean_seek = d.settle_ms + d.stroke_ms * 8.0 / 15.0;
    let ms = mean_seek + d.avg_rotation_ms() + d.overhead_ms;
    Duration::from_secs_f64(ms / 1_000.0)
}

/// Runs the server side until told to quit.
pub fn serve(w: &Workload, data_dir: PathBuf) -> Result<(), String> {
    let mut builder = Cluster::builder()
        .msus(1)
        .disks_per_msu(2)
        .disk_blocks(w.disk_blocks)
        .data_dir(data_dir);
    if w.timed_disks {
        let plan = FaultPlan {
            read_latency: disk_access_latency(),
            ..FaultPlan::default()
        };
        builder = builder.fault(0, 0, plan.clone()).fault(0, 1, plan);
    }
    let cluster = builder.build().map_err(|e| format!("cluster start: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {}", cluster.coord.client_addr).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "usage" => {
                let u = sys::self_usage();
                writeln!(out, "usage {} {}", u.cpu_us, u.ctx_switches)
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
            }
            "quit" => break,
            _ => {}
        }
    }
    cluster.shutdown();
    Ok(())
}
