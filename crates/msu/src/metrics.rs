//! MSU-wide metric handles.
//!
//! One [`MsuMetrics`] is built at server start and shared (via `Arc`)
//! with every disk thread, the network thread, and each recording
//! receiver. The handles are pre-registered so the hot paths never
//! touch the registry lock — each update is a relaxed atomic on an
//! already-resolved `Arc`.

use calliope_obs::{Counter, Gauge, Histogram, Registry, LATENCY_US_BUCKETS};
use std::sync::Arc;

/// Time budget for one disk duty-cycle pass: the paper's 10 ms timer
/// granularity. A pass that runs longer than this records the overrun.
pub const DISK_CYCLE_BUDGET_US: u64 = 10_000;

/// Bucket bounds for per-duty-cycle batch sizes (pages).
pub const BATCH_PAGES_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Pre-registered metric handles for one MSU.
pub struct MsuMetrics {
    /// The registry backing every handle (snapshot source).
    pub registry: Registry,
    /// Media packets transmitted by the network thread.
    pub packets_sent: Arc<Counter>,
    /// Payload bytes transmitted.
    pub bytes_sent: Arc<Counter>,
    /// Packets sent more than `DEADLINE_MISS_US` (10 ms) behind schedule.
    pub deadline_misses: Arc<Counter>,
    /// Send lateness relative to the pacing deadline, µs.
    pub send_lateness_us: Arc<Histogram>,
    /// Times the network thread woke (a deadline or a command); an
    /// idle MSU adds nothing.
    pub net_wakeups: Arc<Counter>,
    /// Packets received by recording receivers.
    pub packets_recorded: Arc<Counter>,
    /// Payload bytes received by recording receivers.
    pub bytes_recorded: Arc<Counter>,
    /// Recording datagrams that never reached their receiver: gaps in
    /// the sender's sequence numbers (socket-buffer drops, network
    /// loss).
    pub record_seq_gaps: Arc<Counter>,
    /// Times a disk thread woke from its blocking wait (a command or a
    /// doorbell kick); an idle MSU adds nothing.
    pub disk_wakeups: Arc<Counter>,
    /// Service time of one page read off a disk, µs.
    pub disk_read_us: Arc<Histogram>,
    /// Service time of one recording-drain batch, µs.
    pub disk_write_us: Arc<Histogram>,
    /// Amount by which a disk duty-cycle pass exceeded its budget, µs.
    pub disk_cycle_overrun_us: Arc<Histogram>,
    /// Pages issued per duty-cycle batch (elevator-ordered).
    pub disk_batch_pages: Arc<Histogram>,
    /// Coalesced transfers issued (each covers one or more pages).
    pub disk_coalesced_runs: Arc<Counter>,
    /// Pages that rode a multi-page coalesced transfer; the coalesce
    /// ratio is this over `disk.batched_pages_total`.
    pub disk_batched_pages: Arc<Counter>,
    /// Every page issued through the batched path (ratio denominator).
    pub disk_batched_pages_total: Arc<Counter>,
    /// Head travel (blocks) the elevator saved vs. serving the same
    /// batch in round-robin gather order.
    pub disk_seek_saved_blocks: Arc<Counter>,
    /// Times the page pool was empty and a read fell back to the heap.
    pub pool_exhausted: Arc<Counter>,
    /// Play-ring (page queue) depth; high-water is the interesting part.
    pub play_ring_depth: Arc<Gauge>,
    /// Record-ring depth; high-water is the interesting part.
    pub record_ring_depth: Arc<Gauge>,
    /// Live streams in the control-plane registry.
    pub streams_active: Arc<Gauge>,
    /// Disk I/O errors that killed a stream (each one surfaces to the
    /// Coordinator as `StreamDone { reason: IoError }`).
    pub io_errors: Arc<Counter>,
}

impl std::fmt::Debug for MsuMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsuMetrics").finish_non_exhaustive()
    }
}

impl MsuMetrics {
    /// Builds the registry and resolves every handle.
    pub fn new() -> Arc<MsuMetrics> {
        let registry = Registry::new();
        let m = MsuMetrics {
            packets_sent: registry.counter("net.packets_sent"),
            bytes_sent: registry.counter("net.bytes_sent"),
            deadline_misses: registry.counter("net.deadline_misses"),
            send_lateness_us: registry.histogram("net.send_lateness_us", LATENCY_US_BUCKETS),
            net_wakeups: registry.counter("net.wakeups"),
            packets_recorded: registry.counter("net.packets_recorded"),
            bytes_recorded: registry.counter("net.bytes_recorded"),
            record_seq_gaps: registry.counter("net.record_seq_gaps"),
            disk_wakeups: registry.counter("disk.wakeups"),
            disk_read_us: registry.histogram("disk.read_service_us", LATENCY_US_BUCKETS),
            disk_write_us: registry.histogram("disk.write_service_us", LATENCY_US_BUCKETS),
            disk_cycle_overrun_us: registry.histogram("disk.cycle_overrun_us", LATENCY_US_BUCKETS),
            disk_batch_pages: registry.histogram("disk.batch_pages", BATCH_PAGES_BUCKETS),
            disk_coalesced_runs: registry.counter("disk.coalesced_runs"),
            disk_batched_pages: registry.counter("disk.batched_pages"),
            disk_batched_pages_total: registry.counter("disk.batched_pages_total"),
            disk_seek_saved_blocks: registry.counter("disk.seek_saved_blocks"),
            pool_exhausted: registry.counter("disk.pool_exhausted"),
            play_ring_depth: registry.gauge("spsc.play_ring_depth"),
            record_ring_depth: registry.gauge("spsc.record_ring_depth"),
            streams_active: registry.gauge("streams.active"),
            io_errors: registry.counter("msu.io_errors"),
            registry,
        };
        Arc::new(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_types::wire::stats::MetricValue;

    #[test]
    fn handles_feed_the_registry_snapshot() {
        let m = MsuMetrics::new();
        m.packets_sent.add(7);
        m.send_lateness_us.record(1_200);
        m.play_ring_depth.observe_peak(2);
        let snap = m.registry.snapshot("msu-0");
        assert_eq!(snap.counter("net.packets_sent"), 7);
        match snap.get("net.send_lateness_us") {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(*count, 1),
            other => panic!("unexpected {other:?}"),
        }
        match snap.get("spsc.play_ring_depth") {
            Some(MetricValue::Gauge { high_water, .. }) => assert_eq!(*high_water, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
