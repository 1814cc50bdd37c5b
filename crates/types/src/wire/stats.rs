//! Metrics snapshot types carried by the `Stats` wire messages.
//!
//! Every Calliope component keeps live counters, gauges, and fixed-bucket
//! histograms (the `calliope-obs` registry). A snapshot flattens those
//! into self-describing name/value pairs so any component's internals can
//! be inspected over the existing TCP control plane — the Coordinator
//! forwards `GetStats` to MSUs and merges their answers, and
//! `calliope-cli stats` renders the result.
//!
//! Histograms travel as cumulative buckets, Prometheus-style: each
//! [`HistBucket`] counts the samples `<= le`, and the final bucket has
//! `le == u64::MAX` so the series always covers every sample. That makes
//! [`MetricValue::quantile`] a single scan, and lets two snapshots be
//! subtracted bucket-wise to get a rate window.

use crate::impl_wire;

/// One cumulative histogram bucket: how many samples were `<= le`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive upper bound of the bucket (`u64::MAX` for the overflow
    /// bucket).
    pub le: u64,
    /// Cumulative sample count for this bound.
    pub count: u64,
}

impl_wire! {
    struct HistBucket { le, count }
}

/// The value of one named metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous level plus the highest level ever observed.
    Gauge {
        /// Current value.
        value: u64,
        /// High-water mark since the component started.
        high_water: u64,
    },
    /// Distribution of recorded values (units are per-metric; the MSU
    /// and Coordinator record microseconds).
    Histogram {
        /// Cumulative buckets, ascending `le`, ending at `u64::MAX`.
        buckets: Vec<HistBucket>,
        /// Total samples recorded.
        count: u64,
        /// Sum of all recorded values.
        sum: u64,
    },
}

impl MetricValue {
    /// Estimates the `q`-quantile (`0.0..=1.0`) of a histogram as the
    /// upper bound of the bucket containing that rank. Returns `None`
    /// for non-histograms and empty histograms.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let MetricValue::Histogram { buckets, count, .. } = self else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * *count as f64).ceil() as u64).max(1);
        buckets.iter().find(|b| b.count >= rank).map(|b| b.le)
    }

    /// Mean of a histogram's samples, `None` if empty or not a
    /// histogram.
    pub fn mean(&self) -> Option<f64> {
        match self {
            MetricValue::Histogram { count, sum, .. } if *count > 0 => {
                Some(*sum as f64 / *count as f64)
            }
            _ => None,
        }
    }

    /// The counter's value, `None` for other kinds.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

impl_wire! {
    enum MetricValue as "metric value" {
        0 => Counter(value),
        1 => Gauge { value, high_water },
        2 => Histogram { buckets, count, sum },
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `net.deadline_misses`.
    pub name: String,
    /// Its value.
    pub value: MetricValue,
}

impl_wire! {
    struct MetricEntry { name, value }
}

/// A full metrics snapshot from one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Who produced it: `coordinator`, `msu-3`, `client`, ….
    pub source: String,
    /// Microseconds since the component started.
    pub uptime_us: u64,
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricEntry>,
}

impl StatsSnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Convenience: a counter's value, zero if absent or another kind.
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name)
            .and_then(MetricValue::as_counter)
            .unwrap_or(0)
    }
}

impl_wire! {
    struct StatsSnapshot { source, uptime_us, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::check_golden;

    fn sample_histogram() -> MetricValue {
        // 10 samples: 4 <= 100, 9 <= 1000, 1 overflow.
        MetricValue::Histogram {
            buckets: vec![
                HistBucket { le: 100, count: 4 },
                HistBucket { le: 1000, count: 9 },
                HistBucket {
                    le: u64::MAX,
                    count: 10,
                },
            ],
            count: 10,
            sum: 5000,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = StatsSnapshot {
            source: "msu-2".into(),
            uptime_us: 1_234_567,
            metrics: vec![
                MetricEntry {
                    name: "net.packets_sent".into(),
                    value: MetricValue::Counter(42),
                },
                MetricEntry {
                    name: "spsc.net_queue_depth".into(),
                    value: MetricValue::Gauge {
                        value: 3,
                        high_water: 17,
                    },
                },
                MetricEntry {
                    name: "net.lateness_us".into(),
                    value: sample_histogram(),
                },
            ],
        };
        check_golden(
            &[(
                HistBucket { le: 100, count: 4 },
                "64000000000000000400000000000000",
            )],
            None,
        );
        check_golden(
            &[(
                snap.metrics[0].clone(),
                "100000006e65742e7061636b6574735f73656e74002a00000000000000",
            )],
            None,
        );
        check_golden(&[(snap.clone(), "050000006d73752d3287d612000000000003000000100000006e65742e706163\
                                       6b6574735f73656e74002a0000000000000014000000737073632e6e65745f71\
                                       756575655f646570746801030000000000000011000000000000000f0000006e\
                                       65742e6c6174656e6573735f7573020300000064000000000000000400000000\
                                       000000e8030000000000000900000000000000ffffffffffffffff0a00000000\
                                       0000000a000000000000008813000000000000")], None);
        assert_eq!(snap.counter("net.packets_sent"), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.get("net.lateness_us").is_some());
    }

    #[test]
    fn quantiles_pick_the_right_bucket() {
        let h = sample_histogram();
        // rank(0.5 * 10) = 5 -> first bucket with cum >= 5 is le=1000.
        assert_eq!(h.quantile(0.5), Some(1000));
        // rank 1 -> le=100.
        assert_eq!(h.quantile(0.0), Some(100));
        assert_eq!(h.quantile(0.4), Some(100));
        // rank 10 -> overflow bucket.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.mean(), Some(500.0));
        // Non-histograms and empty histograms have no quantiles.
        assert_eq!(MetricValue::Counter(5).quantile(0.5), None);
        let empty = MetricValue::Histogram {
            buckets: vec![HistBucket {
                le: u64::MAX,
                count: 0,
            }],
            count: 0,
            sum: 0,
        };
        assert_eq!(empty.quantile(0.99), None);
    }

    #[test]
    fn metric_values_round_trip_and_reject_bad_tags() {
        check_golden(
            &[
                (MetricValue::Counter(u64::MAX), "00ffffffffffffffff"),
                (
                    MetricValue::Gauge {
                        value: 0,
                        high_water: 9,
                    },
                    "0100000000000000000900000000000000",
                ),
                (sample_histogram(), "020300000064000000000000000400000000000000e803000000000000090000\
                                      0000000000ffffffffffffffff0a000000000000000a00000000000000881300\
                                      0000000000"),
            ],
            Some("metric value"),
        );
    }
}
