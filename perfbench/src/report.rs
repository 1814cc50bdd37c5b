//! Turning one run's measurements into named metrics.
//!
//! Registry figures are deltas between two reads of the Coordinator's
//! and the MSU's registries (the public `Stats` request), with quantiles
//! from `calliope_obs::histogram_quantile` under the names
//! `calliope-cli top` shows.

use crate::gen::{Log, Span};
use crate::replay::Figure;
use crate::rx::RxShared;
use crate::sys::Usage;
use calliope_obs::histogram_quantile;
use calliope_types::wire::stats::{HistBucket, MetricValue, StatsSnapshot};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Generator-side acceptance: a run whose generator dropped datagrams
/// or ran its due work later than this is not a server result.
pub const MAX_GEN_LAG_P99_MS: f64 = 20.0;

/// Counters read at each edge of the measurement window.
#[derive(Debug)]
pub struct Mark {
    /// When.
    pub at: Instant,
    /// Coordinator and MSU registries.
    pub stats: Vec<StatsSnapshot>,
    /// Server process CPU and context switches.
    pub server: Usage,
    /// Generator process CPU.
    pub gen: Usage,
    /// Kernel UDP receive-buffer drops.
    pub rcvbuf_errors: u64,
}

/// Everything a report is built from.
#[derive(Debug)]
pub struct Inputs<'a> {
    pub window: Duration,
    pub load_start: Instant,
    pub setup_s: Vec<f64>,
    pub before: Mark,
    pub after: Mark,
    pub rss_kb: u64,
    pub threads_peak: u64,
    pub ring_min: Option<u64>,
    /// Generator threads at the end of the window.
    pub gen_threads: u64,
    /// Server usage at the edges of the sub-windows, `before` to `after`.
    pub cuts: Vec<(Instant, Usage)>,
    pub active: usize,
    pub rx: &'a RxShared,
    pub log: &'a Log,
    pub replays: Vec<Figure>,
}

/// A metric: name, value, unit, and a note on how it was measured.
type Metric = (String, f64, &'static str, String);

fn metrics<const N: usize>(v: [(&str, f64, &'static str, String); N]) -> Vec<Metric> {
    v.into_iter()
        .map(|(n, v, u, note)| (n.to_owned(), v, u, note))
        .collect()
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// End-to-end metrics.
    e2e: Vec<Metric>,
    /// Per-layer metrics.
    layer: Vec<Metric>,
    /// Figures printed for reading, not part of the JSON.
    info: Vec<String>,
    fail_reasons: Vec<String>,
}

/// Linear-interpolated quantile of a sorted slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `[a, b, …]` to three decimals, for the printed notes.
fn brief(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", parts.join(", "))
}

fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn msu(stats: &[StatsSnapshot]) -> Option<&StatsSnapshot> {
    stats.iter().find(|s| s.source.starts_with("msu"))
}

fn coord(stats: &[StatsSnapshot]) -> Option<&StatsSnapshot> {
    stats.iter().find(|s| !s.source.starts_with("msu"))
}

/// The current value of a gauge in the MSU's registry.
pub fn msu_gauge(stats: &[StatsSnapshot], name: &str) -> Option<u64> {
    match msu(stats)?.get(name)? {
        MetricValue::Gauge { value, .. } => Some(*value),
        _ => None,
    }
}

/// `after - before` for a counter or histogram of one component.
fn delta(before: Option<&StatsSnapshot>, after: Option<&StatsSnapshot>, name: &str) -> MetricValue {
    let a = after.and_then(|s| s.get(name));
    let b = before.and_then(|s| s.get(name));
    match (a, b) {
        (Some(MetricValue::Counter(x)), Some(MetricValue::Counter(y))) => {
            MetricValue::Counter(x.saturating_sub(*y))
        }
        (Some(MetricValue::Counter(x)), None) => MetricValue::Counter(*x),
        (
            Some(MetricValue::Histogram {
                buckets,
                count,
                sum,
            }),
            prev,
        ) => {
            let (pb, pc, ps) = match prev {
                Some(MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                }) => (buckets.as_slice(), *count, *sum),
                _ => (&[][..], 0, 0),
            };
            MetricValue::Histogram {
                buckets: buckets
                    .iter()
                    .map(|b| HistBucket {
                        le: b.le,
                        count: b.count
                            - pb.iter()
                                .find(|p| p.le == b.le)
                                .map_or(0, |p| p.count.min(b.count)),
                    })
                    .collect(),
                count: count.saturating_sub(pc),
                sum: sum.saturating_sub(ps),
            }
        }
        _ => MetricValue::Counter(0),
    }
}

fn counter(v: &MetricValue) -> f64 {
    v.as_counter().unwrap_or(0) as f64
}

fn hist_q(v: &MetricValue, q: f64) -> f64 {
    histogram_quantile(v, q).unwrap_or(0.0)
}

fn hist_count(v: &MetricValue) -> u64 {
    match v {
        MetricValue::Histogram { count, .. } => *count,
        _ => 0,
    }
}

/// Self time of each root span (`play`, `record`): its duration minus
/// the part of it its child spans (same trace id) cover.
fn self_times(spans: &[Span], root: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for r in spans.iter().filter(|s| s.name == root) {
        let mut kids: Vec<(Instant, Instant)> = spans
            .iter()
            .filter(|s| s.trace == r.trace && s.name != root && s.trace != 0)
            .map(|s| (s.start.max(r.start), s.end.min(r.end)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut cur: Option<(Instant, Instant)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        out.push((r.end - r.start).saturating_sub(covered).as_secs_f64() * 1e3);
    }
    out
}

impl Report {
    /// Computes every metric of the run.
    pub fn build(i: Inputs<'_>) -> Report {
        let (ws, we) = (i.before.at, i.before.at + i.window);
        let in_win = |t: Instant| t >= ws && t < we;
        let secs = i.window.as_secs_f64();
        let mut info = Vec::new();

        // Packet arrivals.
        let late = sorted(i.rx.win.late.iter().map(|&(_, u)| u as f64 / 1e3).collect());
        let received = late.len() as u64;
        let expected = received + i.rx.win.lost;
        // Tail lateness: the median over the sub-windows of each one's p99.
        let parts = i.cuts.len().saturating_sub(1).max(1);
        let part_ms = i.window.as_millis() as u32 / parts as u32;
        let late_p99_parts: Vec<f64> = (0..parts as u32)
            .map(|k| {
                let part = sorted(
                    i.rx.win
                        .late
                        .iter()
                        .filter(|(at, _)| (at / part_ms.max(1)).min(parts as u32 - 1) == k)
                        .map(|&(_, u)| u as f64 / 1e3)
                        .collect(),
                );
                quantile(&part, 0.99)
            })
            .collect();
        let late_p99 = median(late_p99_parts.clone());
        let ontime_pct = if expected == 0 {
            0.0
        } else {
            i.rx.win.on_time as f64 * 100.0 / expected as f64
        };
        let loss_pct = if expected == 0 {
            0.0
        } else {
            i.rx.win.lost as f64 * 100.0 / expected as f64
        };

        // Startup: plays sent inside the window.
        let startup = sorted(
            i.log
                .startup
                .iter()
                .filter(|(t, _)| in_win(*t))
                .map(|(_, ms)| *ms)
                .collect(),
        );

        // Operations overlapping the window.
        let ops: Vec<_> = i
            .log
            .ops
            .iter()
            .filter(|o| o.start < we && o.end.is_none_or(|e| e >= ws))
            .collect();
        let attempted = ops.len() as u64;
        let failed_ops: Vec<_> = ops.iter().filter(|o| o.failed.is_some()).collect();
        let failed = failed_ops.len() as u64;
        let fail_reasons: Vec<String> = failed_ops
            .iter()
            .take(5)
            .filter_map(|o| o.failed.clone())
            .collect();
        let ops_failed_pct = if attempted == 0 {
            0.0
        } else {
            failed as f64 * 100.0 / attempted as f64
        };

        // Recording commits since the load started; a workload without
        // recorders has only its setup uploads to show.
        let mut commit: Vec<f64> = i
            .log
            .commit
            .iter()
            .filter(|(t, _)| *t >= i.load_start)
            .map(|(_, ms)| *ms)
            .collect();
        let commit_src = if commit.is_empty() {
            commit = i.log.commit.iter().map(|(_, ms)| *ms).collect();
            "setup uploads"
        } else {
            "recorders"
        };
        let commit = sorted(commit);

        // Server process: CPU per stream-second in each sub-window, and
        // the median of those.
        let stream_secs_in = |a: Instant, b: Instant| -> f64 {
            i.log
                .delivering
                .iter()
                .map(|&(s, e)| e.min(b).saturating_duration_since(s.max(a)).as_secs_f64())
                .sum()
        };
        let per_part: Vec<(f64, f64)> = i
            .cuts
            .windows(2)
            .map(|c| {
                let cpu_ms = c[1].1.cpu_us.saturating_sub(c[0].1.cpu_us) as f64 / 1e3;
                (cpu_ms, stream_secs_in(c[0].0, c[1].0))
            })
            .collect();
        let cpu_ms: f64 = per_part.iter().map(|p| p.0).sum();
        let stream_secs: f64 = per_part.iter().map(|p| p.1).sum();
        let cpu_parts: Vec<f64> = per_part
            .iter()
            .filter(|p| p.1 > 0.0)
            .map(|p| p.0 / p.1)
            .collect();
        let cpu_per_stream_s = median(cpu_parts.clone());
        let setup = sorted(i.setup_s.clone());

        let e2e = metrics([
            ("ontime_pct", ontime_pct, "%", format!("{received} packets received, {} lost", i.rx.win.lost)),
            ("late_p50_ms", quantile(&late, 0.50), "ms", format!("{received} samples")),
            (
                "server_cpu_ms_per_stream_s",
                cpu_per_stream_s,
                "ms",
                format!(
                    "median of sub-windows {}; whole window {cpu_ms:.1} ms CPU over {stream_secs:.1} stream-s",
                    brief(&cpu_parts)
                ),
            ),
            ("server_rss_mb", i.rss_kb as f64 / 1024.0, "MB", "VmHWM".into()),
            (
                "setup_s",
                quantile(&setup, 0.5),
                "s",
                format!("median of {} setups: {:?}", setup.len(), i.setup_s),
            ),
        ]);
        let late_p99_note = format!(
            "median of sub-window p99s {}; whole window {:.3}",
            brief(&late_p99_parts),
            quantile(&late, 0.99)
        );
        info.push(format!("late_p99_ms {late_p99} ms ({late_p99_note})"));
        let startup_p50 = quantile(&startup, 0.50);
        let startup_p95 = quantile(&startup, 0.95);
        info.push(format!(
            "startup_p50_ms {startup_p50} ms, startup_p95_ms {startup_p95} ms ({} plays)",
            startup.len()
        ));
        info.push(format!(
            "loss_pct {loss_pct} % ({} of {expected})",
            i.rx.win.lost
        ));
        info.push(format!(
            "ops_failed_pct {ops_failed_pct} % ({failed} of {attempted})"
        ));
        info.push(format!(
            "record_commit_p50_ms {} ms, record_commit_p95_ms {} ms ({} samples, {commit_src})",
            quantile(&commit, 0.5),
            quantile(&commit, 0.95),
            commit.len()
        ));

        // Generator validity.
        let gen_cpu_pct =
            i.after.gen.cpu_us.saturating_sub(i.before.gen.cpu_us) as f64 / 1e4 / secs;
        let lag = sorted(
            i.log
                .lag
                .iter()
                .filter(|(t, _)| in_win(*t))
                .map(|(_, l)| *l)
                .collect(),
        );
        let lag_p99 = quantile(&lag, 0.99);
        let rcvbuf = i.after.rcvbuf_errors.saturating_sub(i.before.rcvbuf_errors);
        let valid = rcvbuf == 0 && lag_p99 <= MAX_GEN_LAG_P99_MS;
        info.push(format!(
            "run_valid {valid} (kernel.udp_rcvbuf_errors {rcvbuf}, gen.lag_ms.p99 {lag_p99:.3}, gen.cpu_pct {gen_cpu_pct:.1}, {} in flight at the end)",
            i.active
        ));
        info.push(format!(
            "generator: {} threads, 1 connection opened (the Coordinator session); host available_parallelism {}",
            i.gen_threads,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ));

        // Registry deltas.
        let (cb, ca) = (coord(&i.before.stats), coord(&i.after.stats));
        let (mb, ma) = (msu(&i.before.stats), msu(&i.after.stats));
        let m = |name: &str| delta(mb, ma, name);
        let queue_wait = delta(cb, ca, "admission.queue_wait_us");
        let rejected = delta(cb, ca, "admission.rejected");
        let read_us = m("disk.read_service_us");
        let write_us = m("disk.write_service_us");
        let overrun = m("disk.cycle_overrun_us");
        let batch = m("disk.batch_pages");
        let send_late = m("net.send_lateness_us");
        let sent = counter(&m("net.packets_sent"));
        let misses = counter(&m("net.deadline_misses"));
        let ctx = i
            .after
            .server
            .ctx_switches
            .saturating_sub(i.before.server.ctx_switches) as f64;
        let per_k = |x: f64| if sent > 0.0 { x * 1e3 / sent } else { 0.0 };

        // Spans: those in the window, or the whole run's when the
        // window has none of a kind (uploads happen only at setup).
        let span_ms = |name: &str| -> (Vec<f64>, &'static str) {
            let pick = |all: bool| {
                sorted(
                    i.log
                        .spans
                        .iter()
                        .filter(|s| s.name == name && (all || in_win(s.start)))
                        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
                        .collect(),
                )
            };
            let v = pick(false);
            if v.is_empty() {
                (pick(true), "whole run")
            } else {
                (v, "window")
            }
        };
        let mut layer: Vec<Metric> = metrics([
            ("late_p99_ms", late_p99, "ms", late_p99_note),
            (
                "startup_p50_ms",
                startup_p50,
                "ms",
                format!("{} plays", startup.len()),
            ),
            (
                "startup_p95_ms",
                startup_p95,
                "ms",
                format!("{} plays", startup.len()),
            ),
        ]);
        for (span, base) in [
            ("coord.play", "coord.play_rpc_ms"),
            ("coord.record", "coord.record_rpc_ms"),
            ("coord.delete", "coord.delete_rpc_ms"),
            ("msu.ready", "msu.ready_ms"),
            ("msu.first_packet", "msu.first_packet_ms"),
            ("msu.teardown", "msu.teardown_ms"),
        ] {
            let (v, src) = span_ms(span);
            let note = format!("{} spans, {src}", v.len());
            layer.push((format!("{base}.p50"), quantile(&v, 0.5), "ms", note.clone()));
            layer.push((format!("{base}.p95"), quantile(&v, 0.95), "ms", note));
        }
        let play_self = sorted(self_times(&i.log.spans, "play"));
        let n = |v: &MetricValue| format!("{} samples", hist_count(v));
        layer.extend(metrics([
            (
                "admission.queue_wait_us.p95",
                hist_q(&queue_wait, 0.95),
                "us",
                n(&queue_wait),
            ),
            (
                "admission.rejected",
                counter(&rejected),
                "count",
                String::new(),
            ),
            (
                "server.threads",
                i.threads_peak as f64,
                "count",
                "peak, sampled".into(),
            ),
            (
                "server.ctx_switches_per_kpkt",
                per_k(ctx),
                "count",
                format!("{ctx} switches"),
            ),
            (
                "disk.read_service_us.p50",
                hist_q(&read_us, 0.5),
                "us",
                n(&read_us),
            ),
            (
                "disk.read_service_us.p99",
                hist_q(&read_us, 0.99),
                "us",
                n(&read_us),
            ),
            (
                "disk.batch_pages.mean",
                batch.mean().unwrap_or(0.0),
                "pages",
                n(&batch),
            ),
            (
                "disk.coalesced_runs",
                counter(&m("disk.coalesced_runs")),
                "count",
                String::new(),
            ),
            (
                "disk.seek_saved_blocks",
                counter(&m("disk.seek_saved_blocks")),
                "count",
                String::new(),
            ),
            (
                "disk.cycle_overrun_us.p99",
                hist_q(&overrun, 0.99),
                "us",
                n(&overrun),
            ),
            (
                "disk.write_service_us.p50",
                hist_q(&write_us, 0.5),
                "us",
                n(&write_us),
            ),
            (
                "disk.write_service_us.p99",
                hist_q(&write_us, 0.99),
                "us",
                n(&write_us),
            ),
            (
                "disk.pool_exhausted",
                counter(&m("disk.pool_exhausted")),
                "count",
                String::new(),
            ),
            (
                "msu.io_errors",
                counter(&m("msu.io_errors")),
                "count",
                String::new(),
            ),
            (
                "spsc.play_ring_depth.min",
                i.ring_min.unwrap_or(0) as f64,
                "count",
                "sampled every 500 ms".into(),
            ),
            (
                "net.send_lateness_us.p50",
                hist_q(&send_late, 0.5),
                "us",
                n(&send_late),
            ),
            (
                "net.send_lateness_us.p99",
                hist_q(&send_late, 0.99),
                "us",
                n(&send_late),
            ),
            (
                "net.deadline_misses_per_kpkt",
                per_k(misses),
                "count",
                format!("{misses} misses"),
            ),
            ("net.packets_sent", sent, "count", String::new()),
            (
                "gen.packets_received",
                received as f64,
                "count",
                String::new(),
            ),
        ]));
        for (name, v, unit) in &i.replays {
            layer.push((name.to_string(), *v, unit, "no-I/O replay".into()));
        }
        layer.extend(metrics([
            (
                "record_commit_p50_ms",
                quantile(&commit, 0.5),
                "ms",
                format!("{} samples, {commit_src}", commit.len()),
            ),
            (
                "record_commit_p95_ms",
                quantile(&commit, 0.95),
                "ms",
                format!("{} samples, {commit_src}", commit.len()),
            ),
            ("loss_pct", loss_pct, "%", String::new()),
            (
                "ops_failed_pct",
                ops_failed_pct,
                "%",
                format!("{failed} of {attempted}"),
            ),
            (
                "kernel.udp_rcvbuf_errors",
                rcvbuf as f64,
                "count",
                "delta of /proc/net/snmp".into(),
            ),
            ("gen.cpu_pct", gen_cpu_pct, "%", "of one core".into()),
            (
                "gen.lag_ms.p99",
                lag_p99,
                "ms",
                format!("{} timed actions", lag.len()),
            ),
            (
                "gen.valid",
                if valid { 1.0 } else { 0.0 },
                "count",
                String::new(),
            ),
            (
                "play.self_ms.p50",
                quantile(&play_self, 0.5),
                "ms",
                format!("{} plays", play_self.len()),
            ),
            (
                "trace.overhead_pct",
                i.log.span_cost.as_secs_f64() * 100.0 / secs.max(1e-9),
                "%",
                "span bookkeeping time over the window".into(),
            ),
            (
                "trace.spans",
                i.log.spans.len() as f64,
                "count",
                String::new(),
            ),
        ]));

        Report {
            correct: i.log.mismatches == 0,
            attempted,
            failed,
            e2e,
            layer,
            info,
            fail_reasons,
        }
    }

    /// Prints the human-readable lines, then the JSON result line.
    pub fn print(&self, trace: bool) {
        let mut out = std::io::stdout().lock();
        for (name, v, unit, note) in &self.e2e {
            let _ = writeln!(out, "{name} {v} {unit} ({note})");
        }
        for line in &self.info {
            let _ = writeln!(out, "{line}");
        }
        if trace {
            for (name, v, unit, note) in &self.layer {
                let _ = writeln!(out, "{name} {v} {unit} {note}");
            }
        }
        for r in &self.fail_reasons {
            let _ = writeln!(out, "failed op: {r}");
        }
        let metrics = if trace { &self.layer } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit, _)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        let _ = out.flush();
    }
}

/// Writes spans as JSON lines, times in µs since the load started.
pub fn write_spans(path: &Path, spans: &[Span], t0: Instant) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |t: Instant| {
        if t >= t0 {
            (t - t0).as_micros() as i128
        } else {
            -((t0 - t).as_micros() as i128)
        }
    };
    for s in spans {
        writeln!(
            f,
            "{{\"name\": \"{}\", \"trace\": {}, \"start_us\": {}, \"end_us\": {}}}",
            s.name,
            s.trace,
            us(s.start),
            us(s.end)
        )?;
    }
    f.flush()
}
