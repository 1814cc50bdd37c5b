//! Live-cluster benchmark for the Calliope reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph1_mpeg22 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run starts a real Coordinator and one MSU in a child process,
//! drives them over loopback from a single-process load generator,
//! checks every delivered byte, and prints its figures, ending with one
//! JSON line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same load with spans, registry deltas and layer replays and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod gen;
mod replay;
mod report;
mod rx;
mod server;
mod sys;
mod workload;

use gen::Gen;
use report::{Mark, Report};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{Title, Workload};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Uploads in flight at once during setup.
const PARALLEL_UPLOADS: usize = 8;
/// Requested receive buffer of the generator's data socket.
const RCVBUF_BYTES: i32 = 4 << 20;
/// Where runs keep scratch state, relative to the working directory.
const RUN_DIR: &str = ".perfbench_run";
/// The window is cut into this many equal parts; the tail and CPU
/// figures are medians over the parts, so one host hiccup moves one
/// part, not the result.
const SUBWINDOWS: u32 = 5;
/// How often the traced run samples the MSU's ring depth.
const SAMPLE_EVERY: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        serve: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--serve" => a.serve = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// The server child process.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    dir: PathBuf,
}

impl Server {
    fn start(w: &Workload, dir: PathBuf) -> Result<(Server, SocketAddr), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--workload", w.name, "--serve"])
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut s = Server {
            child,
            stdin,
            stdout,
            dir,
        };
        let line = s.line("ready ")?;
        let addr = line
            .parse()
            .map_err(|e| format!("server address {line:?}: {e}"))?;
        Ok((s, addr))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads lines until one starts with `prefix`; returns the rest.
    fn line(&mut self, prefix: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("server exited".into());
            }
            if let Some(rest) = line.trim().strip_prefix(prefix) {
                return Ok(rest.to_owned());
            }
        }
    }

    fn usage(&mut self) -> Result<sys::Usage, String> {
        writeln!(self.stdin, "usage").map_err(|e| e.to_string())?;
        let line = self.line("usage ")?;
        let mut f = line
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        Ok(sys::Usage {
            cpu_us: f.next().unwrap_or(0),
            ctx_switches: f.next().unwrap_or(0),
        })
    }

    /// Orderly shutdown; waits for the process to end.
    fn quit(mut self) {
        let _ = writeln!(self.stdin, "quit");
        self.reap();
    }

    fn reap(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn mark(g: &mut Gen, server: &mut Server) -> Result<Mark, String> {
    let stats = g.session().stats()?;
    Ok(Mark {
        server: server.usage()?,
        gen: sys::self_usage(),
        rcvbuf_errors: sys::udp_rcvbuf_errors(),
        stats,
        at: Instant::now(),
    })
}

fn run(args: Args) -> Result<(), String> {
    let w = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if let Some(dir) = args.serve {
        return server::serve(&w, dir);
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let run_dir = Path::new(RUN_DIR);
    std::fs::create_dir_all(run_dir).map_err(|e| format!("{RUN_DIR}: {e}"))?;

    // Inputs, all from the seed.
    let titles: Vec<Arc<Title>> = (0..w.titles)
        .map(|i| {
            Title::generate(
                w.media,
                w.title_secs,
                workload::Rng::new(args.seed, i as u64).next_u64(),
            )
        })
        .collect();
    let clips: Vec<Arc<Title>> = (0..w.recorders * 2)
        .map(|i| {
            let seed = workload::Rng::new(args.seed, 500 + i as u64).next_u64();
            Title::generate(workload::Media::Mpeg, w.clip_secs, seed)
        })
        .collect();

    // Simulator reference row: deterministic, once per invocation.
    let sim = calliope_sim::msu_model::run(&calliope_sim::msu_model::MsuWorkload::cbr(
        22, 60, args.seed,
    ));
    println!(
        "sim_reference graph1_cbr22: within_50ms_pct={:.3} max_late_ms={:.3} (calliope_sim::msu_model, 60 s simulated)",
        sim.cdf.pct_within_ms(50),
        sim.cdf.max_ms()
    );

    // The generator's shared sockets and receiver thread.
    let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    sys::set_rcvbuf(&udp, RCVBUF_BYTES).map_err(|e| format!("SO_RCVBUF: {e}"))?;
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    let rx_state = Arc::new(Mutex::new(rx::RxShared::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let rx_thread = rx::spawn(
        udp.try_clone().map_err(|e| e.to_string())?,
        Arc::clone(&rx_state),
        Arc::clone(&stop),
    )
    .map_err(|e| e.to_string())?;
    let mut g = Gen::new(
        udp,
        listener,
        Arc::clone(&rx_state),
        titles,
        clips,
        args.trace,
    )?;

    let result = measure(&w, &args, &mut g, run_dir);
    stop.store(true, Ordering::Release);
    let joined = rx_thread.join();
    let report = result?;
    joined.map_err(|_| "the receiver thread panicked".to_owned())?;
    report.print(args.trace);
    Ok(())
}

fn measure(w: &Workload, args: &Args, g: &mut Gen, run_dir: &Path) -> Result<Report, String> {
    // Set up several times; the last server is the one measured.
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        if let Some(s) = server.take() {
            Server::quit(s);
        }
        let t = Instant::now();
        let dir = run_dir.join(format!("cluster-{}-{k}", std::process::id()));
        let (mut s, addr) = Server::start(w, dir)?;
        let r = g.setup(addr, w, args.seed, PARALLEL_UPLOADS);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = r {
            s.reap();
            return Err(e);
        }
        server = Some(s);
    }
    let mut server = server.expect("at least one setup");
    let pid = server.pid();

    let t0 = Instant::now();
    g.start_load(w, t0);
    g.run_until(t0 + w.warmup())?;
    let before = mark(g, &mut server)?;
    let window = Duration::from_secs(args.seconds);
    let end = before.at + window;
    g.set_window(before.at, end);
    let mut cuts = vec![(before.at, before.server)];
    let mut threads_peak = sys::threads(pid).unwrap_or(0);
    let mut ring_min: Option<u64> = None;
    let mut next_sample = before.at;
    for k in 1..=SUBWINDOWS {
        let cut = before.at + window * k / SUBWINDOWS;
        while Instant::now() < cut {
            g.step()?;
            let now = Instant::now();
            if now >= next_sample {
                next_sample = now + SAMPLE_EVERY;
                threads_peak = threads_peak.max(sys::threads(pid).unwrap_or(0));
                if args.trace {
                    let msu = g.session().stats()?;
                    if let Some(v) = report::msu_gauge(&msu, "spsc.play_ring_depth") {
                        ring_min = Some(ring_min.map_or(v, |m: u64| m.min(v)));
                    }
                }
            }
        }
        if k < SUBWINDOWS {
            cuts.push((Instant::now(), server.usage()?));
        }
    }
    let after = mark(g, &mut server)?;
    cuts.push((after.at, after.server));
    g.stop(end);
    let rss_kb = sys::peak_rss_kb(pid).unwrap_or(0);
    let gen_threads = sys::threads(std::process::id()).unwrap_or(0);
    let active = g.active();
    server.quit();

    let replays = if args.trace {
        replay::run(w, args.seed)
    } else {
        Vec::new()
    };
    let report = Report::build(report::Inputs {
        window,
        load_start: t0,
        setup_s,
        before,
        after,
        rss_kb,
        threads_peak,
        ring_min,
        gen_threads,
        cuts,
        active,
        rx: &g.rx(),
        log: &g.log,
        replays,
    });
    if args.trace {
        report::write_spans(
            &run_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed)),
            &g.log.spans,
            t0,
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    if !g.errors.is_empty() {
        return Err(format!("run failed: {}", g.errors.join("; ")));
    }
    Ok(report)
}
