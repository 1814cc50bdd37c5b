//! The few operating-system facts the benchmark needs that std does not
//! expose: a larger UDP receive buffer, process resource usage, and the
//! `/proc` counters for the server process and the kernel's UDP drops.
//!
//! std links libc on Linux, so each missing call is a one-function
//! `extern "C"` binding, the way `calliope_obs::signal` binds
//! `signal(2)`.

use std::ffi::c_int;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const RUSAGE_SELF: c_int = 0;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_int, len: u32) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Asks for a `bytes`-sized receive buffer (the kernel caps it at
/// `net.core.rmem_max` and doubles it for bookkeeping).
pub fn set_rcvbuf(socket: &UdpSocket, bytes: c_int) -> std::io::Result<()> {
    // SAFETY: the fd is a live socket owned by `socket`; the option
    // value points at a c_int that outlives the call, and its size is
    // passed alongside.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Whole-process CPU and context switches, dead threads included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU, microseconds.
    pub cpu_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// `getrusage(RUSAGE_SELF)` for the calling process.
pub fn self_usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a correctly laid out, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu_us: us(&ru.utime) + us(&ru.stime),
        // ru_nvcsw and ru_nivcsw are the last two longs.
        ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
    }
}

/// One `key: value` field of `/proc/<pid>/status`, value's first word.
fn status_field(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of `pid`, in kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    status_field(pid, "VmHWM")
}

/// Live thread count of `pid`.
pub fn threads(pid: u32) -> Option<u64> {
    status_field(pid, "Threads")
}

/// The kernel's `Udp: RcvbufErrors` counter from `/proc/net/snmp`:
/// datagrams dropped because a socket's receive buffer was full.
pub fn udp_rcvbuf_errors() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut udp = text.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(names), Some(values)) = (udp.next(), udp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "RcvbufErrors")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}
