//! Model-checking suites for the MSU's concurrent kernels: the SPSC
//! ring, its doorbell, and the page pool. Compiled only under
//! `RUSTFLAGS="--cfg calliope_check"`, where the `calliope_check` shim
//! types route every atomic/cell operation through a deterministic
//! scheduler that explores thread interleavings and weak-memory
//! outcomes exhaustively (up to a preemption bound).
//!
//! Run with: `RUSTFLAGS="--cfg calliope_check" cargo test -p calliope-msu --test model`
#![cfg(calliope_check)]

use calliope_check::sync::atomic::AtomicUsize as ModelUsize;
use calliope_check::sync::Arc as ModelArc;
use calliope_check::{model, thread};
use calliope_msu::pool::PagePool;
use calliope_msu::spsc::{ring, ring_with_bells, Bells, Consumer, Doorbell, PopError, PushError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc as StdArc;

/// A payload that counts its drops on a real (unshimmed) counter, so a
/// leak or double-drop in any explored schedule shows up as a count
/// mismatch at the end of that execution.
struct Tok {
    v: u32,
    drops: StdArc<AtomicUsize>,
}

impl Tok {
    fn new(v: u32, drops: &StdArc<AtomicUsize>) -> Tok {
        Tok {
            v,
            drops: StdArc::clone(drops),
        }
    }
}

impl Drop for Tok {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Cross-thread transfer: every popped value arrives in push order with
/// its payload intact, nothing is duplicated, and every pushed value is
/// dropped exactly once whether it was popped or stranded in the ring.
#[test]
fn ring_transfer_no_dup_no_loss() {
    let report = model(|| {
        let drops = StdArc::new(AtomicUsize::new(0));
        let (mut p, mut c) = ring::<Tok>(2);
        let d2 = StdArc::clone(&drops);
        let producer = thread::spawn(move || {
            let mut sent = 0u32;
            for v in 0..3u32 {
                let mut tok = Tok::new(v, &d2);
                // Bounded retries: an unbounded spin never terminates
                // under exhaustive scheduling.
                let mut pushed = false;
                for _ in 0..4 {
                    match p.push(tok) {
                        Ok(()) => {
                            pushed = true;
                            sent += 1;
                            break;
                        }
                        Err(PushError::Full(back)) => {
                            tok = back;
                            thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => return sent,
                    }
                }
                if !pushed {
                    return sent; // gave up; tok drops here
                }
            }
            sent
        });
        let mut got: Vec<u32> = Vec::new();
        for _ in 0..8 {
            match c.pop() {
                Ok(tok) => got.push(tok.v),
                Err(PopError::Empty) => thread::yield_now(),
                Err(PopError::Closed) => break,
            }
        }
        let sent = producer.join().unwrap();
        // FIFO, no duplicates, no reordering: what arrived is exactly
        // the first `got.len()` pushed values in order.
        let expect: Vec<u32> = (0..got.len() as u32).collect();
        assert_eq!(got, expect, "ring reordered, duplicated, or lost a value");
        assert!(
            got.len() <= sent as usize,
            "popped more values than were pushed"
        );
        drop(c);
        // Both endpoints are gone: everything ever created must have
        // dropped exactly once (popped, drained, or reclaimed by the
        // ring's own drop).
        let created = 3; // every Tok::new counts, pushed or not
        assert_eq!(
            drops.load(Ordering::SeqCst),
            created,
            "leak or double-drop across the ring"
        );
    });
    assert!(report.schedules > 1, "must explore multiple interleavings");
}

/// The close/drop race: the consumer walks away mid-stream while the
/// producer is still pushing. A push that lands after the consumer's
/// closing drain strands its value in the ring; the ring itself must
/// drop it exactly once when the last endpoint goes.
#[test]
fn ring_close_race_drops_stranded_values_once() {
    let report = model(|| {
        let drops = StdArc::new(AtomicUsize::new(0));
        let (mut p, mut c) = ring::<Tok>(2);
        let consumer = thread::spawn(move || {
            // Pop at most once, then leave; the drop drains what it can
            // and closes the ring under the producer's feet.
            let _ = c.pop();
        });
        let mut created = 0usize;
        for v in 0..2u32 {
            created += 1;
            match p.push(Tok::new(v, &drops)) {
                Ok(()) | Err(PushError::Closed(_)) => {}
                Err(PushError::Full(_)) => break,
            }
        }
        consumer.join().unwrap();
        drop(p);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            created,
            "a value stranded by the close race leaked or double-dropped"
        );
    });
    assert!(report.schedules > 1);
}

/// Regression test for the watermark ordering bug: the high-water mark
/// is raised *before* the `head` release-store, so any queue depth the
/// consumer can observe is already reflected in the mark. With the old
/// order (mark raised after publishing `head`) this test fails: the
/// consumer sees `len() == 2` while `high_water()` still reads 1.
#[test]
fn ring_watermark_is_at_least_any_observed_depth() {
    let report = model(|| {
        let (mut p, c) = ring::<u32>(4);
        let watcher = thread::spawn(move || {
            let depth = c.len();
            let mark = c.high_water();
            assert!(
                mark >= depth,
                "consumer observed depth {depth} but high_water {mark}"
            );
            c
        });
        let _ = p.push(1);
        let _ = p.push(2);
        let _c = watcher.join().unwrap();
    });
    assert!(report.schedules > 1);
}

/// Page-pool refcount safety: while any clone of a frozen page is
/// alive, its buffer must not be recycled — a re-checkout from the pool
/// must get different memory. A broken refcount recycles early and the
/// overwrite becomes visible through the live clone.
#[test]
fn pool_never_recycles_while_a_clone_is_live() {
    let report = model(|| {
        let pool = PagePool::with_capacity(8, 1);
        let mut buf = pool.get();
        buf.as_mut_slice()[0] = 0xAB;
        let page = buf.freeze();
        let clone = page.clone();
        let pool2 = pool.clone();
        let t = thread::spawn(move || {
            // Races the main thread's drop of `page`.
            let v = clone[0];
            assert_eq!(v, 0xAB, "live clone observed recycled memory");
            drop(clone);
        });
        drop(page);
        // If the refcount ever hit zero early, this checkout reuses the
        // clone's buffer and the write below is visible through it.
        let mut again = pool2.get();
        again.as_mut_slice()[0] = 0x11;
        drop(again);
        t.join().unwrap();
    });
    assert!(report.schedules > 1);
}

/// Pool accounting stays conserved across a concurrent checkout/freeze/
/// drop cycle: every buffer is either free or outstanding, and teardown
/// returns them all.
#[test]
fn pool_accounting_is_conserved_across_threads() {
    let report = model(|| {
        let pool = PagePool::with_capacity(8, 2);
        let p2 = pool.clone();
        let t = thread::spawn(move || {
            let b = p2.get();
            drop(b.freeze());
        });
        let b = pool.get();
        drop(b); // unfrozen return path
        t.join().unwrap();
        let s = pool.stats();
        assert_eq!(s.outstanding, 0, "a checkout was never returned");
        assert_eq!(s.free, s.capacity, "free list lost a buffer");
        assert_eq!(s.capacity, 2, "no heap fallback should be needed");
    });
    assert!(report.schedules > 1);
}

/// A doorbell whose kick lands in a modeled inbox: the waiter's command
/// channel reduced to the number of kicks queued in it.
fn inbox_bell() -> (ModelArc<ModelUsize>, StdArc<Doorbell>) {
    let inbox = ModelArc::new(ModelUsize::new(0));
    let sink = ModelArc::clone(&inbox);
    let bell = Doorbell::new(move || {
        sink.fetch_add(1, Ordering::SeqCst);
    });
    (inbox, bell)
}

/// Puts the waiter mid-wakeup: a kick was sent and has just been taken
/// off the channel, so the bell is still pending until the waiter
/// clears it.
fn take_pending_kick(inbox: &ModelUsize, bell: &Doorbell) {
    bell.ring();
    assert_eq!(inbox.fetch_sub(1, Ordering::SeqCst), 1);
}

/// Doorbell (a), slack side: the network thread pops a page and rings
/// while the disk thread clears its bell and re-checks the ring. If the
/// disk sees no slack it goes to sleep, so a kick must be queued to wake
/// it: the pop's ring either reads the clear (and kicks) or the clear
/// reads the ring (and acquires the pop).
#[test]
fn doorbell_pop_then_ring_never_strands_the_disk() {
    let report = model(|| {
        let (inbox, bell) = inbox_bell();
        let bells = Bells {
            slack: Some(StdArc::clone(&bell)),
            data: None,
        };
        let (mut p, mut c) = ring_with_bells::<u32>(1, bells);
        p.push(7).unwrap();
        take_pending_kick(&inbox, &bell);
        let net = thread::spawn(move || {
            assert_eq!(c.pop(), Ok(7));
            c
        });
        bell.clear();
        let saw_slack = p.slack() > 0;
        let _c = net.join().unwrap();
        assert!(
            saw_slack || inbox.load(Ordering::SeqCst) == 1,
            "disk slept with slack in its ring and no kick queued"
        );
    });
    assert!(report.schedules > 1);
}

/// Doorbell (a), data side: the disk thread pushes a page while the
/// network thread clears the stream's bell and re-checks the ring.
#[test]
fn doorbell_push_then_ring_never_strands_the_pacer() {
    let report = model(|| {
        let (inbox, bell) = inbox_bell();
        let bells = Bells {
            data: Some((StdArc::clone(&bell), 1)),
            slack: None,
        };
        let (mut p, mut c) = ring_with_bells::<u32>(2, bells);
        take_pending_kick(&inbox, &bell);
        let disk = thread::spawn(move || {
            p.push(7).unwrap();
            p
        });
        bell.clear();
        let saw_data = c.pop().is_ok();
        let _p = disk.join().unwrap();
        assert!(
            saw_data || inbox.load(Ordering::SeqCst) == 1,
            "pacer slept with a page in its ring and no kick queued"
        );
    });
    assert!(report.schedules > 1);
}

/// Doorbell (b): a burst of rings from two threads, racing a waiter
/// that takes a queued kick and clears the bell, never leaves more than
/// one kick in the channel.
#[test]
fn doorbell_burst_leaves_at_most_one_kick_in_flight() {
    let report = model(|| {
        let inbox = ModelArc::new(ModelUsize::new(0));
        let sink = ModelArc::clone(&inbox);
        let bell = Doorbell::new(move || {
            let queued = sink.fetch_add(1, Ordering::SeqCst);
            assert_eq!(queued, 0, "a second kick was sent while one was queued");
        });
        let b2 = StdArc::clone(&bell);
        let ringer = thread::spawn(move || {
            b2.ring();
            b2.ring();
        });
        bell.ring();
        // The waiter: take the queued kick, if any, then clear.
        if inbox.load(Ordering::SeqCst) == 1 {
            inbox.fetch_sub(1, Ordering::SeqCst);
            bell.clear();
        }
        bell.ring();
        ringer.join().unwrap();
        assert!(inbox.load(Ordering::SeqCst) <= 1);
    });
    assert!(report.schedules > 1);
}

/// Doorbell (c): the record receiver pushes less than a batch and
/// closes the ring. Whatever the interleaving with the disk thread's
/// clear-and-drain pass, either that pass saw the close or a kick is
/// queued whose pass will, so the recording is always finalized.
#[test]
fn doorbell_close_always_wakes_the_disk_to_finalize() {
    fn drain(c: &mut Consumer<u32>) -> bool {
        loop {
            match c.pop() {
                Ok(_) => continue,
                Err(PopError::Empty) => return false,
                Err(PopError::Closed) => return true,
            }
        }
    }
    let report = model(|| {
        let (inbox, bell) = inbox_bell();
        // A batch far above what arrives: only the close can ring.
        let bells = Bells {
            data: Some((StdArc::clone(&bell), 64)),
            slack: None,
        };
        let (mut p, mut c) = ring_with_bells::<u32>(4, bells);
        take_pending_kick(&inbox, &bell);
        let receiver = thread::spawn(move || {
            p.push(1).unwrap();
            drop(p);
        });
        bell.clear();
        let finalized = drain(&mut c);
        receiver.join().unwrap();
        if !finalized {
            assert_eq!(
                inbox.load(Ordering::SeqCst),
                1,
                "closed ring left the disk asleep"
            );
            bell.clear();
            assert!(drain(&mut c), "the kick's pass must see the close");
        }
    });
    assert!(report.schedules > 1);
}
