//! The lock-free single-producer/single-consumer ring.
//!
//! "Instead of using expensive semaphore operations, the MSU processes
//! communicate using a shared memory queue structure that relies on the
//! atomicity of memory read and write instructions to produce atomic
//! enqueue and dequeue operations." (paper §2.3)
//!
//! The classic construction: a fixed-capacity ring indexed by a
//! producer-owned `head` and a consumer-owned `tail`, each written by
//! exactly one side and read by the other. On modern hardware "the
//! atomicity of memory read and write" means release/acquire atomics;
//! the structure is otherwise the paper's.
//!
//! One ring per stream gives the MSU its double buffering for free: a
//! play stream's ring has capacity 2, so the disk process fills one
//! 256 KB page while the network process drains the other (§2.2.1).
//!
//! Neither side polls the ring. A ring may be built with a
//! [`Doorbell`] for either side ([`Bells`]): the consumer's pops ring
//! the producer's bell (slack appeared), and the producer's pushes ring
//! the consumer's bell once a batch is buffered, on a push that finds
//! the ring full, and on close.

use calliope_check::cell::UnsafeCell;
use calliope_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use calliope_check::sync::Arc;
use std::mem::MaybeUninit;
// Bells are shared through a plain `Arc`: only their flag takes part
// in the ring protocol, so only the flag is model-checked.
use std::sync::Arc as BellArc;

/// Wakes a thread that blocks on its command channel.
///
/// The bell is a "kick pending" flag plus a `kick` action that sends
/// one wakeup message into the waiter's channel. [`ring`](Self::ring)
/// kicks only on the flag's false→true edge, so a burst of events
/// costs one message. The waiter calls [`clear`](Self::clear) when the
/// kick arrives, *before* it re-checks its rings.
///
/// Both are read-modify-writes of the one flag, so they are totally
/// ordered: either the ringer's swap comes after the clear and sends a
/// fresh kick, or the clear reads the ringer's `true` and acquires
/// everything the ringer published before ringing. A wakeup cannot be
/// lost. This protocol is model-checked in tests/model.rs.
pub struct Doorbell {
    pending: AtomicBool,
    kick: Box<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("pending", &self.pending.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl Doorbell {
    /// A bell whose kick runs `kick` (typically a channel send).
    pub fn new(kick: impl Fn() + Send + Sync + 'static) -> BellArc<Doorbell> {
        BellArc::new(Doorbell {
            pending: AtomicBool::new(false),
            kick: Box::new(kick),
        })
    }

    /// Signals the waiter; sends a kick unless one is already pending.
    pub fn ring(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            (self.kick)();
        }
    }

    /// Re-arms the bell. The waiter calls this on receiving a kick and
    /// then re-checks every ring the bell serves.
    pub fn clear(&self) {
        self.pending.swap(false, Ordering::AcqRel);
    }
}

/// The doorbells a ring is built with. A waiter that learns of a ring
/// after its bell may already have rung must clear the bell and then
/// check the ring, exactly as on a kick.
#[derive(Debug, Default)]
pub struct Bells {
    /// The consumer's bell and its batch: rung by a push that leaves at
    /// least `batch` items buffered, by a push into a full ring, and on
    /// producer close.
    pub data: Option<(BellArc<Doorbell>, usize)>,
    /// The producer's bell: rung by every pop and on consumer close.
    pub slack: Option<BellArc<Doorbell>>,
}

struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the producer will write (monotonically increasing; the
    /// slot index is `head % capacity`).
    head: AtomicUsize,
    /// Next slot the consumer will read.
    tail: AtomicUsize,
    /// Deepest occupancy ever observed (queue-depth high-water mark,
    /// maintained by the producer on every push).
    watermark: AtomicUsize,
    /// Set when either side is dropped.
    closed: AtomicBool,
    bells: Bells,
}

impl<T> Ring<T> {
    fn ring_data(&self) {
        if let Some((bell, _)) = &self.bells.data {
            bell.ring();
        }
    }

    fn ring_slack(&self) {
        if let Some(bell) = &self.bells.slack {
            bell.ring();
        }
    }
}

// SAFETY: the ring hands each slot to exactly one thread at a time: the
// producer writes slot `head` only while `head - tail < capacity` (the
// consumer has finished with it), and the consumer reads slot `tail`
// only while `tail < head` (the producer has published it). `head` and
// `tail` are published with Release and observed with Acquire, so slot
// contents are visible before the index that hands them over. This
// protocol is model-checked in tests/model.rs.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: see above — shared access is mediated entirely through the
// atomic indices.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // When the model checker aborts an execution mid-schedule, a
        // thread may have been stopped between moving a value out of a
        // slot and retiring the slot (the `tail` store), so the indices
        // no longer describe slot ownership. Running destructors from
        // them would double-drop; leaking the aborted execution's
        // values is harmless.
        if cfg!(calliope_check) && std::thread::panicking() {
            return;
        }
        // Both endpoints are gone (the Arc count hit zero), so whatever
        // sits in [tail, head) was pushed but never popped — e.g. the
        // producer raced a push past the consumer's closing drain. Each
        // such slot holds an initialized value that must be dropped
        // here, exactly once, or it leaks.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let cap = self.slots.len();
        for i in tail..head {
            self.slots[i % cap].with_mut(|p|
                // SAFETY: `tail <= i < head` means the producer
                // initialized this slot and the consumer never read it;
                // `&mut self` proves no endpoint can touch it again.
                unsafe { (*p).assume_init_drop() });
        }
    }
}

/// Creates a ring of the given capacity, returning the two endpoints.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with_bells(capacity, Bells::default())
}

/// Creates a ring that rings `bells` (see [`Bells`]).
///
/// # Panics
///
/// Panics if `capacity` or the data bell's batch is zero.
pub fn ring_with_bells<T: Send>(capacity: usize, bells: Bells) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    if let Some((_, batch)) = &bells.data {
        assert!(*batch > 0, "doorbell batch must be positive");
    }
    let ring = Arc::new(Ring {
        slots: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        watermark: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        bells,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// Why a `push` did not take the value.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value is returned.
    Full(T),
    /// The consumer is gone; the value is returned.
    Closed(T),
}

/// Why a `pop` returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum PopError {
    /// Nothing buffered right now.
    Empty,
    /// Nothing buffered and the producer is gone — no more will come.
    Closed,
}

/// The writing endpoint.
pub struct Producer<T: Send> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue; non-blocking.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        if self.ring.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(value));
        }
        // relaxed: `head` is producer-owned; only this thread writes it.
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head - tail >= self.ring.slots.len() {
            self.ring.ring_data();
            return Err(PushError::Full(value));
        }
        let slot = &self.ring.slots[head % self.ring.slots.len()];
        slot.with_mut(|p|
            // SAFETY: `head - tail < capacity`, so the consumer has
            // finished with this slot (it only reads slots below
            // `head`), and only this producer writes slots. The Release
            // store below publishes the write.
            unsafe { (*p).write(value) });
        // The watermark must be raised *before* the head store
        // publishes the new depth: the consumer's Acquire load of
        // `head` is the only synchronizing edge, so a mark written
        // after it could lag a depth the consumer already observed
        // (`len() == 2` but `high_water() == 1`). Caught by the
        // watermark_is_at_least_any_observed_depth model test.
        // relaxed: ordered before the Release store of `head` by
        // program order; the consumer reads it only after acquiring
        // `head`, which carries this write along.
        self.ring
            .watermark
            .fetch_max(head + 1 - tail, Ordering::Relaxed);
        self.ring.head.store(head + 1, Ordering::Release);
        // `tail` may be stale, which only overstates the depth: the bell
        // can ring early, never late.
        if let Some((bell, batch)) = &self.ring.bells.data {
            if head + 1 - tail >= *batch {
                bell.ring();
            }
        }
        Ok(())
    }

    /// Deepest occupancy the ring has ever reached.
    pub fn high_water(&self) -> usize {
        // relaxed: monotone statistic; the producer orders updates
        // before the `head` release-store (see `push`).
        self.ring.watermark.load(Ordering::Relaxed)
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        // relaxed: `head` is producer-owned; only this thread writes it.
        self.ring.head.load(Ordering::Relaxed) - self.ring.tail.load(Ordering::Acquire)
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the ring cannot take another item right now.
    pub fn is_full(&self) -> bool {
        self.len() >= self.ring.slots.len()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Free slots right now (capacity minus occupancy) — the disk
    /// process's read-ahead allowance.
    pub fn slack(&self) -> usize {
        self.capacity() - self.len()
    }

    /// True if the consumer has been dropped.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }
}

impl<T: Send> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        self.ring.ring_data();
    }
}

/// The reading endpoint.
pub struct Consumer<T: Send> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue; non-blocking.
    pub fn pop(&mut self) -> Result<T, PopError> {
        // relaxed: `tail` is consumer-owned; only this thread writes it.
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        if tail == head {
            return if self.ring.closed.load(Ordering::Acquire) {
                // Re-check head: the producer may have pushed between the
                // first load and the closed check.
                if self.ring.head.load(Ordering::Acquire) == tail {
                    Err(PopError::Closed)
                } else {
                    self.pop()
                }
            } else {
                Err(PopError::Empty)
            };
        }
        let slot = &self.ring.slots[tail % self.ring.slots.len()];
        let value = slot.with(|p|
            // SAFETY: `tail < head`, so the producer published this slot
            // with its Release store of `head` (matched by the Acquire
            // load above), and only this consumer reads slots. The value
            // is moved out exactly once because `tail` advances past the
            // slot below.
            unsafe { (*p).assume_init_read() });
        self.ring.tail.store(tail + 1, Ordering::Release);
        self.ring.ring_slack();
        Ok(value)
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        // relaxed: `tail` is consumer-owned; only this thread writes it.
        self.ring.head.load(Ordering::Acquire) - self.ring.tail.load(Ordering::Relaxed)
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the producer has been dropped (items may still remain).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Deepest occupancy the ring has ever reached.
    pub fn high_water(&self) -> usize {
        // relaxed: the producer orders watermark updates before the
        // `head` release-store (see `push`), so any depth this consumer
        // has observed is already reflected here.
        self.ring.watermark.load(Ordering::Relaxed)
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        // See Ring::drop: during a model-abort unwind the indices may
        // not describe slot ownership, so draining could re-read a slot
        // whose value was already moved out.
        if cfg!(calliope_check) && std::thread::panicking() {
            return;
        }
        self.ring.closed.store(true, Ordering::Release);
        // Drain remaining items so their destructors run.
        while self.pop().is_ok() {}
        self.ring.ring_slack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_order_single_thread() {
        let (mut p, mut c) = ring::<u32>(4);
        assert_eq!(c.pop(), Err(PopError::Empty));
        p.push(1).unwrap();
        p.push(2).unwrap();
        p.push(3).unwrap();
        assert_eq!(c.pop(), Ok(1));
        p.push(4).unwrap();
        p.push(5).unwrap();
        assert_eq!(c.pop(), Ok(2));
        assert_eq!(c.pop(), Ok(3));
        assert_eq!(c.pop(), Ok(4));
        assert_eq!(c.pop(), Ok(5));
        assert_eq!(c.pop(), Err(PopError::Empty));
    }

    #[test]
    fn full_ring_rejects_without_losing_the_value() {
        let (mut p, mut c) = ring::<String>(2);
        p.push("a".into()).unwrap();
        p.push("b".into()).unwrap();
        assert!(p.is_full());
        match p.push("c".into()) {
            Err(PushError::Full(v)) => assert_eq!(v, "c"),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.pop().unwrap(), "a");
        p.push("c".into()).unwrap();
        assert_eq!(c.pop().unwrap(), "b");
        assert_eq!(c.pop().unwrap(), "c");
    }

    #[test]
    fn capacity_two_is_double_buffering() {
        // The paper's scheme: the disk fills one buffer while the network
        // drains the other.
        let (mut p, mut c) = ring::<Vec<u8>>(2);
        p.push(vec![0; 256 * 1024]).unwrap();
        p.push(vec![1; 256 * 1024]).unwrap();
        assert!(p.is_full(), "both buffers in use");
        let drained = c.pop().unwrap();
        assert_eq!(drained[0], 0);
        assert!(!p.is_full(), "a buffer came free for the disk process");
    }

    #[test]
    fn consumer_sees_closed_after_producer_drop() {
        let (mut p, mut c) = ring::<u8>(4);
        p.push(9).unwrap();
        drop(p);
        assert_eq!(c.pop(), Ok(9), "buffered items still drain");
        assert_eq!(c.pop(), Err(PopError::Closed));
        assert!(c.is_closed());
    }

    #[test]
    fn producer_sees_closed_after_consumer_drop() {
        let (mut p, c) = ring::<u8>(4);
        drop(c);
        match p.push(1) {
            Err(PushError::Closed(1)) => {}
            other => panic!("{other:?}"),
        }
        assert!(p.is_closed());
    }

    #[test]
    fn drops_run_for_undrained_items() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = ring::<D>(8);
        for _ in 0..5 {
            assert!(p.push(D).is_ok());
        }
        drop(c);
        drop(p);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_stress_preserves_sequence() {
        let (mut p, mut c) = ring::<u64>(8);
        const N: u64 = 50_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match p.push(next) {
                    Ok(()) => next += 1,
                    // Yield rather than spin: CI machines may schedule
                    // both sides on one core.
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => panic!("consumer died"),
                }
            }
        });
        let mut expected = 0u64;
        loop {
            match c.pop() {
                Ok(v) => {
                    assert_eq!(v, expected, "items must arrive in order");
                    expected += 1;
                    if expected == N {
                        break;
                    }
                }
                Err(PopError::Empty) => std::thread::yield_now(),
                Err(PopError::Closed) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
    }

    #[test]
    fn cross_thread_stress_with_large_payloads() {
        // Page-sized payloads across threads: checks that the handoff
        // publishes whole buffers, not just indices.
        let (mut p, mut c) = ring::<Vec<u8>>(2);
        const N: usize = 2_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let page = vec![(i % 251) as u8; 4096];
                let mut v = page;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            v = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => return,
                    }
                }
            }
        });
        let mut got = 0usize;
        while got < N {
            match c.pop() {
                Ok(page) => {
                    assert!(page.iter().all(|&b| b == (got % 251) as u8));
                    got += 1;
                }
                Err(PopError::Empty) => std::thread::yield_now(),
                Err(PopError::Closed) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got, N);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ring::<u8>(0);
    }

    #[test]
    fn watermark_tracks_peak_depth() {
        let (mut p, mut c) = ring::<u8>(8);
        assert_eq!(p.high_water(), 0);
        p.push(1).unwrap();
        p.push(2).unwrap();
        p.push(3).unwrap();
        assert_eq!(p.high_water(), 3);
        c.pop().unwrap();
        c.pop().unwrap();
        // Draining does not lower the mark.
        assert_eq!(c.high_water(), 3);
        p.push(4).unwrap();
        // Depth only reached 2 here; the mark stays at its peak.
        assert_eq!(p.high_water(), 3);
        for v in 5..10 {
            p.push(v).unwrap();
        }
        assert_eq!(c.high_water(), 7);
    }
}
