//! Lock-free single-producer single-consumer mailbox queues.
//!
//! The parallel engine keeps shard workers detached from the calling
//! thread for a whole epoch, and within an epoch the only cross-thread
//! traffic is bridge mail between fixed shard pairs: one writer, one
//! reader, tiny messages, every cycle. That access
//! pattern is exactly what a classic Lamport ring buffer serves with
//! two atomics and no locks, so [`channel`] hands out a
//! [`SpscSender`]/[`SpscReceiver`] pair over one shared ring.
//!
//! # Memory-ordering argument
//!
//! `head` is the next slot to read (owned by the consumer), `tail` the
//! next slot to write (owned by the producer); each side only ever
//! *stores* its own index and *loads* the other's.
//!
//! * The producer writes the payload into `buf[tail % cap]` **before**
//!   publishing `tail + 1` with a `Release` store; the consumer's
//!   `Acquire` load of `tail` therefore happens-after the payload
//!   write — it never reads an uninitialized slot.
//! * The consumer moves the payload out **before** publishing
//!   `head + 1` with a `Release` store; the producer's `Acquire` load
//!   of `head` therefore happens-after the move — it never overwrites
//!   a slot still being read.
//!
//! Both indices increase monotonically and are taken modulo the
//! capacity only when indexing, so full (`tail - head == cap`) and
//! empty (`tail == head`) are unambiguous without a separate flag.
//!
//! Sends never block: [`SpscSender::send`] returns the value back when
//! the ring is full, and the engine sizes rings so that a well-behaved
//! cycle protocol cannot fill them (see [`SpscReceiver::recv_timeout`]
//! for the consumer-side wait).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pad the two indices onto separate cache lines so producer and
/// consumer do not false-share.
#[repr(align(64))]
struct CachePadded(AtomicUsize);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; written only by the consumer.
    head: CachePadded,
    /// Next slot to write; written only by the producer.
    tail: CachePadded,
}

// Safety: the producer/consumer split above guarantees each slot is
// accessed by exactly one thread at a time; `T: Send` is required so
// payloads may cross the boundary.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Producer half of an SPSC ring (see the module docs).
pub struct SpscSender<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer half of an SPSC ring (see the module docs).
pub struct SpscReceiver<T> {
    ring: Arc<Ring<T>>,
}

/// Create a bounded SPSC ring holding up to `cap` in-flight messages.
///
/// # Panics
///
/// Panics if `cap` is zero.
pub fn channel<T: Send>(cap: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    assert!(cap > 0, "spsc ring needs at least one slot");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscSender {
            ring: Arc::clone(&ring),
        },
        SpscReceiver { ring },
    )
}

impl<T> SpscSender<T> {
    /// Enqueue `value`, or hand it back if the ring is full.
    pub fn send(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Acquire);
        if tail - head == ring.buf.len() {
            return Err(value);
        }
        let slot = &ring.buf[tail % ring.buf.len()];
        // Safety: `head <= tail - cap` is excluded above, so the
        // consumer has finished with this slot; only this producer
        // writes it.
        unsafe { (*slot.get()).write(value) };
        ring.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }
}

impl<T> SpscReceiver<T> {
    /// Dequeue the oldest message, if any.
    pub fn recv(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        let tail = ring.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &ring.buf[head % ring.buf.len()];
        // Safety: `head < tail`, so the producer published this slot;
        // only this consumer reads it before bumping `head`.
        let value = unsafe { (*slot.get()).assume_init_read() };
        ring.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Dequeue, waiting up to `timeout` for a message: the receiver's
    /// only blocking receive. Spins briefly, then backs off to
    /// [`std::thread::yield_now`] so a descheduled producer on an
    /// oversubscribed host still makes progress; the clock is read only
    /// once the spin phase is over, and then every 1024th attempt.
    /// `None` means the producer stayed silent for the whole `timeout`
    /// — for a peer that owes a message, that it is dead.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let mut spins = 0u64;
        let mut yielding_since: Option<Instant> = None;
        loop {
            if let Some(v) = self.recv() {
                return Some(v);
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
                continue;
            }
            let start = *yielding_since.get_or_insert_with(Instant::now);
            if spins.is_multiple_of(1024) && start.elapsed() > timeout {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both halves are gone; drain whatever was still in flight.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i % self.buf.len()];
            // Safety: slots in [head, tail) hold initialized values no
            // one else can touch any more.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

impl<T> std::fmt::Debug for SpscSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpscSender(cap {})", self.ring.buf.len())
    }
}

impl<T> std::fmt::Debug for SpscReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpscReceiver(cap {})", self.ring.buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.send(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = channel(3);
        for round in 0..100u64 {
            tx.send(round).unwrap();
            assert_eq!(rx.recv(), Some(round));
        }
    }

    #[test]
    fn cross_thread_stream_is_ordered() {
        // Miri interprets ~1000x slower than native; the interleavings
        // it checks do not need the long stream.
        const N: u64 = if cfg!(miri) { 2_000 } else { 100_000 };
        let (tx, rx) = channel(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while tx.send(i).is_err() {
                    std::hint::spin_loop();
                }
            }
        });
        for i in 0..N {
            assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Some(i));
        }
        producer.join().unwrap();
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn silent_sender_times_out_instead_of_hanging() {
        let (tx, rx) = channel::<u8>(2);
        let began = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), None);
        assert!(began.elapsed() >= Duration::from_millis(20));
        // The ring is still usable afterwards.
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Some(7));
    }

    #[test]
    fn drop_releases_in_flight_messages() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel(8);
        for _ in 0..5 {
            tx.send(Token).unwrap();
        }
        drop(rx.recv()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
