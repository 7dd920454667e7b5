//! Admission control: a deadline-bounded counting semaphore.
//!
//! The server multiplexes every request onto one shared morsel pool under
//! one global memory budget; admitting unbounded concurrent executions
//! would multiply peak memory by the request count and defeat the budget.
//! Instead at most `max_inflight` requests execute at once; the rest
//! **queue** on a condvar with a deadline. A queued request that cannot
//! start before its deadline gets a clean admission error (never a
//! dropped connection), and under overload nothing OOMs — memory use is
//! `max_inflight × per-request budget`, regardless of offered load.
//!
//! Permits are RAII: dropping an [`AdmissionPermit`] releases the slot
//! and wakes the waiters, so an execution that panics or errors still
//! frees its slot.
//!
//! Dequeue is **FIFO by arrival**: each waiter takes a monotonically
//! increasing ticket and only the holder of the oldest ticket may take a
//! freed slot. A bare `notify_one` handoff let a late-arriving request
//! race an earlier one for the slot and starve it past its deadline;
//! with tickets, deadlines are missed oldest-last.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State {
    in_flight: usize,
    /// Arrival-ordered tickets of the requests currently queued.
    queue: VecDeque<u64>,
    /// The next ticket to hand out.
    next_ticket: u64,
}

struct Shared {
    max_inflight: usize,
    state: Mutex<State>,
    available: Condvar,
    admitted: AtomicU64,
    timed_out: AtomicU64,
    peak_queued: AtomicU64,
}

/// The admission gate; clone-free, shared behind an `Arc` by the server.
pub struct Admission {
    shared: Arc<Shared>,
}

/// An admitted execution slot; dropping it releases the slot.
pub struct AdmissionPermit {
    shared: Arc<Shared>,
    /// Microseconds this request waited in the queue before admission.
    pub queue_us: u64,
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("queue_us", &self.queue_us)
            .finish()
    }
}

impl Shared {
    /// The gate's state under its lock. A poisoned lock is taken over,
    /// for the state is whole at every panic point under it: each write
    /// is one integer update (`in_flight`, `next_ticket`) or one push,
    /// pop or retain of the ticket queue, and nothing between them can
    /// panic. Taking it over also keeps a permit's drop, which may run
    /// while a panic unwinds, from panicking again and aborting the
    /// process.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.shared.state();
        st.in_flight -= 1;
        drop(st);
        // Wake everyone: only the head-of-queue ticket may take the slot,
        // and notify_one could wake a younger waiter that would just go
        // back to sleep while the head slept on.
        self.shared.available.notify_all();
    }
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent executions
    /// (clamped to at least 1 — a gate nothing can pass is a deadlock,
    /// not a policy).
    pub fn new(max_inflight: usize) -> Admission {
        Admission {
            shared: Arc::new(Shared {
                max_inflight: max_inflight.max(1),
                state: Mutex::new(State {
                    in_flight: 0,
                    queue: VecDeque::new(),
                    next_ticket: 0,
                }),
                available: Condvar::new(),
                admitted: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
                peak_queued: AtomicU64::new(0),
            }),
        }
    }

    /// Waits for a slot, at most `deadline`. `Ok` carries the RAII
    /// permit (with the observed queue delay); `Err` is the timeout
    /// message for the client.
    pub fn acquire(&self, deadline: Duration) -> Result<AdmissionPermit, String> {
        let started = Instant::now();
        let mut st = self.shared.state();
        if st.in_flight >= self.shared.max_inflight || !st.queue.is_empty() {
            // Queue behind everyone already waiting — even when a slot is
            // technically free, jumping ahead of the queue would reorder
            // admissions behind the arrival order.
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(ticket);
            self.shared
                .peak_queued
                .fetch_max(st.queue.len() as u64, Ordering::Relaxed);
            while st.in_flight >= self.shared.max_inflight || st.queue.front() != Some(&ticket) {
                let elapsed = started.elapsed();
                if elapsed >= deadline {
                    st.queue.retain(|&t| t != ticket);
                    self.shared.timed_out.fetch_add(1, Ordering::Relaxed);
                    let msg = format!(
                        "admission queue deadline exceeded ({} ms): {} executions in flight",
                        deadline.as_millis(),
                        st.in_flight
                    );
                    drop(st);
                    // A timed-out head must pass the baton, or the queue
                    // behind it waits for the next permit drop.
                    self.shared.available.notify_all();
                    return Err(msg);
                }
                let (next, _) = self
                    .shared
                    .available
                    .wait_timeout(st, deadline - elapsed)
                    .unwrap_or_else(PoisonError::into_inner);
                st = next;
            }
            st.queue.pop_front();
            if st.in_flight + 1 < self.shared.max_inflight && !st.queue.is_empty() {
                // More slots remain: let the next ticket holder run too.
                self.shared.available.notify_all();
            }
        }
        st.in_flight += 1;
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit {
            shared: self.shared.clone(),
            queue_us: started.elapsed().as_micros() as u64,
        })
    }

    /// Executions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Requests that hit their queue deadline.
    pub fn timed_out(&self) -> u64 {
        self.shared.timed_out.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently queued requests.
    pub fn peak_queued(&self) -> u64 {
        self.shared.peak_queued.load(Ordering::Relaxed)
    }

    /// The configured concurrency bound.
    pub fn max_inflight(&self) -> usize {
        self.shared.max_inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn admits_up_to_the_bound_then_queues() {
        let gate = Arc::new(Admission::new(2));
        let a = gate.acquire(Duration::from_secs(1)).unwrap();
        let _b = gate.acquire(Duration::from_secs(1)).unwrap();
        let (tx, rx) = mpsc::channel();
        let g = gate.clone();
        let t = thread::spawn(move || {
            let p = g.acquire(Duration::from_secs(5)).unwrap();
            tx.send(()).unwrap();
            drop(p);
        });
        // The third acquire must be queued, not admitted.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(a);
        rx.recv_timeout(Duration::from_secs(5)).expect("admitted");
        t.join().unwrap();
        assert_eq!(gate.admitted(), 3);
        assert_eq!(gate.timed_out(), 0);
        assert!(gate.peak_queued() >= 1);
    }

    #[test]
    fn deadline_expires_with_an_error() {
        let gate = Admission::new(1);
        let _held = gate.acquire(Duration::from_secs(1)).unwrap();
        let err = gate.acquire(Duration::from_millis(20)).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        assert_eq!(gate.timed_out(), 1);
    }

    #[test]
    fn dropped_permit_frees_the_slot() {
        let gate = Admission::new(1);
        drop(gate.acquire(Duration::from_secs(1)).unwrap());
        gate.acquire(Duration::from_millis(10))
            .expect("slot was released");
    }

    #[test]
    fn a_poisoned_admission_lock_still_admits_and_releases() {
        let gate = Arc::new(Admission::new(1));
        let held = gate.acquire(Duration::from_secs(1)).unwrap();
        let poisoner = thread::spawn({
            let gate = gate.clone();
            move || {
                let _st = gate.shared.state.lock().expect("admission lock");
                panic!("a thread panics holding the admission lock");
            }
        });
        assert!(poisoner.join().is_err());
        assert!(gate.shared.state.is_poisoned());
        // The held permit's drop frees its slot under the poisoned lock.
        drop(held);
        let again = gate.acquire(Duration::from_secs(1)).expect("admitted");
        drop(again);
        assert_eq!(gate.admitted(), 2);
        assert_eq!(gate.timed_out(), 0);
    }

    #[test]
    fn zero_bound_is_clamped_to_one() {
        let gate = Admission::new(0);
        gate.acquire(Duration::from_millis(10))
            .expect("clamped to 1");
    }

    #[test]
    fn queued_requests_admit_in_arrival_order() {
        // Regression: with a bare notify_one handoff, a late-arriving
        // request could take a freed slot ahead of an older waiter and
        // starve it past its deadline. Queue several waiters in a known
        // arrival order, release slots one at a time, and require
        // admissions to come back in exactly that order.
        let gate = Arc::new(Admission::new(1));
        let held = gate.acquire(Duration::from_secs(5)).unwrap();
        let (tx, rx) = mpsc::channel::<usize>();
        let mut threads = Vec::new();
        for i in 0..4 {
            let g = gate.clone();
            let tx = tx.clone();
            threads.push(thread::spawn(move || {
                let p = g.acquire(Duration::from_secs(30)).unwrap();
                tx.send(i).unwrap();
                // Hold briefly so admissions serialize through the gate.
                thread::sleep(Duration::from_millis(5));
                drop(p);
            }));
            // Wait until this waiter is visibly queued before spawning
            // the next, pinning the arrival order.
            let want = i as u64 + 1;
            while gate.peak_queued() < want {
                thread::sleep(Duration::from_millis(1));
            }
        }
        drop(held);
        let order: Vec<usize> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("admitted"))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(order, vec![0, 1, 2, 3], "FIFO by arrival");
        assert_eq!(gate.timed_out(), 0);
    }
}
