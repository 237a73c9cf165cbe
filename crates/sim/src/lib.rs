//! # nmpic-sim — deterministic cycle-driven simulation kernel
//!
//! This crate is the substrate every timed model in the workspace is built
//! on. It replaces the role Questa played for the paper's RTL models: a
//! deterministic, cycle-accurate execution environment with explicit
//! backpressure.
//!
//! The kernel is intentionally small and allocation-friendly:
//!
//! * [`Fifo`] — a bounded queue with capacity-based backpressure. Every
//!   architectural queue in the adapter (index queues, up/downsizer
//!   queues, hitmap queue, offsets queues, element queues) is a `Fifo`,
//!   or one queue of a [`FifoBank`] where the hardware has a whole row of
//!   identical ones.
//! * [`SimClock`] — the one owner of simulated time: every run loop in the
//!   workspace advances its cycle counter through it, so the cycle budget
//!   and the deadlock watchdog exist exactly once.
//! * [`SimRng`] — the vendored deterministic PRNG behind every generated
//!   matrix and randomized test.
//! * [`stats`] — load-imbalance, geometric-mean and latency-quantile
//!   accumulators.
//! * [`pool`] — the shared `NMPIC_JOBS` work pool that both the bench
//!   sweep runner and the sharded engine's parallel shard executor fan
//!   jobs through.
//!
//! # Example
//!
//! ```
//! use nmpic_sim::{Fifo, SimClock};
//!
//! let mut q: Fifo<u32> = Fifo::new("q", 2);
//! q.push(1);
//! q.push(2);
//! assert!(q.is_full(), "capacity reached → the producer stalls");
//!
//! // Drain one element per cycle; the clock panics past its budget.
//! let mut clk = SimClock::new("drain q", 100);
//! while q.pop().is_some() {
//!     clk.tick();
//! }
//! assert_eq!(clk.now(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod stats;

pub use rng::SimRng;

use std::collections::VecDeque;

/// A cycle index. One cycle corresponds to one 1 GHz clock tick in the
/// paper's system (adapter, HBM channel PHY and VPC all run at 1 GHz).
pub type Cycle = u64;

/// A bounded FIFO queue with backpressure.
///
/// This is the model of an RTL FIFO: the producer checks
/// [`Fifo::is_full`] (or [`Fifo::free`]) and holds its element for a later
/// cycle while the queue holds `capacity` elements; a [`Fifo::push`] past
/// capacity is a model bug and panics, naming the queue.
///
/// # Example
///
/// ```
/// use nmpic_sim::Fifo;
/// let mut f = Fifo::new("idx", 4);
/// for i in 0..4 { f.push(i); }
/// assert!(f.is_full());
/// assert_eq!(f.peek(), Some(&0));
/// assert_eq!(f.pop(), Some(0));
/// assert_eq!(f.free(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    name: &'static str,
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a queue with the given debug name and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-depth FIFO cannot hold an
    /// element and would deadlock any pipeline built on it.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo `{name}` must have nonzero capacity");
        Self {
            name,
            items: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Appends `item`. Backpressure is the caller's side of the contract:
    /// check [`Fifo::is_full`] first and stall.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!(
            self.items.len() < self.capacity,
            "fifo `{}` overflow",
            self.name
        );
        self.items.push_back(item);
    }

    /// Removes and returns the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the oldest element without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the queue holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when the queue holds `capacity` elements.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Iterates elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Drops every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// A row of identical bounded FIFOs in one flat allocation — the model of
/// a bank of W same-depth RTL queues (the coalescer's request, offsets and
/// element queues, the unit's lane queues).
///
/// Queue `q` is a ring over slots `q × depth .. (q + 1) × depth`. The
/// bank keeps two running counts, so questions about the whole row cost
/// O(1): [`FifoBank::total`] elements held, and [`FifoBank::occupied`]
/// queues that are not empty.
///
/// # Example
///
/// ```
/// use nmpic_sim::FifoBank;
/// let mut bank: FifoBank<u32> = FifoBank::new("lanes", 4, 2);
/// bank.push(1, 10);
/// bank.push(1, 11);
/// bank.push(3, 30);
/// assert!(bank.is_full(1) && bank.is_empty(0));
/// assert_eq!((bank.total(), bank.occupied()), (3, 2));
/// assert_eq!(bank.peek(1), Some(10));
/// assert_eq!(bank.pop(1), Some(10));
/// assert_eq!(bank.pop(1), Some(11));
/// assert_eq!(bank.pop(1), None);
/// assert_eq!((bank.total(), bank.occupied()), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct FifoBank<T> {
    name: &'static str,
    slots: Vec<T>,
    head: Vec<usize>,
    len: Vec<usize>,
    depth: usize,
    total: usize,
    occupied: usize,
}

impl<T: Copy + Default> FifoBank<T> {
    /// Creates `queues` empty queues of `depth` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `queues` or `depth` is zero.
    pub fn new(name: &'static str, queues: usize, depth: usize) -> Self {
        assert!(
            queues > 0 && depth > 0,
            "fifo bank `{name}` must have nonzero queues and depth"
        );
        Self {
            name,
            slots: vec![T::default(); queues * depth],
            head: vec![0; queues],
            len: vec![0; queues],
            depth,
            total: 0,
            occupied: 0,
        }
    }

    /// `true` when queue `q` holds no elements.
    pub fn is_empty(&self, q: usize) -> bool {
        self.len[q] == 0
    }

    /// `true` when queue `q` holds `depth` elements.
    pub fn is_full(&self, q: usize) -> bool {
        self.len[q] == self.depth
    }

    /// Elements held by all queues together.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of queues holding at least one element.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Appends `item` to queue `q`. Backpressure is the caller's side of
    /// the contract: check [`FifoBank::is_full`] first and stall.
    ///
    /// # Panics
    ///
    /// Panics if queue `q` is full.
    pub fn push(&mut self, q: usize, item: T) {
        let len = self.len[q];
        assert!(
            len < self.depth,
            "fifo bank `{}`: queue {q} overflow",
            self.name
        );
        let mut at = self.head[q] + len;
        if at >= self.depth {
            at -= self.depth;
        }
        self.slots[q * self.depth + at] = item;
        self.len[q] = len + 1;
        self.total += 1;
        self.occupied += usize::from(len == 0);
    }

    /// Removes and returns the oldest element of queue `q`.
    pub fn pop(&mut self, q: usize) -> Option<T> {
        let item = self.peek(q)?;
        let head = self.head[q] + 1;
        self.head[q] = if head == self.depth { 0 } else { head };
        self.len[q] -= 1;
        self.total -= 1;
        self.occupied -= usize::from(self.len[q] == 0);
        Some(item)
    }

    /// The oldest element of queue `q`, without removing it.
    pub fn peek(&self, q: usize) -> Option<T> {
        (self.len[q] > 0).then(|| self.slots[q * self.depth + self.head[q]])
    }

    /// Empties every queue, keeping the allocation.
    pub fn clear(&mut self) {
        self.head.fill(0);
        self.len.fill(0);
        self.total = 0;
        self.occupied = 0;
    }
}

/// The owner of simulated time for one run loop: a cycle counter with a
/// cycle budget.
///
/// Every loop that steps a timed model ends each simulated cycle with
/// [`SimClock::tick`], or with [`SimClock::advance_to`] when it knows the
/// next cycles are idle; those two calls are the only place in the
/// workspace where a loop's time moves on and hold the only deadlock
/// watchdog (`nmpic-lint` rule `L8` rejects a hand-rolled `now += 1` in
/// library code elsewhere). A model that stops making progress therefore
/// always ends in the same panic, naming the loop and its budget, instead
/// of hanging.
///
/// # Example
///
/// ```
/// use nmpic_sim::SimClock;
/// let mut remaining = 10u32;
/// let mut clk = SimClock::new("countdown", 1_000);
/// while remaining > 0 {
///     remaining -= 1; // the model's work for cycle `clk.now()`
///     clk.tick();
/// }
/// assert_eq!(clk.now(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    what: &'static str,
    now: Cycle,
    budget: Cycle,
}

impl SimClock {
    /// A clock at cycle 0 for the loop described by `what` (quoted in the
    /// watchdog panic), which must finish in fewer than `budget` cycles.
    pub fn new(what: &'static str, budget: Cycle) -> Self {
        Self {
            what,
            now: 0,
            budget,
        }
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Ends the current cycle: time advances by one.
    ///
    /// # Panics
    ///
    /// Panics with `"<what>: cycle budget of <budget> exceeded — model
    /// deadlock"` once the new cycle reaches the budget: a timed model
    /// that has not drained by then is not going to.
    #[inline]
    pub fn tick(&mut self) {
        self.advance_to(self.now + 1);
    }

    /// Ends the current cycle and resumes at cycle `t`, skipping the
    /// cycles in between; a `t` no later than the next cycle makes this a
    /// [`SimClock::tick`]. A loop calls it when it knows that nothing can
    /// change state before `t` — for instance from
    /// `nmpic_mem::ChannelPort::next_event` and its own next event.
    ///
    /// # Panics
    ///
    /// Panics with the same message as [`SimClock::tick`] once the new
    /// cycle reaches the budget, so a skip towards an event that never
    /// comes (`t == Cycle::MAX`) is the same deadlock report.
    #[inline]
    pub fn advance_to(&mut self, t: Cycle) {
        self.now = t.max(self.now + 1);
        assert!(
            self.now < self.budget,
            "{}: cycle budget of {} exceeded — model deadlock",
            self.what,
            self.budget
        );
    }

    /// Jumps over `cycles` cycles that a model spends in a fixed-length
    /// phase with no component to tick, such as the baseline core's MAC
    /// and per-row scalar phases. The watchdog is not consulted: the
    /// length is bounded by construction, and the next
    /// [`SimClock::tick`] or [`SimClock::advance_to`] checks the budget
    /// again.
    #[inline]
    pub fn advance(&mut self, cycles: Cycle) {
        self.now += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_push_pop_order() {
        let mut f = Fifo::new("t", 3);
        f.push(1);
        f.push(2);
        f.push(3);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    #[should_panic(expected = "fifo `t` overflow")]
    fn fifo_push_on_a_full_queue_panics() {
        let mut f = Fifo::new("t", 1);
        f.push(7);
        assert!(f.is_full() && f.free() == 0);
        f.push(8);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn fifo_zero_capacity_panics() {
        let _ = Fifo::<u8>::new("bad", 0);
    }

    #[test]
    fn fifo_peek_and_get() {
        let mut f = Fifo::new("t", 4);
        f.push(10);
        f.push(20);
        assert_eq!(f.peek(), Some(&10));
        assert_eq!(f.iter().nth(1), Some(&20));
        assert_eq!(f.iter().nth(2), None);
    }

    #[test]
    fn fifo_clear_empties_and_keeps_capacity() {
        let mut f = Fifo::new("t", 2);
        f.push(1);
        f.push(2);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 2);
        f.push(3);
        assert_eq!(f.pop(), Some(3));
    }

    /// Every queue of a bank behaves like its own `Fifo`, and the two
    /// running counts always equal what a walk over the queues finds.
    #[test]
    fn fifo_bank_matches_a_row_of_fifos() {
        let (queues, depth) = (5, 3);
        let mut bank: FifoBank<u64> = FifoBank::new("t", queues, depth);
        let mut row: Vec<Fifo<u64>> = (0..queues).map(|_| Fifo::new("t", depth)).collect();
        let mut rng = SimRng::new(7);
        for step in 0..2_000u64 {
            let q = rng.gen_usize(0, queues);
            if rng.gen_u64(0, 2) == 0 {
                assert_eq!(bank.is_full(q), row[q].is_full());
                if !bank.is_full(q) {
                    bank.push(q, step);
                    row[q].push(step);
                }
            } else {
                assert_eq!(bank.peek(q), row[q].peek().copied());
                assert_eq!(bank.pop(q), row[q].pop());
            }
            assert_eq!(bank.total(), row.iter().map(Fifo::len).sum::<usize>());
            assert_eq!(
                bank.occupied(),
                row.iter().filter(|f| !f.is_empty()).count()
            );
        }
        bank.clear();
        assert_eq!((bank.total(), bank.occupied()), (0, 0));
        assert!((0..queues).all(|q| bank.is_empty(q) && bank.pop(q).is_none()));
    }

    #[test]
    #[should_panic(expected = "fifo bank `t`: queue 1 overflow")]
    fn fifo_bank_push_on_a_full_queue_panics() {
        let mut bank: FifoBank<u8> = FifoBank::new("t", 2, 1);
        bank.push(1, 1);
        bank.push(1, 2);
    }

    #[test]
    fn sim_clock_counts_ticks() {
        let mut clk = SimClock::new("t", 1_000);
        assert_eq!(clk.now(), 0);
        for _ in 0..37 {
            clk.tick();
        }
        assert_eq!(clk.now(), 37);
    }

    #[test]
    fn sim_clock_advance_jumps_without_consulting_the_watchdog() {
        let mut clk = SimClock::new("t", 10);
        clk.tick();
        clk.advance(500);
        assert_eq!(clk.now(), 501, "a jump past the budget is not a tick");
    }

    #[test]
    fn sim_clock_advance_to_skips_and_consults_the_watchdog() {
        let mut clk = SimClock::new("skip", 100);
        clk.advance_to(40);
        assert_eq!(clk.now(), 40, "a later target is jumped to");
        clk.advance_to(12);
        assert_eq!(clk.now(), 41, "an earlier target is one tick");
        clk.advance_to(41);
        assert_eq!(clk.now(), 42, "the current cycle is one tick");
        clk.advance_to(99);
        assert_eq!(clk.now(), 99, "the last cycle inside the budget");
        for target in [100, Cycle::MAX] {
            let mut clk = SimClock::new("skip", 100);
            let caught = std::panic::catch_unwind(move || clk.advance_to(target));
            let msg = *caught
                .expect_err("a skip to the budget panics")
                .downcast::<String>()
                .expect("formatted panic message");
            assert_eq!(msg, "skip: cycle budget of 100 exceeded — model deadlock");
        }
    }

    #[test]
    fn sim_clock_watchdog_fires_on_the_same_tick_as_the_hand_rolled_assert() {
        // The loops this type replaced ran `now += 1; assert!(now < budget)`,
        // so tick number `budget` is the first to fail.
        for budget in [1, 2, 7, 100] {
            let mut clk = SimClock::new("drain", budget);
            for _ in 1..budget {
                clk.tick();
            }
            assert_eq!(clk.now(), budget - 1, "every earlier tick passes");
            let caught = std::panic::catch_unwind(move || clk.tick());
            let msg = *caught
                .expect_err("the fatal tick panics")
                .downcast::<String>()
                .expect("formatted panic message");
            assert_eq!(
                msg,
                format!("drain: cycle budget of {budget} exceeded — model deadlock")
            );
        }
    }
}
