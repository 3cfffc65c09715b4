//! Admission control for the serving layer: a bounded concurrency gate with
//! a deadline-aware wait queue, a global memory accountant, and a per-shape
//! history that turns past [`peak_buffered_bytes`] observations into
//! admission estimates.
//!
//! The policy is *shed new work before degrading admitted work*: a query
//! either gets a [`Permit`] (its estimated memory reserved, a running slot
//! held) or a typed [`Shed`] decision the connection layer turns into an
//! `Overloaded` frame with a retry hint. Admitted queries are never
//! cancelled to make room.
//!
//! [`peak_buffered_bytes`]: ccube_engine::EngineStats::peak_buffered_bytes

use ccube_core::fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Floor for history-derived estimates: even a query whose recorded peak was
/// tiny reserves this much, covering fixed per-run overhead.
const MIN_ESTIMATE: u64 = 64 * 1024;

/// Headroom multiplier over the recorded per-shape peak — peaks vary run to
/// run with scheduling, so reserve double what was last observed.
const HEADROOM: u64 = 2;

/// Knobs for the [`Gate`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queries allowed to run concurrently (≥ 1).
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot; arrivals beyond this are shed
    /// immediately.
    pub max_queued: usize,
    /// Global memory budget: the sum of admitted queries' estimates is kept
    /// at or below this.
    pub memory_budget: u64,
    /// Estimate used for a shape with no recorded history.
    pub default_estimate: u64,
    /// Longest a queued query waits for a slot before being shed (a
    /// client-supplied deadline can only shorten this).
    pub max_queue_wait: Duration,
}

impl AdmissionConfig {
    /// An estimate as the gate accounts for it: at least `MIN_ESTIMATE`, at
    /// most the whole budget.
    fn clamp(&self, estimate: u64) -> u64 {
        estimate.clamp(MIN_ESTIMATE, self.memory_budget.max(MIN_ESTIMATE))
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: 8,
            max_queued: 32,
            memory_budget: 256 * 1024 * 1024,
            default_estimate: 4 * 1024 * 1024,
            max_queue_wait: Duration::from_secs(2),
        }
    }
}

/// Why a query was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The wait queue was already full on arrival.
    QueueFull,
    /// The query waited its full queue allowance (or its own deadline)
    /// without a slot + memory becoming available.
    Timeout,
    /// The server is draining and admits no new work.
    Draining,
}

/// Counters the gate keeps (snapshot via [`Gate::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateMetrics {
    /// Queries admitted (granted a permit).
    pub admitted: u64,
    /// Queries shed because the queue was full.
    pub shed_queue_full: u64,
    /// Queries shed after timing out in the queue.
    pub shed_timeout: u64,
    /// Queries shed because the gate was draining.
    pub shed_draining: u64,
    /// High-water mark of concurrently running queries.
    pub peak_running: usize,
    /// High-water mark of reserved bytes.
    pub peak_reserved: u64,
}

struct State {
    running: usize,
    reserved: u64,
    queued: usize,
    draining: bool,
    metrics: GateMetrics,
    /// EWMA of service time in microseconds, for retry-after hints.
    avg_service_micros: u64,
}

/// The admission gate: bounded concurrency + memory accounting + bounded,
/// deadline-aware waiting. Cheap to share (`Arc` inside).
#[derive(Clone)]
pub struct Gate {
    inner: Arc<GateInner>,
}

struct GateInner {
    config: AdmissionConfig,
    state: Mutex<State>,
    freed: Condvar,
}

/// An admitted query's reservation: one running slot plus `estimate` bytes
/// of the global budget, released on drop.
pub struct Permit {
    gate: Gate,
    /// Bytes reserved against the gate's memory budget.
    pub estimate: u64,
}

impl Permit {
    /// The query's own memory budget (the engine trips [`BudgetExceeded`]
    /// past it): the reservation, but never less than a never-seen shape is
    /// allowed. A learned reservation is `HEADROOM ×` one run's peak and the
    /// engine's peak moves with scheduling, so enforcing it alone would
    /// fail a shape on a later run that its first run was allowed.
    ///
    /// [`BudgetExceeded`]: ccube_core::CubeError::BudgetExceeded
    pub fn budget(&self) -> u64 {
        let cfg = &self.gate.inner.config;
        self.estimate.max(cfg.clamp(cfg.default_estimate))
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut s = self
            .gate
            .inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        s.running -= 1;
        s.reserved -= self.estimate;
        drop(s);
        self.gate.inner.freed.notify_all();
    }
}

impl Gate {
    /// Create a gate with the given knobs (`max_concurrent` is clamped to
    /// at least 1).
    pub fn new(mut config: AdmissionConfig) -> Gate {
        config.max_concurrent = config.max_concurrent.max(1);
        Gate {
            inner: Arc::new(GateInner {
                config,
                state: Mutex::new(State {
                    running: 0,
                    reserved: 0,
                    queued: 0,
                    draining: false,
                    metrics: GateMetrics::default(),
                    avg_service_micros: 0,
                }),
                freed: Condvar::new(),
            }),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.inner.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic while holding the lock (fault injection) must not wedge
        // every later admission; the state transitions below are all
        // exception-safe, so riding through poison is sound.
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Try to admit a query with the given memory `estimate`, waiting up to
    /// the queue allowance (shortened by `deadline`, the query's own
    /// absolute deadline, when sooner). Estimates above the whole budget
    /// are clamped to it, so an oversized shape degrades to "runs alone"
    /// rather than "never runs".
    pub fn admit(&self, estimate: u64, deadline: Option<Instant>) -> Result<Permit, Shed> {
        let cfg = &self.inner.config;
        let estimate = cfg.clamp(estimate);
        let give_up = {
            let cap = Instant::now() + cfg.max_queue_wait;
            match deadline {
                Some(d) if d < cap => d,
                _ => cap,
            }
        };

        let mut s = self.lock();
        if s.draining {
            s.metrics.shed_draining += 1;
            return Err(Shed::Draining);
        }
        let mut queued = false;
        loop {
            let fits = s.running < cfg.max_concurrent
                && (s.reserved + estimate <= cfg.memory_budget || s.running == 0);
            if fits {
                if queued {
                    s.queued -= 1;
                }
                s.running += 1;
                s.reserved += estimate;
                s.metrics.admitted += 1;
                s.metrics.peak_running = s.metrics.peak_running.max(s.running);
                s.metrics.peak_reserved = s.metrics.peak_reserved.max(s.reserved);
                return Ok(Permit {
                    gate: self.clone(),
                    estimate,
                });
            }
            if !queued {
                if s.queued >= cfg.max_queued {
                    s.metrics.shed_queue_full += 1;
                    return Err(Shed::QueueFull);
                }
                s.queued += 1;
                queued = true;
            }
            let now = Instant::now();
            if now >= give_up {
                s.queued -= 1;
                s.metrics.shed_timeout += 1;
                return Err(Shed::Timeout);
            }
            let (next, timeout) = self
                .inner
                .freed
                .wait_timeout(s, give_up - now)
                .unwrap_or_else(|p| p.into_inner());
            s = next;
            if s.draining {
                s.queued -= 1;
                s.metrics.shed_draining += 1;
                return Err(Shed::Draining);
            }
            if timeout.timed_out() {
                s.queued -= 1;
                s.metrics.shed_timeout += 1;
                return Err(Shed::Timeout);
            }
        }
    }

    /// Record a finished query's service time (feeds the retry-after hint).
    pub fn record_service(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut s = self.lock();
        s.avg_service_micros = if s.avg_service_micros == 0 {
            micros
        } else {
            // EWMA with α = 1/8: smooth but still tracks load shifts.
            s.avg_service_micros - s.avg_service_micros / 8 + micros / 8
        };
    }

    /// Suggested client back-off, scaled by how deep the queue is relative
    /// to the concurrency the gate can drain: roughly "one average service
    /// time per queue layer ahead of you", clamped to the band the wire
    /// protocol promises ([`RETRY_AFTER_MIN`](crate::proto::RETRY_AFTER_MIN)
    /// ..[`RETRY_AFTER_MAX`](crate::proto::RETRY_AFTER_MAX)).
    pub fn retry_after(&self) -> Duration {
        let s = self.lock();
        let avg = Duration::from_micros(s.avg_service_micros.max(1_000));
        let layers = (s.queued / self.inner.config.max_concurrent).max(1) as u32;
        (avg * layers).clamp(crate::proto::RETRY_AFTER_MIN, crate::proto::RETRY_AFTER_MAX)
    }

    /// Flip into drain mode: every queued waiter (and every later arrival)
    /// is shed with [`Shed::Draining`]; admitted queries keep their permits.
    pub fn start_drain(&self) {
        self.lock().draining = true;
        self.inner.freed.notify_all();
    }

    /// Whether drain mode is on.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Number of queries currently holding permits.
    pub fn running(&self) -> usize {
        self.lock().running
    }

    /// Snapshot the gate's counters.
    pub fn metrics(&self) -> GateMetrics {
        self.lock().metrics
    }
}

/// Per-shape memory history: maps a request-shape hash to the largest
/// [`peak_buffered_bytes`] a run of that shape has reported, and derives
/// admission estimates from it (`HEADROOM`× the peak, floored at
/// `MIN_ESTIMATE`).
///
/// [`peak_buffered_bytes`]: ccube_engine::EngineStats::peak_buffered_bytes
#[derive(Default)]
pub struct ShapeHistory {
    peaks: Mutex<FxHashMap<u64, u64>>,
}

impl ShapeHistory {
    /// Create an empty history.
    pub fn new() -> ShapeHistory {
        ShapeHistory::default()
    }

    /// Estimate the memory a query of shape `shape` needs, from history if
    /// any run of the shape was recorded, else `default_estimate`.
    pub fn estimate(&self, shape: u64, default_estimate: u64) -> u64 {
        let peaks = self.peaks.lock().unwrap_or_else(|p| p.into_inner());
        match peaks.get(&shape) {
            Some(&peak) => peak.saturating_mul(HEADROOM).max(MIN_ESTIMATE),
            None => default_estimate.max(MIN_ESTIMATE),
        }
    }

    /// Record a finished run's observed peak for `shape` (keeps the max, so
    /// the estimate ratchets up to the worst observed run).
    pub fn record(&self, shape: u64, peak_buffered_bytes: u64) {
        let mut peaks = self.peaks.lock().unwrap_or_else(|p| p.into_inner());
        match peaks.entry(shape) {
            Entry::Occupied(mut e) => {
                let v = e.get_mut();
                *v = (*v).max(peak_buffered_bytes);
            }
            Entry::Vacant(e) => {
                e.insert(peak_buffered_bytes);
            }
        }
    }

    /// Number of shapes with recorded history.
    pub fn shapes(&self) -> usize {
        self.peaks.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Estimates below [`MIN_ESTIMATE`] clamp up, so the test budget is
    /// denominated in `UNIT`s of it (4 units total).
    const UNIT: u64 = MIN_ESTIMATE;

    fn config(max_concurrent: usize, max_queued: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent,
            max_queued,
            memory_budget: 4 * UNIT,
            default_estimate: UNIT,
            max_queue_wait: Duration::from_millis(50),
        }
    }

    #[test]
    fn admits_up_to_the_concurrency_bound_then_queues_then_sheds() {
        let gate = Gate::new(config(2, 0));
        let a = gate.admit(UNIT, None).unwrap();
        let _b = gate.admit(UNIT, None).unwrap();
        // Queue capacity 0: the third arrival sheds immediately.
        assert_eq!(gate.admit(UNIT, None).err(), Some(Shed::QueueFull));
        drop(a);
        assert!(gate.admit(UNIT, None).is_ok());
        let m = gate.metrics();
        assert_eq!(m.admitted, 3);
        assert_eq!(m.shed_queue_full, 1);
        assert_eq!(m.peak_running, 2);
    }

    #[test]
    fn memory_budget_blocks_admission_even_with_free_slots() {
        let gate = Gate::new(config(4, 0));
        let _a = gate.admit(4 * UNIT, None).unwrap();
        // The whole budget is reserved and there is no queue: shed.
        assert_eq!(gate.admit(UNIT, None).err(), Some(Shed::QueueFull));
    }

    #[test]
    fn oversized_estimate_clamps_and_runs_alone() {
        let gate = Gate::new(config(4, 0));
        let big = gate.admit(100 * UNIT, None).unwrap();
        assert_eq!(big.estimate, 4 * UNIT);
        assert_eq!(gate.admit(UNIT, None).err(), Some(Shed::QueueFull));
        drop(big);
        assert!(gate.admit(UNIT, None).is_ok());
    }

    #[test]
    fn budget_is_never_below_what_a_never_seen_shape_gets() {
        let gate = Gate::new(AdmissionConfig {
            default_estimate: 2 * UNIT,
            ..config(4, 0)
        });
        // A learned reservation below the default keeps the default as its
        // enforced budget; one above it is its own budget.
        let small = gate.admit(UNIT, None).unwrap();
        assert_eq!((small.estimate, small.budget()), (UNIT, 2 * UNIT));
        let large = gate.admit(3 * UNIT, None).unwrap();
        assert_eq!((large.estimate, large.budget()), (3 * UNIT, 3 * UNIT));
    }

    #[test]
    fn queued_waiter_gets_the_freed_slot() {
        let gate = Gate::new(config(1, 4));
        let first = gate.admit(UNIT, None).unwrap();
        let g2 = gate.clone();
        let waiter = thread::spawn(move || g2.admit(UNIT, None).map(|p| p.estimate));
        thread::sleep(Duration::from_millis(10));
        drop(first);
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn queue_wait_times_out_as_a_typed_shed() {
        let gate = Gate::new(config(1, 4));
        let _held = gate.admit(UNIT, None).unwrap();
        let t0 = Instant::now();
        assert_eq!(gate.admit(UNIT, None).err(), Some(Shed::Timeout));
        assert!(t0.elapsed() >= Duration::from_millis(40));
        assert_eq!(gate.metrics().shed_timeout, 1);
    }

    #[test]
    fn own_deadline_shortens_the_queue_wait() {
        let gate = Gate::new(config(1, 4));
        let _held = gate.admit(UNIT, None).unwrap();
        let t0 = Instant::now();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(gate.admit(UNIT, Some(deadline)).err(), Some(Shed::Timeout));
        assert!(t0.elapsed() < Duration::from_millis(45));
    }

    #[test]
    fn drain_sheds_queued_waiters_and_new_arrivals() {
        let gate = Gate::new(config(1, 4));
        let held = gate.admit(UNIT, None).unwrap();
        let g2 = gate.clone();
        let waiter = thread::spawn(move || g2.admit(UNIT, None).map(|p| p.estimate));
        thread::sleep(Duration::from_millis(10));
        gate.start_drain();
        assert_eq!(waiter.join().unwrap().err(), Some(Shed::Draining));
        assert_eq!(gate.admit(UNIT, None).err(), Some(Shed::Draining));
        // Admitted work keeps its permit through drain.
        drop(held);
        assert_eq!(gate.metrics().shed_draining, 2);
    }

    #[test]
    fn shape_history_ratchets_and_floors_estimates() {
        let h = ShapeHistory::new();
        assert_eq!(h.estimate(7, 1 << 20), 1 << 20);
        h.record(7, 100); // tiny peak → floored estimate
        assert_eq!(h.estimate(7, 1 << 20), MIN_ESTIMATE);
        h.record(7, 1 << 20);
        h.record(7, 1 << 18); // smaller later run does not lower it
        assert_eq!(h.estimate(7, 0), (1 << 20) * HEADROOM);
        assert_eq!(h.shapes(), 1);
    }

    #[test]
    fn retry_after_stays_in_band() {
        let gate = Gate::new(config(2, 8));
        assert!(gate.retry_after() >= crate::proto::RETRY_AFTER_MIN);
        gate.record_service(Duration::from_secs(60));
        assert!(gate.retry_after() <= crate::proto::RETRY_AFTER_MAX);
    }
}
