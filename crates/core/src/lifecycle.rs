//! Cooperative query-lifecycle control: cancellation, deadlines, budgets.
//!
//! A cube run is a deep recursion over shards and partitions; nothing about
//! it is naturally interruptible. This module makes it interruptible
//! *cooperatively*: a [`CancelToken`] is a shared tripwire that the hot
//! loops poll at coarse boundaries (shard-task starts, counting-sort chunk
//! strides, cuber recursion heads, the frontier merger), and the first
//! party to observe a trip unwinds the run by returning early.
//!
//! The token travels *ambiently*: the query terminal installs it in a
//! thread-local ([`install`]), the engine captures it ([`current`]) and
//! re-installs it inside every worker thread, and the cubers poll it with
//! [`should_stop`] without any signature changes. Code that runs outside a
//! query (unit tests, the naive oracle) sees no token and pays one
//! thread-local read + `None` check per poll.
//!
//! Three things can trip a token:
//!
//! * an explicit [`CancelToken::cancel`] (a `QueryHandle`, a dropped
//!   `CellStream`);
//! * a deadline armed with [`CancelToken::set_deadline`] — evaluated lazily
//!   by the polls themselves, so no watchdog thread exists;
//! * a resource violation reported by whoever measures it (the engine's
//!   merger trips [`CubeError::BudgetExceeded`] when buffered output
//!   exceeds [`CancelToken::budget`]).
//!
//! The first trip wins and records its [`CubeError`] as the run's outcome;
//! later trips are ignored.

use crate::CubeError;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Monotone anchor for representing deadlines as atomic nanosecond offsets.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Distinguishes tokens across queries on one session (and across requeries
/// after a cancel) — diagnostics and tests use it to assert that a retry
/// got a fresh token rather than a stale tripped one.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
struct Inner {
    /// 0 = live, 1 = tripped (cause recorded before the store).
    state: AtomicU32,
    cause: Mutex<Option<CubeError>>,
    /// Deadline as nanoseconds after [`anchor`]; 0 = no deadline.
    deadline_nanos: AtomicU64,
    /// Memory budget in bytes; 0 = unlimited.
    budget: AtomicU64,
    /// Progress epoch: bumped by the workers at every real checkpoint poll.
    /// A liveness supervisor compares epochs across scans — an unchanged
    /// epoch means the run stopped reaching its poll sites entirely (wedged),
    /// which is a stronger signal than "slow".
    progress: AtomicU64,
    generation: u64,
}

/// Shared, cloneable tripwire for one query run.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same trip.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, live token with a unique generation.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU32::new(0),
                cause: Mutex::new(None),
                deadline_nanos: AtomicU64::new(0),
                budget: AtomicU64::new(0),
                progress: AtomicU64::new(0),
                generation: next_generation(),
            }),
        }
    }

    /// The token's unique generation number.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// Trip the token with an explicit cancellation.
    pub fn cancel(&self) {
        self.trip(CubeError::Cancelled);
    }

    /// Trip the token with `cause`. The first trip wins; returns whether
    /// this call was it.
    pub fn trip(&self, cause: CubeError) -> bool {
        let mut slot = self.inner.cause.lock().unwrap();
        if slot.is_some() {
            return false;
        }
        *slot = Some(cause);
        // Publish only after the cause is recorded, so a tripped state
        // always has a cause to report.
        self.inner.state.store(1, Ordering::Release);
        true
    }

    /// Arm a deadline; polls past `at` trip [`CubeError::DeadlineExceeded`].
    pub fn set_deadline(&self, at: Instant) {
        let nanos = at
            .saturating_duration_since(anchor())
            .as_nanos()
            .clamp(1, u64::MAX as u128) as u64;
        self.inner.deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Set the memory budget in bytes (0 clears it).
    pub fn set_budget(&self, bytes: usize) {
        self.inner.budget.store(bytes as u64, Ordering::Relaxed);
    }

    /// The memory budget, if one is set.
    pub fn budget(&self) -> Option<usize> {
        match self.inner.budget.load(Ordering::Relaxed) {
            0 => None,
            b => Some(b as usize),
        }
    }

    /// Has the token tripped? Also evaluates the deadline, so a poll is all
    /// it takes for an expired deadline to become a trip — no watchdog
    /// thread.
    pub fn is_tripped(&self) -> bool {
        if self.inner.state.load(Ordering::Acquire) != 0 {
            return true;
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::Relaxed);
        if deadline != 0 && anchor().elapsed().as_nanos() as u64 >= deadline {
            self.trip(CubeError::DeadlineExceeded);
            return true;
        }
        false
    }

    /// Bump the progress epoch. Called from the checkpoint polls; cheap
    /// (one relaxed `fetch_add`) and safe to call from any thread.
    #[inline]
    pub fn note_progress(&self) {
        self.inner.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// The current progress epoch. Monotone while workers keep reaching
    /// their poll sites; a watchdog that sees the same value across scans
    /// spanning its wedge timeout may conclude the run is stuck.
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }

    /// The error that tripped the token, if any.
    pub fn cause(&self) -> Option<CubeError> {
        self.inner.cause.lock().unwrap().clone()
    }

    /// `Err(cause)` if tripped (deadline included), `Ok(())` otherwise.
    pub fn check(&self) -> crate::Result<()> {
        if self.is_tripped() {
            Err(self.cause().unwrap_or(CubeError::Cancelled))
        } else {
            Ok(())
        }
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously installed token on drop.
#[must_use = "dropping the guard uninstalls the token"]
pub struct Ambient {
    prev: Option<CancelToken>,
}

/// Install `token` as this thread's ambient token until the returned guard
/// drops. Nests: the guard restores whatever was installed before.
pub fn install(token: &CancelToken) -> Ambient {
    AMBIENT.with(|slot| Ambient {
        prev: slot.borrow_mut().replace(token.clone()),
    })
}

impl Drop for Ambient {
    fn drop(&mut self) {
        AMBIENT.with(|slot| {
            *slot.borrow_mut() = self.prev.take();
        });
    }
}

/// The ambient token installed on this thread, if any.
pub fn current() -> Option<CancelToken> {
    AMBIENT.with(|slot| slot.borrow().clone())
}

/// The cooperative checkpoint: `true` once the ambient token has tripped
/// (or its deadline passed). Hot loops poll this at coarse boundaries and
/// return early on `true`; without an ambient token it costs one
/// thread-local read.
#[inline]
pub fn should_stop() -> bool {
    AMBIENT.with(|slot| match slot.borrow().as_ref() {
        None => false,
        Some(token) => {
            // Every real poll doubles as a liveness heartbeat: the watchdog
            // reaps queries whose epoch stops advancing. `is_tripped` itself
            // must NOT bump progress — supervisors call it while deciding
            // whether to reap.
            token.note_progress();
            token.is_tripped()
        }
    })
}

/// How many [`should_stop_strided`] calls elapse between real polls.
pub const POLL_STRIDE: u32 = 64;

/// Strided [`should_stop`] for per-cell hot paths (cuber recursion heads,
/// tree-construction nodes): only every [`POLL_STRIDE`]-th call reads the
/// ambient token. The common case is one increment of a `Cell<u32>`
/// thread-local — const-initialized and droppable-free, so it compiles to a
/// direct TLS access without the lazy-init/destructor check the
/// `Option<CancelToken>` slot pays. Worst-case added cancel latency is
/// `POLL_STRIDE` recursion steps — microseconds, far inside the checkpoint
/// budget; coarse boundaries (task starts, partition passes) keep using the
/// unstrided [`should_stop`].
#[inline]
pub fn should_stop_strided() -> bool {
    thread_local! {
        static TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    TICK.with(|t| {
        let n = t.get().wrapping_add(1);
        t.set(n);
        n % POLL_STRIDE == 0
    }) && should_stop()
}

/// Turn a panic caught at a run's boundary into the run's error —
/// [`CubeError::WorkerPanicked`] carrying the panic message — tripping
/// `token` with it so every other observer of the run (stream consumers,
/// query handles) sees the same outcome.
pub fn worker_panicked(token: Option<&CancelToken>, payload: Box<dyn Any + Send>) -> CubeError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    let err = CubeError::WorkerPanicked { message };
    if let Some(token) = token {
        token.trip(err.clone());
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn first_trip_wins() {
        let t = CancelToken::new();
        assert!(!t.is_tripped());
        assert!(t.trip(CubeError::DeadlineExceeded));
        assert!(!t.trip(CubeError::Cancelled));
        assert_eq!(t.cause(), Some(CubeError::DeadlineExceeded));
        assert!(t.check().is_err());
    }

    #[test]
    fn deadline_trips_on_poll() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_tripped());
        assert_eq!(t.cause(), Some(CubeError::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_tripped());
    }

    #[test]
    fn ambient_install_nests_and_restores() {
        assert!(!should_stop());
        let outer = CancelToken::new();
        let guard = install(&outer);
        assert_eq!(current().unwrap().generation(), outer.generation());
        {
            let inner = CancelToken::new();
            let inner_guard = install(&inner);
            inner.cancel();
            assert!(should_stop());
            drop(inner_guard);
        }
        assert!(!should_stop(), "outer token is still live");
        outer.cancel();
        assert!(should_stop());
        drop(guard);
        assert!(!should_stop());
        assert!(current().is_none());
    }

    #[test]
    fn generations_are_unique() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a.generation(), b.generation());
    }

    #[test]
    fn polls_advance_the_progress_epoch() {
        let t = CancelToken::new();
        assert_eq!(t.progress(), 0);
        let guard = install(&t);
        assert!(!should_stop());
        assert!(!should_stop());
        assert_eq!(t.progress(), 2);
        // Supervisor-side reads must not count as progress.
        assert!(!t.is_tripped());
        assert_eq!(t.progress(), 2);
        drop(guard);
        // No ambient token: polls are free and bump nothing.
        assert!(!should_stop());
        assert_eq!(t.progress(), 2);
    }

    #[test]
    fn a_caught_panic_becomes_the_runs_error_and_trips_the_token() {
        let t = CancelToken::new();
        let err = worker_panicked(Some(&t), Box::new("static text"));
        assert_eq!(
            err,
            CubeError::WorkerPanicked {
                message: "static text".into()
            }
        );
        assert_eq!(t.cause(), Some(err));
        // First trip wins: a later panic does not overwrite the cause.
        let later = worker_panicked(Some(&t), Box::new(format!("formatted {}", 7)));
        assert_eq!(
            later,
            CubeError::WorkerPanicked {
                message: "formatted 7".into()
            }
        );
        assert_ne!(t.cause(), Some(later));
        let opaque = worker_panicked(None, Box::new(7u32));
        assert_eq!(
            opaque,
            CubeError::WorkerPanicked {
                message: "opaque panic payload".into()
            }
        );
    }

    #[test]
    fn budget_roundtrip() {
        let t = CancelToken::new();
        assert_eq!(t.budget(), None);
        t.set_budget(1 << 20);
        assert_eq!(t.budget(), Some(1 << 20));
    }
}
