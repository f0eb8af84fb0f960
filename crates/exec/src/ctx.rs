//! Cooperative in-flight cancellation: [`CancellationToken`],
//! [`RunContext`] and [`Checkpoint`].
//!
//! A [`CancellationToken`] lets a caller
//! *request* that work stop; this module is how long-running kernels
//! *honour* that request while it is still cheap to do so. A
//! [`RunContext`] bundles the token with an optional deadline, and a
//! [`Checkpoint`] amortises the atomic load + clock read behind a local
//! counter so hot loops can tick once per iteration at effectively zero
//! cost — the shared state is only consulted every
//! [`CHECK_INTERVAL`] ticks.
//!
//! Protocol (see DESIGN.md §2h for the placement rules):
//!
//! * Cancellation is **purely abortive**: a checkpoint either returns
//!   `Ok(())` and the loop continues exactly as if the checkpoint were
//!   not there, or returns `Err(Cancelled)` and the kernel unwinds via
//!   `?`. Checkpoints never reorder, skip, or batch work, so outputs
//!   are byte-identical whenever no cancellation fires.
//! * Every kernel exposes a fallible `*_ctx` variant; the original
//!   infallible API delegates with [`RunContext::unbounded`], which can
//!   never cancel.
//! * Cleanup happens in `Drop`/guard code, never after the checkpoint —
//!   shared state (e.g. a `ProfileCache` fill slot) must be valid at
//!   every `?`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many [`Checkpoint::tick`]s elapse between consultations of the
/// shared cancellation state (a power of two so the test is a mask).
pub const CHECK_INTERVAL: u32 = 1 << 14;

/// A clonable flag for cooperative cancellation: whoever no longer
/// wants a run's result calls [`cancel`](CancellationToken::cancel),
/// and the run observes it through its [`RunContext`].
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signal cancellation to every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The unit error a cancelled kernel unwinds with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Everything a running job needs to decide whether to keep going: the
/// caller's cancellation token plus an optional hard deadline.
///
/// Cheap to clone (an `Arc` bump) and `Sync`, so parallel sweeps can
/// share one context while each worker keeps its own [`Checkpoint`].
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    token: CancellationToken,
    deadline: Option<Instant>,
}

impl RunContext {
    /// A context that observes `token` and aborts past `deadline`.
    pub fn new(token: CancellationToken, deadline: Option<Instant>) -> Self {
        RunContext { token, deadline }
    }

    /// A context that can never cancel — what the infallible public
    /// APIs pass so their behaviour is exactly the pre-cancellation
    /// code path.
    pub fn unbounded() -> Self {
        RunContext::default()
    }

    /// The token this context observes (for wiring spurious-cancel
    /// fault injection and tests).
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Whether cancellation has been requested or the deadline passed.
    /// This reads shared state — hot loops should go through a
    /// [`Checkpoint`] instead.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// An immediate fallible check, for stage boundaries.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// A fresh amortised checkpoint over this context.
    pub fn checkpoint(&self) -> Checkpoint<'_> {
        Checkpoint {
            ctx: self,
            ticks: Cell::new(0),
        }
    }
}

/// An amortised cancellation probe for hot loops: [`tick`](Self::tick)
/// increments a plain counter and only consults the shared token/clock
/// every [`CHECK_INTERVAL`] calls, so the per-iteration cost is an
/// increment and a mask.
///
/// Not `Sync` by design (the counter is a `Cell`): each worker of a
/// parallel sweep derives its own checkpoint from the shared
/// [`RunContext`].
#[derive(Debug)]
pub struct Checkpoint<'a> {
    ctx: &'a RunContext,
    ticks: Cell<u32>,
}

impl Checkpoint<'_> {
    /// Count one unit of work; every [`CHECK_INTERVAL`] ticks, consult
    /// the context and abort with `Err(Cancelled)` if it says so.
    #[inline]
    pub fn tick(&self) -> Result<(), Cancelled> {
        let t = self.ticks.get().wrapping_add(1);
        self.ticks.set(t);
        if t & (CHECK_INTERVAL - 1) == 0 {
            self.ctx.check()
        } else {
            Ok(())
        }
    }

    /// Count `n` units of work at once — the bulk form of
    /// [`tick`](Self::tick) for kernels that sweep a whole slice in one
    /// tight (often auto-vectorised) loop, like the CSR adjacency
    /// builds behind the CSG counting evaluator. Consults the shared
    /// state iff the `n` ticks cross a [`CHECK_INTERVAL`] boundary, so
    /// interleaving `tick_n` with `tick` preserves the amortisation
    /// guarantee.
    #[inline]
    pub fn tick_n(&self, n: u64) -> Result<(), Cancelled> {
        let old = self.ticks.get();
        let new = old.wrapping_add(n as u32);
        self.ticks.set(new);
        let crossed =
            n >= u64::from(CHECK_INTERVAL) || (old ^ new) & !(CHECK_INTERVAL - 1) != 0;
        if crossed {
            self.ctx.check()
        } else {
            Ok(())
        }
    }

    /// The context this checkpoint observes.
    pub fn context(&self) -> &RunContext {
        self.ctx
    }

    /// An unamortised check, for once-per-stage boundaries where the
    /// full probe cost is irrelevant.
    pub fn check_now(&self) -> Result<(), Cancelled> {
        self.ctx.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_context_never_cancels() {
        let ctx = RunContext::unbounded();
        assert!(!ctx.is_cancelled());
        assert_eq!(ctx.check(), Ok(()));
        let ck = ctx.checkpoint();
        for _ in 0..(3 * CHECK_INTERVAL) {
            assert_eq!(ck.tick(), Ok(()));
        }
    }

    #[test]
    fn token_cancellation_fires_at_the_interval_boundary() {
        let token = CancellationToken::new();
        let ctx = RunContext::new(token.clone(), None);
        let ck = ctx.checkpoint();
        token.cancel();
        let mut aborted_at = None;
        for i in 1..=(2 * CHECK_INTERVAL) {
            if ck.tick().is_err() {
                aborted_at = Some(i);
                break;
            }
        }
        assert_eq!(aborted_at, Some(CHECK_INTERVAL));
    }

    #[test]
    fn tick_n_fires_on_interval_crossings_only() {
        let token = CancellationToken::new();
        let ctx = RunContext::new(token.clone(), None);
        let ck = ctx.checkpoint();
        token.cancel();
        // Stays below the first boundary: no shared-state consultation.
        assert_eq!(ck.tick_n(u64::from(CHECK_INTERVAL) - 2), Ok(()));
        assert_eq!(ck.tick(), Ok(()));
        // The next bulk tick crosses the boundary and aborts.
        assert_eq!(ck.tick_n(2), Err(Cancelled));
    }

    #[test]
    fn tick_n_larger_than_interval_always_checks() {
        let token = CancellationToken::new();
        let ctx = RunContext::new(token.clone(), None);
        let ck = ctx.checkpoint();
        token.cancel();
        assert_eq!(ck.tick_n(u64::from(CHECK_INTERVAL)), Err(Cancelled));
        // And a multiple of 2³² ticks (counter wraparound) still checks.
        let ck2 = ctx.checkpoint();
        assert_eq!(ck2.tick_n(1u64 << 32), Err(Cancelled));
    }

    #[test]
    fn tick_n_mixes_with_tick() {
        let ctx = RunContext::unbounded();
        let ck = ctx.checkpoint();
        for _ in 0..3 {
            assert_eq!(ck.tick_n(u64::from(CHECK_INTERVAL) / 2), Ok(()));
            assert_eq!(ck.tick(), Ok(()));
        }
    }

    #[test]
    fn past_deadline_cancels_without_a_token() {
        let ctx = RunContext::new(
            CancellationToken::new(),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.check(), Err(Cancelled));
    }

    #[test]
    fn future_deadline_does_not_cancel() {
        let ctx = RunContext::new(
            CancellationToken::new(),
            Some(Instant::now() + Duration::from_secs(3600)),
        );
        assert_eq!(ctx.check(), Ok(()));
    }

    #[test]
    fn cancellation_token_is_shared_across_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn clones_observe_the_same_token() {
        let ctx = RunContext::new(CancellationToken::new(), None);
        let clone = ctx.clone();
        ctx.token().cancel();
        assert!(clone.is_cancelled());
    }
}
