//! Resource governance: shareable budgets for fuel, wall-clock deadlines,
//! and cooperative cancellation.
//!
//! A [`Budget`] is a cheaply-cloneable handle polled at the existing loop
//! heads of the long-running stages (δ-SAT branch-and-prune, CMA-ES
//! generations, batch simulation, level-set bisection).  When a limit is
//! hit the stage degrades to a structured "inconclusive" carrying an
//! [`ExhaustionReason`] instead of hanging or crashing.
//!
//! # Determinism contract
//!
//! The three limits have different reproducibility guarantees:
//!
//! * **Fuel** is counted in *tape instructions executed* (the δ-SAT
//!   solver's `instructions_executed` counter), a pure function of the
//!   search tree.  The solver's search is a single sequential depth-first
//!   loop, so the counter, and therefore the fuel truncation point, is
//!   invariant across machines, OS schedulers, and thread counts.  Fuel
//!   exhaustion may therefore appear in pinned deterministic reports.
//! * **Deadline** is wall-clock and inherently non-deterministic; it
//!   exists for service deployments and is excluded from pinned reports.
//! * **Cancellation** is an external signal (also non-deterministic).
//!
//! # Examples
//!
//! ```
//! use nncps_parallel::govern::{Budget, ExhaustionReason};
//!
//! let budget = Budget::unlimited().with_fuel(1000);
//! assert!(budget.check().is_none());
//! budget.charge_fuel(600);
//! assert!(budget.check().is_none());
//! budget.charge_fuel(600);
//! assert_eq!(budget.check(), Some(ExhaustionReason::Fuel(1000)));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed stage stopped early.
///
/// The `Display` form is the human-readable reason string that flows into
/// `VerificationOutcome::Inconclusive` and the batch reports; the
/// [`kind`](ExhaustionReason::kind)/[`limit`](ExhaustionReason::limit)
/// accessors are the machine-readable form serialized next to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The δ-SAT box budget (`max_boxes`) was exhausted.
    Boxes(usize),
    /// The deterministic fuel limit (tape instructions) was exhausted.
    Fuel(u64),
    /// The wall-clock deadline passed (non-deterministic; service use).
    Deadline,
    /// The work was cooperatively cancelled.
    Cancelled,
}

impl ExhaustionReason {
    /// Machine-readable tag: `"boxes"`, `"fuel"`, `"deadline"`, or
    /// `"cancelled"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ExhaustionReason::Boxes(_) => "boxes",
            ExhaustionReason::Fuel(_) => "fuel",
            ExhaustionReason::Deadline => "deadline",
            ExhaustionReason::Cancelled => "cancelled",
        }
    }

    /// The exhausted limit, when the variant carries one.
    pub fn limit(&self) -> Option<u64> {
        match self {
            ExhaustionReason::Boxes(n) => Some(*n as u64),
            ExhaustionReason::Fuel(n) => Some(*n),
            ExhaustionReason::Deadline | ExhaustionReason::Cancelled => None,
        }
    }

    /// Rebuilds a reason from its [`kind`](ExhaustionReason::kind) /
    /// [`limit`](ExhaustionReason::limit) parts (the report-JSON form).
    pub fn from_parts(kind: &str, limit: Option<u64>) -> Option<Self> {
        match kind {
            "boxes" => Some(ExhaustionReason::Boxes(limit? as usize)),
            "fuel" => Some(ExhaustionReason::Fuel(limit?)),
            "deadline" => Some(ExhaustionReason::Deadline),
            "cancelled" => Some(ExhaustionReason::Cancelled),
            _ => None,
        }
    }

    /// Whether this reason is deterministic (a pure function of the query,
    /// reproducible across machines and thread counts) and therefore
    /// allowed to appear in pinned deterministic reports.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, ExhaustionReason::Boxes(_) | ExhaustionReason::Fuel(_))
    }
}

impl std::fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Byte-for-byte the pre-governance reason string: scenario
            // fingerprints hash it, so it must never drift.
            ExhaustionReason::Boxes(n) => write!(f, "box budget of {n} exhausted"),
            ExhaustionReason::Fuel(n) => write!(f, "fuel budget of {n} instructions exhausted"),
            ExhaustionReason::Deadline => write!(f, "wall-clock deadline exceeded"),
            ExhaustionReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    fuel_limit: Option<u64>,
    deadline: Option<Instant>,
    fuel_used: AtomicU64,
    fuel_forced: AtomicBool,
    cancelled: AtomicBool,
}

/// A shareable, cheaply-checkable resource budget.
///
/// Clones share the same counters and flags, so a handle can be given to a
/// worker (or a remote cancel endpoint) while the solver polls another.
/// The default budget is unlimited and every check is a cheap no-op, so
/// ungoverned callers pay nothing.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    shared: Arc<Shared>,
}

impl Budget {
    /// A budget with no limits (checks always pass).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the deterministic fuel limit, counted in tape instructions.
    ///
    /// Must be called before the handle is shared (it rebuilds the shared
    /// state, so existing clones keep the old limits).
    pub fn with_fuel(self, instructions: u64) -> Self {
        Budget {
            shared: Arc::new(Shared {
                fuel_limit: Some(instructions),
                deadline: self.shared.deadline,
                ..Shared::default()
            }),
        }
    }

    /// Sets a wall-clock deadline `timeout` from now.
    ///
    /// Non-deterministic by nature: intended for service deployments, and
    /// excluded from pinned deterministic reports.  Must be called before
    /// the handle is shared.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        Budget {
            shared: Arc::new(Shared {
                fuel_limit: self.shared.fuel_limit,
                deadline: Some(Instant::now() + timeout),
                ..Shared::default()
            }),
        }
    }

    /// Whether a wall-clock deadline is set.  Deadline-governed runs are
    /// non-deterministic, so memoization layers refuse to cache them.
    pub fn has_deadline(&self) -> bool {
        self.shared.deadline.is_some()
    }

    /// Whether [`Budget::exhaust_fuel`] forced this budget into exhaustion.
    /// Forced exhaustion is a fault-injection artifact, not a pure function
    /// of the fuel limit, so memoization layers must treat it like a
    /// non-deterministic limit.
    pub fn fuel_forced(&self) -> bool {
        self.shared.fuel_forced.load(Ordering::Relaxed)
    }

    /// The fuel limit, if set.
    pub fn fuel_limit(&self) -> Option<u64> {
        self.shared.fuel_limit
    }

    /// Total fuel charged so far.
    pub fn fuel_used(&self) -> u64 {
        self.shared.fuel_used.load(Ordering::Relaxed)
    }

    /// Adds `instructions` to the fuel consumed.  Cheap (one relaxed
    /// atomic add); exhaustion is observed at the next [`Budget::check`].
    pub fn charge_fuel(&self, instructions: u64) {
        self.shared
            .fuel_used
            .fetch_add(instructions, Ordering::Relaxed);
    }

    /// Forces the budget into fuel exhaustion regardless of the counter
    /// (used by the fault-injection harness to rehearse the degradation
    /// path).  No effect unless a fuel limit is set.
    pub fn exhaust_fuel(&self) {
        self.shared.fuel_forced.store(true, Ordering::Relaxed);
    }

    /// Raises the cooperative cancellation flag; every governed loop
    /// observes it at its next poll.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`Budget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// Polls every limit.  `None` means "keep going"; `Some(reason)` is the
    /// structured reason the stage should surface.  Checked in a fixed
    /// order (cancellation, fuel, deadline) so a run that trips several
    /// limits reports deterministically whenever the tripped limits are
    /// themselves deterministic.
    pub fn check(&self) -> Option<ExhaustionReason> {
        // Fast path: the unlimited budget reads two relaxed atomics.
        if self.is_cancelled() {
            return Some(ExhaustionReason::Cancelled);
        }
        if let Some(limit) = self.shared.fuel_limit {
            if self.shared.fuel_forced.load(Ordering::Relaxed) || self.fuel_used() >= limit {
                return Some(ExhaustionReason::Fuel(limit));
            }
        }
        if let Some(deadline) = self.shared.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustionReason::Deadline);
            }
        }
        None
    }

    /// [`Budget::charge_fuel`] followed by [`Budget::check`].
    pub fn charge_and_check(&self, instructions: u64) -> Option<ExhaustionReason> {
        self.charge_fuel(instructions);
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        budget.charge_fuel(u64::MAX / 2);
        assert_eq!(budget.check(), None);
        assert_eq!(budget.fuel_limit(), None);
    }

    #[test]
    fn fuel_limit_trips_at_the_boundary() {
        let budget = Budget::unlimited().with_fuel(100);
        assert_eq!(budget.fuel_limit(), Some(100));
        budget.charge_fuel(99);
        assert_eq!(budget.check(), None);
        assert_eq!(
            budget.charge_and_check(1),
            Some(ExhaustionReason::Fuel(100))
        );
        assert_eq!(budget.fuel_used(), 100);
    }

    #[test]
    fn clones_share_state() {
        let budget = Budget::unlimited().with_fuel(10);
        let clone = budget.clone();
        clone.charge_fuel(10);
        assert_eq!(budget.check(), Some(ExhaustionReason::Fuel(10)));
        budget.cancel();
        assert!(clone.is_cancelled());
        // Cancellation outranks fuel in the fixed check order.
        assert_eq!(clone.check(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn forced_fuel_exhaustion_requires_a_limit() {
        let unlimited = Budget::unlimited();
        unlimited.exhaust_fuel();
        assert_eq!(unlimited.check(), None);
        let limited = Budget::unlimited().with_fuel(1_000_000);
        limited.exhaust_fuel();
        assert_eq!(limited.check(), Some(ExhaustionReason::Fuel(1_000_000)));
    }

    #[test]
    fn deadline_in_the_past_trips() {
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(budget.check(), Some(ExhaustionReason::Deadline));
        let future = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(future.check(), None);
    }

    #[test]
    fn reason_display_and_parts_round_trip() {
        let cases = [
            (
                ExhaustionReason::Boxes(2_000_000),
                "box budget of 2000000 exhausted",
            ),
            (
                ExhaustionReason::Fuel(512),
                "fuel budget of 512 instructions exhausted",
            ),
            (ExhaustionReason::Deadline, "wall-clock deadline exceeded"),
            (ExhaustionReason::Cancelled, "cancelled"),
        ];
        for (reason, text) in cases {
            assert_eq!(reason.to_string(), text);
            assert_eq!(
                ExhaustionReason::from_parts(reason.kind(), reason.limit()),
                Some(reason)
            );
        }
        assert!(ExhaustionReason::from_parts("martian", None).is_none());
        assert!(ExhaustionReason::from_parts("fuel", None).is_none());
        assert!(ExhaustionReason::Boxes(5).is_deterministic());
        assert!(ExhaustionReason::Fuel(5).is_deterministic());
        assert!(!ExhaustionReason::Deadline.is_deterministic());
        assert!(!ExhaustionReason::Cancelled.is_deterministic());
    }
}
