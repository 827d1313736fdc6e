//! Proof that an integration step through a warm workspace is
//! allocation-free.
//!
//! A counting global allocator wraps the system allocator.  After one
//! warm-up step (which compiles the field's program and sizes the
//! workspace's stage and register buffers), every further RK4 step over a
//! compiled symbolic field must execute without a single heap allocation,
//! and a whole simulated trace may allocate only a fixed handful of buffers,
//! however many samples it records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nncps_expr::Expr;
use nncps_sim::{ExprDynamics, Integrator, Simulator, StepWorkspace};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is process-global, so tests running on concurrent
/// harness threads would observe each other's allocations and fail
/// spuriously.  Each test holds this lock for its whole body; a panicked
/// holder must not take the others down with it, so poison is recovered.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The libtest harness's own threads perform one-time lazy allocations that
/// can land inside a measured window.  Such noise never recurs, so each
/// attempt re-measures the identical workload and passes as soon as one
/// attempt stays within `limit`; a genuine allocation in the measured loop
/// exceeds it on every attempt, so the property stays strict.
fn assert_allocations_within(mut attempt: impl FnMut() -> usize, limit: usize, what: &str) {
    let mut observed = 0;
    for _ in 0..5 {
        observed = attempt();
        if observed <= limit {
            return;
        }
    }
    panic!("{what} made {observed} allocations on every retry (limit {limit})");
}

/// A two-state closed loop with a one-hidden-layer `tanh` controller — the
/// shape of the paper's Dubins error dynamics, small enough to build inline.
fn nn_closed_loop(width: usize) -> ExprDynamics {
    let d = Expr::var(0);
    let theta = Expr::var(1);
    let mut u = Expr::constant(0.0);
    for j in 0..width {
        let w = 0.3 + 0.1 * j as f64;
        let hidden =
            (d.clone() * w - theta.clone() * (1.0 - 0.05 * j as f64) + 0.01 * j as f64).tanh();
        u = u + hidden * (0.5 / width as f64);
    }
    ExprDynamics::new(vec![theta.clone().sin(), -u.tanh()])
}

#[test]
fn warm_fixed_step_schemes_do_not_allocate() {
    let _serial = serialize();
    let dynamics = nn_closed_loop(16);
    let integrator = Integrator::RungeKutta4;
    let mut workspace = StepWorkspace::default();
    let mut state = [0.4, -0.1];
    // Warm-up: compiles the program and sizes every workspace buffer.
    integrator.step_in_place(&dynamics, &mut state, 0.01, &mut workspace);
    assert_allocations_within(
        || {
            let before = allocations();
            for _ in 0..200 {
                integrator.step_in_place(&dynamics, &mut state, 0.01, &mut workspace);
            }
            allocations() - before
        },
        0,
        "RK4 steps through a warm workspace",
    );
    assert!(state.iter().all(|x| x.is_finite()));
}

#[test]
fn simulated_trace_allocates_only_its_samples() {
    let _serial = serialize();
    let dynamics = nn_closed_loop(16);
    let simulator = Simulator::new(Integrator::RungeKutta4, 0.01, 5.0);
    let steps = simulator.num_steps();
    // Compile the field outside the measured window.
    let _ = simulator.simulate(&dynamics, &[0.4, -0.1]);
    // The trace's two flat buffers (times and states, reserved for the whole
    // horizon), the running state, and the per-trace workspace's five stage
    // buffers and register file: 9 allocations for 501 samples.  A vector
    // per recorded sample, or per step, would exceed this many times over.
    let limit = 16;
    assert_allocations_within(
        || {
            let before = allocations();
            let trace = simulator.simulate(&dynamics, &[0.4, -0.1]);
            let made = allocations() - before;
            assert_eq!(trace.len(), steps + 1);
            made
        },
        limit,
        "a simulated trace",
    );
}
