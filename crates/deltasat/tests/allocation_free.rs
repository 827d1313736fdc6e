//! Proof that the compiled per-box loop is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after one warm-up
//! pass (which grows the scratch buffers, the box pool, and the work stack
//! to their high-water marks) the exact operations the branch-and-prune loop
//! performs per box — contract, classify, split-into-pooled-storage — must
//! execute without a single heap allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nncps_deltasat::{ClauseFeasibility, CompiledClause, Constraint};
use nncps_expr::Expr;
use nncps_interval::IntervalBox;

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

/// The allocation counter is process-global, and the lock above only covers
/// the test bodies: the libtest harness's own threads perform one-time lazy
/// allocations (channel parking, panic-hook setup) that can land inside a
/// measured window, most often the first test's.  Such noise is transient —
/// once the stray initialization has happened it never recurs — so each
/// attempt resets the search state and re-measures the identical workload,
/// passing as soon as one attempt observes zero allocations.  A genuine
/// allocation in the loop fails every attempt, so the property stays strict.
fn assert_steady_state_allocation_free(mut attempt: impl FnMut() -> usize, what: &str) {
    let mut observed = 0;
    for _ in 0..5 {
        observed = attempt();
        if observed == 0 {
            return;
        }
    }
    panic!("{what} must not allocate (saw {observed} allocations on every retry)");
}

#[test]
fn steady_state_box_loop_does_not_allocate() {
    let _serial = serialize();
    let x = Expr::var(0);
    let y = Expr::var(1);
    // A clause with transcendentals, sharing, a fused linear chain (a
    // neuron's pre-activation, `b + w₀·x + w₁·y`), and three constraints —
    // the same shape the barrier queries have.
    let c = Expr::constant;
    let shared = (x.clone() * 0.7 + y.clone()).tanh();
    let neuron = (c(0.1) + c(0.5) * x.clone() + c(-2.0) * y.clone()).tanh();
    let clause = CompiledClause::compile(&[
        Constraint::ge(shared.clone() * x.clone() + y.clone().powi(2), -0.5),
        Constraint::le(shared * 2.0 + x.clone().sin(), 1.5),
        Constraint::le(neuron + c(0.5) * x.clone(), 1.0),
    ]);
    assert!(
        clause.tape().num_chain_terms() > 0,
        "the clause runs a chain step"
    );
    let mut scratch = clause.scratch();
    let domain = IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);

    // The exact per-box body of the solver loop, driven here directly so the
    // allocator counter brackets nothing but steady-state work.
    let mut stack = vec![domain.clone()];
    let mut pool: Vec<IntervalBox> = Vec::new();
    let mut run = |stack: &mut Vec<IntervalBox>, pool: &mut Vec<IntervalBox>, boxes: usize| {
        let mut explored = 0;
        while let Some(mut region) = stack.pop() {
            explored += 1;
            let feasible = clause.contract(&mut region, 4, &mut scratch);
            let retire = !feasible
                || region.is_empty()
                || clause.feasibility(&region, &mut scratch) == ClauseFeasibility::Violated
                || region.max_width() <= 1e-4;
            if retire {
                pool.push(region);
            } else {
                let mut right = pool.pop().unwrap_or_default();
                region.split_widest_into(&mut right);
                stack.push(right);
                stack.push(region);
            }
            if explored >= boxes {
                break;
            }
        }
    };

    // Warm-up: run the workload once from scratch, growing every buffer —
    // scratch, stack, pool, and the box pool's storage — to the high-water
    // mark of exactly this workload.
    run(&mut stack, &mut pool, 500);
    assert!(!stack.is_empty(), "warm-up must leave work pending");

    // Steady state: the identical 500-box workload re-runs without a single
    // allocation.  Each attempt resets to the initial search state *without*
    // freeing anything: park all boxes in the pool and re-seed the stack
    // from pooled storage.
    assert_steady_state_allocation_free(
        || {
            pool.append(&mut stack);
            let mut seed = pool.pop().expect("warm-up created boxes");
            seed.clone_from(&domain);
            stack.push(seed);
            let before = allocations();
            run(&mut stack, &mut pool, 500);
            allocations() - before
        },
        "the steady-state box loop",
    );
}
