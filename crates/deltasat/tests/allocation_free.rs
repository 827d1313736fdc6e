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

use nncps_deltasat::{ClauseFeasibility, CompiledClause, Constraint, CutOutcome};
use nncps_expr::{Expr, SpecializeScratch, TapeView};
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
    // A clause with transcendentals, sharing, and two constraints — the same
    // shape the barrier queries have.
    let shared = (x.clone() * 0.7 + y.clone()).tanh();
    let clause = CompiledClause::compile(&[
        Constraint::ge(shared.clone() * x.clone() + y.clone().powi(2), -0.5),
        Constraint::le(shared * 2.0 + x.clone().sin(), 1.5),
    ]);
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

/// The specialized loop: region specialization (per-depth view derivation over
/// pooled `TapeView`s) plus derivative-guided cuts must also run
/// allocation-free once warm.  The gradient bundle compiles lazily on first
/// use, so `ensure_gradients` is part of the warm-up.
#[test]
fn specialization_and_newton_steady_state_does_not_allocate() {
    let _serial = serialize();
    let x = Expr::var(0);
    let y = Expr::var(1);
    // A ring equality keeps the search tree deep (the interval-Newton step
    // narrows but cannot collapse dimensions), the `min`/`abs` constraint
    // gives specialization choices to decide, and the third constraint is
    // satisfied on most sub-regions, exercising atom dropping.
    let clause = CompiledClause::compile(&[
        Constraint::eq(
            x.clone().powi(2) + y.clone().powi(2) + (x.clone() * 5.0).sin() * 0.2,
            1.0,
        ),
        Constraint::ge((x.clone().abs() + 2.0).min(y.clone() + 4.0), 0.5),
        Constraint::le(y.clone().tanh() * 0.25 + x.clone() * 0.01, 2.0),
    ]);
    clause.ensure_gradients();
    let mut scratch = clause.scratch();
    let mut spec_scratch = SpecializeScratch::default();
    let domain = IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]);

    // The solver's sequential loop body, including the view stack.
    let mut stack: Vec<(IntervalBox, u32)> = vec![(domain.clone(), 0)];
    let mut pool: Vec<IntervalBox> = Vec::new();
    let mut views: Vec<TapeView> = Vec::new();
    let mut view_pool: Vec<TapeView> = Vec::new();
    let run = |stack: &mut Vec<(IntervalBox, u32)>,
               pool: &mut Vec<IntervalBox>,
               views: &mut Vec<TapeView>,
               view_pool: &mut Vec<TapeView>,
               scratch: &mut nncps_deltasat::ClauseScratch,
               spec_scratch: &mut SpecializeScratch,
               boxes: usize| {
        let mut explored = 0;
        while let Some((mut region, depth)) = stack.pop() {
            explored += 1;
            while views.len() > depth as usize {
                view_pool.push(views.pop().unwrap());
            }
            let mut retire = false;
            for _pass in 0..3 {
                let view = (depth > 0).then(|| &views[depth as usize - 1]);
                if !clause.contract_with_view(view, &mut region, 4, scratch) || region.is_empty() {
                    retire = true;
                    break;
                }
                match clause.feasibility_with_view(view, &region, scratch) {
                    ClauseFeasibility::Violated | ClauseFeasibility::Satisfied => {
                        retire = true;
                        break;
                    }
                    ClauseFeasibility::Undecided => {}
                }
                match clause.derivative_cuts(&mut region, scratch) {
                    CutOutcome::Infeasible => {
                        retire = true;
                        break;
                    }
                    CutOutcome::Unchanged => break,
                    CutOutcome::Narrowed => {}
                }
            }
            if retire || region.max_width() <= 1e-7 {
                pool.push(region);
            } else {
                let child_depth = if (depth as usize) < 64 {
                    let parent = (depth > 0).then(|| &views[depth as usize - 1]);
                    let mut derived = view_pool.pop().unwrap_or_default();
                    if clause.respecialize(parent, scratch, spec_scratch, &mut derived) {
                        views.push(derived);
                        views.len() as u32
                    } else {
                        view_pool.push(derived);
                        depth
                    }
                } else {
                    depth
                };
                let mut right = pool.pop().unwrap_or_default();
                region.split_widest_into(&mut right);
                stack.push((right, child_depth));
                stack.push((region, child_depth));
            }
            if explored >= boxes {
                break;
            }
        }
    };

    // Warm-up: grow every buffer — clause scratch, gradient slots, view
    // stack, view pool, specialization scratch — to its high-water mark.
    run(
        &mut stack,
        &mut pool,
        &mut views,
        &mut view_pool,
        &mut scratch,
        &mut spec_scratch,
        400,
    );
    assert!(!stack.is_empty(), "warm-up must leave work pending");

    // Each attempt resets to the initial search state without freeing
    // anything, then re-runs the identical workload.
    assert_steady_state_allocation_free(
        || {
            while let Some((region, _)) = stack.pop() {
                pool.push(region);
            }
            while let Some(view) = views.pop() {
                view_pool.push(view);
            }
            let mut seed = pool.pop().expect("warm-up created boxes");
            seed.clone_from(&domain);
            stack.push((seed, 0));
            let before = allocations();
            run(
                &mut stack,
                &mut pool,
                &mut views,
                &mut view_pool,
                &mut scratch,
                &mut spec_scratch,
                400,
            );
            allocations() - before
        },
        "the specialization + newton steady-state loop",
    );
}
