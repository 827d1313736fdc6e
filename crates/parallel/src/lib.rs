//! Order-preserving scoped-thread map: the workspace's `rayon` stand-in.
//!
//! The workspace builds without registry access, so instead of `rayon` the
//! data-parallel layers of the simulator (batch trace collection), the
//! CMA-ES optimizer (population evaluation), and the scenario runner share
//! this small work-claiming loop on `std::thread::scope`:
//! workers atomically claim item indices, compute into thread-local buffers,
//! and the results are stitched back together in input order, so the output
//! is identical to the sequential map regardless of scheduling.
//!
//! Disabling the `threads` feature turns [`parallel_map`] into a plain
//! sequential map with an unchanged signature; the downstream crates expose
//! this as their `parallel` feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod govern;
pub mod pool;

pub use govern::{Budget, ExhaustionReason};
pub use pool::WorkerPool;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread-count knob: `0` means "one per available core".
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Maps `f` over `items` using up to `threads` worker threads, preserving
/// input order in the output.
///
/// Falls back to a plain sequential map when `threads <= 1`, when there is at
/// most one item, or when the `threads` feature is disabled (the signature —
/// including the `Sync`/`Send` bounds — is identical either way, so callers
/// do not need their own feature gates).
///
/// # Examples
///
/// ```
/// use nncps_parallel::parallel_map;
///
/// let squares = parallel_map(&[1, 2, 3, 4], 0, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if !cfg!(feature = "threads") || threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, f(&items[index])));
                    }
                    local
                })
            })
            .collect();
        // A worker's panic resumes on the caller's thread with its own
        // payload, exactly as it would have surfaced on the sequential path.
        per_worker = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, value) in per_worker.into_iter().flatten() {
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// The structured remains of one panicked [`parallel_map_isolated`] item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crash {
    /// The panic payload, downcast to a string when possible.
    pub payload: String,
}

impl Crash {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let payload = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Crash { payload }
    }
}

impl std::fmt::Display for Crash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.payload)
    }
}

/// Runs `f`, converting a panic into an `Err(Crash)` with the payload
/// downcast to a string when possible.  This is the single-item form of
/// [`parallel_map_isolated`], for callers that schedule work themselves
/// (e.g. jobs on a [`WorkerPool`]).
///
/// # Examples
///
/// ```
/// use nncps_parallel::catch_crash;
///
/// assert_eq!(catch_crash(|| 21 * 2).unwrap(), 42);
/// let crash = catch_crash(|| -> i32 { panic!("boom") }).unwrap_err();
/// assert_eq!(crash.payload, "boom");
/// ```
pub fn catch_crash<R>(f: impl FnOnce() -> R) -> Result<R, Crash> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(Crash::from_payload)
}

/// Like [`parallel_map`], but isolates panics: a panicking `f(item)` becomes
/// an `Err(Crash)` in that item's output slot instead of tearing down the
/// whole map.  Output order still matches input order, and the non-panicking
/// items' results are exactly what [`parallel_map`] would have produced.
///
/// `f` must not hold locks across the closure body that sibling items also
/// take, or a panic can poison them — the sweep engine's caches recover from
/// poisoning for exactly this reason.
///
/// # Examples
///
/// ```
/// use nncps_parallel::parallel_map_isolated;
///
/// let out = parallel_map_isolated(&[1, 2, 3], 1, |&x| {
///     assert!(x != 2, "two is right out");
///     x * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert!(out[1].as_ref().unwrap_err().payload.contains("two is right out"));
/// assert_eq!(out[2].as_ref().unwrap(), &30);
/// ```
pub fn parallel_map_isolated<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, Crash>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map(items, threads, |item| catch_crash(|| f(item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_in_order() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 7] {
            assert_eq!(parallel_map(&items, threads, |&x| x * x), expected);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        for threads in [1, 4] {
            let crash = catch_crash(|| {
                parallel_map(&[1, 2, 3, 4], threads, |&x| {
                    assert_ne!(x, 3, "item three");
                    x
                })
            })
            .unwrap_err();
            assert!(crash.payload.contains("item three"), "{threads} threads");
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn isolated_map_contains_panics_and_preserves_order() {
        let items: Vec<usize> = (0..31).collect();
        for threads in [1, 4] {
            let out = parallel_map_isolated(&items, threads, |&x| {
                if x % 7 == 3 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, slot) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let crash = slot.as_ref().unwrap_err();
                    assert_eq!(crash.payload, format!("poisoned item {i}"));
                    assert!(crash.to_string().contains("panicked"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * 2));
                }
            }
        }
    }

    #[test]
    fn isolated_map_matches_plain_map_without_panics() {
        let items: Vec<i64> = (0..50).collect();
        let plain = parallel_map(&items, 3, |&x| x * x);
        let isolated: Vec<i64> = parallel_map_isolated(&items, 3, |&x| x * x)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(plain, isolated);
    }

    #[test]
    fn crash_payload_downcasts_string_payloads() {
        let out = parallel_map_isolated(&[0], 1, |_| -> () {
            std::panic::panic_any(format!("owned {}", 42));
        });
        assert_eq!(out[0].as_ref().unwrap_err().payload, "owned 42");
        let opaque = parallel_map_isolated(&[0], 1, |_| -> () {
            std::panic::panic_any(7usize);
        });
        assert_eq!(
            opaque[0].as_ref().unwrap_err().payload,
            "non-string panic payload"
        );
    }
}
