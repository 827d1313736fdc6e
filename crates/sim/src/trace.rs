//! Time-stamped simulation traces.

use std::fmt;

/// One time-stamped sample of a [`Trace`]: `(t_k, x_k)`.
pub type Sample<'a> = (f64, &'a [f64]);

/// A simulation trace: a sequence of time-stamped states.
///
/// Traces are the raw material of the barrier-certificate synthesis: the
/// positivity and decrease constraints of the LP are generated from the
/// sampled states of one or more traces (Φs in the paper), and counterexample
/// traces (Φf) are appended after each SMT refutation.
///
/// The states are stored row-major in one flat buffer (sample `k` occupies
/// `dim` consecutive values), so recording a sample copies a slice and
/// allocates only when the buffer grows.
///
/// # Examples
///
/// ```
/// use nncps_sim::Trace;
///
/// let mut trace = Trace::new(2);
/// trace.push(0.0, &[1.0, 0.0]);
/// trace.push(0.1, &[0.9, -0.1]);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.final_state(), &[0.9, -0.1]);
/// assert_eq!(trace.consecutive_pairs().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    dim: usize,
    times: Vec<f64>,
    /// Sample `k`'s state is `states[k * dim..(k + 1) * dim]`.
    states: Vec<f64>,
}

impl Trace {
    /// Creates an empty trace for states of the given dimension.
    pub fn new(dim: usize) -> Self {
        Trace::with_capacity(dim, 0)
    }

    /// Creates an empty trace with room for `samples` samples before it
    /// reallocates.
    pub fn with_capacity(dim: usize, samples: usize) -> Self {
        Trace {
            dim,
            times: Vec::with_capacity(samples),
            states: Vec::with_capacity(samples * dim),
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples in the trace.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if the state has the wrong dimension or the time is smaller
    /// than the previous sample's time.
    pub fn push(&mut self, time: f64, state: &[f64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "trace times must be non-decreasing");
        }
        self.times.push(time);
        self.states.extend_from_slice(state);
    }

    /// The sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Iterator over the sampled states, in sample order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.len()).map(move |k| self.state(k))
    }

    /// The state at sample `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn state(&self, index: usize) -> &[f64] {
        assert!(index < self.len(), "sample index out of range");
        &self.states[index * self.dim..(index + 1) * self.dim]
    }

    /// The first state of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn initial_state(&self) -> &[f64] {
        assert!(!self.is_empty(), "trace is empty");
        self.state(0)
    }

    /// The last state of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn final_state(&self) -> &[f64] {
        assert!(!self.is_empty(), "trace is empty");
        self.state(self.len() - 1)
    }

    /// Total simulated duration (last time minus first time), `0` when fewer
    /// than two samples exist.
    pub fn duration(&self) -> f64 {
        match (self.times.first(), self.times.last()) {
            (Some(first), Some(last)) => last - first,
            _ => 0.0,
        }
    }

    /// Iterator over consecutive sample pairs `((t_k, x_k), (t_{k+1}, x_{k+1}))`,
    /// the unit from which decrease constraints are generated.
    pub fn consecutive_pairs(&self) -> impl Iterator<Item = (Sample<'_>, Sample<'_>)> + '_ {
        (0..self.len().saturating_sub(1)).map(move |k| {
            (
                (self.times[k], self.state(k)),
                (self.times[k + 1], self.state(k + 1)),
            )
        })
    }

    /// Iterator over `(time, state)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> + '_ {
        self.times.iter().copied().zip(self.states())
    }

    /// Maximum absolute value attained by state component `component` over
    /// the trace, or `None` for an empty trace.
    ///
    /// # Panics
    ///
    /// Panics if `component >= self.dim()`.
    pub fn max_abs_component(&self, component: usize) -> Option<f64> {
        assert!(component < self.dim, "component index out of range");
        self.states()
            .map(|s| s[component].abs())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Returns a copy of the trace keeping at most `max_samples` evenly spaced
    /// samples (always including the first and last sample).
    ///
    /// The LP synthesis only needs a representative subset of each trajectory;
    /// downsampling bounds the number of LP rows (each one is priced at every
    /// simplex pivot) without changing the qualitative constraints.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples < 2`.
    pub fn downsampled(&self, max_samples: usize) -> Trace {
        assert!(max_samples >= 2, "need at least two samples");
        if self.len() <= max_samples {
            return self.clone();
        }
        let mut out = Trace::with_capacity(self.dim, max_samples);
        let last = self.len() - 1;
        for k in 0..max_samples {
            let index = (k as f64 / (max_samples - 1) as f64 * last as f64).round() as usize;
            out.push(self.times[index], self.state(index));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace with {} samples over {:.3}s in {}D",
            self.len(),
            self.duration(),
            self.dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut trace = Trace::with_capacity(2, 3);
        trace.push(0.0, &[1.0, 0.0]);
        trace.push(0.1, &[0.9, -0.2]);
        trace.push(0.2, &[0.7, -0.3]);
        trace
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample_trace();
        assert_eq!(t.dim(), 2);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.initial_state(), &[1.0, 0.0]);
        assert_eq!(t.final_state(), &[0.7, -0.3]);
        assert_eq!(t.state(1), &[0.9, -0.2]);
        assert!((t.duration() - 0.2).abs() < 1e-15);
        assert_eq!(t.times().len(), 3);
        assert_eq!(t.states().len(), 3);
        assert_eq!(t.states().nth(2), Some(&[0.7, -0.3][..]));
        assert_eq!(Trace::new(3).duration(), 0.0);
        assert!(format!("{t}").contains("3 samples"));
    }

    #[test]
    fn pairs_and_iteration() {
        let t = sample_trace();
        let pairs: Vec<_> = t.consecutive_pairs().collect();
        assert_eq!(pairs.len(), 2);
        let ((t0, s0), (t1, s1)) = pairs[0];
        assert_eq!(t0, 0.0);
        assert_eq!(t1, 0.1);
        assert_eq!(s0, &[1.0, 0.0]);
        assert_eq!(s1, &[0.9, -0.2]);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn max_abs_component() {
        let t = sample_trace();
        assert_eq!(t.max_abs_component(0), Some(1.0));
        assert_eq!(t.max_abs_component(1), Some(0.3));
        assert_eq!(Trace::new(1).max_abs_component(0), None);
    }

    #[test]
    fn downsampling_keeps_endpoints_and_bounds_length() {
        let mut t = Trace::new(1);
        for k in 0..101 {
            t.push(k as f64 * 0.1, &[k as f64]);
        }
        let d = t.downsampled(11);
        assert_eq!(d.len(), 11);
        assert_eq!(d.initial_state(), t.initial_state());
        assert_eq!(d.final_state(), t.final_state());
        // Times stay non-decreasing and within the original range.
        assert!(d.times().windows(2).all(|w| w[0] <= w[1]));
        // A short trace is returned unchanged.
        let short = sample_trace();
        assert_eq!(short.downsampled(10), short);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn downsampling_to_one_sample_panics() {
        let _ = sample_trace().downsampled(1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_state_dimension_panics() {
        let mut t = Trace::new(2);
        t.push(0.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_times_panic() {
        let mut t = Trace::new(1);
        t.push(1.0, &[0.0]);
        t.push(0.5, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "trace is empty")]
    fn final_state_of_empty_trace_panics() {
        let _ = Trace::new(1).final_state();
    }
}
