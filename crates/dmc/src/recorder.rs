//! Coverage sampling shared by all simulation algorithms.
//!
//! A [`Recorder`] samples the per-species coverage fractions on a fixed
//! simulated-time grid as the simulation sweeps past each grid point, and
//! exposes one [`TimeSeries`] per species — the raw material for every
//! coverage-vs-time figure (Figs 8–10).

use crate::rsm::RunStats;
use crate::sim::SimState;
use psr_lattice::Coverage;
use psr_stats::TimeSeries;

/// Samples coverage fractions every `sample_dt` simulated time units.
#[derive(Clone, Debug)]
pub struct Recorder {
    sample_dt: f64,
    next_sample: f64,
    series: Vec<TimeSeries>,
}

impl Recorder {
    /// A recorder for `num_states` species sampling every `sample_dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `sample_dt > 0` and `num_states > 0`.
    pub fn new(num_states: usize, sample_dt: f64) -> Self {
        assert!(
            sample_dt > 0.0 && sample_dt.is_finite(),
            "sample_dt must be positive"
        );
        assert!(num_states > 0, "need at least one state");
        Recorder {
            sample_dt,
            next_sample: 0.0,
            series: vec![TimeSeries::new(); num_states],
        }
    }

    /// Record samples for every grid point `<= time` that has not been
    /// sampled yet, using the current coverage (the state is piecewise
    /// constant between events, so the value at the grid point is the value
    /// now *before* applying the event that moved time past it — call this
    /// BEFORE mutating state when `time` is the post-advance clock, or
    /// simply accept one-event granularity, which is what we do: coverage
    /// changes by at most a few sites per event).
    pub fn record(&mut self, time: f64, coverage: &Coverage) {
        // The relative epsilon absorbs float accumulation in discretised
        // time (N additions of 1/(N·K) may land just below a grid point).
        let time = time + 1e-9 * self.sample_dt;
        while self.next_sample <= time {
            let t = self.next_sample;
            for (state, series) in self.series.iter_mut().enumerate() {
                series.push(t, coverage.fraction(state as u8));
            }
            self.next_sample += self.sample_dt;
        }
    }

    /// Record samples for every grid point strictly below `time`.
    ///
    /// Used by event-driven algorithms: the state is constant on `[t, t')`
    /// between events, so grid points inside that interval take the
    /// *pre-event* coverage; a grid point at exactly `t'` takes the
    /// post-event coverage via a later [`record`](Self::record) call.
    pub fn record_until(&mut self, time: f64, coverage: &Coverage) {
        while self.next_sample < time {
            let t = self.next_sample;
            for (state, series) in self.series.iter_mut().enumerate() {
                series.push(t, coverage.fraction(state as u8));
            }
            self.next_sample += self.sample_dt;
        }
    }

    /// The sampled series for one species id.
    pub fn series(&self, state: u8) -> &TimeSeries {
        &self.series[state as usize]
    }

    /// All series, indexed by species id.
    pub fn all_series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Sum of several species' series (e.g. total CO = hex CO + square CO
    /// in the Kuzovkov model). Series share the same time grid.
    pub fn combined_series(&self, states: &[u8]) -> TimeSeries {
        let mut out = TimeSeries::new();
        if states.is_empty() || self.series[states[0] as usize].is_empty() {
            return out;
        }
        let times = self.series[states[0] as usize].times().to_vec();
        for (i, &t) in times.iter().enumerate() {
            let sum: f64 = states
                .iter()
                .map(|&s| self.series[s as usize].values()[i])
                .sum();
            out.push(t, sum);
        }
        out
    }

    /// The sampling interval.
    pub fn sample_dt(&self) -> f64 {
        self.sample_dt
    }
}

/// The whole-step driver of the step-wise executors: sample, then `steps`
/// times advance one step with `step`, add up its stats and sample again.
pub fn drive_steps(
    state: &mut SimState,
    steps: u64,
    mut recorder: Option<&mut Recorder>,
    mut step: impl FnMut(&mut SimState) -> RunStats,
) -> RunStats {
    let mut stats = RunStats::default();
    if let Some(rec) = recorder.as_deref_mut() {
        rec.record(state.time, &state.coverage);
    }
    for _ in 0..steps {
        stats += step(state);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
    }
    stats
}

/// [`drive_steps`] for as many whole steps as it takes the clock to reach
/// `t_end`, for a model of total rate `total_rate`; samples past `t_end`
/// are clamped onto it.
pub fn drive_until(
    state: &mut SimState,
    t_end: f64,
    total_rate: f64,
    mut recorder: Option<&mut Recorder>,
    mut step: impl FnMut(&mut SimState) -> RunStats,
) -> RunStats {
    let mut stats = RunStats::default();
    if let Some(rec) = recorder.as_deref_mut() {
        rec.record(state.time, &state.coverage);
    }
    // Half-a-trial tolerance: with discretised time, N float additions
    // of 1/(N K) can land just below t_end and would trigger a spurious
    // extra step.
    let eps = 0.5 / (state.num_sites() as f64 * total_rate);
    while state.time < t_end - eps {
        stats += step(state);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time.min(t_end), &state.coverage);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_on_grid() {
        let mut r = Recorder::new(2, 1.0);
        let c = Coverage::uniform(10, 2, 0);
        r.record(0.0, &c); // t=0 grid point
        r.record(2.5, &c); // grid points 1.0, 2.0
        assert_eq!(r.series(0).times(), &[0.0, 1.0, 2.0]);
        assert_eq!(r.series(0).values(), &[1.0, 1.0, 1.0]);
        assert_eq!(r.series(1).values(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn no_duplicate_grid_points() {
        let mut r = Recorder::new(1, 0.5);
        let c = Coverage::uniform(4, 1, 0);
        r.record(0.4, &c);
        r.record(0.4, &c);
        r.record(0.6, &c);
        assert_eq!(r.series(0).times(), &[0.0, 0.5]);
    }

    #[test]
    fn combined_series_sums_species() {
        let mut r = Recorder::new(3, 1.0);
        let mut c = Coverage::uniform(4, 3, 0);
        c.transition(0, 1);
        c.transition(0, 2);
        r.record(0.0, &c);
        let combined = r.combined_series(&[1, 2]);
        assert_eq!(combined.values(), &[0.5]);
    }

    #[test]
    fn empty_recorder_combined_is_empty() {
        let r = Recorder::new(2, 1.0);
        assert!(r.combined_series(&[0, 1]).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_panics() {
        Recorder::new(1, 0.0);
    }
}
