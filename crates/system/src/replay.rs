//! The check of a cycle-accurate plan's simulated passes, and its
//! `run_into` replay (see *Replay* on [`crate::SpmvPlan::run_into`]).

use crate::engine::{Executor, ValueKernel};
use crate::report::IterReport;

/// Every `AUDIT_STRIDE`-th replayed `run_into` pass of a plan is also
/// simulated in full and must reproduce the recorded report and the
/// kernel's `y` bit for bit. A constant, not an option: a model change
/// that makes timing depend on data fails loudly instead of replaying a
/// stale report.
const AUDIT_STRIDE: u64 = 64;

/// The first row where two result vectors differ in bits. Any NaN
/// matches any NaN: Rust leaves the sign and payload of a NaN that
/// arithmetic returns unspecified, even between two loops with the same
/// operation order.
fn first_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()))
}

/// A cycle-accurate plan's check buffer and `run_into` record.
#[derive(Default)]
pub(crate) struct Replay {
    /// The report of the plan's first `run_into`, kept if it replays.
    recorded: Option<IterReport>,
    /// `run_into` passes that returned `recorded`.
    replayed: u64,
    /// The other side of a check: the kernel's `y` of a simulated `run`
    /// vector, or the simulated `y` of an audited replay.
    check_y: Vec<f64>,
}

impl Replay {
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    /// `true` iff the simulated `y` of `x` carries `kernel`'s bits.
    pub(crate) fn verifies(&mut self, kernel: ValueKernel<'_>, x: &[f64], y: &[f64]) -> bool {
        self.check_y.resize(y.len(), 0.0);
        kernel.apply(x, &mut self.check_y);
        first_mismatch(y, &self.check_y).is_none()
    }

    /// One cycle-accurate `run_into` pass of the plan labelled `label`:
    /// simulated until there is a record, replayed and audited after.
    pub(crate) fn run_into(
        &mut self,
        sys: &mut dyn Executor,
        label: &str,
        x: &[f64],
        y: &mut [f64],
    ) -> IterReport {
        let Some(recorded) = self.recorded else {
            let report = sys.simulate(&[x], &mut [y]);
            if sys.timing_is_constant() {
                self.recorded = Some(report);
            }
            return report;
        };
        sys.value_kernel().apply(x, y);
        self.replayed += 1;
        if cfg!(debug_assertions) || self.replayed.is_multiple_of(AUDIT_STRIDE) {
            // The audit: the full simulation must reproduce both.
            self.check_y.resize(y.len(), 0.0);
            let simulated = sys.simulate(&[x], &mut [self.check_y.as_mut_slice()]);
            let row = first_mismatch(y, &self.check_y);
            assert!(
                simulated == recorded && row.is_none(),
                "replay audit of {label} failed on replayed pass {}: recorded {recorded:?}, \
                 simulated {simulated:?}; {}",
                self.replayed,
                row.map_or("y matches".to_string(), |r| format!(
                    "y[{r}] is {:e} from the kernel, {:e} simulated",
                    y[r], self.check_y[r]
                )),
            );
        }
        recorded
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use nmpic_sparse::gen::banded_fem;
    use nmpic_sparse::Csr;

    use super::*;
    use crate::engine::PlanFacts;
    use crate::{SpmvEngine, SpmvPlan};

    /// What a [`Probe`]'s simulation gets wrong, if anything.
    pub(crate) enum Fault {
        None,
        /// A pass takes `x[0]` cycles — the case replay must never meet.
        TimingFollowsX,
        /// Every simulated `y[17]` is one ulp above the kernel's.
        OneUlpOff,
    }

    /// A CSR system of 7 cycles per pass with a [`Fault`]; counts its passes.
    struct Probe {
        csr: Csr,
        fault: Fault,
        simulated: Arc<AtomicU64>,
    }

    impl Executor for Probe {
        fn facts(&self) -> PlanFacts {
            PlanFacts::of_csr("probe".to_string(), &self.csr)
        }

        fn value_kernel(&self) -> ValueKernel<'_> {
            ValueKernel::Csr(&self.csr)
        }

        fn simulate(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
            // Relaxed: a counter read by the same thread after the run.
            self.simulated.fetch_add(1, Ordering::Relaxed);
            self.csr.spmv_into(xs[0], ys[0]);
            if matches!(self.fault, Fault::OneUlpOff) {
                ys[0][17] = f64::from_bits(ys[0][17].to_bits() + 1);
            }
            let timing_follows_x = matches!(self.fault, Fault::TimingFollowsX);
            IterReport {
                cycles: if timing_follows_x { xs[0][0] as u64 } else { 7 },
                ..IterReport::default()
            }
        }

        fn model(&mut self, _vectors: usize) -> IterReport {
            unreachable!("probe plans are cycle-accurate")
        }

        fn timing_is_constant(&self) -> bool {
            true
        }
    }

    /// A cycle-accurate probe plan over `csr`, and its pass counter.
    pub(crate) fn probe_plan(csr: &Csr, fault: Fault) -> (SpmvPlan, Arc<AtomicU64>) {
        let simulated = Arc::default();
        let plan = SpmvEngine::builder().build().plan(Probe {
            csr: csr.clone(),
            fault,
            simulated: Arc::clone(&simulated),
        });
        (plan, simulated)
    }

    /// Runs `passes` `run_into` calls with distinct vectors on a probe
    /// plan; returns the plan and how many passes it simulated.
    fn probe_passes(fault: Fault, passes: u64) -> (SpmvPlan, u64) {
        let csr = banded_fem(64, 4, 8, 1);
        let (mut plan, simulated) = probe_plan(&csr, fault);
        let mut y = vec![0.0; csr.rows()];
        for k in 0..passes {
            let x: Vec<f64> = (0..csr.cols()).map(|i| (i as u64 + k) as f64).collect();
            plan.run_into(&x, &mut y);
            if k > 0 {
                assert_eq!(y, csr.spmv(&x), "replayed pass {k}");
            }
        }
        // Relaxed: every increment happened on this thread.
        (plan, simulated.load(Ordering::Relaxed))
    }

    /// The first pass simulates; of the replayed ones, release builds
    /// simulate every 64th again and debug builds every one.
    #[test]
    fn the_audit_simulates_every_64th_replayed_pass() {
        let replays = 2 * AUDIT_STRIDE + 5;
        let (plan, simulated) = probe_passes(Fault::None, 1 + replays);
        assert_eq!(plan.replayed_passes(), replays);
        let audits = if cfg!(debug_assertions) { replays } else { 2 };
        assert_eq!(simulated, 1 + audits);
    }

    #[test]
    #[should_panic(expected = "replay audit of probe failed")]
    fn the_audit_catches_timing_that_depends_on_x() {
        probe_passes(Fault::TimingFollowsX, 1 + AUDIT_STRIDE);
    }

    #[test]
    #[should_panic(expected = "y[17] is")]
    fn the_audit_catches_a_one_ulp_deviation() {
        probe_passes(Fault::OneUlpOff, 1 + AUDIT_STRIDE);
    }
}
