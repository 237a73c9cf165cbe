//! Iterative-solver workloads on resident plans: conjugate gradient and
//! power iteration driving [`SpmvPlan::run_into`].
//!
//! SpMV dominates iterative kernels — CG solves, PageRank-style power
//! iteration — where the *same* matrix is applied hundreds of times.
//! That is the workload shape the paper's near-memory indexing unit (and
//! SparseP-style PIM SpMV systems) is evaluated against, and exactly
//! what the session API's build-once [`SpmvPlan`] was made for: the
//! matrix image, partition and DRAM layout are prepared once, and every
//! iteration pays only the SpMV itself through the zero-realloc
//! [`SpmvPlan::run_into`] hot path (the `x` region is rewritten in
//! place, the result lands in a solver-owned preallocated buffer).
//!
//! Two methods:
//!
//! * [`Solver::cg`] — conjugate gradient for symmetric positive-definite
//!   systems `A·x = b`, the canonical SpMV-bound solver. One simulated
//!   SpMV per iteration; all other work is dense vector arithmetic the
//!   host VPC performs out of registers/L2 and is not simulated.
//! * [`Solver::power_iteration`] — dominant eigenpair by repeated
//!   application, with optional PageRank-style damping
//!   ([`SolveOptions::damping`]): the operator becomes
//!   `d·A + (1−d)/n·𝟙𝟙ᵀ`, applied matrix-free.
//!
//! Every iteration's simulated cycle and traffic cost accumulates into
//! the returned [`SolveReport`], so experiments can report
//! iterations-to-tolerance, total simulated cycles and amortized GB/s
//! per iteration for each system kind. On a cycle-accurate pack or
//! sharded plan only the first SpMV is simulated; later ones replay its
//! report with values from the native kernel, audited (see *Replay* on
//! [`SpmvPlan::run_into`]). [`SolveReport::replayed_iterations`] says
//! how many did.
//!
//! # Example
//!
//! ```
//! use nmpic_sparse::gen::spd;
//! use nmpic_system::{SolveOptions, Solver, SpmvEngine, SystemKind};
//!
//! let a = spd(96, 6, 8, 1);
//! let engine = SpmvEngine::builder().system(SystemKind::Base).build();
//! let mut plan = engine.prepare(&a);
//! let b = vec![1.0; 96];
//! let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
//! assert!(r.converged && r.residual <= 1e-10);
//! // The solution satisfies A·x = b.
//! let back = a.spmv(&r.x);
//! assert!(back.iter().zip(&b).all(|(y, b)| (y - b).abs() < 1e-8));
//! ```

use crate::engine::SpmvPlan;
use crate::report::IterReport;

/// Tuning knobs shared by both solver methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Iteration cap; a solve that reaches it without meeting `tol`
    /// comes back with [`SolveReport::converged`]` == false` rather than
    /// panicking (non-convergence is a result, not a bug).
    pub max_iters: usize,
    /// Convergence tolerance: CG stops when the 2-norm of the residual
    /// `b − A·x` drops to `tol` or below; power iteration stops when the
    /// eigen-residual `‖M·v − λ·v‖₂` does.
    pub tol: f64,
    /// Power-iteration damping factor `d ∈ (0, 1]`. At `1.0` (default)
    /// the plain matrix is iterated; below it the PageRank operator
    /// `d·A + (1−d)/n·𝟙𝟙ᵀ` is, applied matrix-free (the rank-one term
    /// never touches the simulated memory system). Ignored by CG.
    pub damping: f64,
}

impl Default for SolveOptions {
    /// The experiment defaults: the paper-style `1e-10` tolerance with a
    /// generous iteration cap.
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-10,
            damping: 1.0,
        }
    }
}

/// Result of one iterative solve, with the per-iteration simulated cost
/// accumulated across every [`SpmvPlan::run_into`] call the solve made.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The plan's system label (`base`, `pack256`, `sharded x4 (...)`).
    pub label: String,
    /// `"cg"` or `"power"`.
    pub method: &'static str,
    /// Iterations executed (= SpMVs through [`SpmvPlan::run_into`]).
    pub iterations: usize,
    /// Iterations whose SpMV was simulated cycle by cycle.
    pub simulated_iterations: usize,
    /// Iterations whose SpMV replayed the plan's recorded report, with
    /// `y` from the native kernel (see *Replay* on
    /// [`SpmvPlan::run_into`]). `simulated_iterations +
    /// replayed_iterations == iterations`.
    pub replayed_iterations: usize,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Final residual norm (CG: `‖b − A·x‖₂`; power: `‖M·v − λ·v‖₂`).
    pub residual: f64,
    /// Residual norm after each iteration — the convergence trajectory
    /// (bitwise identical across backends and worker counts, pinned by
    /// tests).
    pub residuals: Vec<f64>,
    /// The solution (CG) or unit-norm dominant eigenvector (power).
    pub x: Vec<f64>,
    /// Rayleigh-quotient eigenvalue estimate (power iteration only).
    pub eigenvalue: Option<f64>,
    /// Total simulated cycles across all SpMV iterations.
    pub spmv_cycles: u64,
    /// Total simulated indirect-access cycles.
    pub indir_cycles: u64,
    /// Total simulated off-chip bytes moved.
    pub offchip_bytes: u64,
}

impl SolveReport {
    /// Amortized simulated SpMV cost per iteration, in cycles.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.spmv_cycles as f64 / self.iterations as f64
        }
    }

    /// Amortized off-chip traffic per iteration, in bytes.
    pub fn bytes_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.offchip_bytes as f64 / self.iterations as f64
        }
    }

    /// Amortized delivered off-chip bandwidth across the whole solve, in
    /// GB/s at 1 GHz — the sustained rate an iterative workload sees
    /// from the memory system.
    pub fn gbps(&self) -> f64 {
        if self.spmv_cycles == 0 {
            0.0
        } else {
            self.offchip_bytes as f64 / self.spmv_cycles as f64
        }
    }

    fn absorb(&mut self, iter: IterReport) {
        self.iterations += 1;
        self.spmv_cycles += iter.cycles;
        self.indir_cycles += iter.indir_cycles;
        self.offchip_bytes += iter.offchip_bytes;
    }

    /// Splits `iterations` by `plan`'s replay counter, which read
    /// `replayed_before` when the solve started.
    fn count_replays(mut self, plan: &SpmvPlan, replayed_before: u64) -> Self {
        self.replayed_iterations = (plan.replayed_passes() - replayed_before) as usize;
        self.simulated_iterations = self.iterations - self.replayed_iterations;
        self
    }
}

/// Iterative solvers over a prepared [`SpmvPlan`]. Stateless — both
/// methods take the plan by `&mut` (the plan's resident memory image is
/// the state) and allocate their working vectors once up front.
pub struct Solver;

impl Solver {
    /// Solves the symmetric positive-definite system `A·x = b` by
    /// conjugate gradient, starting from `x₀ = 0`, one simulated SpMV
    /// (`A·p` via [`SpmvPlan::run_into`]) per iteration.
    ///
    /// The residual recurrence (`r ← r − α·A·p`) and the explicit
    /// residual (`b − A·x`) agree to rounding for SPD inputs; the
    /// recurrence is what `residuals` records, as in textbook CG. A
    /// breakdown (`p·A·p ≤ 0` or non-finite — the matrix was not SPD)
    /// stops the iteration with `converged == false`.
    ///
    /// The trajectory is a pure function of the plan's SpMV bytes:
    /// backends, shard worker counts and `run` vs `run_into` all produce
    /// bit-identical iterates (pinned by `crates/system/tests/solve.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the prepared matrix is not square or `b.len()` differs
    /// from its dimension. (Symmetry is the caller's contract — check
    /// with [`nmpic_sparse::Csr::is_symmetric`] where it is in doubt;
    /// the solver itself only sees the plan.)
    pub fn cg(plan: &mut SpmvPlan, b: &[f64], opts: &SolveOptions) -> SolveReport {
        let n = square_dim(plan);
        assert_eq!(b.len(), n, "right-hand side length must equal rows");
        let replayed_before = plan.replayed_passes();
        let mut report = SolveReport {
            label: plan.label(),
            method: "cg",
            iterations: 0,
            simulated_iterations: 0,
            replayed_iterations: 0,
            converged: false,
            residual: 0.0,
            residuals: Vec::new(),
            x: vec![0.0; n],
            eigenvalue: None,
            spmv_cycles: 0,
            indir_cycles: 0,
            offchip_bytes: 0,
        };
        // x₀ = 0 ⇒ r₀ = b, p₀ = r₀. All buffers allocated here, once.
        let mut r: Vec<f64> = b.to_vec();
        let mut p: Vec<f64> = b.to_vec();
        let mut ap: Vec<f64> = vec![0.0; n];
        let mut rs = dot(&r, &r);
        report.residual = rs.sqrt();
        if report.residual <= opts.tol {
            // b = 0 (or already below tolerance): x = 0 solves it.
            report.converged = true;
            return report;
        }
        for _ in 0..opts.max_iters {
            report.absorb(plan.run_into(&p, &mut ap));
            let pap = dot(&p, &ap);
            // `p·A·p` must be strictly positive and finite for an SPD
            // matrix; anything else (including NaN) is a breakdown. The
            // SpMV still ran (and was counted by `absorb`), so record
            // the unchanged residual to keep
            // `residuals.len() == iterations`.
            if pap.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !pap.is_finite() {
                report.residuals.push(report.residual);
                break;
            }
            let alpha = rs / pap;
            for i in 0..n {
                report.x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rs_next = dot(&r, &r);
            report.residual = rs_next.sqrt();
            report.residuals.push(report.residual);
            if !report.residual.is_finite() {
                break;
            }
            if report.residual <= opts.tol {
                report.converged = true;
                break;
            }
            let beta = rs_next / rs;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            rs = rs_next;
        }
        report.count_replays(plan, replayed_before)
    }

    /// Computes the dominant eigenpair of the (optionally damped)
    /// operator by power iteration, one simulated SpMV per iteration.
    ///
    /// Starts from the uniform unit vector. Each iteration applies
    /// `M·v = d·(A·v) + ((1−d)/n)·Σv` (the second term is the PageRank
    /// teleport, computed matrix-free), estimates the eigenvalue by the
    /// Rayleigh quotient `λ = v·M·v` (v unit-norm), and records the
    /// eigen-residual `‖M·v − λ·v‖₂`. Convergence
    /// (eigen-residual ≤ [`SolveOptions::tol`]) is checked **before**
    /// the iterate renormalizes, so the returned
    /// `(x, eigenvalue, residual)` triple is self-consistent —
    /// `‖M·x − λ·x‖₂` really is the reported residual.
    ///
    /// # Panics
    ///
    /// Panics if the prepared matrix is not square, or if
    /// [`SolveOptions::damping`] is outside `(0, 1]`.
    pub fn power_iteration(plan: &mut SpmvPlan, opts: &SolveOptions) -> SolveReport {
        let n = square_dim(plan);
        assert!(
            opts.damping > 0.0 && opts.damping <= 1.0,
            "damping must be in (0, 1]"
        );
        let d = opts.damping;
        let replayed_before = plan.replayed_passes();
        let mut report = SolveReport {
            label: plan.label(),
            method: "power",
            iterations: 0,
            simulated_iterations: 0,
            replayed_iterations: 0,
            converged: false,
            residual: f64::INFINITY,
            residuals: Vec::new(),
            x: vec![1.0 / (n as f64).sqrt(); n],
            eigenvalue: None,
            spmv_cycles: 0,
            indir_cycles: 0,
            offchip_bytes: 0,
        };
        let mut mv: Vec<f64> = vec![0.0; n];
        for _ in 0..opts.max_iters {
            report.absorb(plan.run_into(&report.x, &mut mv));
            if d < 1.0 {
                let teleport = (1.0 - d) / n as f64 * report.x.iter().sum::<f64>();
                for v in mv.iter_mut() {
                    *v = d * *v + teleport;
                }
            }
            // v is unit-norm, so the Rayleigh quotient is just v·Mv.
            let lambda = dot(&report.x, &mv);
            report.eigenvalue = Some(lambda);
            let mut res2 = 0.0;
            for (&m, &x) in mv.iter().zip(report.x.iter()) {
                let e = m - lambda * x;
                res2 += e * e;
            }
            report.residual = res2.sqrt();
            report.residuals.push(report.residual);
            // Convergence is checked BEFORE the iterate advances so the
            // returned `(x, eigenvalue, residual)` triple is
            // self-consistent: the reported residual really is
            // `‖M·x − λ·x‖₂` for the returned `x`.
            if report.residual <= opts.tol {
                report.converged = true;
                break;
            }
            let norm = dot(&mv, &mv).sqrt();
            // A collapsed (A·v = 0) or diverged (NaN/inf) iterate ends
            // the solve; `partial_cmp` also catches the NaN case.
            if norm.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !norm.is_finite() {
                break;
            }
            for (x, &m) in report.x.iter_mut().zip(mv.iter()) {
                *x = m / norm;
            }
        }
        report.count_replays(plan, replayed_before)
    }
}

fn square_dim(plan: &SpmvPlan) -> usize {
    let (rows, cols) = (plan.rows(), plan.cols());
    assert_eq!(rows, cols, "iterative solvers need a square matrix");
    rows
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SpmvEngine, SystemKind};
    use crate::shard::PartitionStrategy;
    use nmpic_core::AdapterConfig;
    use nmpic_sparse::gen::{banded_fem, spd};

    fn plan_for(kind: SystemKind, a: &nmpic_sparse::Csr) -> SpmvPlan {
        SpmvEngine::builder().system(kind).build().prepare(a)
    }

    #[test]
    fn cg_converges_on_spd_and_solves_the_system() {
        let a = spd(128, 6, 10, 3);
        assert!(a.is_symmetric());
        let b: Vec<f64> = (0..128).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        let mut plan = plan_for(SystemKind::Base, &a);
        let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
        assert!(r.converged, "residual stalled at {}", r.residual);
        assert!(r.residual <= 1e-10);
        assert!(r.iterations > 0 && r.iterations <= 1000);
        assert_eq!(r.residuals.len(), r.iterations);
        assert_eq!(r.method, "cg");
        // Simulated cost accumulated across iterations.
        assert!(r.spmv_cycles > 0 && r.offchip_bytes > 0);
        assert!(r.indir_cycles <= r.spmv_cycles);
        assert!(r.cycles_per_iteration() > 0.0 && r.gbps() > 0.0);
        // The explicit residual agrees with the recurrence.
        let back = a.spmv(&r.x);
        let explicit: f64 = back
            .iter()
            .zip(&b)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            .sqrt();
        assert!(explicit < 1e-8, "explicit residual {explicit}");
    }

    #[test]
    fn cg_on_zero_rhs_converges_in_zero_iterations() {
        let a = spd(64, 4, 6, 1);
        let mut plan = plan_for(SystemKind::Base, &a);
        let r = Solver::cg(&mut plan, &vec![0.0; 64], &SolveOptions::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.residual, 0.0);
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.cycles_per_iteration(), 0.0);
        assert_eq!(r.gbps(), 0.0);
    }

    #[test]
    fn cg_reports_non_convergence_within_a_tiny_cap() {
        let a = spd(128, 6, 10, 7);
        let b = vec![1.0; 128];
        let mut plan = plan_for(SystemKind::Base, &a);
        let r = Solver::cg(
            &mut plan,
            &b,
            &SolveOptions {
                max_iters: 2,
                ..SolveOptions::default()
            },
        );
        assert!(!r.converged, "2 iterations cannot reach 1e-10");
        assert_eq!(r.iterations, 2);
        assert!(r.residual.is_finite() && r.residual > 1e-10);
    }

    #[test]
    fn cg_breaks_down_honestly_on_an_indefinite_matrix() {
        // banded_fem is diagonally dominant-ish but asymmetric/indefinite
        // is not guaranteed; build an explicitly indefinite symmetric
        // matrix: diag(+1, -1).
        let a = nmpic_sparse::Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, -1.0])
            .unwrap();
        let mut plan = plan_for(SystemKind::Base, &a);
        let r = Solver::cg(&mut plan, &[0.0, 1.0], &SolveOptions::default());
        // p·A·p = -1 < 0 on the first step: breakdown, not a panic.
        assert!(!r.converged);
        assert!(r.iterations <= 2);
        // The breakdown iteration still ran an SpMV (counted), so the
        // trajectory invariant holds even on the early exit.
        assert_eq!(r.residuals.len(), r.iterations);
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn cg_rejects_rectangular_plans() {
        let a = nmpic_sparse::gen::random_uniform(8, 16, 2, 1);
        let mut plan = plan_for(SystemKind::Base, &a);
        let _ = Solver::cg(&mut plan, &[1.0; 16], &SolveOptions::default());
    }

    #[test]
    #[should_panic(expected = "right-hand side length")]
    fn cg_rejects_mismatched_rhs() {
        let a = spd(16, 4, 4, 1);
        let mut plan = plan_for(SystemKind::Base, &a);
        let _ = Solver::cg(&mut plan, &[1.0; 3], &SolveOptions::default());
    }

    #[test]
    fn power_iteration_finds_the_dominant_eigenpair() {
        // SPD ⇒ the dominant eigenvalue is real positive and power
        // iteration converges to it.
        let a = spd(96, 6, 8, 5);
        let mut plan = plan_for(SystemKind::Pack(AdapterConfig::mlp(64)), &a);
        let r = Solver::power_iteration(
            &mut plan,
            &SolveOptions {
                tol: 1e-8,
                max_iters: 5000,
                ..SolveOptions::default()
            },
        );
        assert!(r.converged, "residual stalled at {}", r.residual);
        let lambda = r.eigenvalue.expect("power iteration estimates λ");
        // The returned triple is self-consistent: the reported residual
        // IS ‖A·x − λ·x‖₂ for the returned x (convergence is checked
        // before the iterate advances).
        let av = a.spmv(&r.x);
        let res: f64 = av
            .iter()
            .zip(&r.x)
            .map(|(m, v)| (m - lambda * v) * (m - lambda * v))
            .sum::<f64>()
            .sqrt();
        assert!(
            (res - r.residual).abs() < 1e-12,
            "reported residual {} must describe the returned x ({res})",
            r.residual
        );
        for (got, want) in av.iter().zip(r.x.iter().map(|v| lambda * v)) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        // v stays unit-norm.
        let norm = dot(&r.x, &r.x).sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert_eq!(r.method, "power");
        assert!(r.spmv_cycles > 0);
    }

    #[test]
    fn damped_power_iteration_applies_the_teleport_term() {
        let a = spd(64, 4, 6, 9);
        let mut opts = SolveOptions {
            tol: 1e-8,
            max_iters: 5000,
            damping: 0.85,
        };
        let mut plan = plan_for(SystemKind::Base, &a);
        let damped = Solver::power_iteration(&mut plan, &opts);
        assert!(damped.converged);
        let ld = damped.eigenvalue.unwrap();
        opts.damping = 1.0;
        let mut plan = plan_for(SystemKind::Base, &a);
        let plain = Solver::power_iteration(&mut plan, &opts);
        let lp = plain.eigenvalue.unwrap();
        assert!(
            (ld - lp).abs() > 1e-6,
            "damping must change the operator: {ld} vs {lp}"
        );
        // The damped eigenpair satisfies (d·A + (1-d)/n·𝟙𝟙ᵀ)·v = λ·v.
        let n = 64;
        let av = a.spmv(&damped.x);
        let teleport = 0.15 / n as f64 * damped.x.iter().sum::<f64>();
        for (i, &vi) in damped.x.iter().enumerate() {
            let mv = 0.85 * av[i] + teleport;
            assert!((mv - ld * vi).abs() < 1e-6, "component {i}");
        }
    }

    #[test]
    #[should_panic(expected = "damping must be in (0, 1]")]
    fn power_iteration_rejects_bad_damping() {
        let a = spd(16, 4, 4, 1);
        let mut plan = plan_for(SystemKind::Base, &a);
        let _ = Solver::power_iteration(
            &mut plan,
            &SolveOptions {
                damping: 0.0,
                ..SolveOptions::default()
            },
        );
    }

    #[test]
    fn sharded_plans_solve_too() {
        let a = spd(96, 6, 8, 11);
        let b = vec![0.5; 96];
        let mut plan = plan_for(
            SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            },
            &a,
        );
        let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
        assert!(r.converged);
        assert!(r.label.contains("sharded x2"));
        let back = a.spmv(&r.x);
        assert!(back.iter().zip(&b).all(|(y, t)| (y - t).abs() < 1e-8));
    }

    /// A cycle-accurate sharded or pack plan simulates its first SpMV
    /// and replays the rest, also across solves; the baseline simulates
    /// every one.
    #[test]
    fn solve_reports_count_simulated_and_replayed_iterations() {
        let a = spd(96, 6, 8, 11);
        let b = vec![0.5; 96];
        for kind in [
            SystemKind::Base,
            SystemKind::Pack(AdapterConfig::mlp(64)),
            SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            },
        ] {
            let mut plan = plan_for(kind.clone(), &a);
            let first = Solver::cg(&mut plan, &b, &SolveOptions::default());
            let again = Solver::power_iteration(&mut plan, &SolveOptions::default());
            let simulated = |r: &SolveReport| match kind {
                SystemKind::Base => r.iterations,
                _ => 0,
            };
            assert!(first.converged && first.iterations > 1, "{kind}");
            assert_eq!(
                first.simulated_iterations,
                simulated(&first).max(1),
                "{kind}"
            );
            assert_eq!(again.simulated_iterations, simulated(&again), "{kind}");
            for r in [&first, &again] {
                assert_eq!(
                    r.simulated_iterations + r.replayed_iterations,
                    r.iterations,
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn solver_workload_runs_on_asymmetric_matrices_via_power() {
        // Power iteration has no symmetry requirement; a banded FEM
        // matrix (asymmetric values) still yields a dominant eigenpair
        // estimate with finite residuals.
        let a = banded_fem(64, 4, 8, 2);
        let mut plan = plan_for(SystemKind::Base, &a);
        let r = Solver::power_iteration(
            &mut plan,
            &SolveOptions {
                tol: 1e-6,
                max_iters: 3000,
                ..SolveOptions::default()
            },
        );
        assert!(r.residuals.iter().all(|v| v.is_finite()));
        assert!(r.eigenvalue.is_some());
    }
}
