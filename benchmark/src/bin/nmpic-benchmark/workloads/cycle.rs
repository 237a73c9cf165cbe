//! `cycle_pack` and `cycle_base`: cycle-accurate `SpmvPlan::run` on
//! resident plans. One rep runs every plan once.

use crate::clock::{ms_since, now_ns, timed};
use crate::harness::{rep_loop, Outcome, Rep, Setup, Workload};
use crate::inputs::{cycle_set, fold, fold_bits, Mat};
use crate::metrics::{Better, Decl};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::workloads::{engine, exact, pack0, pack256, run_ok};
use nmpic_mem::BackendConfig;
use nmpic_system::{ExecMode, RunReport, SpmvPlan, SystemKind};

/// Stored nonzeros per matrix. `cycle_pack` simulates ~10x more host
/// work per nonzero than `cycle_base`, so it gets the smaller set; both
/// then make ten or more reps in a run.
const PACK_NNZ: usize = 100_000;
const BASE_NNZ: usize = 300_000;

/// Resident plans over one matrix set, in (configuration, matrix) order.
pub struct Plans {
    mats: Vec<Mat>,
    plans: Vec<(usize, SpmvPlan)>,
    /// Simulated cycles of each plan's first run, in plan order, and the
    /// off-chip bytes of them all: what one rep simulates.
    cycles: Vec<u64>,
    sim_offchip_bytes: u64,
}

impl Plans {
    /// Prepares one plan per configuration and matrix and runs each once;
    /// the time that takes is the workload's cold-path time.
    fn setup(mats: Vec<Mat>, configs: &[(SystemKind, BackendConfig)]) -> Setup<Plans> {
        let mut failed = 0;
        let mut sim_offchip_bytes = 0;
        let mut cycles = Vec::new();
        let (plans, cold_ms) = timed(|| {
            let mut plans = Vec::new();
            for (system, backend) in configs {
                let engine =
                    engine(system.clone(), backend.clone(), ExecMode::CycleAccurate).build();
                for (k, mat) in mats.iter().enumerate() {
                    let mut plan = engine.prepare(&mat.csr);
                    let r = plan.run(&mat.x);
                    failed += u64::from(!run_ok(mat, &r));
                    sim_offchip_bytes += r.offchip_bytes;
                    cycles.push(r.cycles);
                    plans.push((k, plan));
                }
            }
            plans
        });
        Setup {
            attempted: plans.len() as u64,
            failed,
            cold_ms,
            state: Plans {
                mats,
                plans,
                cycles,
                sim_offchip_bytes,
            },
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let Plans { mats, plans, .. } = self;
        let t0 = now_ns();
        let reports: Vec<RunReport> = plans
            .iter_mut()
            .map(|(k, plan)| tr.call("system", "SpmvPlan::run", || plan.run(&mats[*k].x)))
            .collect();
        let ms = ms_since(t0);
        let mut rep = Rep {
            ms,
            attempted: reports.len() as u64,
            ..Rep::empty()
        };
        for ((k, _), r) in plans.iter().zip(&reports) {
            rep.nnz += mats[*k].nnz();
            rep.failed += u64::from(!run_ok(&mats[*k], r));
            rep.sig = fold_bits(fold(fold(rep.sig, r.cycles), r.offchip_bytes), r.y());
        }
        rep
    }

    fn sim_detail(&self) -> Vec<(Decl, f64)> {
        vec![
            (
                exact("sim_cycles", "cycles", Better::Lower),
                self.cycles.iter().sum::<u64>() as f64,
            ),
            (
                exact("sim_offchip_bytes", "bytes", Better::Lower),
                self.sim_offchip_bytes as f64,
            ),
        ]
    }
}

/// The paper's headline system on one HBM channel: MLP256 (coalescer
/// bound) and MLPnc (DRAM-latency bound).
pub struct CyclePack {
    plans: Plans,
    /// Geomean over the matrices of base cycles / pack256 cycles.
    speedup_vs_base: f64,
}

impl Workload for CyclePack {
    const SETUP_REPS: usize = 7;

    fn setup(seed: u64) -> Setup<Self> {
        let configs = [
            (pack256(), BackendConfig::hbm()),
            (pack0(), BackendConfig::hbm()),
        ];
        let mut s = Plans::setup(cycle_set(PACK_NNZ, seed), &configs);
        // The baseline reference for the simulated speed-up, run once.
        let base = engine(
            SystemKind::Base,
            BackendConfig::hbm(),
            ExecMode::CycleAccurate,
        )
        .build();
        let ratios: Vec<f64> = s
            .state
            .mats
            .iter()
            .zip(&s.state.cycles)
            .map(|(mat, &pack256)| {
                let r = base.prepare(&mat.csr).run(&mat.x);
                s.attempted += 1;
                s.failed += u64::from(!run_ok(mat, &r));
                r.cycles as f64 / pack256 as f64
            })
            .collect();
        s.map(|plans| CyclePack {
            plans,
            speedup_vs_base: geomean(&ratios),
        })
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        rep_loop(budget_s, tr, |tr| self.plans.rep(tr))
    }

    fn detail(&self) -> Vec<(Decl, f64)> {
        let mut d = self.plans.sim_detail();
        d.push((
            exact("sim_speedup_vs_base", "ratio", Better::Higher),
            self.speedup_vs_base,
        ));
        d
    }
}

/// The baseline vector processor behind its LLC, on one and on eight
/// HBM channels.
pub struct CycleBase(Plans);

impl Workload for CycleBase {
    const SETUP_REPS: usize = 7;

    fn setup(seed: u64) -> Setup<Self> {
        let configs = [
            (SystemKind::Base, BackendConfig::hbm()),
            (SystemKind::Base, BackendConfig::interleaved(8)),
        ];
        Plans::setup(cycle_set(BASE_NNZ, seed), &configs).map(CycleBase)
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        rep_loop(budget_s, tr, |tr| self.0.rep(tr))
    }

    fn detail(&self) -> Vec<(Decl, f64)> {
        self.0.sim_detail()
    }
}
