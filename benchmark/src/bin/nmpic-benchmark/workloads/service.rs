//! `service_mix`: the multi-tenant `SpmvService` under a closed loop — one
//! client thread keeps eight tickets outstanding (callers wait for their
//! replies, so a slower service is offered less load) against one drain
//! worker, which is all two cores allow.
//!
//! Set-up is phase A, the cold path: a fresh service, and per tenant
//! MatrixMarket bytes → `read_matrix_market` → `prepare` → `submit` →
//! `wait`. The measured pass is phase B: requests round-robin over the
//! tenants with a distinct vector each, one operation in 64 a CG solve;
//! latency is clocked here, from before `submit` to after `wait` returns.

use crate::clock::{ms_since, now_ns, timed};
use crate::harness::{Outcome, Setup, Workload};
use crate::inputs::{circuit, fem, fold_bits, same_bits, spd, FOLD_SEED};
use crate::metrics::Measured;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::pack256;
use crate::workloads::solve::TOL;
use nmpic_bench::{batch_x, WallClock};
use nmpic_mem::BackendConfig;
use nmpic_sparse::{read_matrix_market, write_matrix_market, Csr};
use nmpic_system::{
    ExecMode, MatrixKey, SolveOptions, SolveRequest, Solver, SpmvEngine, SpmvService, Ticket,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

const TENANTS: usize = 8;
/// Tenant rows run from `MIN_ROWS` to `MIN_ROWS + ROW_SPAN`: small enough
/// that a run completes about ten thousand requests, which a p99.9 with
/// ten samples beyond it needs.
const MIN_ROWS: usize = 800;
const ROW_SPAN: usize = 1_600;
/// Tickets the client keeps outstanding.
const OUTSTANDING: usize = 8;
/// One operation in this many is a CG solve on the SPD tenant.
const SOLVE_EVERY: u64 = 64;
/// Completed operations per throughput sample.
const WINDOW: u64 = 256;

fn engine() -> SpmvEngine {
    crate::workloads::engine(pack256(), BackendConfig::interleaved(8), ExecMode::Analytic).build()
}

fn solve_opts() -> SolveOptions {
    SolveOptions {
        tol: TOL,
        ..SolveOptions::default()
    }
}

/// The `k`-th request's vector for a `cols`-column tenant.
fn request_x(k: u64, cols: usize) -> Vec<f64> {
    (0..cols).map(|i| batch_x(k as usize, i)).collect()
}

struct Tenant {
    csr: Csr,
    key: MatrixKey,
}

/// The CG reference the service's solves must reproduce: a direct
/// `Solver::cg` on a plan of the same engine.
struct SolveRef {
    b: Vec<f64>,
    x: Vec<f64>,
    iterations: usize,
}

enum Kind {
    Spmv,
    Solve,
}

struct InFlight {
    ticket: Ticket,
    tenant: usize,
    k: u64,
    kind: Kind,
    submitted_ns: u64,
}

pub struct ServiceMix {
    tenants: Vec<Tenant>,
    service: SpmvService,
    solve_ref: SolveRef,
    /// Amortized simulated cycles per (tenant, batch size), as first
    /// seen: the analytic model must repeat them.
    cycles_seen: BTreeMap<(usize, usize), u64>,
    /// Per-tenant `prepare` times of phase A (plan-cache misses).
    prepare_miss_ms: Vec<f64>,
    /// The last measured pass, for the layer metrics.
    last: Option<Pass>,
}

struct Pass {
    ops: u64,
    /// Nonzeros multiplied since the last throughput sample, and when
    /// that sample was taken.
    window_nnz: u64,
    window_start_ns: u64,
    wall_s: f64,
    spmv_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// How many SpMVs each tenant served and how many solves ran.
    per_tenant: Vec<u64>,
    solves: u64,
    /// `(tenant, request, signature of the redeemed y)` of every SpMV
    /// still to be checked against golden.
    unchecked: Vec<(usize, u64, u64)>,
    /// `run_batch` calls the drain made per completed SpMV.
    batches_per_req: f64,
}

impl ServiceMix {
    /// The SPD tenant is the last one.
    const SPD: usize = TENANTS - 1;

    fn redeem(&mut self, f: InFlight, out: &mut Outcome, pass: &mut Pass, tr: &mut Tracer) {
        tr.set_request(f.k);
        let tenant = &self.tenants[f.tenant];
        out.attempted += 1;
        match f.kind {
            Kind::Spmv => {
                let done = tr.call("service", "SpmvService::wait", || {
                    self.service.wait(f.ticket)
                });
                let ms = ms_since(f.submitted_ns);
                pass.spmv_ms.push(ms);
                out.op_ms.push(ms);
                pass.window_nnz += tenant.csr.nnz() as u64;
                pass.per_tenant[f.tenant] += 1;
                // Checking against golden `Csr::spmv` waits until the
                // pass is over: the client thread shares two cores with
                // the drain worker, and a second SpMV per request here
                // would be measured as service time.
                let ok = done.is_ok_and(|c| {
                    let cycles = c.cycles_per_vector.to_bits();
                    let first = *self
                        .cycles_seen
                        .entry((f.tenant, c.batched_with))
                        .or_insert(cycles);
                    let ok = c.verified && cycles == first;
                    if ok {
                        pass.unchecked
                            .push((f.tenant, f.k, fold_bits(FOLD_SEED, &c.y)));
                    }
                    ok
                });
                out.failed += u64::from(!ok);
            }
            Kind::Solve => {
                let done = tr.call("service", "SpmvService::wait_solve", || {
                    self.service.wait_solve(f.ticket)
                });
                pass.solve_ms.push(ms_since(f.submitted_ns));
                pass.solves += 1;
                let ok = done.is_ok_and(|c| {
                    pass.window_nnz += tenant.csr.nnz() as u64 * c.report.iterations as u64;
                    c.report.converged
                        && c.report.iterations == self.solve_ref.iterations
                        && same_bits(&c.report.x, &self.solve_ref.x)
                });
                out.failed += u64::from(!ok);
            }
        }
        if out.attempted.is_multiple_of(WINDOW) {
            let now = now_ns();
            let window_ms = (now - pass.window_start_ns) as f64 / 1e6;
            out.mnnz_per_s
                .push(pass.window_nnz as f64 / 1e3 / window_ms);
            (pass.window_nnz, pass.window_start_ns) = (0, now);
        }
    }

    fn submit(&self, k: u64, pass: &mut Pass, tr: &mut Tracer) -> Result<InFlight, ()> {
        tr.set_request(k);
        let (tenant, kind) = if k % SOLVE_EVERY == SOLVE_EVERY - 1 {
            (Self::SPD, Kind::Solve)
        } else {
            (k as usize % TENANTS, Kind::Spmv)
        };
        let t = &self.tenants[tenant];
        // The request's vector is the client's to build; the latency
        // clock starts when it is handed to the service.
        let payload = match kind {
            Kind::Spmv => request_x(k, t.csr.cols()),
            Kind::Solve => self.solve_ref.b.clone(),
        };
        let submitted_ns = now_ns();
        let ticket = match kind {
            Kind::Spmv => tr.call("service", "SpmvService::submit", || {
                self.service.submit(t.key, payload)
            }),
            Kind::Solve => tr.call("service", "SpmvService::submit_solve", || {
                let request = SolveRequest::Cg { b: payload };
                self.service.submit_solve(t.key, request, solve_opts())
            }),
        };
        pass.submit_us.push(ms_since(submitted_ns) * 1e3);
        ticket.map_err(drop).map(|ticket| InFlight {
            ticket,
            tenant,
            k,
            kind,
            submitted_ns,
        })
    }

    /// Layer metrics of the `service` layer, from phase A and the last
    /// measured pass.
    pub fn layer_metrics(&self, m: &mut Measured) {
        let pass = self
            .last
            .as_ref()
            .expect("layer_metrics follows a measured pass");
        let lat_us: Vec<f64> = sorted(&pass.spmv_ms).iter().map(|ms| ms * 1e3).collect();
        let (tail_pct, tail_us) = tail(&lat_us);
        // The same operations as direct calls on resident plans of the
        // same engine: what the service's queues and maps add on top.
        let engine = engine();
        let mut direct_s = 0.0;
        for (t, &count) in self.tenants.iter().zip(&pass.per_tenant) {
            let mut plan = engine.prepare(&t.csr);
            let x = request_x(0, t.csr.cols());
            let samples: Vec<f64> = (0..15).map(|_| timed(|| plan.run(&x)).1).collect();
            direct_s += median(&samples) / 1e3 * count as f64;
        }
        let spd = &self.tenants[Self::SPD];
        let mut plan = engine.prepare(&spd.csr);
        let solve_ms = timed(|| Solver::cg(&mut plan, &self.solve_ref.b, &solve_opts())).1;
        direct_s += solve_ms / 1e3 * pass.solves as f64;

        let hit_us: Vec<f64> = (0..4 * TENANTS)
            .map(|k| timed(|| self.service.prepare(&self.tenants[k % TENANTS].csr)).1 * 1e3)
            .collect();
        let stats = self.service.stats();
        m.push("service.submit_us", median(&pass.submit_us));
        m.push("service.prepare_hit_us", median(&hit_us));
        m.push("service.prepare_miss_ms", median(&self.prepare_miss_ms));
        m.push("service.req_per_s", pass.ops as f64 / pass.wall_s);
        m.push("service.lat_p50_us", percentile(&lat_us, 5_000));
        m.push("service.lat_p99_us", percentile(&lat_us, 9_900));
        m.push("service.lat_tail_us", tail_us);
        m.push("service.lat_tail_pct", tail_pct);
        m.push("service.solve_p50_ms", median(&pass.solve_ms));
        m.push("service.overhead_ratio", pass.wall_s / direct_s - 1.0);
        m.push("service.batches_per_req", pass.batches_per_req);
        m.push(
            "service.cache_hit_ratio",
            stats.plan_cache_hits as f64 / (stats.plan_cache_hits + stats.plans_prepared) as f64,
        );
        m.push("service.rejected", stats.rejected as f64);
        m.push("service.evicted", stats.evicted as f64);
        m.push("service.samples", lat_us.len() as f64);
    }
}

impl Workload for ServiceMix {
    const SETUP_REPS: usize = 25;

    fn setup(seed: u64) -> Setup<Self> {
        let mut mats: Vec<Csr> = (0..Self::SPD)
            .map(|t| {
                let rows = MIN_ROWS + t * ROW_SPAN / (Self::SPD - 1);
                let tenant_seed = seed.wrapping_mul(TENANTS as u64) + t as u64;
                if t % 2 == 0 {
                    fem(rows, tenant_seed)
                } else {
                    circuit(rows, tenant_seed)
                }
            })
            .collect();
        mats.push(spd(MIN_ROWS + ROW_SPAN / 2, seed));
        let mms: Vec<Vec<u8>> = mats
            .iter()
            .map(|csr| {
                let mut bytes = Vec::new();
                write_matrix_market(&mut bytes, csr).expect("writing to memory cannot fail");
                bytes
            })
            .collect();

        // Phase A on a fresh service.
        let service = SpmvService::builder(engine())
            .drain_workers(1)
            .clock(Arc::new(WallClock::new()))
            .build();
        let mut failed = 0;
        let mut prepare_miss_ms = Vec::new();
        let t0 = now_ns();
        let keys: Vec<MatrixKey> = mms
            .iter()
            .zip(&mats)
            .map(|(mm, original)| {
                let csr = read_matrix_market(&mm[..]).expect("own output parses");
                let (key, ms) = timed(|| service.prepare(&csr));
                prepare_miss_ms.push(ms);
                let x = request_x(0, csr.cols());
                let golden = original.spmv(&x);
                let ok = service
                    .submit(key, x)
                    .and_then(|ticket| service.wait(ticket))
                    .is_ok_and(|c| c.verified && same_bits(&c.y, &golden));
                failed += u64::from(!ok);
                key
            })
            .collect();
        let cold_ms = ms_since(t0);

        let spd = &mats[Self::SPD];
        let b = spd.spmv(&request_x(0, spd.cols()));
        let direct = Solver::cg(&mut engine().prepare(spd), &b, &solve_opts());
        failed += u64::from(!direct.converged);
        let solve_ref = SolveRef {
            b,
            x: direct.x,
            iterations: direct.iterations,
        };
        let tenants = mats
            .into_iter()
            .zip(keys)
            .map(|(csr, key)| Tenant { csr, key })
            .collect();
        Setup {
            attempted: TENANTS as u64 + 1,
            failed,
            cold_ms,
            state: ServiceMix {
                tenants,
                service,
                solve_ref,
                cycles_seen: BTreeMap::new(),
                prepare_miss_ms,
                last: None,
            },
        }
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut pass = Pass {
            ops: 0,
            window_nnz: 0,
            window_start_ns: now_ns(),
            wall_s: 0.0,
            spmv_ms: Vec::new(),
            solve_ms: Vec::new(),
            submit_us: Vec::new(),
            per_tenant: vec![0; TENANTS],
            solves: 0,
            unchecked: Vec::new(),
            batches_per_req: 0.0,
        };
        let before = self.service.stats();
        let mut ring: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
        let start = now_ns();
        let mut next = 0;
        loop {
            let open = ms_since(start) < budget_s * 1e3;
            if ring.len() == OUTSTANDING || !open {
                match ring.pop_front() {
                    Some(f) => self.redeem(f, &mut out, &mut pass, tr),
                    None => break,
                }
            }
            if open {
                match self.submit(next, &mut pass, tr) {
                    Ok(f) => ring.push_back(f),
                    // A refused submission (quota, quarantine) is a
                    // failed operation; none is expected at this load.
                    Err(()) => {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                }
                next += 1;
            }
        }
        out.timed_s = ms_since(start) / 1e3;
        if out.mnnz_per_s.is_empty() {
            // A pass too short for one full window: the pass is the window.
            out.mnnz_per_s
                .push(pass.window_nnz as f64 / 1e6 / out.timed_s);
        }
        for (tenant, k, sig) in pass.unchecked.drain(..) {
            let csr = &self.tenants[tenant].csr;
            let golden = csr.spmv(&request_x(k, csr.cols()));
            out.failed += u64::from(fold_bits(FOLD_SEED, &golden) != sig);
        }
        pass.ops = out.attempted;
        pass.wall_s = out.timed_s;
        let after = self.service.stats();
        pass.batches_per_req =
            (after.batches - before.batches) as f64 / (after.completed - before.completed) as f64;
        self.last = Some(pass);
        out
    }
}
