//! Service soak: sustained mixed SpMV + iterative-solve traffic from
//! several producer threads against a shared `SpmvService` with a live
//! background drain.

use nmpic_sparse::Csr;
use nmpic_system::{ExecMode, SolveOptions, Solver, SpmvEngine, SpmvService, SystemKind};

use super::{batch_x, col, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};
use crate::timing::Stopwatch;

/// One soak measurement: sustained mixed SpMV + solve traffic from
/// several producer threads against the background drain.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoakRow {
    /// Background drain worker threads.
    pub workers: usize,
    /// Distinct tenant matrices.
    pub tenants: usize,
    /// Producer threads submitting concurrently.
    pub producers: usize,
    /// Requests accepted into lanes (the service's `submitted`).
    pub accepted: u64,
    /// Admission rejections (quota backpressure events; producers retry).
    pub rejected: u64,
    /// One-shot SpMV completions.
    pub completed: u64,
    /// Iterative-solve completions.
    pub solves: u64,
    /// Requests that reached a `Failed` terminal state (must be 0: no
    /// panics are injected here).
    pub failed: u64,
    /// Results redeemed through `take`/`wait`.
    pub taken: u64,
    /// Unredeemed results dropped by bounded retention (abandoned
    /// tickets age out — the soak abandons a slice on purpose).
    pub evicted: u64,
    /// Results still retained (published, never redeemed) at the end.
    pub retained: usize,
    /// Ticket-conservation gap `accepted - (taken + evicted +
    /// retained)`; **must be 0** — every accepted ticket reaches
    /// exactly one terminal accounting bucket.
    pub lost: i64,
    /// Whether final retention respected the per-lane bound
    /// (`lanes x RESULT_RETENTION_FACTOR x quota`).
    pub retention_ok: bool,
    /// Wall-clock time of the whole soak phase, milliseconds.
    pub wall_ms: f64,
    /// Accepted requests per second of wall-clock time.
    pub requests_per_sec: f64,
    /// Median enqueue->publish latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile enqueue->publish latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile enqueue->publish latency, microseconds.
    pub p999_us: f64,
    /// Whether every redeemed result was byte-identical to its serial
    /// single-tenant reference (SpMV bytes, CG solution bytes, power
    /// eigenvector bytes).
    pub verified: bool,
}

/// The drain-worker counts swept by [`service_soak`].
pub(crate) const SOAK_WORKERS: [usize; 2] = [1, 2];

/// Producer threads in [`service_soak`].
pub(crate) const SOAK_PRODUCERS: usize = 4;

/// Tenant matrices in [`service_soak`] (even indices are SPD so solves
/// have CG-able targets).
pub(crate) const SOAK_TENANTS: usize = 6;

/// Distinct request vectors per tenant in [`service_soak`] (references
/// are precomputed per pool slot).
const SOAK_X_POOL: usize = 8;

/// In-flight window per producer before it starts redeeming oldest
/// tickets.
const SOAK_WINDOW: usize = 24;

/// Every `SOAK_ABANDON`-th ticket is deliberately never redeemed, so the
/// run exercises bounded retention/eviction.
const SOAK_ABANDON: usize = 37;

/// Every `SOAK_SOLVE`-th request on an SPD tenant is an iterative solve
/// instead of a one-shot SpMV.
const SOAK_SOLVE: usize = 16;

/// Requests each soak point pushes through the service, scaled off the
/// nnz cap: ~40k at CI quick scale, ~300k at full experiment scale.
pub(crate) fn soak_requests(opts: &ExperimentOpts) -> usize {
    ((opts.max_nnz as usize) * 2).clamp(800, 500_000)
}

/// What one soak producer submits for its `i`-th request.
enum SoakOp {
    Spmv { tenant: usize, slot: usize },
    Cg { tenant: usize, slot: usize },
    Power { tenant: usize },
}

/// Deterministic request mix: tenant and vector-pool slot from a hash of
/// `(producer, i)`, every [`SOAK_SOLVE`]-th request on an SPD tenant a
/// solve (alternating CG / power iteration).
fn soak_op(producer: usize, i: usize) -> SoakOp {
    let h = (i as u64)
        .wrapping_mul(2654435761)
        .wrapping_add(producer as u64 * 7919);
    let tenant = (h % SOAK_TENANTS as u64) as usize;
    let slot = ((h >> 8) % SOAK_X_POOL as u64) as usize;
    if i % SOAK_SOLVE == SOAK_SOLVE - 1 && tenant.is_multiple_of(2) {
        if (h >> 16).is_multiple_of(2) {
            SoakOp::Cg { tenant, slot }
        } else {
            SoakOp::Power { tenant }
        }
    } else {
        SoakOp::Spmv { tenant, slot }
    }
}

/// The engine behind the soak's service and its serial references: the
/// baseline system in analytic mode unless the environment picks another
/// system, partition or execution mode — the soak stresses the serving
/// layer, not the cycle-level simulator, and analytic mode is
/// bit-identical on the result vector.
pub(super) fn engine(opts: &ExperimentOpts) -> SpmvEngine {
    opts.engine(SystemKind::Base, ExecMode::Analytic)
        .shard_workers(1)
        .build()
}

/// Runs the service soak: [`SOAK_PRODUCERS`] producer threads push
/// [`soak_requests`] mixed SpMV + CG + power-iteration requests across
/// [`SOAK_TENANTS`] tenant matrices into a shared [`SpmvService`] with a
/// live background drain, windowing redemptions and deliberately
/// abandoning every `SOAK_ABANDON`-th ticket. After quiescing, each
/// row gates on **exact ticket conservation** (`lost == 0`), bounded
/// retention, zero failed requests, and byte-identity of every redeemed
/// result against serial single-tenant references.
///
/// Runs on [`engine`].
///
/// # Panics
///
/// Panics if a producer thread panics (e.g. on a byte mismatch, which
/// also clears `verified`) or an unexpected submission error occurs.
pub(crate) fn service_soak(opts: &ExperimentOpts) -> Vec<SoakRow> {
    use nmpic_sparse::gen::{banded_fem, spd};
    use nmpic_system::{ServiceError, SolveRequest};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    let total = soak_requests(opts);
    // Small matrices: soak load is request count, not matrix size.
    let mats: Vec<Csr> = (0..SOAK_TENANTS)
        .map(|t| {
            if t % 2 == 0 {
                spd(96 + 8 * t, 5, 8, t as u64)
            } else {
                banded_fem(112 + 8 * t, 5, 10, t as u64)
            }
        })
        .collect();
    let xs: Vec<Vec<Vec<f64>>> = mats
        .iter()
        .map(|csr| {
            (0..SOAK_X_POOL)
                .map(|s| (0..csr.cols()).map(|i| batch_x(s, i)).collect())
                .collect()
        })
        .collect();

    // Serial references: SpMV bits per (tenant, slot); CG solution bits
    // per (SPD tenant, slot); power eigenvector bits per SPD tenant.
    let spmv_ref: Vec<Vec<Vec<u64>>> = mats
        .iter()
        .zip(&xs)
        .map(|(csr, txs)| {
            let mut plan = engine(opts).prepare(csr);
            txs.iter().map(|x| plan.run(x).y_bits()).collect()
        })
        .collect();
    let cg_ref: Vec<Option<Vec<Vec<u64>>>> = mats
        .iter()
        .enumerate()
        .map(|(t, csr)| {
            (t % 2 == 0).then(|| {
                let mut plan = engine(opts).prepare(csr);
                xs[t]
                    .iter()
                    .map(|b| bits(&Solver::cg(&mut plan, b, &SolveOptions::default()).x))
                    .collect()
            })
        })
        .collect();
    let power_ref: Vec<Option<Vec<u64>>> = mats
        .iter()
        .enumerate()
        .map(|(t, csr)| {
            (t % 2 == 0).then(|| {
                let mut plan = engine(opts).prepare(csr);
                bits(&Solver::power_iteration(&mut plan, &SolveOptions::default()).x)
            })
        })
        .collect();

    let mut rows = Vec::new();
    for workers in SOAK_WORKERS {
        let service = SpmvService::builder(engine(opts))
            .drain_workers(workers)
            .lane_quota(256)
            .clock(std::sync::Arc::new(crate::timing::WallClock::new()))
            .build();
        let keys: Vec<_> = mats.iter().map(|csr| service.prepare(csr)).collect();
        let per_producer = total / SOAK_PRODUCERS;

        let t0 = Stopwatch::start();
        let all_verified = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SOAK_PRODUCERS)
                .map(|p| {
                    let service = &service;
                    let keys = &keys;
                    let xs = &xs;
                    let spmv_ref = &spmv_ref;
                    let cg_ref = &cg_ref;
                    let power_ref = &power_ref;
                    scope.spawn(move || {
                        let mut ok = true;
                        let mut window: std::collections::VecDeque<(nmpic_system::Ticket, SoakOp)> =
                            std::collections::VecDeque::new();
                        let redeem = |service: &SpmvService,
                                      (ticket, op): (nmpic_system::Ticket, SoakOp)|
                         -> bool {
                            match op {
                                SoakOp::Spmv { tenant, slot } => {
                                    // nmpic-lint: allow(L2) — documented panic: soak producers fail loudly on any redemption error
                                    let done = service.wait(ticket).expect("soak spmv");
                                    bits(&done.y) == spmv_ref[tenant][slot]
                                }
                                SoakOp::Cg { tenant, slot } => {
                                    // nmpic-lint: allow(L2) — documented panic: soak producers fail loudly on any redemption error
                                    let done = service.wait_solve(ticket).expect("soak cg");
                                    // nmpic-lint: allow(L2) — invariant: soak_op only emits Cg for even (SPD) tenants, whose reference is Some
                                    let want = cg_ref[tenant].as_ref().expect("spd");
                                    bits(&done.report.x) == want[slot]
                                }
                                SoakOp::Power { tenant } => {
                                    // nmpic-lint: allow(L2) — documented panic: soak producers fail loudly on any redemption error
                                    let done = service.wait_solve(ticket).expect("soak power");
                                    // nmpic-lint: allow(L2) — invariant: soak_op only emits Power for even (SPD) tenants, whose reference is Some
                                    let want = power_ref[tenant].as_ref().expect("spd");
                                    bits(&done.report.x) == *want
                                }
                            }
                        };
                        for i in 0..per_producer {
                            let op = soak_op(p, i);
                            let ticket = loop {
                                let attempt = match &op {
                                    SoakOp::Spmv { tenant, slot } => {
                                        service.submit(keys[*tenant], xs[*tenant][*slot].clone())
                                    }
                                    SoakOp::Cg { tenant, slot } => service.submit_solve(
                                        keys[*tenant],
                                        SolveRequest::Cg {
                                            b: xs[*tenant][*slot].clone(),
                                        },
                                        SolveOptions::default(),
                                    ),
                                    SoakOp::Power { tenant } => service.submit_solve(
                                        keys[*tenant],
                                        SolveRequest::PowerIteration,
                                        SolveOptions::default(),
                                    ),
                                };
                                match attempt {
                                    Ok(t) => break t,
                                    Err(ServiceError::TenantQuotaExceeded { .. }) => {
                                        // Backpressure: redeem the oldest
                                        // in-flight ticket, then retry.
                                        match window.pop_front() {
                                            Some(entry) => ok &= redeem(service, entry),
                                            None => std::thread::yield_now(),
                                        }
                                    }
                                    // nmpic-lint: allow(L2) — documented panic: any non-backpressure submission error is a soak failure
                                    Err(e) => panic!("soak submit failed: {e}"),
                                }
                            };
                            if i % SOAK_ABANDON == SOAK_ABANDON - 1 {
                                // Deliberately abandoned: retention must
                                // bound it, eviction may reap it.
                                continue;
                            }
                            window.push_back((ticket, op));
                            if window.len() > SOAK_WINDOW {
                                // nmpic-lint: allow(L2) — invariant: the branch guard just checked the window is non-empty
                                let entry = window.pop_front().expect("non-empty window");
                                ok &= redeem(service, entry);
                            }
                        }
                        while let Some(entry) = window.pop_front() {
                            ok &= redeem(service, entry);
                        }
                        ok
                    })
                })
                .collect();
            // Collect before reducing: every producer must be joined
            // even after a byte mismatch, so no short-circuiting here.
            let verdicts: Vec<bool> = handles
                .into_iter()
                // nmpic-lint: allow(L2) — documented panic: a panicking producer is a soak failure, surfaced here
                .map(|h| h.join().expect("soak producer"))
                .collect();
            verdicts.into_iter().all(|b| b)
        });
        service.quiesce();
        let wall_ms = t0.elapsed_ms();

        let stats = service.stats();
        let retained = service.retained();
        let lat = service.latency();
        let terminal = stats.completed + stats.solves_completed + stats.failed;
        let lost = stats.submitted as i64 - terminal as i64
            + (terminal as i64 - (stats.taken + stats.evicted) as i64 - retained as i64);
        let retention_bound =
            service.lane_count() * nmpic_system::RESULT_RETENTION_FACTOR * service.lane_quota();
        rows.push(SoakRow {
            workers,
            tenants: SOAK_TENANTS,
            producers: SOAK_PRODUCERS,
            accepted: stats.submitted,
            rejected: stats.rejected,
            completed: stats.completed,
            solves: stats.solves_completed,
            failed: stats.failed,
            taken: stats.taken,
            evicted: stats.evicted,
            retained,
            lost,
            retention_ok: retained <= retention_bound,
            wall_ms,
            requests_per_sec: stats.submitted as f64 / (wall_ms / 1e3),
            p50_us: lat.p50_ns as f64 / 1e3,
            p99_us: lat.p99_ns as f64 / 1e3,
            p999_us: lat.p999_ns as f64 / 1e3,
            verified: all_verified,
        });
    }
    rows
}

fn table(rows: &[SoakRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::WORKERS, |r| r.workers.to_string()),
            (col::TENANTS, |r| r.tenants.to_string()),
            ("producers", |r| r.producers.to_string()),
            ("accepted", |r| r.accepted.to_string()),
            ("rejected", |r| r.rejected.to_string()),
            ("completed", |r| r.completed.to_string()),
            ("solves", |r| r.solves.to_string()),
            ("failed", |r| r.failed.to_string()),
            ("taken", |r| r.taken.to_string()),
            ("evicted", |r| r.evicted.to_string()),
            ("retained", |r| r.retained.to_string()),
            ("lost", |r| r.lost.to_string()),
            ("retention ok", |r| r.retention_ok.to_string()),
            (col::WALL_MS, |r| f(r.wall_ms, 1)),
            (col::REQ_PER_S, |r| f(r.requests_per_sec, 0)),
            (col::P50_US, |r| f(r.p50_us, 1)),
            (col::P99_US, |r| f(r.p99_us, 1)),
            (col::P999_US, |r| f(r.p999_us, 1)),
            (col::VERIFIED, |r| r.verified.to_string()),
        ],
    )
}

/// The soak's hard gates: a nonzero `lost` means a ticket fell between
/// the accounting cracks, a nonzero `failed` that a drain batch died, a
/// false retention verdict that the completion map outgrew its
/// documented bound, an unverified row that redeemed bytes diverged, and
/// a zero p99 that the latency pipeline never recorded a sample.
pub(super) fn gates(rows: &[SoakRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let mut fail = |what: String| failures.push(format!("{} worker(s): {what}", r.workers));
        if r.lost != 0 {
            fail(format!("{} lost ticket(s)", r.lost));
        }
        if r.failed != 0 {
            fail(format!("{} failed request(s)", r.failed));
        }
        if !r.retention_ok {
            fail(format!("{} retained results exceed the bound", r.retained));
        }
        if !r.verified {
            fail("redeemed results diverged from the serial references".to_string());
        }
        if r.p99_us <= 0.0 {
            fail("zero p99 latency (no samples recorded)".to_string());
        }
    }
    failures
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    let rows = service_soak(opts);
    let section = Section::new(
        "service_soak",
        "SpmvService soak: mixed SpMV + solve traffic vs drain workers",
        table(&rows),
    )
    .notes([
        "(gates: zero lost tickets, zero failures, bounded retention, and every \
         redeemed result byte-identical to its serial single-tenant reference)",
    ]);
    Outcome {
        tables: vec![section],
        failures: gates(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_row() -> SoakRow {
        SoakRow {
            workers: 2,
            retained: 20,
            retention_ok: true,
            p99_us: 200.0,
            verified: true,
            ..SoakRow::default()
        }
    }

    #[test]
    fn gates_flag_each_broken_soak_invariant() {
        assert!(gates(&[clean_row()]).is_empty());
        let broken = [
            SoakRow {
                lost: 1,
                ..clean_row()
            },
            SoakRow {
                failed: 1,
                ..clean_row()
            },
            SoakRow {
                retention_ok: false,
                ..clean_row()
            },
            SoakRow {
                verified: false,
                ..clean_row()
            },
            SoakRow {
                p99_us: 0.0,
                ..clean_row()
            },
        ];
        for bad in broken {
            let failures = gates(&[clean_row(), bad]);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("2 worker(s)"), "{failures:?}");
        }
    }
}
