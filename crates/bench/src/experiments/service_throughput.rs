//! Multi-tenant serving throughput: a shared `SpmvService` serving a
//! burst from several tenant matrices, swept across background drain
//! worker counts.

use nmpic_mem::BackendConfig;
use nmpic_sparse::Csr;
use nmpic_system::{PartitionStrategy, SpmvEngine, SpmvService, SystemKind};

use super::{batch_x, col, suite_matrix, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};
use crate::timing::Stopwatch;

/// One service-throughput measurement: a shared [`SpmvService`] serving a
/// multi-tenant burst with a given number of background drain workers.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServiceRow {
    /// Background drain worker threads pulling the submission lanes.
    pub workers: usize,
    /// System label of the cached plans.
    pub system: String,
    /// Distinct tenant matrices in the burst.
    pub tenants: usize,
    /// Requests served in the timed burst.
    pub requests: usize,
    /// `run_batch` calls the burst collapsed into (>= tenants: each
    /// tenant's same-matrix requests share batches).
    pub batches: u64,
    /// Plan-cache hits recorded by the service.
    pub cache_hits: u64,
    /// Plan-cache misses (plans prepared from scratch).
    pub cache_misses: u64,
    /// Wall-clock time from first submit to quiesce, in milliseconds.
    pub wall_ms: f64,
    /// Served requests per second of wall-clock time.
    pub requests_per_sec: f64,
    /// Wall-clock speedup over the 1-worker point of the same sweep.
    pub speedup_vs_serial: f64,
    /// Median enqueue->publish latency, microseconds (wall clock).
    pub p50_us: f64,
    /// 99th-percentile enqueue->publish latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile enqueue->publish latency, microseconds.
    pub p999_us: f64,
    /// Whether every served result was byte-identical to the serial
    /// single-tenant `SpmvPlan::run` reference.
    pub verified: bool,
}

/// The background drain-worker counts swept by [`service_throughput`].
pub(crate) const SERVICE_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Tenant matrices in each [`service_throughput`] burst.
pub(crate) const SERVICE_TENANTS: usize = 4;

/// Total requests per timed burst in [`service_throughput`]
/// (spread evenly across [`SERVICE_TENANTS`]).
pub(crate) const SERVICE_REQUESTS: usize = 32;

/// The tenant matrices served by [`service_throughput`]: tenant 0 is the
/// suite's af_shell10 (capped), the rest are banded FEM variants of a
/// similar scale so tenants hash to different lanes and batch
/// independently.
fn service_tenant_matrices(tenants: usize, max_nnz: u64) -> Vec<Csr> {
    let cap = max_nnz.min(100_000);
    let mut mats = vec![suite_matrix("af_shell10", cap)];
    let rows = ((cap / 12) as usize).clamp(48, 4096);
    for t in 1..tenants {
        mats.push(nmpic_sparse::gen::banded_fem(rows, 5, 12, t as u64));
    }
    mats
}

/// The engine behind every service of the study: `sharded4` with MLP256
/// units on an 8-channel HBM stack, shard workers pinned to 1 so the
/// sweep isolates drain parallelism.
fn engine() -> SpmvEngine {
    SpmvEngine::builder()
        .system(SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::default(),
        })
        .backend(BackendConfig::interleaved(8))
        .shard_workers(1)
        .batch_capacity(SERVICE_REQUESTS)
        .build()
}

/// Runs the service-throughput study: a multi-tenant [`SpmvService`]
/// over the sharded engine (see [`engine`]), serving a burst of
/// [`SERVICE_REQUESTS`] requests across [`SERVICE_TENANTS`] tenant
/// matrices at 1/2/4/8 **drain workers**.
///
/// The worker axis is the service's own concurrency: each drain worker
/// pulls submission lanes round-robin and executes batches, so on a
/// machine with >= 4 cores the multi-worker points should serve the
/// multi-tenant burst well over 1.5x faster than the 1-worker point
/// (different tenants' batches execute concurrently; shard workers are
/// pinned to 1 so the sweep isolates drain parallelism). Results are
/// **byte-identical** across worker counts — each row's `verified`
/// compares every served vector against the serial single-tenant plan —
/// so the speedup is pure wall-clock, not a change in simulated
/// behaviour. Latency columns are real host-side p50/p99/p999
/// enqueue->publish tails measured through the injected
/// [`crate::timing::WallClock`].
///
/// Points run serially (never under `parallel_map`): each point owns
/// the machine while its wall-clock is measured.
///
/// # Panics
///
/// Panics if any served result diverges from the serial reference.
pub(crate) fn service_throughput(opts: &ExperimentOpts) -> Vec<ServiceRow> {
    let mats = service_tenant_matrices(SERVICE_TENANTS, opts.max_nnz);
    let per_tenant = SERVICE_REQUESTS / SERVICE_TENANTS;
    let xs: Vec<Vec<Vec<f64>>> = mats
        .iter()
        .map(|csr| {
            (0..per_tenant)
                .map(|b| (0..csr.cols()).map(|i| batch_x(b, i)).collect())
                .collect()
        })
        .collect();

    // Serial single-tenant references: one plan per tenant, one `run`
    // per vector.
    let reference: Vec<Vec<Vec<u64>>> = mats
        .iter()
        .zip(&xs)
        .map(|(csr, txs)| {
            let mut plan = engine().prepare(csr);
            txs.iter()
                .map(|x| {
                    let r = plan.run(x);
                    assert!(r.verified, "serial reference failed golden verification");
                    r.y_bits()
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<ServiceRow> = Vec::new();
    let mut serial_wall_ms = None;
    for workers in SERVICE_WORKERS {
        let service = SpmvService::builder(engine())
            .drain_workers(workers)
            .clock(std::sync::Arc::new(crate::timing::WallClock::new()))
            .build();
        let keys: Vec<_> = mats.iter().map(|csr| service.prepare(csr)).collect();
        // A second tenant registering the same matrix: pure cache hit.
        assert_eq!(service.prepare(&mats[0]), keys[0]);
        // Untimed warmup (one request per tenant) so one-time costs
        // (thread stacks, page faults) don't land inside a measurement.
        for (key, txs) in keys.iter().zip(&xs) {
            // nmpic-lint: allow(L2) — documented panic: the driver's Panics section covers run/verification failures
            let warm = service.run(*key, txs[0].clone()).expect("warmup");
            assert!(warm.verified);
        }
        service.reset_latency();
        let warm_stats = service.stats();

        let t0 = Stopwatch::start();
        // Interleave tenants so every lane has work from the start.
        let tickets: Vec<(usize, usize, nmpic_system::Ticket)> = (0..per_tenant)
            .flat_map(|q| (0..SERVICE_TENANTS).map(move |t| (t, q)))
            .map(|(t, q)| {
                let ticket = service
                    .submit(keys[t], xs[t][q].clone())
                    // nmpic-lint: allow(L2) — documented panic: lane quotas are sized for the burst, and the driver documents its Panics
                    .expect("lane quota sized for burst");
                (t, q, ticket)
            })
            .collect();
        service.quiesce();
        let wall_ms = t0.elapsed_ms();

        let mut verified = true;
        for (t, q, ticket) in tickets {
            // nmpic-lint: allow(L2) — invariant: quiesce() above published every submitted ticket
            let done = service.take(ticket).expect("published by quiesce");
            verified &= done.verified;
            let got: Vec<u64> = done.y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                &got, &reference[t][q],
                "{workers} workers: served bytes diverged from serial reference"
            );
        }
        let stats = service.stats();
        let lat = service.latency();
        let label = service.engine().system().to_string();
        // The workers sweep starts at 1, which sets the serial baseline.
        let base = *serial_wall_ms.get_or_insert(wall_ms);
        rows.push(ServiceRow {
            workers,
            system: label,
            tenants: SERVICE_TENANTS,
            requests: SERVICE_REQUESTS,
            // Warmup batches are excluded; report only the burst's.
            batches: stats.batches.saturating_sub(warm_stats.batches),
            cache_hits: stats.plan_cache_hits,
            cache_misses: stats.plans_prepared,
            wall_ms,
            requests_per_sec: SERVICE_REQUESTS as f64 / (wall_ms / 1e3),
            speedup_vs_serial: base / wall_ms,
            p50_us: lat.p50_ns as f64 / 1e3,
            p99_us: lat.p99_ns as f64 / 1e3,
            p999_us: lat.p999_ns as f64 / 1e3,
            verified,
        });
    }
    rows
}

fn table(rows: &[ServiceRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::WORKERS, |r| r.workers.to_string()),
            (col::SYSTEM, |r| r.system.clone()),
            (col::TENANTS, |r| r.tenants.to_string()),
            ("requests", |r| r.requests.to_string()),
            ("batches", |r| r.batches.to_string()),
            ("cache hits", |r| r.cache_hits.to_string()),
            ("cache misses", |r| r.cache_misses.to_string()),
            (col::WALL_MS, |r| f(r.wall_ms, 2)),
            (col::REQ_PER_S, |r| f(r.requests_per_sec, 1)),
            (col::P50_US, |r| f(r.p50_us, 1)),
            (col::P99_US, |r| f(r.p99_us, 1)),
            (col::P999_US, |r| f(r.p999_us, 1)),
            ("speedup vs 1 worker", |r| f(r.speedup_vs_serial, 2)),
            (col::VERIFIED, |r| r.verified.to_string()),
        ],
    )
}

/// A zero p99 means the enqueue->publish latency pipeline never recorded
/// a sample; an unverified row means a served result diverged from its
/// serial reference bytes.
pub(super) fn gates(rows: &[ServiceRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if r.p99_us <= 0.0 {
            failures.push(format!(
                "{} worker(s): zero p99 latency (no samples recorded)",
                r.workers
            ));
        }
        if !r.verified {
            failures.push(format!(
                "{} worker(s): served results diverged from the serial reference",
                r.workers
            ));
        }
    }
    failures
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    let rows = service_throughput(opts);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = Vec::new();
    if let Some(r4) = rows.iter().find(|r| r.workers == 4) {
        notes.push(format!(
            "4-worker wall-clock speedup over serial: {:.2}x on {} available core(s)",
            r4.speedup_vs_serial, cores
        ));
        if cores < 4 {
            notes.push(
                "(speedup is bounded by available cores; run on >= 4 cores to see \
                 the parallel drain's full effect)"
                    .to_string(),
            );
        }
    }
    let section = Section::new(
        "service_throughput",
        "SpmvService throughput vs background drain workers (af_shell10 + FEM tenants, hbm8)",
        table(&rows),
    )
    .notes(notes)
    .notes([
        "(every row's results are byte-identical to serial single-tenant",
        " execution; the speedup is pure wall-clock from parallel draining)",
    ]);
    Outcome {
        tables: vec![section],
        failures: gates(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_row() -> ServiceRow {
        ServiceRow {
            workers: 2,
            p99_us: 200.0,
            verified: true,
            ..ServiceRow::default()
        }
    }

    #[test]
    fn gates_flag_a_zero_p99_and_diverged_bytes() {
        assert!(gates(&[clean_row()]).is_empty());
        let zero_p99 = ServiceRow {
            p99_us: 0.0,
            ..clean_row()
        };
        let diverged = ServiceRow {
            verified: false,
            ..clean_row()
        };
        for bad in [zero_p99, diverged] {
            let failures = gates(&[clean_row(), bad]);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("2 worker(s)"), "{failures:?}");
        }
    }
}
