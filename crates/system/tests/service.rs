//! Concurrent-correctness tests for `SpmvService`: N threads submitting
//! against one shared service with a live background drain must produce
//! results **byte-identical** to serial single-tenant `SpmvPlan::run`,
//! across every memory backend (ideal/hbm/hbm4/hbm8) and every
//! `SystemKind` (base/pack/sharded), with the plan cache's hit/miss
//! accounting intact and per-lane admission exact under racing
//! submissions.

use std::sync::atomic::{AtomicUsize, Ordering};

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::SimRng;
use nmpic_sparse::gen::{banded_fem, circuit};
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, ExecMode, PartitionStrategy, ServiceError, SpmvEngine, SpmvService, SystemKind,
};

fn backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

fn kinds() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(64)),
        SystemKind::Sharded {
            units: 3,
            strategy: PartitionStrategy::ByNnz,
        },
    ]
}

/// Distinct deterministic request vectors, one per (thread, request).
fn request_x(csr: &Csr, thread: usize, req: usize) -> Vec<f64> {
    (0..csr.cols())
        .map(|i| golden_x(i + 131 * thread + 977 * req))
        .collect()
}

/// The core property: for every backend × system kind, N submitting
/// threads against one shared service (background drain live) get
/// exactly the bytes the serial single-tenant plan produces for their
/// vector.
#[test]
fn concurrent_submissions_match_serial_plan_bytes() {
    const THREADS: usize = 4;
    const REQS: usize = 2;
    let csr = banded_fem(96, 5, 12, 7);
    for backend in backends() {
        for kind in kinds() {
            let engine = SpmvEngine::builder()
                .backend(backend.clone())
                .system(kind.clone())
                .build();
            // Serial references, one per (thread, request) vector.
            let mut plan = engine.prepare(&csr);
            let want: Vec<Vec<Vec<u64>>> = (0..THREADS)
                .map(|t| {
                    (0..REQS)
                        .map(|q| {
                            let r = plan.run(&request_x(&csr, t, q));
                            assert!(r.verified);
                            r.y_bits()
                        })
                        .collect()
                })
                .collect();

            let service = SpmvService::new(engine);
            let key = service.prepare(&csr);
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for t in 0..THREADS {
                    let service = &service;
                    let csr = &csr;
                    handles.push(s.spawn(move || {
                        let mut got = Vec::new();
                        for q in 0..REQS {
                            let x = request_x(csr, t, q);
                            // Lane quotas (64) are ample for the burst,
                            // so errors are real failures. The drain
                            // worker executes in the background; wait()
                            // blocks on publication.
                            let ticket = service.submit(key, x).expect("lane has room");
                            let done = service.wait(ticket).expect("drained in background");
                            assert!(done.verified);
                            got.push(done.y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
                        }
                        (t, got)
                    }));
                }
                for h in handles {
                    let (t, got) = h.join().expect("worker thread");
                    for (q, bits) in got.iter().enumerate() {
                        assert_eq!(
                            bits,
                            &want[t][q],
                            "{} / {kind}: thread {t} request {q} diverged from serial",
                            backend.label()
                        );
                    }
                }
            });
            let stats = service.stats();
            assert_eq!(stats.plans_prepared, 1, "{}/{kind}", backend.label());
            assert_eq!(stats.submitted, (THREADS * REQS) as u64);
            assert_eq!(stats.completed, (THREADS * REQS) as u64);
            assert_eq!(
                stats.taken,
                (THREADS * REQS) as u64,
                "every completion redeemed exactly once"
            );
            assert_eq!(stats.failed, 0);
        }
    }
}

/// Plan-cache accounting under concurrency: many threads preparing the
/// same two matrices produce exactly two plans, everything else hits.
#[test]
fn plan_cache_accounting_is_exact_under_concurrent_prepares() {
    const THREADS: usize = 8;
    let a = banded_fem(64, 4, 8, 1);
    let b = circuit(80, 3, 12, 0.1, 4, 2);
    let service = SpmvService::new(SpmvEngine::builder().system(SystemKind::Base).build());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let service = &service;
            let (a, b) = (&a, &b);
            s.spawn(move || {
                let ka = service.prepare(a);
                let kb = service.prepare(b);
                assert_ne!(ka, kb);
                assert_eq!(service.prepare(a), ka);
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.plans_prepared, 2, "one plan per distinct matrix");
    assert_eq!(
        stats.plan_cache_hits,
        (THREADS * 3 - 2) as u64,
        "every other prepare is a hit"
    );
}

/// Per-lane admission stays exact under concurrent pressure: with a
/// lane quota of 1 and no drain running (synchronous mode), exactly one
/// of the racing submissions wins and the rest are rejected with
/// `TenantQuotaExceeded` naming the tenant key.
#[test]
fn bounded_lane_rejects_concurrent_overflow() {
    const THREADS: usize = 6;
    let csr = banded_fem(48, 3, 6, 1);
    let service = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .lane_quota(1)
        .build();
    let key = service.prepare(&csr);
    let accepted = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let service = &service;
            let csr = &csr;
            let accepted = &accepted;
            s.spawn(move || match service.submit(key, request_x(csr, t, 0)) {
                Ok(_) => {
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServiceError::TenantQuotaExceeded { key: k, quota }) => {
                    assert_eq!(quota, 1);
                    assert_eq!(k, key, "the rejection names the tenant");
                }
                Err(e) => panic!("unexpected error: {e}"),
            });
        }
    });
    assert_eq!(accepted.load(Ordering::Relaxed), 1);
    let stats = service.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.rejected, (THREADS - 1) as u64);
    assert_eq!(service.pending(), 1);
    // The accepted request still executes and verifies once a caller
    // drives the synchronous drain.
    assert_eq!(service.drain_now(), 1);
    assert_eq!(service.stats().completed, 1);
}

/// Sharded plans inside the service execute their shards in parallel;
/// whatever the worker count, served bytes equal the 1-worker service.
#[test]
fn service_results_are_worker_count_invariant() {
    let csr = circuit(256, 4, 24, 0.1, 5, 3);
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let mut reference: Option<Vec<u64>> = None;
    for workers in [1usize, 2, 4] {
        let service = SpmvService::new(
            SpmvEngine::builder()
                .backend(BackendConfig::interleaved(8))
                .system(SystemKind::Sharded {
                    units: 4,
                    strategy: PartitionStrategy::ByNnz,
                })
                .shard_workers(workers)
                .build(),
        );
        let key = service.prepare(&csr);
        let done = service.run(key, x.clone()).expect("served");
        assert!(done.verified, "{workers} workers");
        let bits: Vec<u64> = done.y.iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(&bits, want, "{workers} workers diverged"),
        }
    }
}

/// The drain-worker axis is also byte-invariant: the same multi-tenant
/// burst served by 1 or 3 background drain workers produces identical
/// bytes and identical conservation accounting.
#[test]
fn service_results_are_drain_worker_count_invariant() {
    const REQS: usize = 6;
    let mats: Vec<Csr> = (0..3).map(|t| banded_fem(80, 4, 10, t as u64)).collect();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for workers in [1usize, 3] {
        let service = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
            .drain_workers(workers)
            .build();
        let keys: Vec<_> = mats.iter().map(|m| service.prepare(m)).collect();
        let tickets: Vec<_> = (0..REQS)
            .map(|q| {
                let t = q % mats.len();
                (
                    t,
                    service.submit(keys[t], request_x(&mats[t], t, q)).unwrap(),
                )
            })
            .collect();
        service.quiesce();
        let got: Vec<Vec<u64>> = tickets
            .into_iter()
            .map(|(_, ticket)| {
                let done = service.take(ticket).expect("published by quiesce");
                assert!(done.verified);
                done.y.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{workers} drain workers diverged"),
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, REQS as u64);
        assert_eq!(stats.completed, REQS as u64);
        assert_eq!(stats.taken, REQS as u64);
    }
}

/// One entry of an adversarial request vector: NaN, ±inf, −0.0 or a
/// denormal about half of the time, else a finite value.
fn adversarial_entry(rng: &mut SimRng) -> f64 {
    let finite = (rng.gen_f64() - 0.5) * 8.0;
    match rng.gen_u64(0, 10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE * finite / 8.0,
        _ => finite,
    }
}

/// The bits of `v`, every NaN as `f64::NAN`: Rust leaves the sign and
/// payload of a NaN that arithmetic returns unspecified.
fn nan_blind_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// An analytic-mode service computes every reply with the plan's native
/// kernel, batched through `run_batch`. On seeded vectors full of NaN,
/// ±inf, −0.0 and denormals, each redeemed reply equals a direct
/// `plan.run` of the same vector bit for bit (any NaN matching any NaN),
/// for base, pack256 and sharded4.
#[test]
fn analytic_service_replies_match_direct_runs_on_adversarial_x() {
    const REQS: usize = 7;
    let csr = circuit(160, 4, 24, 0.1, 5, 11);
    let systems = [
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
    ];
    for (seed, kind) in (1u64..).zip(systems) {
        let engine = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(8))
            .system(kind)
            .exec_mode(ExecMode::Analytic)
            .build();
        let mut plan = engine.prepare(&csr);
        let service = SpmvService::builder(engine).drain_workers(0).build();
        let key = service.prepare(&csr);
        let mut rng = SimRng::new(seed);
        let xs: Vec<Vec<f64>> = (0..REQS)
            .map(|k| {
                let mut x: Vec<f64> = (0..csr.cols())
                    .map(|_| adversarial_entry(&mut rng))
                    .collect();
                // Column 0 is also SELL's padding column.
                if k % 2 == 1 {
                    x[0] = f64::NAN;
                }
                x
            })
            .collect();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(key, x.clone()).expect("admitted"))
            .collect();
        for (k, (ticket, x)) in tickets.into_iter().zip(&xs).enumerate() {
            let done = service.wait(ticket).expect("served");
            // The synchronous drain serves the queued requests as one
            // batch, so this is the `run_batch` path.
            assert_eq!(done.batched_with, REQS, "x{k}");
            let direct = plan.run(x);
            assert_eq!(done.label, direct.label, "x{k}");
            assert_eq!(
                nan_blind_bits(&done.y),
                nan_blind_bits(direct.y()),
                "{}, x{k}: reply differs from a direct run",
                direct.label
            );
        }
    }
}
