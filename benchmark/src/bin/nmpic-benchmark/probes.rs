//! Layer probes: each times one public function of one crate, from
//! outside, on seeded inputs of the same families the workloads use. They
//! run at the end of every traced run, so every run reports the whole
//! per-layer table; what a given workload itself spent in each layer is
//! in its `trace.*` rows.
//!
//! Host rates and times are medians of a few calls. Values named
//! `cycles`, `ratio` (of simulated counts), `rate`, `gain`, `err`,
//! `iters` come from the simulator or the model and repeat exactly for
//! one seed.

use crate::clock::timed;
use crate::harness::Workload;
use crate::inputs::{cycle_set, fem, kernel_set, Mat};
use crate::metrics::{Measured, MODEL_SYSTEMS, STREAM_VARIANTS};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::workloads::analytic::rel_err;
use crate::workloads::native::BYTES_PER_NNZ;
use crate::workloads::service::ServiceMix;
use crate::workloads::solve::SolveSharded;
use crate::workloads::{engine, pack0, pack256, run_ok, sharded4};
use nmpic_bench::batch_x;
use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_mem::{BackendConfig, Cache, CacheConfig, ChannelPort, Memory, WideRequest};
use nmpic_sim::pool::parallel_map_jobs;
use nmpic_sparse::{partition, read_matrix_market, write_matrix_market, Sell};
use nmpic_system::{ExecMode, RunReport, SystemKind};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Stored nonzeros of each matrix the cycle-accurate probes run on.
const CYCLE_NNZ: usize = 40_000;
/// Rows of the matrices the kernel probes run on (fem ~2.5M nnz, 30 MB
/// of values and indices: beyond L2, as on `native_spmv`).
const KERNEL_ROWS: usize = 200_000;
/// Requests per memory-channel trace, and the memory they address.
const MEM_REQUESTS: u64 = 16_384;
const MEM_BYTES: usize = 1 << 22;
/// Rows of the CG probe's SPD system.
const CG_ROWS: usize = 600;
/// Length of the service probe's measured pass.
const SERVICE_SECONDS: f64 = 0.6;
/// Calls a median is taken over: simulations, which take tens of
/// milliseconds and whose counts repeat, and native kernels.
const SIM_CALLS: usize = 3;
const KERNEL_CALLS: usize = 7;

/// Operations the probes verified.
#[derive(Default)]
pub struct Probed {
    pub attempted: u64,
    pub failed: u64,
}

impl Probed {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The last result of `calls` calls and their median time in ms.
fn med<T>(calls: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(calls);
    let mut last = None;
    for _ in 0..calls {
        let (out, ms) = timed(&mut f);
        times.push(ms);
        last = Some(out);
    }
    (last.expect("at least one call"), median(&times))
}

pub fn run(seed: u64, m: &mut Measured) -> Probed {
    let mut p = Probed::default();
    let cyc = cycle_set(CYCLE_NNZ, seed);
    sim(m);
    mem(&cyc[0], m);
    core(&cyc, m, &mut p);
    sparse(&cyc[0], seed, m, &mut p);
    system_and_model(&cyc, m, &mut p);
    solve(seed, m, &mut p);
    service(seed, m, &mut p);
    p
}

fn sim(m: &mut Measured) {
    let us: Vec<f64> = (0..200)
        .map(|_| timed(|| parallel_map_jobs(2, vec![1u64, 2, 3, 4], |v| black_box(v) + 1)).1 * 1e3)
        .collect();
    m.push("sim.pool_map_us", median(&us));
}

/// Issues `reqs` in order as fast as the channel takes them and ticks
/// until it drains; returns the simulated cycles that took.
fn drive(chan: &mut dyn ChannelPort, reqs: &[WideRequest]) -> u64 {
    let (mut issued, mut now) = (0, 0);
    while issued < reqs.len() || !chan.is_idle() {
        if issued < reqs.len() && chan.try_request(now, reqs[issued].clone()).is_ok() {
            issued += 1;
        }
        chan.tick(now);
        while chan.pop_response(now).is_some() {}
        now += 1;
    }
    now
}

fn mem(fem: &Mat, m: &mut Measured) {
    let random_addr = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % MEM_BYTES as u64) & !63;
    let stream: Vec<WideRequest> = (0..MEM_REQUESTS)
        .map(|i| WideRequest::read(i * 64 % MEM_BYTES as u64, i))
        .collect();
    let random: Vec<WideRequest> = (0..MEM_REQUESTS)
        .map(|i| WideRequest::read(random_addr(i), i))
        .collect();
    // Every other request a half-masked write: writes beside reads, as
    // the scatter path produces them.
    let write_mix: Vec<WideRequest> = (0..MEM_REQUESTS)
        .map(|i| match i % 2 {
            0 => WideRequest::read(random_addr(i), i),
            _ => WideRequest::write_masked(random_addr(i), i, [i as u8; 64], 0x0000_0000_FFFF_FFFF),
        })
        .collect();
    let probe = |backend: BackendConfig, reqs: &[WideRequest]| {
        let ((cycles, hit_ratio), ms) = med(SIM_CALLS, || {
            let mut chan = backend.build(Memory::new(MEM_BYTES));
            let cycles = drive(&mut *chan, reqs);
            (cycles, chan.dram_stats().map_or(0.0, |s| s.row_hit_rate()))
        });
        (reqs.len() as f64 / (ms / 1e3), cycles, hit_ratio, ms)
    };
    m.push(
        "mem.ideal_req_per_s",
        probe(BackendConfig::ideal(), &random).0,
    );
    m.push(
        "mem.hbm_stream_req_per_s",
        probe(BackendConfig::hbm(), &stream).0,
    );
    let (rate, cycles, hit_ratio, ms) = probe(BackendConfig::hbm(), &random);
    m.push("mem.hbm_random_req_per_s", rate);
    m.push("mem.hbm_cycles_per_s", cycles as f64 / (ms / 1e3));
    m.push("mem.hbm_random_cycles", cycles as f64);
    m.push("mem.hbm_random_row_hit_ratio", hit_ratio);
    m.push(
        "mem.hbm8_random_req_per_s",
        probe(BackendConfig::interleaved(8), &random).0,
    );
    m.push(
        "mem.hbm_write_mix_req_per_s",
        probe(BackendConfig::hbm(), &write_mix).0,
    );

    // The baseline's x-gather trace against its LLC model.
    let cols = fem.csr.col_idx();
    let (_, ms) = med(SIM_CALLS, || {
        let mut llc = Cache::new(CacheConfig::paper_llc());
        for &c in cols {
            let addr = u64::from(c) * 8;
            if !llc.access(addr) {
                llc.fill(addr);
            }
        }
        llc.stats()
    });
    m.push("mem.cache_access_per_s", cols.len() as f64 / (ms / 1e3));
}

fn core(cyc: &[Mat], m: &mut Measured, p: &mut Probed) {
    let sells: Vec<Sell> = cyc
        .iter()
        .map(|mat| Sell::from_csr_default(&mat.csr))
        .collect();
    let elements: usize = sells.iter().map(|s| s.col_idx().len()).sum();
    // One sweep: the whole SELL index stream of every matrix.
    let mut sweep = |cfg: &AdapterConfig, backend: BackendConfig| {
        let opts = StreamOptions {
            backend,
            ..StreamOptions::default()
        };
        let (results, ms) = med(SIM_CALLS, || {
            sells
                .iter()
                .zip(cyc)
                .map(|(sell, mat)| run_indirect_stream(cfg, sell.col_idx(), mat.csr.cols(), &opts))
                .collect::<Vec<_>>()
        });
        for r in &results {
            p.check(r.verified);
        }
        (results, ms)
    };
    let variants = [
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(256),
        AdapterConfig::seq(256),
    ];
    let mut cycles = BTreeMap::new();
    for (name, cfg) in STREAM_VARIANTS.into_iter().zip(&variants) {
        let (results, ms) = sweep(cfg, BackendConfig::hbm());
        let total: u64 = results.iter().map(|r| r.cycles).sum();
        m.push(
            format!("core.stream_elems_per_s.{name}"),
            elements as f64 / (ms / 1e3),
        );
        if name == "mlpnc" || name == "mlp256" {
            m.push(format!("core.stream_cycles.{name}"), total as f64);
        }
        if name == "mlp256" {
            let mean = |f: fn(&nmpic_core::StreamResult) -> f64| {
                results.iter().map(f).sum::<f64>() / results.len() as f64
            };
            m.push("core.stream_cycles_per_s.mlp256", total as f64 / (ms / 1e3));
            m.push("core.coalesce_rate.mlp256", mean(|r| r.coalesce_rate));
            m.push("core.indir_gbps.mlp256", mean(|r| r.indir_gbps));
        }
        cycles.insert(name, total);
    }
    m.push(
        "core.indir_gain_mlp256_over_mlpnc",
        cycles["mlpnc"] as f64 / cycles["mlp256"] as f64,
    );
    // Against the ideal channel the adapter is all that costs host time:
    // the gap to the hbm figure is the DRAM model's share.
    let (_, ms) = sweep(&AdapterConfig::mlp(256), BackendConfig::ideal());
    m.push(
        "core.stream_ideal_elems_per_s.mlp256",
        elements as f64 / (ms / 1e3),
    );
}

fn sparse(small_fem: &Mat, seed: u64, m: &mut Measured, p: &mut Probed) {
    m.push("sparse.gen_ms", med(SIM_CALLS, || fem(KERNEL_ROWS, seed)).1);
    let big = kernel_set(KERNEL_ROWS, seed);
    for mat in &big {
        let (csr, x, name) = (&mat.csr, &mat.x, mat.name);
        let sell = Sell::from_csr_default(csr);
        let mut y = vec![0.0; csr.rows()];
        let flops = 2.0 * csr.nnz() as f64;
        let mut kernel_ms = BTreeMap::new();
        let (got, ms) = med(KERNEL_CALLS, || csr.spmv(x));
        p.check(mat.matches(&got));
        kernel_ms.insert("spmv", ms);
        for (kernel, jobs) in [("spmv_fast1", 1), ("spmv_fast2", 2)] {
            let ((), ms) = med(KERNEL_CALLS, || csr.spmv_fast_into_jobs(jobs, x, &mut y));
            p.check(mat.matches(&y));
            kernel_ms.insert(kernel, ms);
        }
        let (got, ms) = med(KERNEL_CALLS, || sell.spmv(x));
        p.check(mat.matches(&got));
        kernel_ms.insert("sell_spmv", ms);
        for (kernel, ms) in &kernel_ms {
            m.push(
                format!("sparse.{kernel}_gflops.{name}"),
                flops / (ms / 1e3) / 1e9,
            );
        }
        m.push(
            format!("sparse.spmv_fast2_gbps.{name}"),
            BYTES_PER_NNZ * csr.nnz() as f64 / (kernel_ms["spmv_fast2"] / 1e3) / 1e9,
        );
        m.push(
            format!("sparse.spmv_fast2_scaling.{name}"),
            kernel_ms["spmv_fast1"] / kernel_ms["spmv_fast2"],
        );
    }

    let big_fem = &big[0].csr;
    let mnnz = big_fem.nnz() as f64 / 1e6;
    let (sell, ms) = med(SIM_CALLS, || Sell::from_csr_default(big_fem));
    p.check(sell.nnz() == big_fem.nnz());
    m.push("sparse.sell_convert_mnnz_per_s", mnnz / (ms / 1e3));
    let (parts, ms) = med(KERNEL_CALLS, || partition::by_nnz(big_fem, 4));
    p.check(parts.total_nnz() == big_fem.nnz() as u64);
    m.push("sparse.partition_by_nnz_ms", ms);
    let (_, ms) = med(KERNEL_CALLS, || big_fem.fingerprint());
    m.push("sparse.fingerprint_mnnz_per_s", mnnz / (ms / 1e3));

    let (bytes, ms) = med(SIM_CALLS, || {
        let mut bytes = Vec::new();
        write_matrix_market(&mut bytes, &small_fem.csr).expect("writing to memory cannot fail");
        bytes
    });
    let mb = bytes.len() as f64 / 1e6;
    m.push("sparse.mm_write_mb_per_s", mb / (ms / 1e3));
    let (back, ms) = med(SIM_CALLS, || {
        read_matrix_market(&bytes[..]).expect("own output parses")
    });
    p.check(back.fingerprint() == small_fem.csr.fingerprint());
    m.push("sparse.mm_read_mb_per_s", mb / (ms / 1e3));
}

/// The cycle-accurate systems the probes run, with the backend each is
/// paired with: single-channel HBM as in the paper, eight channels for
/// the sharded engine.
fn cycle_systems() -> [(&'static str, SystemKind, BackendConfig); 4] {
    [
        ("base", SystemKind::Base, BackendConfig::hbm()),
        ("pack0", pack0(), BackendConfig::hbm()),
        ("pack256", pack256(), BackendConfig::hbm()),
        ("sharded4", sharded4(), BackendConfig::interleaved(8)),
    ]
}

fn system_and_model(cyc: &[Mat], m: &mut Measured, p: &mut Probed) {
    // (system, matrix) → median run ms and the run's report.
    let mut runs: BTreeMap<(&str, &str), (f64, RunReport)> = BTreeMap::new();
    for (name, system, backend) in cycle_systems() {
        let engine = engine(system, backend, ExecMode::CycleAccurate).build();
        let (mut prepare_ms, mut run_s, mut cycles) = (0.0, 0.0, 0);
        for mat in cyc {
            let (mut plan, ms) = med(SIM_CALLS, || engine.prepare(&mat.csr));
            prepare_ms += ms;
            let (r, ms) = med(SIM_CALLS, || plan.run(&mat.x));
            p.check(run_ok(mat, &r));
            m.push(format!("system.run_ms.{name}.{}", mat.name), ms);
            run_s += ms / 1e3;
            cycles += r.cycles;
            runs.insert((name, mat.name), (ms, r));
        }
        if MODEL_SYSTEMS.contains(&name) {
            m.push(format!("system.prepare_ms.{name}"), prepare_ms);
        }
        m.push(
            format!("system.sim_cycles_per_s.{name}"),
            cycles as f64 / run_s,
        );
    }
    let over_mats = |system: &str, f: &dyn Fn(&RunReport) -> f64| -> Vec<f64> {
        cyc.iter()
            .map(|mat| f(&runs[&(system, mat.name)].1))
            .collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    for system in ["base", "pack0", "pack256"] {
        m.push(
            format!("system.traffic_ratio.{system}"),
            mean(over_mats(system, &|r| r.traffic_ratio())),
        );
    }
    let base_cycles = over_mats("base", &|r| r.cycles as f64);
    for system in ["pack0", "pack256"] {
        let ratios: Vec<f64> = over_mats(system, &|r| r.cycles as f64)
            .iter()
            .zip(&base_cycles)
            .map(|(pack, base)| base / pack)
            .collect();
        m.push(format!("system.speedup_vs_base.{system}"), geomean(&ratios));
    }
    m.push(
        "system.sim_cycles.pack256",
        over_mats("pack256", &|r| r.cycles as f64).iter().sum(),
    );
    m.push(
        "system.sim_offchip_bytes.pack256",
        over_mats("pack256", &|r| r.offchip_bytes as f64)
            .iter()
            .sum(),
    );
    m.push(
        "system.shard_cycle_imbalance",
        mean(over_mats("sharded4", &|r| {
            r.shards().map_or(f64::NAN, |s| s.cycle_imbalance)
        })),
    );

    // The batch and zero-alloc entry points, on fem under pack256.
    let fem = &cyc[0];
    let run_ms = runs[&("pack256", "fem")].0;
    let xs: Vec<Vec<f64>> = (0..4)
        .map(|b| (0..fem.csr.cols()).map(|i| batch_x(b, i)).collect())
        .collect();
    let pack256_on_hbm = || engine(pack256(), BackendConfig::hbm(), ExecMode::CycleAccurate);
    let mut plan = pack256_on_hbm()
        .batch_capacity(xs.len())
        .build()
        .prepare(&fem.csr);
    let (r, ms) = med(SIM_CALLS, || plan.run_batch(&xs));
    p.check(r.verified);
    m.push("system.run_batch4_ms.pack256", ms);
    let mut plan = pack256_on_hbm().build().prepare(&fem.csr);
    let mut y = vec![0.0; fem.csr.rows()];
    let (_, ms) = med(SIM_CALLS, || plan.run_into(&fem.x, &mut y));
    p.check(fem.matches(&y));
    m.push("system.run_into_ms.pack256", ms);
    m.push("system.run_into_over_run", ms / run_ms);

    // The analytic model against the runs above.
    let (mut worst, mut worst_traffic) = (0.0f64, 0.0f64);
    let mut fem_pack256_ms = f64::NAN;
    for (name, system, backend) in cycle_systems()
        .into_iter()
        .filter(|(name, ..)| MODEL_SYSTEMS.contains(name))
    {
        let engine = engine(system, backend, ExecMode::Analytic).build();
        let (mut total_ms, mut err) = (0.0, 0.0f64);
        for mat in cyc {
            let mut plan = engine.prepare(&mat.csr);
            let (r, ms) = med(SIM_CALLS, || plan.run(&mat.x));
            p.check(run_ok(mat, &r));
            let cycle = &runs[&(name, mat.name)].1;
            err = err.max(rel_err(r.cycles as f64, cycle.cycles as f64));
            worst_traffic =
                worst_traffic.max(rel_err(r.offchip_bytes as f64, cycle.offchip_bytes as f64));
            total_ms += ms;
            if (name, mat.name) == ("pack256", "fem") {
                fem_pack256_ms = ms;
            }
        }
        worst = worst.max(err);
        m.push(format!("model.analytic_run_ms.{name}"), total_ms);
        m.push(format!("model.rel_err.{name}"), err);
    }
    m.push("model.rel_err_max", worst);
    m.push("model.rel_err_traffic", worst_traffic);
    let ((), value_ms) = med(KERNEL_CALLS, || fem.csr.spmv_fast_into(&fem.x, &mut y));
    m.push("model.value_share", value_ms / fem_pack256_ms);
    m.push("model.speedup_vs_cycle", run_ms / fem_pack256_ms);
}

fn solve(seed: u64, m: &mut Measured, p: &mut Probed) {
    let mut solve_ms = |workers| {
        let mut s = SolveSharded::with(CG_ROWS, workers, seed);
        let out = s.state.measure(0.0, &mut Tracer::off());
        p.attempted += s.attempted + out.attempted;
        p.failed += s.failed + out.failed;
        (median(&out.op_ms), s.state)
    };
    let (serial_ms, _) = solve_ms(1);
    let (ms, state) = solve_ms(2);
    let r = state.last().expect("the pass above solved");
    m.push("system.cg_iters", r.iterations as f64);
    m.push("system.cg_iter_ms", ms / r.iterations as f64);
    m.push("system.cg_sim_cycles_per_iter", r.cycles_per_iteration());
    m.push("system.shard_workers_scaling", serial_ms / ms);
}

fn service(seed: u64, m: &mut Measured, p: &mut Probed) {
    let mut s = ServiceMix::setup(seed);
    let out = s.state.measure(SERVICE_SECONDS, &mut Tracer::off());
    p.attempted += s.attempted + out.attempted;
    p.failed += s.failed + out.failed;
    s.state.layer_metrics(m);
}
