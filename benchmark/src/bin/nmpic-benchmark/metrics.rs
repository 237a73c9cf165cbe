//! What the benchmark declares: the workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics. `BENCHMARK.json` is this
//! table written out (`nmpic-benchmark manifest`); a self-test keeps the
//! two equal, and every run checks that what it measured is exactly what
//! is declared here.

use crate::json::Json;
use crate::trace::LAYERS;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One declared metric. `bound` is the share of the reference median by
/// which the metric may worsen; `Some(0.0)` marks a simulated quantity or
/// count that must repeat exactly; `None` a layer metric with no gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "cycle_pack",
        "cycle-accurate pack256 + pack0 on one HBM channel: coalescer-bound and DRAM-latency-bound regimes of core and mem::channel",
    ),
    (
        "cycle_base",
        "cycle-accurate baseline on hbm and hbm x8: system::base, mem::cache and the channel work, the adapter does none (bypass for core changes)",
    ),
    (
        "solve_sharded",
        "CG to 1e-10 on 4 sharded units over hbm x8 with 2 shard workers: pool fan-out, shard arbiter, scatter and the zero-alloc run_into path",
    ),
    (
        "analytic_sweep",
        "analytic-mode prepare + run_batch per sweep point on large matrices: model, spmv_fast, cache replay, partition, SELL conversion; simulator never ticks",
    ),
    (
        "native_spmv",
        "Csr::spmv, spmv_fast at 1 and 2 jobs, Sell::spmv on L2-exceeding matrices: no engine, no simulator (bypass for everything else)",
    ),
    (
        "service_mix",
        "closed loop, 1 client keeping 8 tickets outstanding on 8 tenants with 1 drain worker: lanes, plan cache, drain, completion maps; cold MatrixMarket-to-result path",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics: defined on every workload and measured with
/// tracing off. The reference box is a shared two-core VM whose speed
/// drifts by 5-10 % between runs (README, "Agreement runs"), so every
/// timing gets the widest bound the contract allows; a claim of a gain
/// rests on paired runs, not on these bounds.
pub fn end_to_end() -> Vec<Decl> {
    const BOUND: Option<f64> = Some(0.25);
    vec![
        decl("mnnz_per_s", "Mnnz/s", Higher, BOUND),
        decl("op_p25_ms", "ms", Lower, BOUND),
        decl("cold_op_ms", "ms", Lower, BOUND),
        decl("peak_rss_mb", "MiB", Lower, BOUND),
        decl("setup_s", "s", Lower, BOUND),
    ]
}

/// Matrices of the cycle-accurate probes, and the systems run on them.
pub const CYCLE_MATS: [&str; 3] = ["fem", "circuit", "stencil"];
pub const CYCLE_SYSTEMS: [&str; 4] = ["base", "pack0", "pack256", "sharded4"];
pub const MODEL_SYSTEMS: [&str; 3] = ["base", "pack256", "sharded4"];
pub const KERNEL_MATS: [&str; 2] = ["fem", "circuit"];
pub const KERNELS: [&str; 4] = ["spmv", "spmv_fast1", "spmv_fast2", "sell_spmv"];
pub const STREAM_VARIANTS: [&str; 4] = ["mlpnc", "mlp64", "mlp256", "seq256"];

/// Per-layer metrics, taken in the traced run only. Host rates and times
/// are medians; a `Some(0.0)` bound marks a simulated count or ratio that
/// repeats exactly for one seed, which `compare` checks.
pub fn per_layer() -> Vec<Decl> {
    const EXACT: Option<f64> = Some(0.0);
    let mut d = Vec::new();

    // What the workload itself spent in each layer, from its spans.
    for layer in LAYERS {
        d.push(decl(format!("trace.{layer}.self_ms"), "ms", Lower, None));
        d.push(decl(format!("trace.{layer}.calls"), "count", Lower, None));
    }
    d.push(decl("bench.trace_overhead_ratio", "ratio", Lower, None));
    d.push(decl("bench.timed_s", "s", Lower, None));
    d.push(decl("bench.reps", "count", Higher, None));
    d.push(decl("bench.host_cores", "count", Higher, None));

    d.push(decl("sim.pool_map_us", "us", Lower, None));

    for name in [
        "mem.ideal_req_per_s",
        "mem.hbm_stream_req_per_s",
        "mem.hbm_random_req_per_s",
        "mem.hbm8_random_req_per_s",
        "mem.hbm_write_mix_req_per_s",
        "mem.hbm_cycles_per_s",
        "mem.cache_access_per_s",
    ] {
        d.push(decl(name, "1/s", Higher, None));
    }
    d.push(decl("mem.hbm_random_cycles", "cycles", Lower, EXACT));
    d.push(decl("mem.hbm_random_row_hit_ratio", "ratio", Higher, EXACT));

    for v in STREAM_VARIANTS {
        d.push(decl(
            format!("core.stream_elems_per_s.{v}"),
            "1/s",
            Higher,
            None,
        ));
    }
    d.push(decl(
        "core.stream_ideal_elems_per_s.mlp256",
        "1/s",
        Higher,
        None,
    ));
    d.push(decl("core.stream_cycles_per_s.mlp256", "1/s", Higher, None));
    d.push(decl("core.stream_cycles.mlpnc", "cycles", Lower, EXACT));
    d.push(decl("core.stream_cycles.mlp256", "cycles", Lower, EXACT));
    d.push(decl("core.coalesce_rate.mlp256", "ratio", Higher, EXACT));
    d.push(decl("core.indir_gbps.mlp256", "GB/s", Higher, EXACT));
    d.push(decl(
        "core.indir_gain_mlp256_over_mlpnc",
        "ratio",
        Higher,
        EXACT,
    ));

    for m in KERNEL_MATS {
        for k in KERNELS {
            d.push(decl(
                format!("sparse.{k}_gflops.{m}"),
                "GFLOP/s",
                Higher,
                None,
            ));
        }
        d.push(decl(
            format!("sparse.spmv_fast2_gbps.{m}"),
            "GB/s",
            Higher,
            None,
        ));
        d.push(decl(
            format!("sparse.spmv_fast2_scaling.{m}"),
            "ratio",
            Higher,
            None,
        ));
    }
    d.push(decl("sparse.mm_read_mb_per_s", "MB/s", Higher, None));
    d.push(decl("sparse.mm_write_mb_per_s", "MB/s", Higher, None));
    d.push(decl(
        "sparse.sell_convert_mnnz_per_s",
        "Mnnz/s",
        Higher,
        None,
    ));
    d.push(decl("sparse.partition_by_nnz_ms", "ms", Lower, None));
    d.push(decl(
        "sparse.fingerprint_mnnz_per_s",
        "Mnnz/s",
        Higher,
        None,
    ));
    d.push(decl("sparse.gen_ms", "ms", Lower, None));

    for s in MODEL_SYSTEMS {
        d.push(decl(
            format!("model.analytic_run_ms.{s}"),
            "ms",
            Lower,
            None,
        ));
        d.push(decl(format!("model.rel_err.{s}"), "ratio", Lower, EXACT));
    }
    d.push(decl("model.rel_err_max", "ratio", Lower, EXACT));
    d.push(decl("model.rel_err_traffic", "ratio", Lower, EXACT));
    d.push(decl("model.value_share", "ratio", Lower, None));
    d.push(decl("model.speedup_vs_cycle", "ratio", Higher, None));

    for s in MODEL_SYSTEMS {
        d.push(decl(format!("system.prepare_ms.{s}"), "ms", Lower, None));
    }
    for s in CYCLE_SYSTEMS {
        for m in CYCLE_MATS {
            d.push(decl(format!("system.run_ms.{s}.{m}"), "ms", Lower, None));
        }
        d.push(decl(
            format!("system.sim_cycles_per_s.{s}"),
            "1/s",
            Higher,
            None,
        ));
    }
    d.push(decl("system.run_batch4_ms.pack256", "ms", Lower, None));
    d.push(decl("system.run_into_ms.pack256", "ms", Lower, None));
    d.push(decl("system.run_into_over_run", "ratio", Lower, None));
    for s in ["base", "pack0", "pack256"] {
        d.push(decl(
            format!("system.traffic_ratio.{s}"),
            "ratio",
            Lower,
            EXACT,
        ));
    }
    d.push(decl("system.speedup_vs_base.pack0", "ratio", Higher, EXACT));
    d.push(decl(
        "system.speedup_vs_base.pack256",
        "ratio",
        Higher,
        EXACT,
    ));
    d.push(decl("system.sim_cycles.pack256", "cycles", Lower, EXACT));
    d.push(decl(
        "system.sim_offchip_bytes.pack256",
        "bytes",
        Lower,
        EXACT,
    ));
    d.push(decl("system.cg_iters", "count", Lower, EXACT));
    d.push(decl("system.cg_iter_ms", "ms", Lower, None));
    d.push(decl(
        "system.cg_sim_cycles_per_iter",
        "cycles",
        Lower,
        EXACT,
    ));
    d.push(decl("system.shard_cycle_imbalance", "ratio", Lower, EXACT));
    d.push(decl("system.shard_workers_scaling", "ratio", Higher, None));

    d.push(decl("service.submit_us", "us", Lower, None));
    d.push(decl("service.prepare_hit_us", "us", Lower, None));
    d.push(decl("service.prepare_miss_ms", "ms", Lower, None));
    d.push(decl("service.req_per_s", "1/s", Higher, None));
    d.push(decl("service.lat_p50_us", "us", Lower, None));
    d.push(decl("service.lat_p99_us", "us", Lower, None));
    d.push(decl("service.lat_tail_us", "us", Lower, None));
    d.push(decl("service.lat_tail_pct", "%", Higher, None));
    d.push(decl("service.solve_p50_ms", "ms", Lower, None));
    d.push(decl("service.overhead_ratio", "ratio", Lower, None));
    d.push(decl("service.batches_per_req", "ratio", Lower, None));
    d.push(decl("service.cache_hit_ratio", "ratio", Higher, None));
    d.push(decl("service.rejected", "count", Lower, None));
    d.push(decl("service.evicted", "count", Lower, None));
    d.push(decl("service.samples", "count", Higher, None));
    d
}

/// `true` iff `name` fits the contract's grammar: it starts with a letter
/// or digit and holds at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `true` iff `unit` fits the contract's grammar for units.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Measured values by name, in the order they were taken.
#[derive(Debug, Default)]
pub struct Measured(pub Vec<(String, f64)>);

impl Measured {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Checks that exactly the declared names were measured, once each,
    /// that every value is a finite number, and that names and units fit
    /// the contract's grammar.
    pub fn check(&self, declared: &[Decl]) -> Result<(), String> {
        let mut problems = Vec::new();
        for d in declared {
            if !valid_name(&d.name) || !valid_unit(d.unit) {
                problems.push(format!(
                    "{} [{}] breaks the name or unit grammar",
                    d.name, d.unit
                ));
            }
            match self.0.iter().filter(|(n, _)| *n == d.name).count() {
                1 => {}
                0 => problems.push(format!("{} was not measured", d.name)),
                n => problems.push(format!("{} was measured {n} times", d.name)),
            }
        }
        for (name, value) in &self.0 {
            if !declared.iter().any(|d| d.name == *name) {
                problems.push(format!("{name} is not declared"));
            }
            if !value.is_finite() {
                problems.push(format!("{name} is not finite ({value})"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let metric = |d: &Decl, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(&d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(d.bound.unwrap_or(0.0))));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_follow_the_contract_grammar() {
        for ok in ["mnnz_per_s", "system.run_ms.pack256.fem", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "has space", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "Mnnz/s", "%", "GFLOP/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declarations_fit_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(valid_name(&d.name) && valid_unit(d.unit), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name.to_string()), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for d in &e2e {
            let b = d.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    #[test]
    fn benchmark_json_is_the_declared_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `nmpic-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn measured_set_must_equal_declared_set() {
        let declared = end_to_end();
        let mut m = Measured::default();
        for d in &declared {
            m.push(d.name.clone(), 1.0);
        }
        assert!(m.check(&declared).is_ok());
        m.push("extra", 1.0);
        assert!(m
            .check(&declared)
            .unwrap_err()
            .contains("extra is not declared"));
        m.0.pop();
        m.0.pop();
        assert!(m.check(&declared).unwrap_err().contains("was not measured"));
        m.push(declared.last().unwrap().name.clone(), f64::NAN);
        assert!(m.check(&declared).unwrap_err().contains("not finite"));
    }
}
