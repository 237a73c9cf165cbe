//! Option parsing and resolution, driven through
//! [`ExperimentOpts::from_lookup`] so no test mutates the process
//! environment.

use nmpic_core::AdapterConfig;
use nmpic_system::{ExecMode, PartitionStrategy, SpmvEngine, SystemKind};

use super::stream::{fig3_variants, fig4_variants};
use super::system::fig5_adapters;
use super::{analytic, batched, service_soak, service_throughput, solver, ExperimentOpts};

/// Parses the given `NAME=value` pairs as if they were the environment.
fn parse(env: &[(&str, &str)]) -> (ExperimentOpts, Vec<String>) {
    ExperimentOpts::from_lookup(|name| {
        env.iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.to_string())
    })
}

#[test]
fn default_cap_is_experiment_scale() {
    assert_eq!(ExperimentOpts::default().max_nnz, 150_000);
}

#[test]
fn lookup_quick_and_explicit_cap() {
    assert_eq!(parse(&[]).0.max_nnz, 150_000);
    assert_eq!(parse(&[("NMPIC_QUICK", "1")]).0.max_nnz, 20_000);
    assert_eq!(parse(&[("NMPIC_QUICK", "0")]).0.max_nnz, 150_000);
    // Explicit cap beats quick.
    let (opts, warnings) = parse(&[("NMPIC_QUICK", "true"), ("NMPIC_MAX_NNZ", " 7 ")]);
    assert_eq!(opts.max_nnz, 7);
    assert!(warnings.is_empty(), "{warnings:?}");
}

#[test]
fn lookup_parses_system_partition_and_exec() {
    let (opts, warnings) = parse(&[
        ("NMPIC_SYSTEM", "sharded4"),
        ("NMPIC_PARTITION", "rows"),
        ("NMPIC_EXEC", "analytic"),
    ]);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(
        opts.system,
        Some(SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz
        })
    );
    assert_eq!(opts.partition, Some(PartitionStrategy::ByRows));
    assert_eq!(opts.exec, Some(ExecMode::Analytic));
    // Empty selectors mean "unset", silently.
    let (opts, warnings) = parse(&[("NMPIC_SYSTEM", " "), ("NMPIC_EXEC", "")]);
    assert!(opts.system.is_none() && opts.exec.is_none());
    assert!(warnings.is_empty(), "{warnings:?}");
}

#[test]
fn lookup_warns_on_every_malformed_value_and_keeps_the_default() {
    let cases = [
        ("NMPIC_QUICK", "maybe", "ignoring NMPIC_QUICK='maybe'"),
        ("NMPIC_MAX_NNZ", "0", "ignoring NMPIC_MAX_NNZ=0"),
        ("NMPIC_MAX_NNZ", "lots", "ignoring NMPIC_MAX_NNZ='lots'"),
        (
            "NMPIC_SYSTEM",
            "pack7",
            "ignoring NMPIC_SYSTEM: unknown system",
        ),
        ("NMPIC_PARTITION", "cols", "ignoring NMPIC_PARTITION:"),
        (
            "NMPIC_EXEC",
            "fast",
            "ignoring NMPIC_EXEC: unknown execution mode",
        ),
    ];
    for (name, value, want) in cases {
        let (opts, warnings) = parse(&[(name, value)]);
        assert_eq!(warnings.len(), 1, "{name}={value}: {warnings:?}");
        assert!(
            warnings[0].starts_with(want),
            "{name}={value}: {warnings:?}"
        );
        assert_eq!(opts.max_nnz, 150_000);
        assert!(opts.system.is_none() && opts.partition.is_none() && opts.exec.is_none());
    }
}

#[test]
fn env_selection_reaches_every_selectable_experiments_engine() {
    let sharded4 = |strategy| SystemKind::Sharded { units: 4, strategy };
    let sweep_defaults = vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        sharded4(PartitionStrategy::ByNnz),
    ];
    type Engines = fn(&ExperimentOpts) -> Vec<SpmvEngine>;
    // (experiment, every engine its sweep builds, default systems,
    //  default exec mode; None = runs both modes by construction)
    let selectable: [(&str, Engines, Vec<SystemKind>, Option<ExecMode>); 5] = [
        (
            "batched_spmv",
            |o| vec![batched::engine(o)],
            vec![SystemKind::Pack(AdapterConfig::mlp(256))],
            Some(ExecMode::CycleAccurate),
        ),
        (
            "service_throughput",
            |o| vec![service_throughput::engine(o)],
            vec![sharded4(PartitionStrategy::ByNnz)],
            Some(ExecMode::CycleAccurate),
        ),
        (
            "service_soak",
            |o| vec![service_soak::engine(o)],
            vec![SystemKind::Base],
            Some(ExecMode::Analytic),
        ),
        (
            "solver_convergence",
            solver::engines,
            sweep_defaults.clone(),
            Some(ExecMode::CycleAccurate),
        ),
        (
            "analytic_validation",
            analytic::engines,
            sweep_defaults,
            None,
        ),
    ];
    let systems_of = |engines: &[SpmvEngine]| {
        let mut systems: Vec<SystemKind> = Vec::new();
        for e in engines {
            if !systems.contains(e.system()) {
                systems.push(e.system().clone());
            }
        }
        systems
    };
    let (unset, _) = parse(&[]);
    let (rows4, _) = parse(&[("NMPIC_SYSTEM", "sharded4"), ("NMPIC_PARTITION", "rows")]);
    let (analytic_mode, _) = parse(&[("NMPIC_EXEC", "analytic")]);
    for (name, engines, default_systems, default_exec) in selectable {
        let built = engines(&unset);
        assert_eq!(systems_of(&built), default_systems, "{name}: defaults");
        if let Some(mode) = default_exec {
            assert!(built.iter().all(|e| e.exec_mode() == mode), "{name}");
        }

        assert_eq!(
            systems_of(&engines(&rows4)),
            vec![sharded4(PartitionStrategy::ByRows)],
            "{name}: NMPIC_SYSTEM=sharded4 NMPIC_PARTITION=rows"
        );

        let built = engines(&analytic_mode);
        assert_eq!(systems_of(&built), default_systems, "{name}: exec only");
        if default_exec.is_some() {
            assert!(
                built.iter().all(|e| e.exec_mode() == ExecMode::Analytic),
                "{name}: NMPIC_EXEC=analytic"
            );
        } else {
            let cycle = built
                .iter()
                .filter(|e| e.exec_mode() == ExecMode::CycleAccurate);
            assert_eq!(cycle.count() * 2, built.len(), "{name}: both modes");
        }
    }
    // The partition knob alone re-partitions a sharded default too.
    let (rows_only, _) = parse(&[("NMPIC_PARTITION", "rows")]);
    assert_eq!(
        service_throughput::engine(&rows_only).system(),
        &sharded4(PartitionStrategy::ByRows)
    );
}

#[test]
fn variant_lists_match_paper_figures() {
    let names: Vec<String> = fig3_variants().iter().map(|v| v.variant_name()).collect();
    assert_eq!(
        names,
        vec!["MLPnc", "MLP8", "MLP16", "MLP32", "MLP64", "MLP128", "MLP256", "SEQ256"]
    );
    let names4: Vec<String> = fig4_variants().iter().map(|v| v.variant_name()).collect();
    assert_eq!(names4, vec!["MLPnc", "MLP16", "MLP64", "MLP256", "SEQ256"]);
    assert_eq!(fig5_adapters().len(), 3);
}
