//! Option parsing, driven through [`ExperimentOpts::from_lookup`] so no
//! test mutates the process environment.

use super::stream::{fig3_variants, fig4_variants};
use super::system::fig5_adapters;
use super::ExperimentOpts;

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
    let (opts, warnings) = parse(&[("NMPIC_QUICK", " true ")]);
    assert_eq!(opts.max_nnz, 20_000);
    assert!(warnings.is_empty(), "{warnings:?}");
}

#[test]
fn lookup_warns_on_every_malformed_value_and_keeps_the_default() {
    let cases = [
        ("NMPIC_QUICK", "maybe", "ignoring NMPIC_QUICK='maybe'"),
        ("NMPIC_QUICK", "2", "ignoring NMPIC_QUICK='2'"),
    ];
    for (name, value, want) in cases {
        let (opts, warnings) = parse(&[(name, value)]);
        assert_eq!(warnings.len(), 1, "{name}={value}: {warnings:?}");
        assert!(
            warnings[0].starts_with(want),
            "{name}={value}: {warnings:?}"
        );
        assert_eq!(opts.max_nnz, 150_000);
    }
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
