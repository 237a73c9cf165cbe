//! Experiment options: the `NMPIC_*` environment knobs, parsed once and
//! resolved the same way by every experiment that has a selectable
//! system or execution mode.

use std::fmt::Display;
use std::str::FromStr;

use nmpic_system::{ExecMode, PartitionStrategy, SpmvEngine, SpmvEngineBuilder, SystemKind};

/// Common experiment options.
///
/// Environment knobs ([`ExperimentOpts::from_env`]):
///
/// * `NMPIC_QUICK=1` — smoke-test scale (20 000 nnz cap);
/// * `NMPIC_MAX_NNZ=<n>` — explicit nonzero cap (overrides quick);
/// * `NMPIC_SYSTEM`, `NMPIC_PARTITION`, `NMPIC_EXEC` — see the fields;
/// * `NMPIC_JOBS=<n>` — sweep worker threads (read by
///   [`nmpic_sim::pool::parallel_jobs`], listed here for discoverability).
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Cap on nonzeros per matrix; specs are scaled down to fit (the
    /// paper runs full-size matrices on RTL farms — cycle-accurate Rust
    /// runs scale them, preserving structure; see EXPERIMENTS.md).
    pub max_nnz: u64,
    /// System-kind override for experiments with a selectable system
    /// (`NMPIC_SYSTEM`, e.g. `pack256`, `base`, `sharded4`); `None`
    /// leaves each experiment's default in place.
    pub system: Option<SystemKind>,
    /// Partition-strategy override for sharded systems
    /// (`NMPIC_PARTITION`, `nnz` or `rows`).
    pub partition: Option<PartitionStrategy>,
    /// Execution-mode override (`NMPIC_EXEC`, `cycle` or `analytic`);
    /// `None` leaves each experiment's default (cycle-accurate) in
    /// place.
    pub exec: Option<ExecMode>,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self {
            max_nnz: 150_000,
            system: None,
            partition: None,
            exec: None,
        }
    }
}

impl ExperimentOpts {
    /// Reads the options from the process environment, printing a
    /// `warning:` line on stderr for every malformed value instead of
    /// silently falling back. See [`ExperimentOpts::from_lookup`].
    pub fn from_env() -> Self {
        let (opts, warnings) = Self::from_lookup(|name| std::env::var(name).ok());
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        opts
    }

    /// Parses `NMPIC_QUICK`, `NMPIC_MAX_NNZ`, `NMPIC_SYSTEM`,
    /// `NMPIC_PARTITION` and `NMPIC_EXEC` as `lookup` reports them,
    /// returning the options plus one warning per malformed value (the
    /// knob then keeps its default).
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_bench::ExperimentOpts;
    /// let (opts, warnings) =
    ///     ExperimentOpts::from_lookup(|name| (name == "NMPIC_QUICK").then(|| "1".to_string()));
    /// assert_eq!(opts.max_nnz, 20_000);
    /// assert!(warnings.is_empty());
    /// ```
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut opts = Self::default();
        let mut warnings = Vec::new();
        if let Some(v) = lookup("NMPIC_QUICK") {
            match v.trim() {
                "1" | "true" | "yes" => opts.max_nnz = 20_000,
                "" | "0" | "false" | "no" => {}
                other => warnings.push(format!(
                    "ignoring NMPIC_QUICK='{other}': expected 1/0/true/false"
                )),
            }
        }
        if let Some(v) = lookup("NMPIC_MAX_NNZ") {
            match v.trim().parse::<u64>() {
                Ok(n) if n > 0 => opts.max_nnz = n,
                Ok(_) => {
                    warnings.push("ignoring NMPIC_MAX_NNZ=0: the cap must be positive".to_string())
                }
                Err(_) => warnings.push(format!(
                    "ignoring NMPIC_MAX_NNZ='{v}': expected a positive integer"
                )),
            }
        }
        opts.system = selector("NMPIC_SYSTEM", &lookup, &mut warnings);
        opts.partition = selector("NMPIC_PARTITION", &lookup, &mut warnings);
        opts.exec = selector("NMPIC_EXEC", &lookup, &mut warnings);
        (opts, warnings)
    }

    /// The system an experiment runs when its own default is `default`:
    /// `NMPIC_SYSTEM` replaces the default, and `NMPIC_PARTITION`
    /// re-partitions whichever system results if it is sharded.
    pub(crate) fn system_or(&self, default: SystemKind) -> SystemKind {
        match (self.system.clone().unwrap_or(default), self.partition) {
            (SystemKind::Sharded { units, .. }, Some(strategy)) => {
                SystemKind::Sharded { units, strategy }
            }
            (kind, _) => kind,
        }
    }

    /// [`ExperimentOpts::system_or`] over an experiment's default system
    /// axis; an `NMPIC_SYSTEM` override collapses the axis to one point.
    pub(crate) fn systems_or(&self, defaults: Vec<SystemKind>) -> Vec<SystemKind> {
        let mut systems: Vec<SystemKind> =
            defaults.into_iter().map(|d| self.system_or(d)).collect();
        // An override maps every default to the same system.
        systems.dedup();
        systems
    }

    /// The engine builder of an experiment whose defaults are `system`
    /// and `exec`, with `NMPIC_SYSTEM` / `NMPIC_PARTITION` / `NMPIC_EXEC`
    /// applied — the one place the three knobs meet an engine.
    pub(crate) fn engine(&self, system: SystemKind, exec: ExecMode) -> SpmvEngineBuilder {
        SpmvEngine::builder()
            .system(self.system_or(system))
            .exec_mode(self.exec.unwrap_or(exec))
    }
}

/// Parses one of the three selector knobs: unset or blank is `None`, a
/// malformed value is `None` plus a warning.
fn selector<T: FromStr>(
    name: &str,
    lookup: &impl Fn(&str) -> Option<String>,
    warnings: &mut Vec<String>,
) -> Option<T>
where
    T::Err: Display,
{
    let value = lookup(name).filter(|v| !v.trim().is_empty())?;
    value
        .parse()
        .map_err(|e| warnings.push(format!("ignoring {name}: {e}")))
        .ok()
}
