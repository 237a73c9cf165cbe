//! Experiment options: the `NMPIC_*` environment knobs, parsed once.

/// Common experiment options.
///
/// Environment knobs ([`ExperimentOpts::from_env`]):
///
/// * `NMPIC_QUICK=1` — smoke-test scale (20 000 nnz cap);
/// * `NMPIC_JOBS=<n>` — sweep worker threads (read by
///   [`nmpic_sim::pool::parallel_jobs`], listed here for discoverability).
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Cap on nonzeros per matrix; specs are scaled down to fit (the
    /// paper runs full-size matrices on RTL farms — cycle-accurate Rust
    /// runs scale them, preserving structure; see EXPERIMENTS.md).
    pub max_nnz: u64,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self { max_nnz: 150_000 }
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

    /// Parses `NMPIC_QUICK` as `lookup` reports it, returning the
    /// options plus a warning for a malformed value (the knob then keeps
    /// its default).
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
        (opts, warnings)
    }
}
