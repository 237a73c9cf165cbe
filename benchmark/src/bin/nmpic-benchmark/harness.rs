//! What every workload shares: repeated set-up, the timed rep loop with
//! its determinism guard, the untraced and traced passes, and the result
//! a run prints and records.

use crate::clock::{ms_since, now_ns, timed};
use crate::inputs::FOLD_SEED;
use crate::json::Json;
use crate::metrics::{self, Decl, Measured};
use crate::probes;
use crate::stats::{median, quartiles};
use crate::trace::{layer_totals, Tracer};
use std::io::Write;
use std::path::PathBuf;

/// One `run` invocation's arguments.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Appends the run's record (one JSON object on one line) here; the
    /// files `compare` reads are built this way.
    pub out: Option<PathBuf>,
}

/// One timed repetition: host time of the calls into the program alone
/// (checking the results happens after the clock stops), the nonzeros
/// multiplied, the SpMV/solve operations it made, and a signature of its
/// simulated counts and result bits.
pub struct Rep {
    pub ms: f64,
    pub nnz: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sig: u64,
}

impl Rep {
    /// A rep that has done nothing yet.
    pub fn empty() -> Rep {
        Rep {
            ms: 0.0,
            nnz: 0,
            attempted: 0,
            failed: 0,
            sig: FOLD_SEED,
        }
    }
}

/// A measured pass over a workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the timed region: Σ rep times for rep loops, the
    /// whole phase for the service's closed loop.
    pub timed_s: f64,
    /// Host time of each timed operation (rep, solve, request).
    pub op_ms: Vec<f64>,
    /// Host throughput of each rep (of each window of requests, for the
    /// service): matrix nnz × vectors multiplied per second of its wall
    /// time, in Mnnz/s. The median rides out a slow phase of the host
    /// that the mean over the whole run would absorb.
    pub mnnz_per_s: Vec<f64>,
    /// Rep 1's signature, when reps are comparable.
    pub sig: Option<u64>,
}

/// A set-up workload, the time it took from inputs in hand to a first
/// verified result on every matrix, and the operations that took.
pub struct Setup<W> {
    pub state: W,
    pub cold_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl<W> Setup<W> {
    pub fn map<V>(self, f: impl FnOnce(W) -> V) -> Setup<V> {
        Setup {
            state: f(self.state),
            cold_ms: self.cold_ms,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

pub trait Workload: Sized {
    /// Set-ups per run: `setup_s` is their median, `cold_op_ms` the lower
    /// quartile of their cold-path times.
    const SETUP_REPS: usize;

    /// Generates inputs from `seed`, prepares resident plans, computes
    /// golden references and runs every plan once.
    fn setup(seed: u64) -> Setup<Self>;

    /// Measures for about `budget_s` seconds.
    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome;

    /// Quantities only this workload defines (simulated counts, model
    /// accuracy): printed and recorded beside the end-to-end metrics and
    /// gated by `compare`, never fabricated for workloads without them.
    fn detail(&self) -> Vec<(Decl, f64)> {
        Vec::new()
    }
}

/// Fewest reps a pass makes, however short its budget.
const MIN_REPS: usize = 3;

/// Runs `rep` until `budget_s` of wall time has passed (and at least
/// [`MIN_REPS`] times). A rep whose signature differs from rep 1's is a
/// failed operation: simulated counts and result bits must repeat.
pub fn rep_loop(
    budget_s: f64,
    tr: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer) -> Rep,
) -> Outcome {
    let start = now_ns();
    let mut out = Outcome::default();
    loop {
        tr.set_request(out.op_ms.len() as u64);
        let r = tr.scope("bench", "rep", &mut rep);
        let first = *out.sig.get_or_insert(r.sig);
        out.attempted += r.attempted;
        out.failed += (r.failed + u64::from(r.sig != first)).min(r.attempted);
        out.timed_s += r.ms / 1e3;
        out.op_ms.push(r.ms);
        out.mnnz_per_s.push(r.nnz as f64 / 1e3 / r.ms);
        if out.op_ms.len() >= MIN_REPS && ms_since(start) >= budget_s * 1e3 {
            return out;
        }
    }
}

/// One reported number.
pub struct Row {
    pub decl: Decl,
    pub value: f64,
    /// `(q1, q3, n)` of the samples a median was taken over.
    pub samples: Option<(f64, f64, usize)>,
}

/// Which quartile of a sample a row reports.
#[derive(Clone, Copy)]
enum Pick {
    Low,
    Median,
    High,
}

impl Row {
    fn of_samples(decl: Decl, samples: &[f64], pick: Pick) -> Row {
        let (q1, q2, q3) = quartiles(samples);
        Row {
            decl,
            value: match pick {
                Pick::Low => q1,
                Pick::Median => q2,
                Pick::High => q3,
            },
            samples: Some((q1, q3, samples.len())),
        }
    }
}

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics of this pass: end-to-end (untraced) or
    /// per-layer (traced).
    pub rows: Vec<Row>,
    /// Workload-specific quantities (untraced pass only).
    pub detail: Vec<Row>,
    pub reps: usize,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced pass: set up `SETUP_REPS` times, then measure.
fn untraced<W: Workload>(cfg: &Cfg) -> Result<Report, String> {
    let (mut setup_s, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut state = None;
    for _ in 0..W::SETUP_REPS {
        // One state alive at a time, so peak memory is one set-up's.
        drop(state.take());
        let (s, ms) = timed(|| W::setup(cfg.seed));
        setup_s.push(ms / 1e3);
        cold_ms.push(s.cold_ms);
        attempted += s.attempted;
        failed += s.failed;
        state = Some(s.state);
    }
    let mut state = state.ok_or("SETUP_REPS is zero")?;
    let out = state.measure(cfg.seconds, &mut Tracer::off());
    let table = metrics::end_to_end();
    let e2e = |name: &str| {
        let found = table.iter().find(|d| d.name == name);
        found
            .cloned()
            .unwrap_or_else(|| panic!("{name} is not declared"))
    };
    // Interference from the host's other tenants only ever slows a rep
    // down, so the fast-side quartile is the steadier estimate of what
    // the program costs: over ten seeds it spreads half as much as the
    // median on the two-thread workloads (README, "Agreement runs").
    let rows = vec![
        Row::of_samples(e2e("mnnz_per_s"), &out.mnnz_per_s, Pick::High),
        Row::of_samples(e2e("op_p25_ms"), &out.op_ms, Pick::Low),
        Row::of_samples(e2e("cold_op_ms"), &cold_ms, Pick::Low),
        Row {
            decl: e2e("peak_rss_mb"),
            value: peak_rss_mb()?,
            samples: None,
        },
        Row::of_samples(e2e("setup_s"), &setup_s, Pick::Median),
    ];
    let detail = state
        .detail()
        .into_iter()
        .map(|(decl, value)| Row {
            decl,
            value,
            samples: None,
        })
        .collect();
    Ok(Report {
        attempted: attempted + out.attempted,
        failed: failed + out.failed,
        rows,
        detail,
        reps: out.op_ms.len(),
    })
}

/// Shares of `--seconds` the traced run gives its untraced and traced
/// passes over the workload; the layer probes take the rest.
const PLAIN_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.35;
const SPAN_CAPACITY: usize = 1 << 18;

/// The traced run: the workload once without and once with spans (their
/// ratio is the tracing overhead), then the layer probes.
fn traced<W: Workload>(cfg: &Cfg) -> Result<Report, String> {
    let s = W::setup(cfg.seed);
    let mut state = s.state;
    let plain = state.measure(cfg.seconds * PLAIN_SHARE, &mut Tracer::off());
    let mut tr = Tracer::on(SPAN_CAPACITY);
    let spanned = state.measure(cfg.seconds * TRACED_SHARE, &mut tr);
    drop(state);

    let mut m = Measured::default();
    for (layer, (self_ns, calls)) in layer_totals(tr.spans()) {
        m.push(format!("trace.{layer}.self_ms"), self_ns as f64 / 1e6);
        m.push(format!("trace.{layer}.calls"), calls as f64);
    }
    m.push(
        "bench.trace_overhead_ratio",
        median(&spanned.op_ms) / median(&plain.op_ms),
    );
    m.push("bench.timed_s", spanned.timed_s);
    m.push("bench.reps", spanned.op_ms.len() as f64);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    m.push("bench.host_cores", cores as f64);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&path, format!("{}\n", tr.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{} spans ({} dropped) written to {}",
        tr.spans().len(),
        tr.dropped(),
        path.display()
    );

    let probed = probes::run(cfg.seed, &mut m);
    let table = metrics::per_layer();
    m.check(&table)?;
    let rows = table
        .into_iter()
        .map(|decl| Row {
            value: m.get(&decl.name).unwrap_or(f64::NAN),
            decl,
            samples: None,
        })
        .collect();
    // The traced pass must reproduce the untraced pass's counts and bits.
    let drifted = u64::from(plain.sig != spanned.sig);
    Ok(Report {
        attempted: s.attempted + plain.attempted + spanned.attempted + probed.attempted,
        failed: s.failed + plain.failed + spanned.failed + probed.failed + drifted,
        rows,
        detail: Vec::new(),
        reps: spanned.op_ms.len(),
    })
}

/// Where trace files go: `out/` beside `run.sh`.
fn out_dir() -> PathBuf {
    std::env::var_os("NMPIC_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

pub fn run<W: Workload>(cfg: &Cfg) -> Result<Report, String> {
    if cfg.trace {
        traced::<W>(cfg)
    } else {
        untraced::<W>(cfg)
    }
}

fn row_json(r: &Row) -> Json {
    let mut fields = vec![
        ("value", Json::Num(r.value)),
        ("unit", Json::str(r.decl.unit)),
        ("better", Json::str(r.decl.better.as_str())),
        ("bound", r.decl.bound.map_or(Json::Null, Json::Num)),
    ];
    if let Some((q1, q3, n)) = r.samples {
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
        fields.push(("n", Json::Num(n as f64)));
    }
    Json::obj(fields)
}

/// Prints every metric by name with its unit, appends the record to
/// `--out`, and ends with the contract's result object on the last line.
pub fn emit(cfg: &Cfg, report: &Report) -> Result<(), String> {
    let correct = report.failed == 0;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload {} seed {} seconds {} trace {} reps {} host_cores {cores} rustc {:?} commit {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        report.reps,
        env("NMPIC_BENCH_RUSTC"),
        env("NMPIC_BENCH_COMMIT"),
    );
    for r in report.rows.iter().chain(&report.detail) {
        let spread = r
            .samples
            .map(|(q1, q3, n)| format!("  (q1 {q1:.6} q3 {q3:.6} n {n})"))
            .unwrap_or_default();
        println!(
            "{:<44} {:>20.6} {}{spread}",
            r.decl.name, r.value, r.decl.unit
        );
    }
    println!(
        "{:<44} {:>20.6} ratio  ({} failed of {} attempted)",
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    if let Some(path) = &cfg.out {
        let record = Json::obj([
            ("workload", Json::str(&cfg.workload)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Num(f64::from(u8::from(cfg.trace)))),
            ("reps", Json::Num(report.reps as f64)),
            ("host_cores", Json::Num(cores as f64)),
            ("rustc", Json::str(env("NMPIC_BENCH_RUSTC"))),
            ("commit", Json::str(env("NMPIC_BENCH_COMMIT"))),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            (
                "metrics",
                Json::obj(
                    report
                        .rows
                        .iter()
                        .chain(&report.detail)
                        .map(|r| (r.decl.name.clone(), row_json(r))),
                ),
            ),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.rows.iter().map(|r| {
                (
                    r.decl.name.clone(),
                    Json::obj([
                        ("value", Json::Num(r.value)),
                        ("unit", Json::str(r.decl.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_loop_counts_a_drifting_rep_as_failed() {
        let mut k = 0;
        let out = rep_loop(0.0, &mut Tracer::off(), |_| {
            k += 1;
            Rep {
                ms: 1.0,
                nnz: 10,
                attempted: 2,
                failed: 0,
                sig: u64::from(k == 2),
            }
        });
        assert_eq!(out.op_ms.len(), MIN_REPS);
        assert_eq!((out.attempted, out.failed), (6, 1));
        assert_eq!(out.mnnz_per_s, [0.01; MIN_REPS]);
        assert_eq!(out.sig, Some(0));
        assert!((out.timed_s - 0.003).abs() < 1e-12);
    }

    #[test]
    fn rep_loop_opens_one_span_per_rep() {
        let mut tr = Tracer::on(16);
        rep_loop(0.0, &mut tr, |tr| {
            tr.call("system", "run", || ());
            Rep {
                ms: 1.0,
                nnz: 1,
                attempted: 1,
                failed: 0,
                sig: 0,
            }
        });
        let requests: Vec<u64> = tr.spans().iter().map(|s| s.request).collect();
        assert_eq!(requests, [0, 0, 1, 1, 2, 2]);
    }
}
