//! The `analyze` workload: full IPA analysis passes over the four paper
//! applications, and the traced replay of the fixpoint through the
//! public `ipa-core` functions it is built from.

use crate::stats::{max, median, ms, quantile, Obj};
use crate::{Layers, Outcome};
use ipa_core::compensation::compensation_for;
use ipa_core::conflict::check_pair_in;
use ipa_core::generate::generate;
use ipa_core::numeric::numeric_conflicts;
use ipa_core::repair::{pick_resolution, repair_conflicts, Resolution};
use ipa_core::universe::build_universe;
use ipa_core::{AnalysisError, AnalysisReport, Analyzer};
use ipa_spec::{AppSpec, Operation, Symbol};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Verdicts the analysis tests pin for each app: (applied, flagged); every
/// app must also reach its fixpoint.
const EXPECTED: [(&str, usize, usize); 4] = [
    ("tournament", 4, 1),
    ("twitter-aw", 2, 0),
    ("ticket", 0, 0),
    ("tpc", 1, 1),
];

/// In a traced pass the stage times (universe, `check_pair`, repair) must
/// add up to the pass's wall time within this share of it; a larger gap
/// means a stage goes unmeasured and fails the traced run.
const CLOSURE_TOLERANCE_PCT: f64 = 5.0;

/// Specification builds timed after every analysis pass.
const SETUP_BUILDS: usize = 50;

/// Replay passes a traced run makes, each paired with an untraced pass.
const TRACED_PASSES: usize = 3;

fn build_specs() -> Vec<AppSpec> {
    vec![
        ipa_apps::tournament::tournament_spec(),
        ipa_apps::twitter::twitter_spec(false),
        ipa_apps::ticket::ticket_spec(),
        ipa_apps::tpc::tpc_spec(),
    ]
}

fn check_verdict(report: &AnalysisReport, errors: &mut Vec<String>) {
    let name = report.original.name.as_str();
    let Some(&(_, applied, flagged)) = EXPECTED.iter().find(|(n, _, _)| *n == name) else {
        errors.push(format!("analyze: unexpected app {name}"));
        return;
    };
    if report.applied.len() != applied || report.flagged.len() != flagged || !report.converged {
        errors.push(format!(
            "analyze: {name} gave applied={} flagged={} converged={}, expected {applied}/{flagged}/true",
            report.applied.len(),
            report.flagged.len(),
            report.converged
        ));
    }
}

/// Build the four specifications `SETUP_BUILDS` times, pushing each
/// build's time in seconds onto `setups`; returns the last build.
fn timed_builds(setups: &mut Vec<f64>) -> Vec<AppSpec> {
    let mut specs = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        specs = black_box(build_specs());
        setups.push(t.elapsed().as_secs_f64());
    }
    specs
}

/// One full analysis pass over `order`; returns the reports in `order`.
fn pass(specs: &[AppSpec], order: &[usize]) -> Result<Vec<AnalysisReport>, AnalysisError> {
    order
        .iter()
        .map(|&i| Analyzer::for_spec(&specs[i]).analyze(black_box(&specs[i])))
        .collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: building the four specifications. A build takes about
    // 0.1 ms and its time flips between two levels (about 70 and 120 µs
    // on the reference runner) as host contention comes and goes, so it
    // is repeated after every pass and `setup_s` is the 10th percentile
    // of all the builds of the run: the set-up cost with the least
    // interference.
    let mut setups = Vec::new();
    let specs = timed_builds(&mut setups);

    // The seed permutes the order the apps are analysed in each pass.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..specs.len()).collect();

    // Warm-up pass (untimed), then timed passes until the window closes.
    let mut last = match pass(&specs, &order) {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("analyze: {e}"));
            return out;
        }
    };
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut pass_ms = Vec::new();
    while pass_ms.len() < 3 || start.elapsed() < window {
        order.shuffle(&mut rng);
        let t = Instant::now();
        let reports = pass(&specs, &order);
        let dt = ms(t.elapsed());
        timed_builds(&mut setups);
        out.attempted += 1;
        match reports {
            Ok(reports) => {
                reports
                    .iter()
                    .for_each(|r| check_verdict(r, &mut out.errors));
                pass_ms.push(dt);
                last = reports;
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("analyze: {e}"));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let untraced_ms = median(&pass_ms);

    // Every pass does the same work, so the spread between passes is
    // host interference; the fastest pass repeats best between runs.
    let fastest_ms = pass_ms.iter().copied().fold(f64::MAX, f64::min);
    out.e2e.setup_s = quantile(&setups, 0.1);
    // An analysis has no replicated effect: it is done when it returns.
    out.e2e.done_ms = fastest_ms;

    out.report
        .str("unit_op", "one analysis pass over the four apps")
        .int("passes", pass_ms.len() as u64)
        .num("goodput_ops_s", pass_ms.len() as f64 / elapsed)
        .num("setup_median_s", median(&setups))
        .num("analysis_s", untraced_ms / 1e3)
        .num("analysis_p90_s", quantile(&pass_ms, 0.9) / 1e3)
        .num("analysis_min_s", fastest_ms / 1e3)
        .num("analysis_max_s", max(&pass_ms) / 1e3);

    if trace {
        traced(&specs, &last, &mut out);
    }
    out
}

/// Per-pass sums of the traced stages.
#[derive(Default)]
struct CoreTrace {
    universe: Duration,
    check: Duration,
    check_calls: u64,
    repeat_calls: u64,
    repair: Duration,
    repair_calls: u64,
    solutions: u64,
    iterations: u64,
    /// Inputs of each repair call, to count its candidates after the
    /// pass's clock stops.
    repaired: Vec<(AppSpec, Operation, Operation, usize)>,
}

impl CoreTrace {
    fn stages(&self) -> Duration {
        self.universe + self.check + self.repair
    }

    fn candidates(&self) -> u64 {
        self.repaired
            .iter()
            .map(|(spec, o1, o2, max)| generate(spec, o1, o2, *max).len() as u64)
            .sum()
    }
}

/// The parts of an [`AnalysisReport`] the replay must reproduce.
#[derive(PartialEq, Debug)]
struct Verdict {
    patched: AppSpec,
    applied: Vec<(String, Operation, Operation, Symbol)>,
    flagged: Vec<(Symbol, Symbol, String)>,
    numeric: usize,
    compensations: usize,
    converged: bool,
    iterations: usize,
}

impl Verdict {
    fn of(r: &AnalysisReport) -> Verdict {
        Verdict {
            patched: r.patched.clone(),
            applied: r
                .applied
                .iter()
                .map(|a| {
                    let res = &a.resolution;
                    (
                        a.witness.label(),
                        res.op1.clone(),
                        res.op2.clone(),
                        res.added_to.clone(),
                    )
                })
                .collect(),
            flagged: r
                .flagged
                .iter()
                .map(|f| (f.op1.clone(), f.op2.clone(), f.witness.label()))
                .collect(),
            numeric: r.numeric.len(),
            compensations: r.compensations.len(),
            converged: r.converged,
            iterations: r.iterations,
        }
    }
}

/// `Analyzer::analyze`, re-enacted from the benchmark through the public
/// stage functions with a timer around each stage call.
fn replay(spec: &AppSpec, t: &mut CoreTrace) -> Result<Verdict, AnalysisError> {
    let analyzer = Analyzer::for_spec(spec);
    let cfg = &analyzer.config;
    spec.validate()?;
    let mut patched = spec.clone();
    let numeric = numeric_conflicts(&patched);
    let compensations: Vec<_> = numeric.iter().map(compensation_for).collect();

    let mut applied: Vec<(String, Resolution)> = Vec::new();
    let mut flagged: Vec<(Symbol, Symbol, String)> = Vec::new();
    // Operation pairs already checked safe, as they were when checked:
    // checking such a pair again is repeated work (the verdict depends
    // only on the two operations and the invariants, which never change).
    let mut safe: HashSet<(Operation, Operation)> = HashSet::new();
    let mut converged = false;
    let mut iterations = 0;

    while iterations < cfg.max_iterations {
        iterations += 1;
        let s = Instant::now();
        let universe = build_universe(&patched, cfg.universe_per_sort);
        t.universe += s.elapsed();

        let n = patched.operations.len();
        let mut found = None;
        'search: for i in 0..n {
            for j in i..n {
                let o1 = &patched.operations[i];
                let o2 = &patched.operations[j];
                if flagged.iter().any(|f| f.0 == o1.name && f.1 == o2.name) {
                    continue;
                }
                let s = Instant::now();
                let w = check_pair_in(&patched, cfg, o1, o2, &universe)?;
                t.check += s.elapsed();
                t.check_calls += 1;
                let pair = (o1.clone(), o2.clone());
                if safe.contains(&pair) {
                    t.repeat_calls += 1;
                }
                match w {
                    Some(w) => {
                        found = Some((i, j, w));
                        break 'search;
                    }
                    None => {
                        safe.insert(pair);
                    }
                }
            }
        }
        let Some((i, j, witness)) = found else {
            converged = true;
            break;
        };
        let op1 = patched.operations[i].clone();
        let op2 = patched.operations[j].clone();
        let s = Instant::now();
        let sols = repair_conflicts(&patched, cfg, &op1, &op2)?;
        t.repair += s.elapsed();
        t.repair_calls += 1;
        t.solutions += sols.len() as u64;
        t.repaired.push((
            patched.clone(),
            op1.clone(),
            op2.clone(),
            cfg.max_added_effects,
        ));
        match pick_resolution(sols, cfg.policy, &op1.name) {
            None => flagged.push((op1.name.clone(), op2.name.clone(), witness.label())),
            Some(res) => {
                patched.replace_operation(res.op1.clone());
                patched.replace_operation(res.op2.clone());
                applied.push((witness.label(), res));
            }
        }
    }
    t.iterations += iterations as u64;
    Ok(Verdict {
        patched,
        applied: applied
            .into_iter()
            .map(|(w, r)| (w, r.op1, r.op2, r.added_to))
            .collect(),
        flagged,
        numeric: numeric.len(),
        compensations: compensations.len(),
        converged,
        iterations,
    })
}

/// Replay passes with stage timers; check the replay reproduces the
/// analysis exactly and that the stages account for the pass time.
fn traced(specs: &[AppSpec], reports: &[AnalysisReport], out: &mut Outcome) {
    let mut traces = Vec::new();
    let mut wall_ms = Vec::new();
    // Untraced passes interleaved with the traced ones, so the tracing
    // overhead compares passes run under the same machine conditions.
    let mut plain_ms = Vec::new();
    let order: Vec<usize> = (0..specs.len()).collect();
    for _ in 0..TRACED_PASSES {
        let start = Instant::now();
        if let Err(e) = pass(specs, &order) {
            out.errors.push(format!("analyze: {e}"));
            return;
        }
        plain_ms.push(ms(start.elapsed()));
        let mut t = CoreTrace::default();
        let start = Instant::now();
        for spec in specs {
            let verdict = match replay(spec, &mut t) {
                Ok(v) => v,
                Err(e) => {
                    out.errors.push(format!("analyze replay: {e}"));
                    return;
                }
            };
            let Some(report) = reports.iter().find(|r| r.original.name == spec.name) else {
                out.errors
                    .push(format!("analyze replay: no report for {}", spec.name));
                return;
            };
            if verdict != Verdict::of(report) {
                out.errors.push(format!(
                    "analyze replay: {} diverges from analyze()",
                    spec.name
                ));
            }
        }
        wall_ms.push(ms(start.elapsed()));
        traces.push(t);
    }
    let per_pass =
        |f: &dyn Fn(&CoreTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let universe_ms = per_pass(&|t| ms(t.universe));
    let check_ms = per_pass(&|t| ms(t.check));
    let repair_ms = per_pass(&|t| ms(t.repair));
    let stages_ms = per_pass(&|t| ms(t.stages()));
    let traced_ms = median(&wall_ms);
    let untraced_ms = median(&plain_ms);
    // Closure: within each traced pass, the share of its wall time no
    // stage timer covers (spec validation, numeric analysis, picking and
    // applying resolutions, and the replay's own bookkeeping).
    let gap_pct = median(
        &traces
            .iter()
            .zip(&wall_ms)
            .map(|(t, w)| (w - ms(t.stages())) / w * 100.0)
            .collect::<Vec<_>>(),
    );
    if gap_pct.abs() > CLOSURE_TOLERANCE_PCT {
        out.errors.push(format!(
            "analyze trace: stage timers leave {gap_pct:.2} % of a pass unmeasured \
             (tolerance {CLOSURE_TOLERANCE_PCT} %)"
        ));
    }
    let first = &traces[0];
    let candidates = first.candidates();

    let l: &mut Layers = &mut out.layers;
    l.core_universe_ms = universe_ms;
    l.core_check_pair_ms = check_ms;
    l.core_check_pair_calls = first.check_calls as f64;
    l.core_check_pair_repeat_calls = first.repeat_calls as f64;
    l.core_repair_ms = repair_ms;
    l.core_repair_calls = first.repair_calls as f64;
    l.core_repair_candidates = candidates as f64;
    l.core_repair_solutions = first.solutions as f64;
    l.core_repair_useful_ratio = first.solutions as f64 / candidates.max(1) as f64;
    l.core_fixpoint_iterations = first.iterations as f64;
    l.core_closure_gap_pct = gap_pct;
    l.bench_trace_overhead_pct = (traced_ms - untraced_ms) / untraced_ms * 100.0;

    let mut closure = Obj::default();
    closure
        .num("untraced_pass_ms", untraced_ms)
        .num("traced_pass_ms", traced_ms)
        .num("stages_ms", stages_ms)
        .num("gap_pct", gap_pct)
        .num("tolerance_pct", CLOSURE_TOLERANCE_PCT)
        .bool("within_tolerance", gap_pct.abs() <= CLOSURE_TOLERANCE_PCT)
        .num("share_check_pair_pct", check_ms / stages_ms * 100.0)
        .num("share_repair_pct", repair_ms / stages_ms * 100.0)
        .num("share_universe_pct", universe_ms / stages_ms * 100.0)
        .num(
            "overhead_pct",
            (traced_ms - untraced_ms) / untraced_ms * 100.0,
        );
    out.report.raw("closure", closure.encode());
}
