//! `perf` — the repository's benchmark: paper-scale TCCA fits and open-loop
//! serving, measured end to end, with a separate traced run for the layers.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` prints a
//! stamp line, a validity line, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; notes go to stderr.
//! `perf/README.md` maps every metric to its layer, workload and predicted
//! mover.

pub mod compare;
pub mod fit;
pub mod host;
pub mod json;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use fit::{corr_sum, fit_once, Replay};
use mvcore::{EstimatorRegistry, MultiViewModel};
use schedule::{derive, poisson, Arrival, Mix};
use serve::{Catalog, Flipper, Ladder, Stack, StepResult, Templates, Topology};
use stats::{median, quantile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Fits, Workload, HIGH_RPS, LOW_RPS, SERVED_NAMES};

/// Harness errors are reported as text.
pub type Res<T> = Result<T, String>;

/// Set-up repetitions per run.
const SETUP_REPS: usize = 5;
/// Zipf exponent of served-name popularity (rank 1 takes ~30% of 16 names).
const ZIPF_S: f64 = 1.0;
/// The latency limit `max_rate_rps` is measured against, ms.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Step between the ladder's probe rates.
const LADDER_FACTOR: f64 = 1.25;
/// Share of `--seconds` capping each ladder probe.
const PROBE_SHARE: f64 = 0.1;
/// Generator lateness beyond which a step's figures are invalid, ms.
pub const LATE_LIMIT_MS: f64 = 1.0;
/// Share of CPU time stolen by the hypervisor beyond which a step's figures
/// are invalid.
pub const STEAL_LIMIT: f64 = 0.02;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics instead.
    pub trace: bool,
    /// Shrink every size (tests).
    pub smoke: bool,
    /// Where model files and span dumps go.
    pub out_dir: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// No rate step was disturbed (generator late or CPU stolen) after one
    /// re-run. An invalid run's latencies describe the host, not the server;
    /// `perf compare` re-runs it.
    pub valid: bool,
    /// Operations attempted (fits, rate-step and ladder requests, and the
    /// traced run's probes).
    pub attempted: usize,
    /// Operations that failed, were shed or mismatched.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (sample counts, check failures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json::number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The validity line printed before the result line.
    pub fn validity_json(&self) -> String {
        format!("{{\"valid\": {}}}", self.valid)
    }

    /// Value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Running tally of operations and checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    /// Operations that failed: failed checks, mismatched replies, and
    /// rate-step requests that were shed, timed out or never answered.
    failed: usize,
    /// Output checks that failed (mismatched replies included): the run is
    /// not `correct`. Overload verdicts are not output checks.
    check_failures: usize,
    invalid: bool,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures += 1;
            self.notes.push(what());
        }
    }

    /// Count `failed` operations of which `mismatched` were output-check
    /// failures.
    fn failures(&mut self, failed: usize, mismatched: usize) {
        self.failed += failed;
        self.check_failures += mismatched;
    }

    fn step(&mut self, label: &str, step: &StepResult) {
        self.attempted += step.sent;
        self.failures(step.failed(), step.mismatched());
        if step.failed() > 0 {
            self.notes.push(format!("{label}: {:?}", step.outcomes()));
        }
        if step.disturbed() {
            self.invalid = true;
            self.notes.push(format!(
                "{label}: generator lateness p99 {:.3} ms (limit {LATE_LIMIT_MS}), {:.1}% CPU stolen (limit {:.0}%); run invalid",
                step.late_p99(),
                100.0 * step.steal_share,
                100.0 * STEAL_LIMIT
            ));
        }
    }
}

/// The fit side's results.
struct FitPhase {
    /// Models in Zipf rank order of their first use (plus a second
    /// generation for flipping workloads, last).
    models: Vec<Box<dyn MultiViewModel>>,
    /// Fit + embedding wall times, seconds, in the order run.
    seconds: Vec<f64>,
    /// The subset of `seconds` spent on the first input draw (the one the
    /// traced replay repeats).
    first_draw_seconds: Vec<f64>,
    /// Correlations of the first model: every refit must reproduce them.
    corr: Vec<f64>,
    /// Held-out instances of the first input draw.
    held_out: Vec<linalg::Matrix>,
    /// Training views of the first input draw (for refits and the replay).
    train: Vec<linalg::Matrix>,
    /// The fit spec of the first model.
    spec: mvcore::FitSpec,
    registry: EstimatorRegistry,
}

impl FitPhase {
    /// Fit the first input draw again and check that it reproduces the first
    /// fit bit for bit.
    fn refit(&mut self, tracer: &Tracer, tally: &mut Tally) -> Res<()> {
        let again = fit_once(&self.registry, &self.train, &self.spec, tracer)?;
        self.seconds.push(again.seconds);
        self.first_draw_seconds.push(again.seconds);
        let same = again.correlations.len() == self.corr.len()
            && again
                .correlations
                .iter()
                .zip(&self.corr)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        tally.check(again.embedding_ok && same, || {
            "refit of the same seed changed its correlations or embedding".into()
        });
        Ok(())
    }
}

/// Fit the workload's models (one, or every distinct one) and refit the
/// first `refits` times.
fn run_fits(
    w: &Workload,
    seed: u64,
    refits: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Res<FitPhase> {
    let registry = EstimatorRegistry::with_builtin();
    let spec = w.spec.clone().seed(seed);
    let held_out = w.serving.blocks * serve::BLOCK;
    let first = w.data.generate(derive(seed, 0), held_out)?;
    let base = fit_once(&registry, &first.train, &spec, tracer)?;
    tally.check(base.embedding_ok, || {
        "first fit: embedding not finite N x m*r".into()
    });
    let mut models = vec![base.model];
    let mut seconds = vec![base.seconds];
    if let Fits::Distinct { models: k } = w.fits {
        let extra = usize::from(w.serving.flip);
        for i in 1..k + extra {
            let views = w.data.generate(derive(seed, i as u64), held_out)?;
            let fit = fit_once(
                &registry,
                &views.train,
                &spec.clone().seed(seed + i as u64),
                tracer,
            )?;
            tally.check(fit.embedding_ok, || {
                format!("fit {i}: embedding not finite N x m*r")
            });
            seconds.push(fit.seconds);
            models.push(fit.model);
        }
    }
    let mut phase = FitPhase {
        models,
        seconds,
        first_draw_seconds: vec![base.seconds],
        corr: base.correlations,
        held_out: first.held_out,
        train: first.train,
        spec,
        registry,
    };
    for _ in 0..refits {
        phase.refit(tracer, tally)?;
    }
    Ok(phase)
}

/// Lay the fitted models out as served names (cyclically), with the last
/// model as the flipping name's second generation when the workload flips.
fn catalog(w: &Workload, fits: &FitPhase, dir: PathBuf) -> Res<Catalog> {
    let mut shared: Vec<(Vec<u8>, Arc<dyn MultiViewModel>)> = Vec::new();
    let tracer = Tracer::new(false);
    for m in &fits.models {
        let (bytes, loaded) = fit::save_load(&fits.registry, m.as_ref(), &tracer)?;
        shared.push((bytes, Arc::from(loaded)));
    }
    let flip = w.serving.flip.then_some(1usize);
    let distinct = shared.len() - usize::from(w.serving.flip);
    let models = (0..SERVED_NAMES)
        .map(|i| {
            let mut gens = vec![shared[i % distinct].clone()];
            if flip == Some(i) {
                gens.push(shared[distinct].clone());
            }
            serve::Served {
                name: format!("m{i:02}"),
                gens,
            }
        })
        .collect();
    let blocks = serve::blocks(&fits.held_out, w.serving.blocks);
    let views = blocks[0].len();
    Ok(Catalog {
        dir,
        models,
        flip,
        mix: Mix {
            models: SERVED_NAMES,
            zipf_s: ZIPF_S,
            full_share: w.serving.full_share,
            views,
            blocks: blocks.len(),
        },
        blocks,
    })
}

/// Set-up, repeated: write the model files, bring the stack up and get a
/// checked first reply from every name (lazy model loads included). The
/// inputs are generated once, before; only the program's work is timed. The
/// last stack stays up.
fn setup(
    w: &Workload,
    cat: &Catalog,
    templates: &Templates,
    tracer: &Tracer,
) -> Res<(Vec<f64>, Stack)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (stack, _) = tracer.span("setup", None, |_| -> Res<Stack> {
            cat.write()?;
            let stack = Stack::up(&cat.dir, w.serving.topology)?;
            serve::warm(stack.front, cat, templates)?;
            Ok(stack)
        });
        let stack = stack?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stack.down()?;
        } else {
            last = Some(stack);
        }
    }
    Ok((times, last.expect("at least one set-up")))
}

fn step_secs(s: &workload::Serving, share: f64, rate: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64((share * seconds).max(s.min_requests / rate))
}

fn arrivals(seed: u64, label: u64, rate: f64, dur: Duration, mix: &Mix) -> Vec<Arrival> {
    poisson(derive(seed, label), rate, dur, mix)
}

fn secs_fmt(v: &[f64]) -> String {
    let all: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
    format!(
        "n={} median={:.4} [{}]",
        v.len(),
        median(v).unwrap_or(f64::NAN),
        all.join(" ")
    )
}

/// Run one workload and return what it measured.
pub fn run(opts: &Options) -> Res<Outcome> {
    let w = workload::workload(&opts.workload, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {:?}",
            opts.workload,
            workload::NAMES
        )
    })?;
    let tracer = Tracer::new(opts.trace);
    let work = opts
        .out_dir
        .join(format!("{}-{}-{}", w.name, opts.seed, std::process::id()));
    let outcome = if opts.trace {
        run_traced(&w, opts, &tracer, &work)
    } else {
        run_untraced(&w, opts, &tracer, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome?;
    if opts.trace {
        let path = opts
            .out_dir
            .join(format!("trace-{}-{}.jsonl", w.name, opts.seed));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        tracer.write_jsonl(&mut file).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(outcome)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run_untraced(
    w: &Workload,
    opts: &Options,
    tracer: &Tracer,
    work: &std::path::Path,
) -> Res<Outcome> {
    let mut tally = Tally::default();
    // Re-runs of disturbed sub-steps stop once the run is this far in, so a
    // host in heavy contention cannot stretch a run past its time budget.
    let rerun_until = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut fits = run_fits(w, opts.seed, 0, tracer, &mut tally)?;
    let cat = catalog(w, &fits, work.join("models"))?;
    let templates = Templates::build(&cat)?;
    let (setup_times, stack) = setup(w, &cat, &templates, tracer)?;

    let s = &w.serving;
    let flipper = Flipper::start(&cat, stack.front);
    let run_step = |label: u64, rate: f64, dur: Duration| -> Res<StepResult> {
        let a = arrivals(opts.seed, label, rate, dur, &cat.mix);
        serve::open_loop(stack.front, &a, &templates, tracer)
    };
    // A disturbed sub-step (generator late or CPU stolen) is re-run once; if
    // it is disturbed again the run is marked invalid rather than slow.
    let rerun_if_disturbed = |label: u64, rate: f64, share: f64| -> Res<StepResult> {
        let dur = step_secs(s, share / s.rounds as f64, rate, opts.seconds);
        let mut step = run_step(label, rate, dur)?;
        if step.disturbed() && Instant::now() < rerun_until {
            step = run_step(label, rate, dur)?;
        }
        Ok(step)
    };
    // Rounds: refit, then one sub-step per rate. Refits spread over the run
    // sample the host at several moments; the rate-step figures are medians
    // over rounds.
    let (mut lows, mut highs) = (Vec::new(), Vec::new());
    for round in 0..s.rounds as u64 {
        fits.refit(tracer, &mut tally)?;
        // Let the fit's freed memory and threads settle before serving.
        std::thread::sleep(Duration::from_millis(200));
        let low = rerun_if_disturbed(1 + 2 * round, LOW_RPS, s.low_share)?;
        let high = rerun_if_disturbed(2 + 2 * round, HIGH_RPS, s.high_share)?;
        tally.step("low", &low);
        tally.step("high", &high);
        lows.push(low);
        highs.push(high);
    }
    let per_round = |steps: &[StepResult], q: f64| -> Vec<f64> {
        steps.iter().map(|st| st.latency(q)).collect()
    };
    let round_fmt = |steps: &[StepResult]| -> String {
        steps
            .iter()
            .map(|st| {
                format!(
                    "n={} p50={:.2} p90={:.2} late_p99={:.3}ms steal={:.1}%",
                    st.sent,
                    st.latency(0.5),
                    st.latency(0.9),
                    st.late_p99(),
                    100.0 * st.steal_share
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    let sent: usize = lows.iter().chain(&highs).map(|st| st.sent).sum();
    let failed: usize = lows.iter().chain(&highs).map(|st| st.failed()).sum();
    let low_notes = round_fmt(&lows);
    let high_notes = round_fmt(&highs);
    let (p50_low, p90_low) = (per_round(&lows, 0.5), per_round(&lows, 0.9));
    let (p50_high, p90_high) = (per_round(&highs, 0.5), per_round(&highs, 0.9));

    let ladder = Ladder {
        limit_ms: P99_LIMIT_MS,
        requests: s.ladder_requests,
        probe_s: PROBE_SHARE * opts.seconds,
        floor: LOW_RPS / 4.0,
        ceiling: HIGH_RPS * 16.0,
        factor: LADDER_FACTOR,
        rerun_until,
    };
    // Every round of the rate steps joins the ladder's estimate as a probe.
    let known: Vec<serve::Probe> = lows
        .into_iter()
        .map(|step| (LOW_RPS, step))
        .chain(highs.into_iter().map(|step| (HIGH_RPS, step)))
        .map(|(rate, step)| serve::Probe {
            rate,
            pass: ladder.passes(&step),
            step,
        })
        .collect();
    let known_count = known.len();
    let mut label = 100;
    let (max_rate, probes) = ladder.search(known, HIGH_RPS, s.ladder_passes, |rate, dur| {
        label += 1;
        run_step(label, rate, dur)
    })?;
    let flips = flipper.stop()?;
    stack.down()?;

    // The first probes are the rate steps' rounds, already tallied. Ladder
    // probes above the limit may be shed by design: only their mismatched
    // replies count as failed.
    let probes_only = &probes[known_count..];
    let mismatched: usize = probes_only.iter().map(|p| p.step.mismatched()).sum();
    tally.attempted += probes_only.iter().map(|p| p.step.sent).sum::<usize>();
    tally.failures(mismatched, mismatched);
    if mismatched > 0 {
        tally
            .notes
            .push(format!("ladder: {mismatched} mismatched replies"));
    }
    tally.notes.push(format!(
        "fit_s {}; setup_s {}; low rounds [{low_notes}]; high rounds [{high_notes}]; ladder {}; flips {flips}",
        secs_fmt(&fits.seconds),
        secs_fmt(&setup_times),
        probes_only
            .iter()
            .map(|p| format!("{:.0}:{}:p99={:.1}", p.rate, if p.pass { "pass" } else { "fail" }, p.step.latency(0.99)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let metrics = vec![
        metric("setup_s", med(&setup_times), "s"),
        metric(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
        // The process's first fit also pays for warming caches, page tables
        // and the thread pool: it is not a sample.
        metric("fit_s", med(&fits.seconds[1..]), "s"),
        metric("corr_sum", corr_sum(&fits.corr), "corr"),
        metric("p50_ms.low", med(&p50_low), "ms"),
        metric("p90_ms.low", med(&p90_low), "ms"),
        metric("p50_ms.high", med(&p50_high), "ms"),
        metric("p90_ms.high", med(&p90_high), "ms"),
        metric("max_rate_rps", max_rate, "1/s"),
        metric("ok_ratio", (sent - failed) as f64 / sent.max(1) as f64, "ratio"),
    ];
    Ok(Outcome {
        correct: tally.check_failures == 0,
        valid: !tally.invalid,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    })
}

/// Sum of the durations (s) of spans named `name` among `spans`.
fn total(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

fn med_us(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn run_traced(
    w: &Workload,
    opts: &Options,
    tracer: &Tracer,
    work: &std::path::Path,
) -> Res<Outcome> {
    let mut tally = Tally::default();
    let fits = run_fits(w, opts.seed, 2, tracer, &mut tally)?;
    let registry = &fits.registry;
    let embed = tracer.durations_s("core.embed");

    // Phase replays, each checked against the registry fit's correlations.
    let spec = fits.spec.clone();
    let base_corr = &fits.corr;
    let mut per_replay: Vec<(Vec<trace::Span>, Replay)> = Vec::new();
    // Two replays where a fit is cheap enough to afford them.
    let replays = if median(&fits.first_draw_seconds).unwrap_or(0.0) < 0.1 * opts.seconds {
        2
    } else {
        1
    };
    for _ in 0..replays {
        let before = tracer.len();
        let r = fit::replay(&fits.train, &spec, tracer)?;
        let same = r.correlations.len() == base_corr.len()
            && r.correlations
                .iter()
                .zip(base_corr)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        tally.check(same, || {
            "phase replay did not reproduce the fit's correlations".into()
        });
        per_replay.push((tracer.spans()[before..].to_vec(), r));
    }
    let phase = |name: &str| -> f64 {
        let v: Vec<f64> = per_replay.iter().map(|(s, _)| total(s, name)).collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let sketches = w.spec.whiten.randomized_budget().is_some();
    if !sketches {
        fit::sketch_probe(&fits.train, &spec, tracer)?;
    }
    let sketch_s = if sketches {
        phase("linalg.sketch")
    } else {
        med_us(&tracer.durations_s("linalg.sketch"))
    };
    for _ in 0..3 {
        let (_, loaded) = fit::save_load(registry, fits.models[0].as_ref(), tracer)?;
        let a = fits.models[0].transform_view(0, &fits.held_out[0]);
        let b = loaded.transform_view(0, &fits.held_out[0]);
        let same = matches!((&a, &b), (Ok(a), Ok(b)) if serve::bit_equal(a, b));
        tally.check(same, || {
            "saved and reloaded model projects differently".into()
        });
    }
    let tensor_s = phase("tcca.tensor_build");
    let cp_s = phase("tensor.cp_als");
    let whiten_s = phase("linalg.whiten");
    let project_s = phase("core.project");
    let sweeps = median(
        &per_replay
            .iter()
            .map(|(_, r)| r.sweeps as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let flops = per_replay[0].1.tensor_flops;
    let fit_s = median(&fits.first_draw_seconds).unwrap_or(f64::NAN);
    let embed_s = median(&embed).unwrap_or(f64::NAN);

    // Serving layers.
    let cat = catalog(w, &fits, work.join("models"))?;
    let templates = Templates::build(&cat)?;
    cat.write()?;
    let (stack, _) = tracer.span("setup", None, |_| -> Res<Stack> {
        let stack = Stack::up(&cat.dir, w.serving.topology)?;
        serve::warm(stack.front, &cat, &templates)?;
        Ok(stack)
    });
    let stack = stack?;
    let s = &w.serving;
    // Layer figures need fewer samples than the end-to-end tails: each
    // traced step sends the minimum request count of all rounds together.
    let low_dur = Duration::from_secs_f64(s.rounds as f64 * s.min_requests / LOW_RPS);
    let high_dur = Duration::from_secs_f64(s.rounds as f64 * s.min_requests / HIGH_RPS);
    let low_arrivals = arrivals(opts.seed, 1, LOW_RPS, low_dur, &cat.mix);
    let high_arrivals = arrivals(opts.seed, 2, HIGH_RPS, high_dur, &cat.mix);
    let flipper = Flipper::start(&cat, stack.front);
    let untraced = Tracer::new(false);
    let step = |arrivals: &[Arrival], tracer: &Tracer| -> Res<StepResult> {
        let first = serve::open_loop(stack.front, arrivals, &templates, tracer)?;
        if !first.disturbed() {
            return Ok(first);
        }
        serve::open_loop(stack.front, arrivals, &templates, tracer)
    };
    let low_plain = step(&low_arrivals, &untraced)?;
    let low = step(&low_arrivals, tracer)?;
    let before = serve::counters(stack.front)?;
    let high = step(&high_arrivals, tracer)?;
    let after = serve::counters(stack.front)?;
    flipper.stop()?;
    tally.step("low (untraced)", &low_plain);
    tally.step("low", &low);
    tally.step("high", &high);
    let delta = |k: &str| {
        after
            .get(k)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(k).copied().unwrap_or(0)) as f64
    };
    let requests = delta("requests");
    let batches = delta("batches");

    // Router hop: direct to one shard vs through the front, closed loop.
    let extra = match stack.router {
        Some(_) => None,
        None => Some(Stack::up(&cat.dir, Topology::Routed)?),
    };
    let rstack = extra.as_ref().unwrap_or(&stack);
    let hops = 200.min(low_arrivals.len());
    let direct = serve::round_trips(rstack.shards[0], &templates, &low_arrivals, hops)?;
    let routed = serve::round_trips(rstack.front, &templates, &low_arrivals, hops)?;
    let router_stats = rstack
        .router
        .as_ref()
        .map(|r| r.stats())
        .unwrap_or_default();
    if let Some(extra) = extra {
        extra.down()?;
    }
    stack.down()?;

    let engine = serve::engine_run(&cat.dir, &cat, &templates, &low_arrivals)?;
    tally.attempted += engine.latency_us.len();
    tally.failures(engine.failed, engine.failed);
    let (compute, bad) = serve::compute_probe(&cat.dir, &cat, &templates, &low_arrivals, tracer)?;
    tally.attempted += compute.len();
    tally.failures(bad, bad);
    let wire = serve::wire_probe(&templates, &low_arrivals, tracer)?;
    let (rescans, reloads) = serve::store_probe(work, &cat, 5, tracer)?;

    let compute_us = med_us(&compute);
    let engine_p50 = quantile(&engine.latency_us, 0.5).unwrap_or(f64::NAN);
    let late: Vec<f64> = low.late_ms.iter().chain(&high.late_ms).copied().collect();
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    tally.notes.push(format!(
        "engine n={} stats {:?}; batch base: {requests} requests in {batches} batches",
        engine.latency_us.len(),
        engine.stats
    ));
    let metrics = vec![
        metric("linalg.whiten_s", whiten_s, "s"),
        metric("linalg.sketch_s", sketch_s, "s"),
        metric("tcca.tensor_build_s", tensor_s, "s"),
        metric(
            "tcca.tensor_build_gflops",
            flops / tensor_s / 1e9,
            "GFLOP/s",
        ),
        metric("tensor.cp_als_s", cp_s, "s"),
        metric("tensor.cp_sweeps", sweeps, "count"),
        metric("tensor.sweep_ms", cp_s / sweeps.max(1.0) * 1e3, "ms"),
        metric(
            "tensor.mttkrp_ms",
            med_us(&tracer.durations_s("tensor.mttkrp")) * 1e3,
            "ms",
        ),
        metric("core.fit_s", fit_s, "s"),
        metric("core.embed_s", embed_s, "s"),
        metric(
            "core.unattributed_s",
            fit_s - whiten_s - tensor_s - cp_s - project_s - embed_s,
            "s",
        ),
        metric(
            "core.save_ms",
            med_us(&tracer.durations_s("core.save")) * 1e3,
            "ms",
        ),
        metric(
            "core.load_ms",
            med_us(&tracer.durations_s("core.load")) * 1e3,
            "ms",
        ),
        metric("wire.encode_us", med_us(&wire.encode_us), "us"),
        metric("wire.decode_us", med_us(&wire.decode_us), "us"),
        metric("wire.bytes_per_request", med_us(&wire.bytes), "B"),
        metric("batch.compute_us", compute_us, "us"),
        metric("batch.engine_p50_us", engine_p50, "us"),
        metric(
            "batch.engine_p99_us",
            quantile(&engine.latency_us, 0.99).unwrap_or(f64::NAN),
            "us",
        ),
        metric("batch.window_wait_us", engine_p50 - compute_us, "us"),
        metric("batch.requests", requests, "count"),
        metric("batch.batches", batches, "count"),
        metric(
            "batch.mean_batch_size",
            share(requests, batches),
            "requests",
        ),
        metric(
            "batch.singleton_share",
            share(delta("singleton_batches"), batches),
            "ratio",
        ),
        metric(
            "batch.coalesced_share",
            share(delta("coalesced_requests"), requests),
            "ratio",
        ),
        metric(
            "batch.zero_copy_share",
            share(delta("zero_copy_batches"), batches),
            "ratio",
        ),
        metric("router.shard_p50_us", med_us(&direct), "us"),
        metric("router.hop_p50_us", med_us(&routed) - med_us(&direct), "us"),
        metric("router.failovers", router_stats.failovers as f64, "count"),
        metric(
            "router.retries_denied",
            router_stats.retries_denied as f64,
            "count",
        ),
        metric("store.rescan_ms", med_us(&rescans), "ms"),
        metric("store.reload_ms", med_us(&reloads), "ms"),
        metric("server.throttled", delta("server/throttled"), "count"),
        metric(
            "server.shed_inflight",
            delta("server/shed_inflight"),
            "count",
        ),
        metric("server.wakeups", delta("server/wakeups"), "count"),
        metric(
            "server.events_per_wakeup",
            after.get("server/events_per_wakeup").copied().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "gen.late_p99_ms",
            quantile(&late, 0.99).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "trace.overhead_us",
            (low.latency(0.5) - low_plain.latency(0.5)) * 1e3,
            "us",
        ),
        metric("trace.spans", tracer.len() as f64, "count"),
    ];
    Ok(Outcome {
        correct: tally.check_failures == 0,
        valid: !tally.invalid,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    })
}
