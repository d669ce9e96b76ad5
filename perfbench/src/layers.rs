//! The traced run: every engine call and serving session of a workload
//! broken into the layers it crosses, each timed from outside through
//! its public functions at the workload's call shape.
//!
//! Each engine call kind is measured in interleaved rounds: one round
//! times the whole call and then each of its parts, so every part sees
//! the same host conditions as the call it must add up to.  The parts a
//! sharded call runs on its workers (instance build, priming, words)
//! are timed on that many concurrent threads, each on its share of the
//! words, and the slowest worker is the one the call waits for.  The
//! parts must add up to the measured call within
//! [`COVERAGE_TOLERANCE`]; the run fails otherwise, as it fails when
//! outcomes or latency reports differ between one and two threads or
//! with metrics attached and detached.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datapath::event::{decode_operand_run, operand_bit_vectors};
use datapath::{
    BatchInference, DualRailInference, EventDrivenInference, InferenceOutcome,
    ParallelBatchInference,
};
use dualrail::{ProtocolDriver, SlicedProtocolDriver};
use exec::Executor;
use gatesim::{run_word_return_to_zero, EngineProgram, SlicedSimulator};
use netlist::LANES;
use tm_obs::{MetricsRegistry, SimMetrics};
use tsetlin::ExcludeMasks;

use crate::args::{Args, Workload};
use crate::report::Report;
use crate::setup::{
    generate, slice, train, verify, Base, BULK_OPERANDS, CORES, MODELS, SETUP_REPS,
};
use crate::stats::{mean, median, percentile};
use crate::workloads::{Load, Servers};
use crate::BoxError;

/// How far the summed layer parts may sit from the measured call.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// Shares of the run given to the dual-rail, event-driven and batch
/// rounds and to the serving sessions.
const DUALRAIL_SHARE: f64 = 0.40;
const EVENT_SHARE: f64 = 0.20;
const BATCH_SHARE: f64 = 0.10;
const SERVE_SHARE: f64 = 0.25;

/// Fewest measurement rounds per engine, whatever the budget.
const MIN_ROUNDS: usize = 15;

/// Within a round, a probe repeats until it has measured this long and
/// records its mean, so sub-microsecond parts are not timer noise.
const MIN_PROBE_NS: f64 = 20_000.0;

/// Fewest served requests the serving percentiles are taken over, so
/// p99 has at least ten requests beyond it.
const MIN_SERVED: usize = 1000;

/// How one workload calls its engines.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Operands per engine call.
    operands: usize,
    /// Engine worker threads.
    threads: usize,
    /// Distinct calls the measurements rotate through, spread over
    /// every trained machine.
    calls: usize,
}

impl Shape {
    fn of(workload: Workload) -> Self {
        match workload {
            Workload::Bulk => Self {
                operands: BULK_OPERANDS,
                threads: CORES,
                calls: MODELS,
            },
            Workload::ServeLow => Self {
                operands: 1,
                threads: 1,
                calls: 64,
            },
        }
    }

    /// Lanes of the first word of a call.
    fn lanes(self) -> usize {
        self.operands.min(LANES)
    }
}

/// The inputs of one engine call with their golden outcomes.
struct Call<'b> {
    masks: &'b ExcludeMasks,
    features: Vec<&'b [bool]>,
    expected: Vec<&'b InferenceOutcome>,
}

/// Runs the traced measurement of `args.workload`.
pub fn run(args: &Args) -> Result<Report, BoxError> {
    let shape = Shape::of(args.workload);
    let mut report = Report::default();
    setup_layers(args.seed, &mut report)?;

    let base = Base::build(args.seed, MODELS)?;
    let calls: Vec<Call<'_>> = (0..shape.calls)
        .map(|c| {
            let workload = &base.workloads[c % MODELS];
            let (features, expected) = slice(workload, c / MODELS * shape.operands, shape.operands);
            Call {
                masks: workload.masks(),
                features,
                expected,
            }
        })
        .collect();
    let share = |fraction: f64| Duration::from_secs_f64(args.seconds as f64 * fraction);
    // Every engine's call ends in the same golden verification.
    let verify_ns = dualrail_layers(&base, &calls, shape, share(DUALRAIL_SHARE), &mut report)?;
    event_layers(
        &base,
        &calls,
        shape,
        share(EVENT_SHARE),
        verify_ns,
        &mut report,
    )?;
    batch_layers(
        &base,
        &calls,
        shape,
        share(BATCH_SHARE),
        verify_ns,
        &mut report,
    )?;
    serve_layers(&base, args, share(SERVE_SHARE), &mut report)?;
    Ok(report)
}

/// One measurement: given the round's index, which picks the call it
/// measures, returns what it measured in nanoseconds, its own total
/// first.
type Probe<'p> = Box<dyn FnMut(usize) -> Result<Vec<f64>, BoxError> + 'p>;

/// Runs `probes` in interleaved rounds until `budget` has passed (and
/// at least [`MIN_ROUNDS`] rounds), and returns the median of every
/// component each probe reports.
fn rounds(budget: Duration, probes: &mut [Probe<'_>]) -> Result<Vec<Vec<f64>>, BoxError> {
    let start = Instant::now();
    let mut samples: Vec<Vec<Vec<f64>>> = vec![Vec::new(); probes.len()];
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for (probe, out) in probes.iter_mut().zip(&mut samples) {
            let mut sum = probe(round)?;
            let mut count = 1.0;
            while sum[0] < MIN_PROBE_NS {
                for (total, part) in sum.iter_mut().zip(probe(round)?) {
                    *total += part;
                }
                count += 1.0;
            }
            out.push(sum.into_iter().map(|total| total / count).collect());
        }
        round += 1;
    }
    samples
        .iter()
        .map(|rounds| {
            (0..rounds[0].len())
                .map(|c| {
                    let component: Vec<f64> = rounds.iter().map(|r| r[c]).collect();
                    median(&component).ok_or_else(|| "no rounds measured".into())
                })
                .collect()
        })
        .collect()
}

/// Nanoseconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as f64)
}

/// A call's sharded part, run through the executor itself with the
/// same one-word chunks: `init` once per worker (returning its state
/// and the nanoseconds of each of its steps), then `step` once per
/// claimed word, timing itself.  Returns the section's wall time, the
/// slowest worker's total, that worker's `init` parts, its first step
/// and the mean of its steps.
fn through_executor<I: Sync, S>(
    executor: &Executor,
    items: &[I],
    init: impl Fn() -> Result<(S, Vec<f64>), String> + Sync,
    step: impl Fn(&mut S, &I) -> Result<f64, String> + Sync,
) -> Result<Vec<f64>, BoxError> {
    let next_worker = AtomicUsize::new(0);
    let (chunks, wall) = timed(|| {
        executor.map_chunks_with(
            items,
            1,
            || (next_worker.fetch_add(1, Ordering::Relaxed), init(), true),
            |(worker, state, first), _, chunk| {
                let (state, init_ns) = state.as_mut().map_err(|e| e.clone())?;
                let step_ns = step(state, &chunk[0])?;
                let init_ns = if std::mem::take(first) {
                    init_ns.clone()
                } else {
                    Vec::new()
                };
                Ok::<_, String>((*worker, init_ns, step_ns))
            },
        )
    });
    let mut workers = vec![(Vec::new(), Vec::new()); next_worker.load(Ordering::Relaxed)];
    for chunk in chunks {
        let (worker, init_ns, step_ns) = chunk?;
        workers[worker].0.extend(init_ns);
        workers[worker].1.push(step_ns);
    }
    let total = |(init, steps): &(Vec<f64>, Vec<f64>)| init.iter().chain(steps).sum::<f64>();
    let slowest = workers
        .iter()
        .filter(|(_, steps)| !steps.is_empty())
        .max_by(|a, b| total(a).total_cmp(&total(b)))
        .ok_or("no worker ran a word")?;
    let mut parts = vec![wall, total(slowest)];
    parts.extend(&slowest.0);
    parts.push(slowest.1[0]);
    parts.push(mean(&slowest.1).unwrap_or(0.0));
    Ok(parts)
}

/// A pooled value lent to one executor worker, returned to the pool
/// when the worker drops it.
struct Lent<'p, T> {
    value: Option<T>,
    pool: &'p Mutex<Vec<T>>,
}

impl<'p, T> Lent<'p, T> {
    fn from(pool: &'p Mutex<Vec<T>>) -> Result<Self, String> {
        let value = pool.lock().map_err(|e| e.to_string())?.pop();
        Ok(Self {
            value: Some(value.ok_or("pool exhausted")?),
            pool,
        })
    }
}

impl<T> Drop for Lent<'_, T> {
    fn drop(&mut self) {
        if let (Some(value), Ok(mut pool)) = (self.value.take(), self.pool.lock()) {
            pool.push(value);
        }
    }
}

/// Records how much of the measured call the layer parts explain, and
/// fails the run when they miss it.
fn coverage(report: &mut Report, name: &'static str, parts_ns: f64, call_ns: f64) {
    let ratio = parts_ns / call_ns;
    report.metric(
        name,
        ratio,
        "ratio",
        format!(
            "parts {:.1} us / call {:.1} us",
            parts_ns / 1e3,
            call_ns / 1e3
        ),
    );
    if (ratio - 1.0).abs() > COVERAGE_TOLERANCE {
        report.fail(format!(
            "{name} = {ratio:.3}: the layer parts miss the measured call by more than {:.0}%",
            COVERAGE_TOLERANCE * 100.0
        ));
    }
}

/// Set-up phases, each the median of [`SETUP_REPS`] fresh set-ups.
fn setup_layers(seed: u64, report: &mut Report) -> Result<(), BoxError> {
    let mut phases: [Vec<f64>; 5] = Default::default();
    // Kept alive so no netlist reuses an address the memoised pre-flight
    // verdicts are keyed on.
    let mut kept = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (workloads, train_ns) = timed(|| train(seed, 1));
        let (circuits, generate_ns) = timed(generate);
        let (datapath, golden) = circuits?;
        let base = Box::new(Base {
            workloads,
            datapath,
            golden,
            library: celllib::Library::umc_ll(),
        });
        let (lint, lint_ns) = timed(|| {
            tm_lint::lint_dual_rail(
                base.datapath.circuit(),
                &base.library,
                &tm_lint::LintConfig::default(),
            )
        });
        if lint.error_count() != 0 {
            return Err(format!("lint found errors:\n{}", lint.render_errors()).into());
        }
        let (_, compile_ns) = timed(|| EngineProgram::new(base.datapath.netlist(), &base.library));
        let (engine, engine_ns) =
            timed(|| DualRailInference::new(&base.datapath, &base.library, CORES));
        drop(engine?);
        for (phase, ns) in
            phases
                .iter_mut()
                .zip([train_ns, generate_ns, lint_ns, compile_ns, engine_ns])
        {
            phase.push(ns / 1e9);
        }
        kept.push(base);
    }
    let names = [
        ("tsetlin.train_s", "train the seed's first machine"),
        (
            "datapath.generate_s",
            "generate the dual-rail and golden netlists",
        ),
        ("lint.check_s", "tm_lint::lint_dual_rail"),
        (
            "gatesim.compile_s",
            "EngineProgram::new on the dual-rail netlist",
        ),
        (
            "dualrail.engine_new_s",
            "DualRailInference::new (compile, pre-flight, prime)",
        ),
    ];
    for ((name, what), seconds) in names.into_iter().zip(&phases) {
        let value = median(seconds).ok_or("no set-up measured")?;
        report.metric(name, value, "s", format!("median of {SETUP_REPS}: {what}"));
    }
    Ok(())
}

/// The dual-rail call: encode, instance build, pre-flight, priming,
/// words, decode and verification, plus executor dispatch.  Returns the
/// verification time, which every engine's call shares.
fn dualrail_layers(
    base: &Base,
    calls: &[Call<'_>],
    shape: Shape,
    budget: Duration,
    report: &mut Report,
) -> Result<f64, BoxError> {
    let (datapath, library) = (&base.datapath, &base.library);
    let circuit = datapath.circuit();
    let at = |threads| DualRailInference::new(datapath, library, threads);
    let engines = [at(1)?, at(2)?];

    // Gates: bit-identical runs at one and two threads, with metrics
    // attached and detached, and thread-invariant metric snapshots.
    let registries = [
        Arc::new(MetricsRegistry::new()),
        Arc::new(MetricsRegistry::new()),
    ];
    let mut metered = [at(1)?, at(2)?];
    for (engine, registry) in metered.iter_mut().zip(&registries) {
        engine.set_metrics(registry, "perfbench");
    }
    let mut runs = Vec::with_capacity(calls.len());
    for call in calls {
        let run = engines[0].run_features_sliced(call.masks, &call.features)?;
        verify("dual-rail", &run.outcomes, &call.expected)?;
        for other in [&engines[1], &metered[0], &metered[1]] {
            if other.run_features_sliced(call.masks, &call.features)? != run {
                return Err("dual-rail runs differ across thread counts or metrics".into());
            }
        }
        runs.push(run);
    }
    if registries[0].snapshot() != registries[1].snapshot() {
        return Err("dual-rail metric snapshots differ between one and two threads".into());
    }
    report.attempted += (calls.len() * shape.operands * 4) as u64;

    let operands: Vec<Vec<Vec<bool>>> = calls
        .iter()
        .map(|call| {
            call.features
                .iter()
                .map(|f| datapath.operand_bits(f, call.masks))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let program = Arc::new(EngineProgram::new(datapath.netlist(), library));
    let snapshot =
        ProtocolDriver::from_program(circuit, Arc::clone(&program))?.quiescent_snapshot();
    let executor = Executor::new(shape.threads);
    let shaped = usize::from(shape.threads > 1);
    let call_probe = |engine: &DualRailInference<'_>, round: usize| {
        let call = &calls[round % calls.len()];
        let (run, ns) = timed(|| engine.run_features_sliced(call.masks, &call.features));
        verify("dual-rail", &run?.outcomes, &call.expected)?;
        Ok(vec![ns])
    };
    let mut probes: Vec<Probe<'_>> = vec![
        Box::new(|round| call_probe(&engines[shaped], round)),
        Box::new(|round| call_probe(&engines[0], round)),
        Box::new(|round| call_probe(&engines[1], round)),
        Box::new(|round| call_probe(&metered[shaped], round)),
        Box::new(|round| {
            let call = &calls[round % calls.len()];
            let (bits, ns) = timed(|| {
                call.features
                    .iter()
                    .map(|f| datapath.operand_bits(f, call.masks))
                    .collect::<Result<Vec<_>, _>>()
            });
            bits?;
            Ok(vec![ns])
        }),
        // The sharded part: per worker a fresh instance and its priming
        // (with the pre-flight lookup), then the words it claims.
        Box::new(|round| {
            let words: Vec<&[Vec<bool>]> = operands[round % calls.len()].chunks(LANES).collect();
            through_executor(
                &executor,
                &words,
                || {
                    let (sim, build) =
                        timed(|| SlicedSimulator::from_program(Arc::clone(&program)));
                    let (driver, prime) = timed(|| {
                        SlicedProtocolDriver::from_sliced_simulator(
                            circuit,
                            sim,
                            Arc::clone(&snapshot),
                            true,
                        )
                    });
                    Ok((driver.map_err(|e| e.to_string())?, vec![build, prime]))
                },
                |driver, word| {
                    let (results, ns) = timed(|| driver.apply_word(word));
                    match results.into_iter().find(Result::is_err) {
                        Some(Err(e)) => Err(e.to_string()),
                        _ => Ok(ns),
                    }
                },
            )
        }),
        Box::new(|round| {
            let run = &runs[round % calls.len()];
            let (outcomes, ns) = timed(|| {
                run.results
                    .iter()
                    .map(|r| datapath.decode_outcome(r))
                    .collect::<Result<Vec<_>, _>>()
            });
            outcomes?;
            Ok(vec![ns])
        }),
        Box::new(|round| {
            let (run, call) = (&runs[round % calls.len()], &calls[round % calls.len()]);
            let (checked, ns) = timed(|| verify("dual-rail", &run.outcomes, &call.expected));
            checked?;
            Ok(vec![ns])
        }),
        Box::new(|round| {
            let items = &operands[round % calls.len()];
            Ok(vec![
                timed(|| executor.map_chunks_with(items, LANES, || (), |(), _, _| ())).1,
            ])
        }),
        Box::new(|_| {
            let (verdict, ns) = timed(|| tm_lint::verify_static(circuit));
            verdict?;
            Ok(vec![ns])
        }),
    ];
    let m = rounds(budget, &mut probes)?;
    drop(probes);
    let (call, one, two, traced, encode) = (m[0][0], m[1][0], m[2][0], m[3][0], m[4][0]);
    let (section, chain, build, primed, word) = (m[5][0], m[5][1], m[5][2], m[5][3], m[5][5]);
    let (decode, verify_ns, dispatch, preflight) = (m[6][0], m[7][0], m[8][0], m[9][0]);

    // Engine counters over one pass of every call's words.
    let registry = MetricsRegistry::new();
    let mut counted = SlicedProtocolDriver::from_sliced_simulator(
        circuit,
        SlicedSimulator::from_program(Arc::clone(&program)),
        Arc::clone(&snapshot),
        true,
    )?;
    counted.attach_metrics(&registry, "perfbench");
    let mut counted_words = 0.0;
    for words in &operands {
        for word in words.chunks(LANES) {
            counted
                .apply_word(word)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
            counted_words += 1.0;
        }
    }
    counted.detach_metrics();
    let counters = registry.snapshot();
    let counted_operands = (calls.len() * shape.operands) as f64;
    let popped = counters.counter("perfbench.sim.events_popped") as f64;
    let coalesced = counters.counter("perfbench.sim.events_coalesced") as f64;

    let us = |ns: f64| ns / 1e3;
    let per_call = format!("median per call of {} operands", shape.operands);
    let on = format!("slowest worker at {} threads", shape.threads);
    report.metric("datapath.encode_us", us(encode), "us", per_call.clone());
    report.metric(
        "gatesim.instance_build_us",
        us(build),
        "us",
        format!("SlicedSimulator::from_program, {on}"),
    );
    report.metric(
        "lint.preflight_us",
        us(preflight),
        "us",
        "tm_lint::verify_static, memoised".into(),
    );
    report.metric(
        "dualrail.prime_us",
        us(primed - preflight),
        "us",
        format!("SlicedProtocolDriver::from_sliced_simulator minus pre-flight, {on}"),
    );
    report.metric(
        "dualrail.word_us",
        us(word),
        "us",
        format!("apply_word, {} lanes, {on}", shape.lanes()),
    );
    report.metric("datapath.decode_us", us(decode), "us", per_call.clone());
    report.metric("datapath.verify_us", us(verify_ns), "us", per_call);
    report.metric(
        "gatesim.ns_per_event",
        word * counted_words / popped,
        "ns",
        format!("{popped} events popped over {counted_words} words"),
    );
    report.metric(
        "gatesim.events_per_operand",
        popped / counted_operands,
        "events/op",
        "dual-rail word, both phases".into(),
    );
    report.metric(
        "gatesim.events_coalesced_per_operand",
        coalesced / counted_operands,
        "events/op",
        "lane events absorbed by equal-time coalescing".into(),
    );
    report.metric(
        "exec.dispatch_us",
        us(dispatch),
        "us",
        format!("map_chunks_with, empty body, {} threads", shape.threads),
    );
    report.metric(
        "exec.speedup_2v1",
        one / two,
        "ratio",
        format!(
            "dual-rail call: {:.1} us at 1 thread / {:.1} us at 2",
            us(one),
            us(two)
        ),
    );
    report.metric(
        "obs.overhead_pct",
        (traced - call) / call * 100.0,
        "%",
        format!(
            "dual-rail call with metrics attached: {:.1} us vs {:.1} us",
            us(traced),
            us(call)
        ),
    );
    report.metric(
        "exec.call_overhead_us",
        us(section - chain),
        "us",
        "executor section of the call minus its slowest worker's parts".into(),
    );
    let parts = encode + section + decode + verify_ns;
    coverage(report, "layer_coverage.dualrail", parts, call);
    Ok(verify_ns)
}

/// The event-driven call: encode, instance build, the first
/// return-to-zero word on the fresh instance (its spacer settles from
/// X), the remaining words, decode and verification, plus dispatch.
fn event_layers(
    base: &Base,
    calls: &[Call<'_>],
    shape: Shape,
    budget: Duration,
    verify_ns: f64,
    report: &mut Report,
) -> Result<(), BoxError> {
    let (model, library) = (&base.golden, &base.library);
    let config = *model.config();
    let engines = [
        EventDrivenInference::new(model, library, 1),
        EventDrivenInference::new(model, library, 2),
    ];
    for call in calls {
        let run = engines[0].run_features_sliced(call.masks, &call.features)?;
        verify("event-driven", &run.outcomes, &call.expected)?;
        if engines[1].run_features_sliced(call.masks, &call.features)? != run {
            return Err("event-driven runs differ between one and two threads".into());
        }
    }
    report.attempted += (calls.len() * shape.operands * 2) as u64;

    let operands: Vec<Vec<Vec<bool>>> = calls
        .iter()
        .map(|call| operand_bit_vectors(&config, call.masks, &call.features))
        .collect();
    let program = Arc::new(EngineProgram::new(model.netlist(), library));
    let mut warm = SlicedSimulator::from_program(Arc::clone(&program));
    let runs: Vec<Vec<gatesim::OperandRun>> = operands
        .iter()
        .map(|words| {
            words
                .chunks(LANES)
                .flat_map(|word| run_word_return_to_zero(&mut warm, word))
                .collect()
        })
        .collect();
    let engine = &engines[usize::from(shape.threads > 1)];
    let executor = Executor::new(shape.threads);
    let mut probes: Vec<Probe<'_>> = vec![
        Box::new(|round| {
            let call = &calls[round % calls.len()];
            let (run, ns) = timed(|| engine.run_features_sliced(call.masks, &call.features));
            verify("event-driven", &run?.outcomes, &call.expected)?;
            Ok(vec![ns])
        }),
        Box::new(|round| {
            let call = &calls[round % calls.len()];
            Ok(vec![
                timed(|| operand_bit_vectors(&config, call.masks, &call.features)).1,
            ])
        }),
        // The sharded part: per worker a fresh instance, then the words
        // it claims (the first settles its spacer from X).
        Box::new(|round| {
            let words: Vec<&[Vec<bool>]> = operands[round % calls.len()].chunks(LANES).collect();
            through_executor(
                &executor,
                &words,
                || {
                    let (sim, build) =
                        timed(|| SlicedSimulator::from_program(Arc::clone(&program)));
                    Ok((sim, vec![build]))
                },
                |sim, word| Ok(timed(|| run_word_return_to_zero(sim, word)).1),
            )
        }),
        // The kernel on a warm instance, whatever the call shape.
        Box::new(|round| {
            let word = &operands[round % calls.len()][..shape.lanes()];
            Ok(vec![timed(|| run_word_return_to_zero(&mut warm, word)).1])
        }),
        Box::new(|round| {
            let runs = &runs[round % calls.len()];
            let (outcomes, ns) = timed(|| {
                runs.iter()
                    .enumerate()
                    .map(|(k, run)| decode_operand_run(run, k))
                    .collect::<Result<Vec<_>, _>>()
            });
            verify(
                "event-driven words",
                &outcomes?,
                &calls[round % calls.len()].expected,
            )?;
            Ok(vec![ns])
        }),
    ];
    let m = rounds(budget, &mut probes)?;
    drop(probes);
    let (call, encode, section, first, word, decode) =
        (m[0][0], m[1][0], m[2][0], m[2][3], m[3][0], m[4][0]);

    let registry = MetricsRegistry::new();
    let mut counted = SlicedSimulator::from_program(Arc::clone(&program));
    counted.attach_metrics(SimMetrics::register(&registry, "perfbench"));
    for words in &operands {
        for word in words.chunks(LANES) {
            let _ = run_word_return_to_zero(&mut counted, word);
        }
    }
    counted.detach_metrics();
    let popped = registry.snapshot().counter("perfbench.events_popped") as f64;

    report.metric(
        "gatesim.word_rtz_us",
        word / 1e3,
        "us",
        format!(
            "run_word_return_to_zero on a warm instance, {} lanes",
            shape.lanes()
        ),
    );
    report.metric(
        "gatesim.rtz_first_word_us",
        first / 1e3,
        "us",
        "the same on a fresh instance, spacer settling from X".into(),
    );
    report.metric(
        "gatesim.rtz_events_per_operand",
        popped / (calls.len() * shape.operands) as f64,
        "events/op",
        "injection phase only".into(),
    );
    let parts = encode + section + decode + verify_ns;
    coverage(report, "layer_coverage.event", parts, call);
    Ok(())
}

/// The parallel batch call: 64-lane passes on each worker, plus
/// dispatch and verification.
fn batch_layers(
    base: &Base,
    calls: &[Call<'_>],
    shape: Shape,
    budget: Duration,
    verify_ns: f64,
    report: &mut Report,
) -> Result<(), BoxError> {
    let model = &base.golden;
    let engines = [
        ParallelBatchInference::new(model, 1)?,
        ParallelBatchInference::new(model, 2)?,
    ];
    for call in calls {
        let outcomes = engines[0].run_features(call.masks, &call.features)?;
        verify("parallel batch", &outcomes, &call.expected)?;
        if engines[1].run_features(call.masks, &call.features)? != outcomes {
            return Err("parallel batch outcomes differ between one and two threads".into());
        }
    }
    report.attempted += (calls.len() * shape.operands * 2) as u64;

    let engine = &engines[usize::from(shape.threads > 1)];
    let executor = Executor::new(shape.threads);
    let passes = Mutex::new(
        (0..shape.threads)
            .map(|_| BatchInference::new(model))
            .collect::<Result<Vec<_>, _>>()?,
    );
    let mut probes: Vec<Probe<'_>> = vec![
        Box::new(|round| {
            let call = &calls[round % calls.len()];
            let (outcomes, ns) = timed(|| engine.run_features(call.masks, &call.features));
            verify("parallel batch", &outcomes?, &call.expected)?;
            Ok(vec![ns])
        }),
        // The sharded part: each worker's 64-lane passes.
        Box::new(|round| {
            let call = &calls[round % calls.len()];
            let words: Vec<&[&[bool]]> = call.features.chunks(LANES).collect();
            through_executor(
                &executor,
                &words,
                || Ok((Lent::from(&passes)?, Vec::new())),
                |pass, word| {
                    let pass = pass.value.as_mut().ok_or("lent pass missing")?;
                    let (outcomes, ns) = timed(|| pass.infer_batch(call.masks, word));
                    outcomes.map_err(|e| e.to_string())?;
                    Ok(ns)
                },
            )
        }),
    ];
    let m = rounds(budget, &mut probes)?;
    drop(probes);
    let (call, section, word) = (m[0][0], m[1][0], m[1][3]);
    report.metric(
        "netlist.word_ns",
        word,
        "ns",
        format!("BatchInference::infer_batch, {} lanes", shape.lanes()),
    );
    coverage(report, "layer_coverage.batch", section + verify_ns, call);
    Ok(())
}

/// The serving layers: batching, queueing, service and the event loop
/// around them.  `bulk` does not serve, so its figures come from its
/// operands served through the same stack in full batches (a closed
/// loop, backend at the bulk thread count).
fn serve_layers(
    base: &Base,
    args: &Args,
    budget: Duration,
    report: &mut Report,
) -> Result<(), BoxError> {
    let (kind, threads) = match args.workload {
        Workload::Bulk => (Load::Closed, CORES),
        Workload::ServeLow => (Load::Open, 1),
    };
    let mut servers = Servers::new(base, threads)?;
    for k in 0..MODELS {
        servers.session(kind, k, args.seed, 0)?;
    }
    let (mut queue, mut service) = (Vec::new(), Vec::new());
    let (mut batch_count, mut wall_ns, mut service_ns) = (0usize, 0.0, 0.0);
    let start = Instant::now();
    let mut sessions = 0;
    // Whole rounds over the machines, as in the untraced run.
    while queue.len() < MIN_SERVED || start.elapsed() < budget || sessions % MODELS != 0 {
        sessions += 1;
        let k = sessions % MODELS;
        let (served, ns) = timed(|| servers.session(kind, k, args.seed, sessions as u64));
        let served = served?;
        wall_ns += ns;
        batch_count += served.batches.len();
        service_ns += served
            .batches
            .iter()
            .map(|b| b.service_ns as f64)
            .sum::<f64>();
        for record in &served.served {
            queue.push(record.queue_ns as f64 / 1e3);
            service.push(record.service_ns as f64 / 1e3);
        }
        report.attempted += (served.served_count() + served.shed_count()) as u64;
        report.failed += (served.shed_count() + served.deadline_expired_count()) as u64;
    }
    let n = queue.len();
    let of = format!("of {n} served requests ({})", kind.name());
    let stat = |value: Option<f64>| value.unwrap_or(f64::NAN);
    report.metric(
        "serve.queue_mean_us",
        stat(mean(&queue)),
        "us",
        format!("mean {of}"),
    );
    report.metric(
        "serve.queue_p99_us",
        stat(percentile(&queue, 99.0)),
        "us",
        format!("p99 {of}"),
    );
    report.metric(
        "serve.service_p50_us",
        stat(median(&service)),
        "us",
        format!("median {of}"),
    );
    report.metric(
        "serve.service_p99_us",
        stat(percentile(&service, 99.0)),
        "us",
        format!("p99 {of}"),
    );
    report.metric(
        "serve.mean_batch",
        n as f64 / batch_count as f64,
        "requests",
        format!("over {batch_count} batches"),
    );
    report.metric(
        "serve.loop_us_per_batch",
        (wall_ns - service_ns) / batch_count as f64 / 1e3,
        "us",
        "Server wall time minus summed service time, per batch".into(),
    );
    Ok(())
}
