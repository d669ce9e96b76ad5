//! The untraced runs: each workload as its caller sees it, reporting
//! every end-to-end metric.
//!
//! Every run reports the same metric names.  `*_sps` is an engine's
//! samples per second of host time at the workload's call shape (bulk:
//! 4096-operand calls at two threads; `serve_low`: the batches the
//! server dispatched, one thread).  On `serve_low` the dual-rail figure
//! is the served backend's own service time, and the event and batch
//! figures replay the same batches on those engines.  `latency_*` is
//! what one caller waits for: a whole bulk job (one call on each
//! engine), or one served request's sojourn (queue plus service).
//! `throughput_rps` counts completed requests per second: bulk samples
//! scored on every engine per second of job time, or served requests
//! per second of the virtual serving clock.  `sim_avg_latency_ps` is
//! simulated time, not host time.  `setup_s` is the median of set-ups
//! spread evenly over the run.
//!
//! Calls and sessions rotate through the run's trained machines in
//! whole rounds, so every machine weighs the same in every figure.
//!
//! `serve_low` runs [`CORES`] identical, independent replicas side by
//! side, one per core: the cores of a shared host can differ in speed
//! by half, and a single serving thread would measure whichever core
//! the scheduler picked.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use datapath::{
    DualRailInference, DualRailRun, EventDrivenInference, InferenceOutcome, InferenceWorkload,
    ParallelBatchInference,
};
use tm_async_bench::serving::sweep_config;
use tm_serve::{DualRailSlicedBackend, ServeReport, Server, Trace};

use crate::args::{Args, Workload};
use crate::report::Report;
use crate::setup::{
    slice, verify, Base, Engines, Setups, BULK_OPERANDS, CORES, MODELS, SETUP_REPS,
};
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::BoxError;

/// Fixed open-loop arrival rate of `serve_low`, requests per second of
/// virtual time.  A constant, never derived from a capacity
/// calibration, so the offered load does not drift with host speed.
pub const SERVE_LOW_RATE_RPS: f64 = 250.0;

/// Requests per `serve_low` session (one Poisson trace).
pub const SERVE_LOW_SESSION: usize = 125;

/// Clients of the closed loop the traced `bulk` run serves its operands
/// through, with zero think time: twice the 64 lanes of a batch, so
/// every batch fills.
pub const CLOSED_LOOP_CLIENTS: usize = 128;

/// Requests per closed-loop session.
pub const CLOSED_LOOP_SESSION: usize = 4096;

/// Rounds per block of `bulk` jobs the tail is taken over: 7 rounds of
/// 16 machines are 112 jobs, enough for p91 with ten jobs beyond it.
pub const TAIL_BLOCK_ROUNDS: usize = 7;

/// Runs `args.workload` untraced for `args.seconds` seconds.
pub fn run(args: &Args) -> Result<Report, BoxError> {
    match args.workload {
        Workload::Bulk => bulk(args),
        Workload::ServeLow => serve(args),
    }
}

/// Runs `call` for machines `0..MODELS`, `rounds` times over, again and
/// again for `seconds` from now, finishing the rounds in progress; at
/// least once.
fn in_rounds<E>(
    seconds: u64,
    rounds: usize,
    mut call: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        for _ in 0..rounds {
            for k in 0..MODELS {
                call(k)?;
            }
        }
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

fn bulk(args: &Args) -> Result<Report, BoxError> {
    let base = Base::build(args.seed, MODELS)?;
    let engines = Engines::new(&base, CORES)?;

    // The golden gate before any timing counts: a reference run per
    // machine, then one untimed job each to warm the caches.
    let references = base
        .workloads
        .iter()
        .map(|w| engines.dualrail.run_workload_sliced(w))
        .collect::<Result<Vec<_>, _>>()?;
    let expected: Vec<Vec<&InferenceOutcome>> = base
        .workloads
        .iter()
        .map(|w| slice(w, 0, w.len()).1)
        .collect();
    let job = |k: usize| Job {
        workload: &base.workloads[k],
        expected: &expected[k],
        reference: &references[k],
    };
    for k in 0..MODELS {
        job(k).run(&engines, &mut BulkTimings::default())?;
    }
    let mut setups = Setups::new(args.seed, args.seconds, |base: &Base| {
        Engines::new(base, CORES).map(drop)
    });
    let mut timings: Vec<BulkTimings> = (0..MODELS).map(|_| BulkTimings::default()).collect();
    // Every job's seconds, in the order they ran.
    let mut jobs = Vec::new();
    in_rounds(args.seconds, TAIL_BLOCK_ROUNDS, |k| {
        setups.due()?;
        let start = Instant::now();
        job(k).run(&engines, &mut timings[k])?;
        jobs.push(start.elapsed().as_secs_f64());
        Ok::<_, BoxError>(())
    })?;

    let mut report = Report::default();
    report.attempted = (3 * BULK_OPERANDS * jobs.len()) as u64;
    setup_metric(&mut report, setups.median()?, "the median");
    let calls = format!(
        "{} calls of {BULK_OPERANDS} operands at {CORES} threads over {MODELS} machines",
        jobs.len()
    );
    for (name, times) in [
        (
            "dualrail_sps",
            timings.iter().map(|t| &t.dualrail).collect::<Vec<_>>(),
        ),
        ("event_sps", timings.iter().map(|t| &t.event).collect()),
        ("batch_sps", timings.iter().map(|t| &t.batch).collect()),
    ] {
        // Per machine the median call; the rate is one pass over every
        // machine's operands in those times.
        let medians = times
            .iter()
            .map(|t| med(t))
            .collect::<Result<Vec<_>, _>>()?;
        let rate = (BULK_OPERANDS * MODELS) as f64 / medians.iter().sum::<f64>();
        report.metric(name, rate, "1/s", format!("per-machine median of {calls}"));
    }
    let sim = references
        .iter()
        .map(|r| r.latency.average_ps())
        .collect::<Vec<_>>();
    let sim_max = references
        .iter()
        .map(|r| r.latency.max_ps())
        .fold(0.0, f64::max);
    report.metric(
        "sim_avg_latency_ps",
        mean(&sim).unwrap_or(f64::NAN),
        "ps",
        format!(
            "simulated spacer->valid mean over {} operands (max {sim_max} ps)",
            BULK_OPERANDS * MODELS
        ),
    );
    let n = jobs.len();
    report.metric(
        "latency_p50_us",
        med(&jobs)? * 1e6,
        "us",
        format!("median of {n} bulk jobs (one call per engine)"),
    );
    // The tail is taken per block of whole rounds and the median block
    // reported, as the serving tail is taken per round: a host stall
    // delays a job or two, and a tail over the whole run would move
    // with how many stalls the run happened to meet.
    let block = TAIL_BLOCK_ROUNDS * MODELS;
    let p = tail_percentile(block).ok_or("a block of jobs is too small for a tail")?;
    let tails: Vec<f64> = jobs
        .chunks(block)
        .filter_map(|jobs| percentile(jobs, p))
        .collect();
    report.metric(
        "latency_tail_us",
        med(&tails)? * 1e6,
        "us",
        format!(
            "median over {} blocks of {block} jobs of each block's p{p}",
            tails.len()
        ),
    );
    // One pass over every machine's operands at each machine's median
    // job, as the engine rates above.  Jobs ran machine by machine in
    // whole rounds, so machine `k`'s are every `MODELS`-th from `k`.
    let per_machine = (0..MODELS)
        .map(|k| {
            let own: Vec<f64> = jobs.iter().skip(k).step_by(MODELS).copied().collect();
            med(&own)
        })
        .collect::<Result<Vec<_>, _>>()?;
    report.metric(
        "throughput_rps",
        (BULK_OPERANDS * MODELS) as f64 / per_machine.iter().sum::<f64>(),
        "1/s",
        format!("samples scored on every engine per second, per-machine median of {n} jobs"),
    );
    Ok(report)
}

/// Seconds per call of each engine for one machine.
#[derive(Default)]
struct BulkTimings {
    dualrail: Vec<f64>,
    event: Vec<f64>,
    batch: Vec<f64>,
}

/// One bulk job's inputs: a machine's workload, its golden outcomes
/// and the reference dual-rail run of the same inputs.
struct Job<'a> {
    workload: &'a InferenceWorkload,
    expected: &'a [&'a InferenceOutcome],
    reference: &'a DualRailRun,
}

impl Job<'_> {
    /// A `run_workload_sliced` call on each gate-level engine and one
    /// call on the parallel batch engine, every outcome verified and the
    /// dual-rail run checked bit-identical to the reference run.
    fn run(&self, engines: &Engines<'_>, timings: &mut BulkTimings) -> Result<(), BoxError> {
        let start = Instant::now();
        let dualrail = engines.dualrail.run_workload_sliced(self.workload)?;
        timings.dualrail.push(start.elapsed().as_secs_f64());
        verify("dual-rail", &dualrail.outcomes, self.expected)?;
        if dualrail != *self.reference {
            return Err("dual-rail run differs from the reference run of the same inputs".into());
        }

        let start = Instant::now();
        let event = engines.event.run_workload_sliced(self.workload)?;
        timings.event.push(start.elapsed().as_secs_f64());
        verify("event-driven", &event.outcomes, self.expected)?;

        let start = Instant::now();
        let batch = engines.batch.run_workload(self.workload)?;
        timings.batch.push(start.elapsed().as_secs_f64());
        verify("parallel batch", &batch, self.expected)?;
        Ok(())
    }
}

/// How a serving session offers its requests.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `serve_low`: a fresh Poisson trace at the fixed low rate.
    Open,
    /// A closed loop of [`CLOSED_LOOP_CLIENTS`] clients with zero think
    /// time, which fills every batch.
    Closed,
}

impl Load {
    /// How the traced run's log names the load.
    pub fn name(self) -> &'static str {
        match self {
            Self::Open => "open loop",
            Self::Closed => "closed loop",
        }
    }
}

/// The serving stack: one server per trained machine over the
/// bit-sliced dual-rail backend (the backend binds the masks), plus
/// one-thread event and batch engines the served batches are replayed
/// on.
pub struct Servers<'a> {
    pub servers: Vec<Server<'a, DualRailSlicedBackend<'a>>>,
    pub event: EventDrivenInference<'a>,
    pub batch: ParallelBatchInference<'a>,
}

impl<'a> Servers<'a> {
    pub fn new(base: &'a Base, backend_threads: usize) -> Result<Self, BoxError> {
        let servers = base
            .workloads
            .iter()
            .map(|workload| {
                let backend = DualRailSlicedBackend::new(
                    &base.datapath,
                    &base.library,
                    workload.masks().clone(),
                    backend_threads,
                )?;
                Ok(Server::new(backend, workload, sweep_config())?)
            })
            .collect::<Result<Vec<_>, BoxError>>()?;
        Ok(Self {
            servers,
            event: EventDrivenInference::new(&base.golden, &base.library, 1),
            batch: ParallelBatchInference::new(&base.golden, 1)?,
        })
    }

    /// Serves session `index` on machine `k` under `load`.  The server
    /// verifies every served outcome against its golden outcome.
    pub fn session(
        &mut self,
        load: Load,
        k: usize,
        seed: u64,
        index: u64,
    ) -> Result<ServeReport, BoxError> {
        let server = &mut self.servers[k];
        Ok(match load {
            Load::Closed => server.run_closed(CLOSED_LOOP_CLIENTS, CLOSED_LOOP_SESSION, 0)?,
            Load::Open => {
                let trace_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index;
                let trace = Trace::poisson(SERVE_LOW_SESSION, SERVE_LOW_RATE_RPS, trace_seed);
                server.run(&trace)?
            }
        })
    }
}

/// The sample indices of every dispatched batch, in dispatch order.
fn batches(report: &ServeReport) -> Vec<Vec<usize>> {
    let mut batches = vec![Vec::new(); report.batches.len()];
    for record in &report.served {
        batches[record.batch].push(record.sample);
    }
    batches
}

/// Everything the serving runs accumulate across sessions.
#[derive(Default)]
struct ServeTotals {
    /// The replica's median set-up.
    setup_s: f64,
    requests: u64,
    failed: u64,
    sessions: u64,
    served: u64,
    makespan_ns: f64,
    sojourn_s: Vec<f64>,
    /// The p99 sojourn of each round over every machine.
    round_p99_s: Vec<f64>,
    sim_latency_ps: f64,
    /// Samples per second of each dispatched batch, and of its replays.
    dualrail_sps: Vec<f64>,
    event_sps: Vec<f64>,
    batch_sps: Vec<f64>,
}

fn serve(args: &Args) -> Result<Report, BoxError> {
    let base = Base::build(args.seed, MODELS)?;
    let replicas = (0..CORES)
        .map(|_| Servers::new(&base, 1))
        .collect::<Result<Vec<_>, _>>()?;

    // The golden gate before timing, which also tabulates every
    // sample's simulated latency on the served engine.
    let gate = DualRailInference::new(&base.datapath, &base.library, 1)?;
    let mut sim_ps = Vec::with_capacity(MODELS);
    for workload in &base.workloads {
        let run = gate.run_workload_sliced(workload)?;
        verify(
            "dual-rail",
            &run.outcomes,
            &slice(workload, 0, workload.len()).1,
        )?;
        sim_ps.push(run.latency.latencies_ps().to_vec());
    }

    let (base, sim_ps, warm) = (&*base, &sim_ps, &Barrier::new(CORES));
    let replica_totals = std::thread::scope(|scope| {
        let handles: Vec<_> = replicas
            .into_iter()
            .enumerate()
            .map(|(r, servers)| {
                scope.spawn(move || serve_replica(args, base, servers, r, sim_ps, warm))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("serving replica panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let replicas = replica_totals.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Every figure is taken per replica and averaged: one replica may run
    // on a faster core than the other, and a median over their pooled
    // requests would jump to whichever replica served slightly more.
    let across = |figure: &dyn Fn(&ServeTotals) -> Result<f64, BoxError>| {
        let values = replicas.iter().map(figure).collect::<Result<Vec<_>, _>>()?;
        mean(&values).ok_or_else(|| BoxError::from("no replica ran"))
    };
    let count = |n: &dyn Fn(&ServeTotals) -> usize| replicas.iter().map(n).sum::<usize>();
    let mut report = Report::default();
    report.attempted = replicas.iter().map(|t| t.requests).sum();
    report.failed = replicas.iter().map(|t| t.failed).sum();
    setup_metric(
        &mut report,
        across(&|t| Ok(t.setup_s))?,
        &format!("the mean over {CORES} replicas of the median"),
    );
    let per_replica = |what: &str, n: usize| {
        format!("mean over {CORES} replicas of the median over their {n} {what}")
    };
    let batches = count(&|t| t.dualrail_sps.len());
    report.metric(
        "dualrail_sps",
        across(&|t| med(&t.dualrail_sps))?,
        "1/s",
        per_replica("served batches' size / service time", batches),
    );
    report.metric(
        "event_sps",
        across(&|t| med(&t.event_sps))?,
        "1/s",
        per_replica("replayed batches", batches),
    );
    report.metric(
        "batch_sps",
        across(&|t| med(&t.batch_sps))?,
        "1/s",
        per_replica("replayed batches", batches),
    );
    let served = count(&|t| t.sojourn_s.len());
    report.metric(
        "sim_avg_latency_ps",
        across(&|t| Ok(t.sim_latency_ps / t.served as f64))?,
        "ps",
        format!("simulated spacer->valid mean over {served} served requests"),
    );
    report.metric(
        "latency_p50_us",
        across(&|t| Ok(med(&t.sojourn_s)? * 1e6))?,
        "us",
        per_replica("request sojourns (queue + service)", served),
    );
    // The tail is taken per round (every machine once, at least 2000
    // requests, so at least 20 beyond p99), and the median round
    // reported: a host stall of a few milliseconds hits a handful of
    // batches, and a p99 over a whole run would move with how many
    // stalls the run happened to meet.
    let rounds = count(&|t| t.round_p99_s.len());
    report.metric(
        "latency_tail_us",
        across(&|t| Ok(med(&t.round_p99_s)? * 1e6))?,
        "us",
        format!("mean over {CORES} replicas of the median p99 sojourn of their {rounds} rounds"),
    );
    report.metric(
        "throughput_rps",
        across(&|t| Ok(t.served as f64 / t.makespan_ns * 1e9))?,
        "1/s",
        format!(
            "served requests per virtual second, mean over {CORES} replicas of {} sessions \
             on {MODELS} machines",
            count(&|t| t.sessions as usize)
        ),
    );
    Ok(report)
}

/// One serving replica: an untimed warm-up session per machine, then,
/// once every replica is warm, sessions over every machine in whole
/// rounds for the run's seconds, each followed by the replay of its
/// batches, with the replica's set-ups spread among them.
fn serve_replica(
    args: &Args,
    base: &Base,
    mut servers: Servers<'_>,
    replica: usize,
    sim_ps: &[Vec<f64>],
    warm: &Barrier,
) -> Result<ServeTotals, String> {
    let fail = |e: BoxError| e.to_string();
    let warmed = (0..MODELS).try_for_each(|k| {
        servers
            .session(Load::Open, k, args.seed, 0)
            .map(drop)
            .map_err(fail)
    });
    // Released together even if a warm-up failed, so no replica waits
    // for one that has returned.
    warm.wait();
    warmed?;
    let mut totals = ServeTotals::default();
    let mut setups = Setups::new(args.seed, args.seconds, |base: &Base| {
        Servers::new(base, 1).map(drop)
    });
    let mut round_start = 0;
    in_rounds(args.seconds, 1, |k| {
        setups.due().map_err(fail)?;
        totals.sessions += 1;
        let index = totals.sessions * CORES as u64 + replica as u64;
        let served = servers
            .session(Load::Open, k, args.seed, index)
            .map_err(fail)?;
        let lost = (served.shed_count() + served.deadline_expired_count()) as u64;
        totals.requests += served.served_count() as u64 + lost;
        totals.failed += lost;
        totals.served += served.served_count() as u64;
        totals.makespan_ns += served.makespan_ns as f64;
        for batch in &served.batches {
            totals
                .dualrail_sps
                .push(batch.size as f64 / batch.service_ns as f64 * 1e9);
        }
        for record in &served.served {
            totals.sojourn_s.push(record.sojourn_ns() as f64 / 1e9);
            totals.sim_latency_ps += sim_ps[k][record.sample];
        }
        if k + 1 == MODELS {
            let round = &totals.sojourn_s[round_start..];
            let p = tail_percentile(round.len())
                .ok_or_else(|| format!("a round served only {} requests", round.len()))?;
            totals.round_p99_s.extend(percentile(round, p));
            round_start = totals.sojourn_s.len();
        }
        replay(&servers, &base.workloads[k], &batches(&served), &mut totals).map_err(fail)
    })?;
    totals.setup_s = setups.median().map_err(fail)?;
    Ok(totals)
}

/// Replays every served batch on the one-thread event and batch
/// engines, timing each call and verifying every outcome.
fn replay(
    servers: &Servers<'_>,
    workload: &InferenceWorkload,
    batches: &[Vec<usize>],
    totals: &mut ServeTotals,
) -> Result<(), BoxError> {
    let masks = workload.masks();
    for samples in batches {
        let (features, expected): (Vec<&[bool]>, Vec<&InferenceOutcome>) = samples
            .iter()
            .map(|&s| {
                let sample = workload.sample(s);
                (sample.features, sample.expected)
            })
            .unzip();
        let size = samples.len() as f64;
        let start = Instant::now();
        let event = servers.event.run_features_sliced(masks, &features)?;
        totals.event_sps.push(size / start.elapsed().as_secs_f64());
        verify("event-driven replay", &event.outcomes, &expected)?;
        let start = Instant::now();
        let batch = servers.batch.run_features(masks, &features)?;
        totals.batch_sps.push(size / start.elapsed().as_secs_f64());
        verify("batch replay", &batch, &expected)?;
    }
    Ok(())
}

fn setup_metric(report: &mut Report, setup_s: f64, of: &str) {
    report.metric(
        "setup_s",
        setup_s,
        "s",
        format!(
            "{of} of {SETUP_REPS} set-ups spread over the run: \
             train one machine, generate, build"
        ),
    );
}

fn med(values: &[f64]) -> Result<f64, BoxError> {
    median(values).ok_or_else(|| "no samples measured".into())
}
