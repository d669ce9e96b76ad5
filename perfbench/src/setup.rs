//! Everything a workload builds before its first call: the trained
//! models and their inputs, the generated circuits, and the engines.

use std::time::{Duration, Instant};

use celllib::Library;
use datapath::{
    BatchGoldenModel, DualRailDatapath, DualRailInference, EventDrivenInference, InferenceOutcome,
    InferenceWorkload, ParallelBatchInference,
};
use tm_async_bench::workloads::{standard_config, standard_workload};

use crate::stats::median;
use crate::BoxError;

/// Operands each bulk call carries: 64 sliced words, 32 per worker at
/// [`CORES`] threads.
pub const BULK_OPERANDS: usize = 4096;

/// The host's core count: the bulk engines' worker threads and the
/// serving replicas each use one per core.
pub const CORES: usize = 2;

/// Machines trained per run, each from its own sub-seed of the run's
/// seed; calls and sessions rotate through them.  One machine's
/// event-driven cost moves by a fifth with its seed, so a run over one
/// machine would measure the seed more than the code.
pub const MODELS: usize = 16;

/// Set-ups per measuring thread per run.
pub const SETUP_REPS: usize = 15;

/// What a seed generates: one held-out workload (exclude masks,
/// operands and golden outcomes) per trained machine, and the circuits
/// every engine is built from.
#[derive(Debug)]
pub struct Base {
    pub workloads: Vec<InferenceWorkload>,
    pub datapath: DualRailDatapath,
    pub golden: BatchGoldenModel,
    pub library: Library,
}

impl Base {
    /// Trains the first `machines` keyword-spotting machines of `seed`
    /// and generates the dual-rail datapath and the single-rail golden
    /// model (both independent of the trained masks).
    pub fn build(seed: u64, machines: usize) -> Result<Box<Self>, BoxError> {
        let workloads = train(seed, machines);
        let (datapath, golden) = generate()?;
        Ok(Box::new(Self {
            workloads,
            datapath,
            golden,
            library: Library::umc_ll(),
        }))
    }
}

/// Trains the standard machine on each of the first `machines`
/// sub-seeds of `seed` and packages [`BULK_OPERANDS`] held-out samples
/// of each with their golden outcomes.
pub fn train(seed: u64, machines: usize) -> Vec<InferenceWorkload> {
    (0..machines as u64)
        .map(|k| {
            standard_workload(
                BULK_OPERANDS,
                seed.wrapping_mul(MODELS as u64).wrapping_add(k),
            )
        })
        .map(|standard| standard.workload)
        .collect()
}

/// Generates the dual-rail datapath and the golden-model netlist.
pub fn generate() -> Result<(DualRailDatapath, BatchGoldenModel), BoxError> {
    let config = standard_config();
    Ok((
        DualRailDatapath::generate(&config)?,
        BatchGoldenModel::generate(&config)?,
    ))
}

/// Feature vectors and golden outcomes of samples `first..first + n`
/// of `workload`, wrapping around.
pub fn slice(
    workload: &InferenceWorkload,
    first: usize,
    n: usize,
) -> (Vec<&[bool]>, Vec<&InferenceOutcome>) {
    (first..first + n)
        .map(|i| {
            let sample = workload.sample(i % workload.len());
            (sample.features, sample.expected)
        })
        .unzip()
}

/// The three engines at one thread count.  The trained masks are call
/// arguments, so one set serves every machine.
#[derive(Debug)]
pub struct Engines<'a> {
    pub dualrail: DualRailInference<'a>,
    pub event: EventDrivenInference<'a>,
    pub batch: ParallelBatchInference<'a>,
}

impl<'a> Engines<'a> {
    pub fn new(base: &'a Base, threads: usize) -> Result<Self, BoxError> {
        Ok(Self {
            dualrail: DualRailInference::new(&base.datapath, &base.library, threads)?,
            event: EventDrivenInference::new(&base.golden, &base.library, threads),
            batch: ParallelBatchInference::new(&base.golden, threads)?,
        })
    }
}

/// Set-ups from `seed` to the first call ready, timed at even intervals
/// through a run: the first machine's [`Base::build`] followed by
/// `ready`, which builds what the workload's calls need.  One set-up is
/// due each time another `1 / SETUP_REPS` of the run has passed, so the
/// set-ups meet the same host conditions as the calls around them
/// rather than those of one moment before the run.
///
/// Every base stays alive until the run ends, so no netlist is rebuilt
/// at an address a memoised pre-flight verdict is keyed on: each set-up
/// pays the same work.
pub struct Setups<F> {
    seed: u64,
    ready: F,
    start: Instant,
    run: Duration,
    seconds: Vec<f64>,
    // Boxed so each base keeps the address its set-up ran at.
    #[allow(clippy::vec_box)]
    kept: Vec<Box<Base>>,
}

impl<F: Fn(&Base) -> Result<(), BoxError>> Setups<F> {
    /// Starts the schedule of a run lasting `seconds` from now.
    pub fn new(seed: u64, seconds: u64, ready: F) -> Self {
        Self {
            seed,
            ready,
            start: Instant::now(),
            run: Duration::from_secs(seconds),
            seconds: Vec::with_capacity(SETUP_REPS),
            kept: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Runs every set-up now due.
    pub fn due(&mut self) -> Result<(), BoxError> {
        while self.seconds.len() < SETUP_REPS
            && self.start.elapsed()
                >= self
                    .run
                    .mul_f64(self.seconds.len() as f64 / SETUP_REPS as f64)
        {
            self.set_up()?;
        }
        Ok(())
    }

    /// The median of [`SETUP_REPS`] set-ups, running now those a short
    /// run never reached.
    pub fn median(mut self) -> Result<f64, BoxError> {
        while self.seconds.len() < SETUP_REPS {
            self.set_up()?;
        }
        median(&self.seconds).ok_or_else(|| "no set-up ran".into())
    }

    fn set_up(&mut self) -> Result<(), BoxError> {
        let start = Instant::now();
        let base = Base::build(self.seed, 1)?;
        (self.ready)(&base)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        self.kept.push(base);
        Ok(())
    }
}

/// Fails unless `got` matches `expected` outcome for outcome.
pub fn verify(
    what: &str,
    got: &[InferenceOutcome],
    expected: &[&InferenceOutcome],
) -> Result<(), BoxError> {
    if got.len() != expected.len() {
        return Err(format!(
            "{what}: {} outcomes for {} inputs",
            got.len(),
            expected.len()
        )
        .into());
    }
    match got.iter().zip(expected).position(|(g, e)| g != *e) {
        Some(i) => Err(format!("{what}: outcome {i} diverges from the golden model").into()),
        None => Ok(()),
    }
}
