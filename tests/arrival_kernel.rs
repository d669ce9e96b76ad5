//! The arrival kernel behind `SlicedProtocolDriver::apply_word`
//! (`gatesim::ArrivalProgram`: one `(min, max, +)` pass per phase and
//! lane) against two references, on the shipped datapaths in both
//! completion schemes at three shapes:
//!
//! - the scalar oracle, `rebased_reference_driver` streaming the same
//!   operands one at a time;
//! - the 64-lane event kernel on the same operands, reached through the
//!   public API by attaching metrics (an instrumented driver never
//!   takes the arrival kernel).
//!
//! Every `OperandResult` field must match both bit for bit (`f64`s by
//! bit pattern, `cycle_time_ps` included), for random operands in words
//! of 1 up to the crossover's 12 live lanes, through
//! `run_workload_sliced` at 1, 2 and 7 threads, and for every operand of
//! two standard workloads in one-lane words.
//!
//! Which kernel served a word is not visible through the driver's
//! public API.  A word of at most 12 live lanes on a healthy,
//! uninstrumented driver runs on the arrival kernel unless one of its
//! lanes falls back (the unit tests of `dualrail::sliced` pin that rule
//! through the simulator's pop counters), so the test replays every
//! lane on the public `ArrivalProgram` pass, asserts that it needs no
//! fallback, and counts the words that fell back on a tie instead.

use std::sync::Arc;

use tm_async::celllib::Library;
use tm_async::datapath::{
    CompletionScheme, DatapathConfig, DatapathOptions, DualRailDatapath, InferenceWorkload,
};
use tm_async::dualrail::{
    rebased_reference_driver, DualRailNetlist, DualRailValue, OperandResult,
    ParallelProtocolDriver, ProtocolDriver, SlicedProtocolDriver,
};
use tm_async::gatesim::{ArrivalProgram, EngineProgram, Logic, Simulator, SlicedSimulator};
use tm_async::netlist::NetId;
use tm_async::obs::MetricsRegistry;

/// Most live lanes a word served by the arrival kernel has.
const CROSSOVER: usize = 12;

/// Both completion schemes at the two small shapes and the standard
/// (12, 8) shape.
fn shipped() -> Vec<(String, DatapathConfig, DualRailDatapath)> {
    let mut datapaths = Vec::new();
    for (features, clauses) in [(3, 2), (5, 4), (12, 8)] {
        for completion in [CompletionScheme::Reduced, CompletionScheme::Full] {
            let config = DatapathConfig::new(features, clauses).expect("valid shape");
            let options = DatapathOptions {
                completion,
                ..DatapathOptions::paper_defaults()
            };
            let datapath = DualRailDatapath::generate_with(&config, options).expect("generation");
            datapaths.push((
                format!("{features}x{clauses} {completion:?}"),
                config,
                datapath,
            ));
        }
    }
    datapaths
}

/// Every field of a result, `f64`s as bit patterns.
type Bits = (
    Vec<bool>,
    Vec<(String, usize)>,
    u64,
    Option<u64>,
    u64,
    u64,
    Vec<(String, DualRailValue)>,
);

fn bits(result: &OperandResult) -> Bits {
    (
        result.outputs.clone(),
        result.one_of_n.clone(),
        result.s_to_v_latency_ps.to_bits(),
        result.done_latency_ps.map(f64::to_bits),
        result.v_to_s_latency_ps.to_bits(),
        result.cycle_time_ps.to_bits(),
        result.probes.clone(),
    )
}

/// One datapath's program, canonical snapshot and arrival program.
struct Harness<'a> {
    name: String,
    circuit: &'a DualRailNetlist,
    program: Arc<EngineProgram<'a>>,
    snapshot: Arc<[Logic]>,
    arrival: Arc<ArrivalProgram>,
}

impl<'a> Harness<'a> {
    fn new(name: &str, datapath: &'a DualRailDatapath, library: &Library) -> Self {
        let circuit = datapath.circuit();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), library));
        let snapshot = ProtocolDriver::from_program(circuit, Arc::clone(&program))
            .expect("the reference driver settles")
            .quiescent_snapshot();
        let arrival = program
            .arrival_program(&snapshot)
            .unwrap_or_else(|error| panic!("{name}: every shipped datapath compiles: {error}"));
        Self {
            name: name.to_string(),
            circuit,
            program,
            snapshot,
            arrival,
        }
    }

    fn driver(&self) -> SlicedProtocolDriver<'a> {
        SlicedProtocolDriver::from_sliced_simulator(
            self.circuit,
            SlicedSimulator::from_program(Arc::clone(&self.program)),
            Arc::clone(&self.snapshot),
            true,
        )
        .expect("the snapshot loads")
    }

    /// A driver that stays on the event kernel: metrics attached.
    fn event_driver(&self, registry: &MetricsRegistry) -> SlicedProtocolDriver<'a> {
        let mut driver = self.driver();
        driver.attach_metrics(registry, "reference");
        driver
    }

    fn scalar(&self, operands: &[Vec<bool>]) -> Vec<OperandResult> {
        let mut driver = rebased_reference_driver(
            self.circuit,
            Simulator::from_program(Arc::clone(&self.program)),
            Arc::clone(&self.snapshot),
            true,
        )
        .expect("the scalar reference initialises");
        operands
            .iter()
            .map(|operand| driver.apply_operand(operand).expect("healthy operand"))
            .collect()
    }

    /// The primary inputs the valid drive of `operand` moves off the
    /// snapshot (`req`, then each input's rails).
    fn moved_inputs(&self, operand: &[bool]) -> Vec<NetId> {
        let netlist = self.circuit.netlist();
        let mut drives: Vec<(NetId, bool)> = netlist
            .find_net("req")
            .filter(|&req| netlist.is_primary_input(req))
            .map(|req| (req, true))
            .into_iter()
            .collect();
        for ((_, signal), &bit) in self.circuit.dual_inputs().iter().zip(operand) {
            let (p, n) = DualRailValue::encode_valid(bit, signal.polarity);
            drives.push((signal.positive, p));
            drives.push((signal.negative, n));
        }
        drives
            .into_iter()
            .filter(|&(net, level)| self.snapshot[net.index()] != Logic::from(level))
            .map(|(net, _)| net)
            .collect()
    }

    /// Whether every lane of `word` passes the arrival pass without a
    /// tie.
    fn arrival_serves(&self, word: &[Vec<bool>]) -> bool {
        let mut run = self.arrival.new_run();
        word.iter().all(|operand| {
            self.arrival
                .run_cycle(&self.moved_inputs(operand), &mut run)
                .is_ok()
        })
    }

    /// Runs `operands` in words of the given sizes on a fresh arrival
    /// driver and checks each lane against both references; returns
    /// `(words served by the arrival kernel, words that tied)`.
    fn check_words(&self, operands: &[Vec<bool>], sizes: &[usize]) -> (usize, usize) {
        let expected = self.scalar(operands);
        let registry = MetricsRegistry::new();
        let (mut arrival, mut events) = (self.driver(), self.event_driver(&registry));
        let (mut served, mut ties, mut start) = (0, 0, 0);
        for &size in sizes.iter().cycle() {
            if start == operands.len() {
                break;
            }
            let end = (start + size).min(operands.len());
            let word = &operands[start..end];
            assert!(word.len() <= CROSSOVER);
            let got = arrival.apply_word(word);
            let reference = events.apply_word(word);
            for (lane, ((got, reference), expected)) in got
                .iter()
                .zip(&reference)
                .zip(&expected[start..end])
                .enumerate()
            {
                let got = got.as_ref().expect("healthy lane");
                let reference = reference.as_ref().expect("healthy lane");
                let at = start + lane;
                assert_eq!(
                    bits(got),
                    bits(reference),
                    "{}: operand {at} vs event kernel",
                    self.name
                );
                assert_eq!(
                    bits(got),
                    bits(expected),
                    "{}: operand {at} vs scalar oracle",
                    self.name
                );
            }
            if self.arrival_serves(word) {
                served += 1;
            } else {
                ties += 1;
            }
            start = end;
        }
        (served, ties)
    }
}

#[test]
fn random_words_up_to_the_crossover_match_both_references() {
    let library = Library::umc_ll();
    let sizes: Vec<usize> = (1..=CROSSOVER).collect();
    for (name, config, datapath) in shipped() {
        let harness = Harness::new(&name, &datapath, &library);
        let operands = InferenceWorkload::random(&config, 78, 0.6, 2027)
            .expect("workload")
            .dual_rail_operands(&datapath)
            .expect("widths");
        let (served, ties) = harness.check_words(&operands, &sizes);
        println!("{name}: {served} words on the arrival kernel, {ties} fell back on a tie");
        assert!(
            served > ties,
            "{name}: the arrival kernel serves most words"
        );
    }
}

#[test]
fn run_workload_sliced_matches_the_scalar_oracle_at_several_thread_counts() {
    let library = Library::umc_ll();
    for (name, config, datapath) in shipped().into_iter().step_by(2) {
        let harness = Harness::new(&name, &datapath, &library);
        let operands = InferenceWorkload::random(&config, 64 + 9, 0.6, 7)
            .expect("workload")
            .dual_rail_operands(&datapath)
            .expect("widths");
        let expected: Vec<Bits> = harness.scalar(&operands).iter().map(bits).collect();
        for threads in [1, 2, 7] {
            let driver =
                ParallelProtocolDriver::new(harness.circuit, &library, threads).expect("driver");
            // One word of up to the crossover's lanes, then a full
            // event-kernel word with an arrival tail word.
            for count in [1, 5, CROSSOVER, operands.len()] {
                let run = driver
                    .run_workload_sliced(&operands[..count])
                    .expect("healthy workload");
                let got: Vec<Bits> = run.results.iter().map(bits).collect();
                assert_eq!(
                    got,
                    expected[..count],
                    "{name}: {count} operands, {threads} threads"
                );
            }
        }
        assert!(
            harness.arrival_serves(&operands[64..]),
            "{name}: the tail word"
        );
    }
}

#[test]
fn standard_workloads_match_in_one_lane_words() {
    let library = Library::umc_ll();
    let config = tm_async_bench::standard_config();
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let harness = Harness::new("12x8 standard", &datapath, &library);
    // One seed per thread: each checks its 4096 operands on its own
    // drivers.
    std::thread::scope(|scope| {
        for seed in [1, 2] {
            let harness = &harness;
            let datapath = &datapath;
            scope.spawn(move || check_standard_workload(harness, datapath, seed));
        }
    });
}

fn check_standard_workload(harness: &Harness<'_>, datapath: &DualRailDatapath, seed: u64) {
    let standard = tm_async_bench::standard_workload(4096, seed);
    let operands = standard
        .workload
        .dual_rail_operands(datapath)
        .expect("widths");
    assert_eq!(operands.len(), 4096);
    // The event kernel runs the same operands 64 lanes a word (its lanes
    // are exact, so a lane's result does not depend on its word); the
    // arrival driver runs them one lane a word.
    let registry = MetricsRegistry::new();
    let mut events = harness.event_driver(&registry);
    let mut reference = Vec::with_capacity(operands.len());
    for word in operands.chunks(64) {
        reference.extend(events.apply_word(word));
    }
    let expected = harness.scalar(&operands);
    let mut arrival = harness.driver();
    let (mut served, mut ties) = (0, 0);
    for (at, operand) in operands.iter().enumerate() {
        let word = std::slice::from_ref(operand);
        let got = arrival.apply_word(word).pop().expect("one lane");
        let got = bits(&got.expect("healthy operand"));
        let event = bits(reference[at].as_ref().expect("healthy operand"));
        assert_eq!(got, event, "seed {seed}, operand {at} vs event kernel");
        assert_eq!(
            got,
            bits(&expected[at]),
            "seed {seed}, operand {at} vs scalar oracle"
        );
        if harness.arrival_serves(word) {
            served += 1;
        } else {
            ties += 1;
        }
    }
    println!(
        "seed {seed}: {served} one-lane words on the arrival kernel, {ties} fell back on a tie"
    );
    assert!(
        served > ties,
        "seed {seed}: the arrival kernel serves most words"
    );
}
