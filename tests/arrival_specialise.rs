//! The specialised arrival pass (`ArrivalProgram::specialise`) against
//! the general one it is compiled from, net by net, through the public
//! API only.
//!
//! Each cycle runs on both programs: the general one moves every input
//! the drive moves, the specialised one only the moved inputs it keeps
//! varying.  For every net the valid-phase and spacer-phase move times
//! must match, both lane clocks must match, all as `f64` bit patterns,
//! and a tie must come back from both, naming the same net.
//!
//! The cases are every shipped datapath in both completion schemes
//! under random exclude masks (the features vary, the masks and `req`
//! are held), one run switching between models, and seeded random
//! layered DAGs (as in `crates/sim/tests/arrival_differential.rs`) with
//! a random subset of their inputs held, moved or still.  The word
//! driver on top must serve words whose lanes share one model, words
//! whose lanes carry different masks and a stream that switches models
//! with the results of the event kernel and the scalar oracle.  A
//! specialised datapath program must settle only cells of the features'
//! structural cone, and fewer than the general program.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_async::celllib::Library;
use tm_async::datapath::{
    CompletionScheme, DatapathConfig, DatapathOptions, DualRailDatapath, InferenceWorkload,
};
use tm_async::dualrail::{
    rebased_reference_driver, DualRailNetlist, DualRailValue, OperandResult, ProtocolDriver,
    SlicedProtocolDriver,
};
use tm_async::gatesim::{
    ArrivalProgram, ArrivalRun, EngineProgram, InputSplit, Logic, Simulator, SlicedSimulator,
};
use tm_async::netlist::{CellKind, NetId, Netlist};
use tm_async::obs::MetricsRegistry;

/// How the two programs compared over some cycles.
#[derive(Debug, Default)]
struct Tally {
    cycles: usize,
    ties: usize,
}

/// A program, the run it cycles on and the inputs a cycle moves.
type Side<'s> = (&'s ArrivalProgram, &'s mut ArrivalRun, &'s [NetId]);

/// Runs one cycle on both programs and compares every net and both
/// clocks bit for bit, or the tie.
fn compare(general: Side<'_>, specialised: Side<'_>, nets: usize, what: &str, tally: &mut Tally) {
    let (general, general_run, all) = general;
    let (specialised, specialised_run, varying) = specialised;
    let expected = general.run_cycle(all, general_run);
    let got = specialised.run_cycle(varying, specialised_run);
    assert_eq!(got, expected, "{what}: the same tie or none");
    tally.cycles += 1;
    if expected.is_err() {
        tally.ties += 1;
        return;
    }
    let bits = |t: Option<f64>| t.map(f64::to_bits);
    for net in (0..nets).map(NetId::from_index) {
        assert_eq!(
            bits(specialised_run.valid_move_ps(net)),
            bits(general_run.valid_move_ps(net)),
            "{what}: valid move of net {net}"
        );
        assert_eq!(
            bits(specialised_run.spacer_move_ps(net)),
            bits(general_run.spacer_move_ps(net)),
            "{what}: spacer move of net {net}"
        );
        assert_eq!(
            specialised.valid_value(specialised_run, net),
            general.valid_value(general_run, net),
            "{what}: valid value of net {net}"
        );
    }
    assert_eq!(
        specialised_run.valid_clock_ps().to_bits(),
        general_run.valid_clock_ps().to_bits(),
        "{what}: valid clock"
    );
    assert_eq!(
        specialised_run.spacer_clock_ps().to_bits(),
        general_run.spacer_clock_ps().to_bits(),
        "{what}: spacer clock"
    );
}

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

/// One datapath's program, canonical snapshot and general arrival
/// program.
struct Harness<'a> {
    circuit: &'a DualRailNetlist,
    program: Arc<EngineProgram<'a>>,
    snapshot: Arc<[Logic]>,
    general: Arc<ArrivalProgram>,
}

impl<'a> Harness<'a> {
    fn new(datapath: &'a DualRailDatapath, library: &Library) -> Self {
        let circuit = datapath.circuit();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), library));
        let snapshot = ProtocolDriver::from_program(circuit, Arc::clone(&program))
            .expect("the reference driver settles")
            .quiescent_snapshot();
        let general = program
            .arrival_program(&snapshot)
            .expect("every shipped datapath compiles");
        Self {
            circuit,
            program,
            snapshot,
            general,
        }
    }

    /// The inputs the valid drive of `operand` moves off the snapshot,
    /// split into the rails of the declared varying (feature) inputs and
    /// the held rest (`req` and the exclude masks).
    fn drive(&self, operand: &[bool]) -> (Vec<NetId>, Vec<NetId>) {
        let varying = self.circuit.varying_inputs().expect("features declared");
        let moves = |net: NetId, level: bool| self.snapshot[net.index()] != Logic::from(level);
        let (mut features, mut held) = (Vec::new(), Vec::new());
        let netlist = self.circuit.netlist();
        let req = netlist
            .find_net("req")
            .filter(|&req| netlist.is_primary_input(req));
        held.extend(req.filter(|&req| moves(req, true)));
        for (input, ((_, signal), &bit)) in
            self.circuit.dual_inputs().iter().zip(operand).enumerate()
        {
            let (p, n) = DualRailValue::encode_valid(bit, signal.polarity);
            let into = if varying.contains(&input) {
                &mut features
            } else {
                &mut held
            };
            into.extend(
                [(signal.positive, p), (signal.negative, n)]
                    .into_iter()
                    .filter(|&(net, level)| moves(net, level))
                    .map(|(net, _)| net),
            );
        }
        (features, held)
    }

    /// The general program specialised to the masks `operand` carries.
    fn specialise(&self, operand: &[bool]) -> Arc<ArrivalProgram> {
        let (_, held) = self.drive(operand);
        let mut split = InputSplit::new(&self.general);
        for &input in self.circuit.varying_inputs().expect("features declared") {
            let signal = self.circuit.dual_inputs()[input].1;
            split.vary(signal.positive);
            split.vary(signal.negative);
        }
        for net in held {
            split.hold_moved(net);
        }
        self.general
            .specialise(&split)
            .expect("the held cells never tie")
    }

    /// Cells reachable from the feature rails, whether they can move or
    /// not.
    fn feature_cone(&self) -> usize {
        let netlist = self.circuit.netlist();
        let mut reached = vec![false; netlist.net_count()];
        let mut frontier: Vec<NetId> = Vec::new();
        for &input in self.circuit.varying_inputs().expect("features declared") {
            let signal = self.circuit.dual_inputs()[input].1;
            frontier.extend([signal.positive, signal.negative]);
        }
        let mut cells = 0;
        while let Some(net) = frontier.pop() {
            for &(cell, _) in netlist.net(net).loads() {
                let out = netlist.cell(cell).output();
                if !std::mem::replace(&mut reached[out.index()], true) {
                    cells += 1;
                    frontier.push(out);
                }
            }
        }
        cells
    }
}

#[test]
fn specialised_datapath_programs_match_the_general_one_under_random_masks() {
    let library = Library::umc_ll();
    for (name, config, datapath) in shipped() {
        let harness = Harness::new(&datapath, &library);
        let nets = harness.circuit.netlist().net_count();
        let cone = harness.feature_cone();
        let every = config.features() < 12;
        let (mut tally, mut general_run) = (Tally::default(), harness.general.new_run());
        for seed in 0..3 {
            let workload = InferenceWorkload::random(&config, 48, 0.4 + 0.15 * seed as f64, seed)
                .expect("workload");
            let operands = if every {
                (0..1u32 << config.features())
                    .map(|v| {
                        let features: Vec<bool> =
                            (0..config.features()).map(|i| v >> i & 1 == 1).collect();
                        datapath
                            .operand_bits(&features, workload.masks())
                            .expect("widths")
                    })
                    .collect()
            } else {
                workload.dual_rail_operands(&datapath).expect("widths")
            };
            let specialised = harness.specialise(&operands[0]);
            assert!(
                specialised.settled_cells() <= cone,
                "{name}: {} settled cells outside the {cone}-cell feature cone",
                specialised.settled_cells()
            );
            assert!(specialised.settled_cells() < harness.general.settled_cells());
            let mut run = specialised.new_run();
            for (at, operand) in operands.iter().enumerate() {
                let (features, held) = harness.drive(operand);
                let all: Vec<NetId> = held.iter().chain(&features).copied().collect();
                let what = format!("{name}, masks {seed}, operand {at}");
                compare(
                    (&harness.general, &mut general_run, &all),
                    (&specialised, &mut run, &features),
                    nets,
                    &what,
                    &mut tally,
                );
            }
        }
        println!(
            "{name}: {} cycles matched the general pass, {} of them ties",
            tally.cycles, tally.ties
        );
    }
}

/// One run alternates between the specialisations of two models (and
/// the general program), so every cycle refills it for another program.
#[test]
fn one_run_switching_between_models_matches_the_general_pass() {
    let library = Library::umc_ll();
    let config = tm_async_bench::standard_config();
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let harness = Harness::new(&datapath, &library);
    let nets = harness.circuit.netlist().net_count();
    let models: Vec<Vec<Vec<bool>>> = [1, 2]
        .into_iter()
        .map(|seed| {
            tm_async_bench::standard_workload(24, seed)
                .workload
                .dual_rail_operands(&datapath)
                .expect("widths")
        })
        .collect();
    let specialised: Vec<_> = models
        .iter()
        .map(|operands| harness.specialise(&operands[0]))
        .collect();
    let (mut tally, mut general_run) = (Tally::default(), harness.general.new_run());
    let mut run = harness.general.new_run();
    for at in 0..24 {
        for (model, operands) in models.iter().enumerate() {
            let (features, held) = harness.drive(&operands[at]);
            let all: Vec<NetId> = held.iter().chain(&features).copied().collect();
            let what = format!("model {model}, operand {at}");
            compare(
                (&harness.general, &mut general_run, &all),
                (&specialised[model], &mut run, &features),
                nets,
                &what,
                &mut tally,
            );
            // The general program on the same run, in between.
            harness
                .general
                .run_cycle(&all, &mut run)
                .expect("the standard models do not tie here");
        }
    }
    assert_eq!(tally.cycles, 48);
}

/// Every field of a result, `f64`s as bit patterns.
type Bits = (
    Vec<bool>,
    Vec<(String, usize)>,
    [u64; 3],
    Option<u64>,
    Vec<(String, DualRailValue)>,
);

fn bits(result: &OperandResult) -> Bits {
    (
        result.outputs.clone(),
        result.one_of_n.clone(),
        [
            result.s_to_v_latency_ps.to_bits(),
            result.v_to_s_latency_ps.to_bits(),
            result.cycle_time_ps.to_bits(),
        ],
        result.done_latency_ps.map(f64::to_bits),
        result.probes.clone(),
    )
}

/// The word driver over words whose lanes share one model, words whose
/// lanes carry different masks and a stream that switches between the
/// models, against the event kernel (metrics attached keep a driver on
/// it) and the scalar oracle.
#[test]
fn the_word_driver_serves_shared_and_mixed_mask_words_exactly() {
    let library = Library::umc_ll();
    let config = DatapathConfig::new(5, 4).expect("valid shape");
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let harness = Harness::new(&datapath, &library);
    let models: Vec<Vec<Vec<bool>>> = (0..3)
        .map(|seed| {
            InferenceWorkload::random(&config, 24, 0.5, 40 + seed)
                .expect("workload")
                .dual_rail_operands(&datapath)
                .expect("widths")
        })
        .collect();
    let driver = || {
        SlicedProtocolDriver::from_sliced_simulator(
            harness.circuit,
            SlicedSimulator::from_program(Arc::clone(&harness.program)),
            Arc::clone(&harness.snapshot),
            true,
        )
        .expect("the snapshot loads")
    };
    let registry = MetricsRegistry::new();
    let mut events = driver();
    events.attach_metrics(&registry, "reference");
    let mut oracle = rebased_reference_driver(
        harness.circuit,
        Simulator::from_program(Arc::clone(&harness.program)),
        Arc::clone(&harness.snapshot),
    )
    .expect("the scalar reference initialises");
    let mut arrival = driver();
    let mut words: Vec<Vec<Vec<bool>>> = Vec::new();
    for at in (0..24).step_by(8) {
        for operands in &models {
            // One model's lanes, then one lane of it.
            words.push(operands[at..at + 8].to_vec());
            words.push(vec![operands[at].clone()]);
        }
        // Lanes of every model in one word.
        words.push(models.iter().flat_map(|m| m[at..at + 4].to_vec()).collect());
    }
    for (index, word) in words.iter().enumerate() {
        let got = arrival.apply_word(word);
        let reference = events.apply_word(word);
        for (lane, ((got, reference), operand)) in got.iter().zip(&reference).zip(word).enumerate()
        {
            let got = bits(got.as_ref().expect("healthy lane"));
            let reference = bits(reference.as_ref().expect("healthy lane"));
            let scalar = bits(&oracle.apply_operand(operand).expect("healthy operand"));
            assert_eq!(got, reference, "word {index}, lane {lane} vs event kernel");
            assert_eq!(got, scalar, "word {index}, lane {lane} vs scalar oracle");
        }
    }
}

/// Every cell kind with a monotone arrival formula.
const KINDS: [CellKind; 22] = [
    CellKind::Buf,
    CellKind::Inv,
    CellKind::And2,
    CellKind::And3,
    CellKind::And4,
    CellKind::Or2,
    CellKind::Or3,
    CellKind::Or4,
    CellKind::Nand2,
    CellKind::Nand3,
    CellKind::Nand4,
    CellKind::Nor2,
    CellKind::Nor3,
    CellKind::Nor4,
    CellKind::Aoi21,
    CellKind::Aoi22,
    CellKind::Aoi32,
    CellKind::Oai21,
    CellKind::Oai22,
    CellKind::Maj3,
    CellKind::CElement2,
    CellKind::CElement3,
];

/// Whether `kind` moves its output against its inputs.
fn inverting(kind: CellKind) -> bool {
    !matches!(
        kind,
        CellKind::Buf
            | CellKind::And2
            | CellKind::And3
            | CellKind::And4
            | CellKind::Or2
            | CellKind::Or3
            | CellKind::Or4
            | CellKind::Maj3
            | CellKind::CElement2
            | CellKind::CElement3
    )
}

/// The random layered DAG of `arrival_differential.rs` with the same
/// seed: `inputs` primary inputs, then `layers` layers of up to `width`
/// cells over the monotone kinds, each reading nets of earlier layers.
fn random_dag(seed: u64, inputs: usize, layers: usize, width: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("dag {seed}"));
    let mut nets: Vec<(NetId, bool)> = (0..inputs)
        .map(|input| (nl.add_input(format!("in{input}")), false))
        .collect();
    for layer in 0..layers {
        let cells = rng.gen_range(1..=width);
        let mut added = Vec::with_capacity(cells);
        for cell in 0..cells {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let (_, falls) = nets[rng.gen_range(0..nets.len())];
            let mixed = rng.gen_bool(0.125);
            let candidates: Vec<NetId> = nets
                .iter()
                .filter(|&&(_, f)| mixed || f == falls)
                .map(|&(net, _)| net)
                .collect();
            let pins: Vec<NetId> = (0..kind.input_count())
                .map(|_| candidates[rng.gen_range(0..candidates.len())])
                .collect();
            let out = nl
                .add_cell(format!("l{layer}c{cell}"), kind, &pins)
                .expect("arity");
            added.push((out, falls ^ inverting(kind)));
        }
        nets.extend(added);
    }
    let (last, _) = *nets.last().expect("a net");
    nl.add_output("y", last);
    nl
}

#[test]
fn random_dags_with_held_inputs_match_the_general_pass() {
    let library = Library::umc_ll();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut compiled, mut tally) = (0, Tally::default());
    for seed in 0..400 {
        let nl = random_dag(seed, 4, 5, 4);
        let program = EngineProgram::new(&nl, &library);
        let mut sim = Simulator::from_program(Arc::new(EngineProgram::new(&nl, &library)));
        for &input in program.primary_inputs() {
            sim.set_input(input, Logic::Zero);
        }
        assert!(sim.run_until_quiescent().is_quiescent());
        let Ok(general) = program.arrival_program(sim.net_values()) else {
            continue;
        };
        compiled += 1;
        let inputs = program.primary_inputs();
        let mut general_run = general.new_run();
        for _ in 0..3 {
            // Each input varies, is held moved or is held still.
            let (mut varying, mut held) = (Vec::new(), Vec::new());
            let mut split = InputSplit::new(&general);
            for &input in inputs {
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        varying.push(input);
                        split.vary(input);
                    }
                    2 => {
                        held.push(input);
                        split.hold_moved(input);
                    }
                    _ => {}
                }
            }
            let Some(specialised) = general.specialise(&split) else {
                // A held cell ties: every cycle of the split ties.
                let mut run = general.new_run();
                for subset in 0..1usize << varying.len() {
                    let all: Vec<NetId> = held
                        .iter()
                        .copied()
                        .chain(
                            varying
                                .iter()
                                .enumerate()
                                .filter(|&(bit, _)| subset >> bit & 1 == 1)
                                .map(|(_, &net)| net),
                        )
                        .collect();
                    assert!(general.run_cycle(&all, &mut run).is_err(), "dag {seed}");
                    tally.cycles += 1;
                    tally.ties += 1;
                }
                continue;
            };
            let mut run = specialised.new_run();
            for subset in 0..1usize << varying.len() {
                let moved: Vec<NetId> = varying
                    .iter()
                    .enumerate()
                    .filter(|&(bit, _)| subset >> bit & 1 == 1)
                    .map(|(_, &net)| net)
                    .collect();
                let all: Vec<NetId> = held.iter().chain(&moved).copied().collect();
                let what = format!("dag {seed}, held {held:?}, moved {moved:?}");
                compare(
                    (&general, &mut general_run, &all),
                    (&specialised, &mut run, &moved),
                    nl.net_count(),
                    &what,
                    &mut tally,
                );
            }
        }
    }
    println!(
        "{compiled} DAGs compiled; {} specialised cycles matched the general pass, {} of them ties",
        tally.cycles, tally.ties
    );
    assert!(compiled >= 100, "only {compiled} DAGs compiled");
    assert!(tally.ties > 0, "some cycle ties");
}
