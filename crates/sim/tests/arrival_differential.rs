//! The arrival pass (`ArrivalProgram::run_cycle`) against the scalar
//! event kernel (`Simulator`), net by net, through the public API only.
//!
//! Each cycle runs on both kernels from the same settled spacer state.
//! The event kernel runs the two zero-based phases a rebased protocol
//! driver runs: `reset_time`, drive the moved inputs, then
//! `run_until_quiescent`, with `now_ps` as the phase clock.  For every
//! net, the valid-phase and spacer-phase move times must match the
//! event kernel's last change in that phase, and both lane clocks must
//! match `now_ps`, all as `f64` bit patterns.  A cycle the pass cannot
//! order must come back as an `ArrivalTie`.
//!
//! The netlists are one per cell kind the compile accepts, each pin fed
//! through a buffer chain of its own length, so that later inputs land
//! before, inside and after the cell's flight window; one per
//! non-inverting kind with an input landing exactly at the pop; and
//! seeded random layered DAGs of the same kinds.

use std::sync::Arc;

use celllib::Library;
use gatesim::{ArrivalProgram, ArrivalTie, EngineProgram, Logic, Simulator};
use netlist::{CellKind, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// What one cycle came to.
#[derive(Debug, Default)]
struct Tally {
    /// Cycles whose every net and both clocks matched the event kernel.
    matched: usize,
    /// Matched cycles in which a no-op pop set a lane clock: an input
    /// landed inside a cell's flight window.
    extended: usize,
    /// Cycles the pass returned as ties, by the tied net.
    ties: Vec<NetId>,
}

/// A netlist, its program and its settled spacer state, when the
/// arrival compile accepts it.
struct Case<'a> {
    netlist: &'a Netlist,
    program: Arc<EngineProgram<'a>>,
    state: Vec<Logic>,
    arrival: Arc<ArrivalProgram>,
}

impl<'a> Case<'a> {
    /// Settles `netlist` with every primary input low on the event
    /// kernel and compiles the arrival program at that state; `None`
    /// when the compile rejects it.
    fn new(netlist: &'a Netlist, library: &Library) -> Option<Self> {
        let program = Arc::new(EngineProgram::new(netlist, library));
        let mut sim = Simulator::from_program(Arc::clone(&program));
        for &input in program.primary_inputs() {
            sim.set_input(input, Logic::Zero);
        }
        assert!(sim.run_until_quiescent().is_quiescent());
        let state = sim.net_values().to_vec();
        let arrival = program.arrival_program(&state).ok()?;
        Some(Self {
            netlist,
            program,
            state,
            arrival,
        })
    }

    /// A simulator sitting at the spacer state.
    fn settled(&self) -> Simulator<'a> {
        let mut sim = Simulator::from_program(Arc::clone(&self.program));
        for &input in self.program.primary_inputs() {
            sim.set_input(input, self.state[input.index()]);
        }
        assert!(sim.run_until_quiescent().is_quiescent());
        assert_eq!(sim.net_values(), &self.state[..]);
        sim
    }

    /// One rebased phase on the event kernel: every primary input in
    /// `moved` is driven to `level(net)`.  Returns, per net, the time it
    /// changed in the phase (if it did) and the phase clock.
    fn phase(
        &self,
        sim: &mut Simulator<'_>,
        moved: &[NetId],
        level: impl Fn(NetId) -> Logic,
    ) -> (Vec<Option<f64>>, f64) {
        let before: Vec<u64> = (0..self.netlist.net_count())
            .map(|net| sim.net_transitions(NetId::from_index(net)))
            .collect();
        sim.reset_time();
        for &net in moved {
            sim.set_input(net, level(net));
        }
        assert!(sim.run_until_quiescent().is_quiescent());
        let changes = before
            .iter()
            .enumerate()
            .map(|(net, &before)| {
                let net = NetId::from_index(net);
                match sim.net_transitions(net) - before {
                    0 => None,
                    1 => sim.last_change_ps(net),
                    n => panic!("net {net} moved {n} times in one phase"),
                }
            })
            .collect();
        (changes, sim.now_ps())
    }

    /// Runs one cycle moving `moved` on both kernels and compares every
    /// net and both clocks bit for bit, unless the pass ties.
    fn check(&self, moved: &[NetId], what: &str, tally: &mut Tally) {
        let mut run = self.arrival.new_run();
        if let Err(ArrivalTie { net }) = self.arrival.run_cycle(moved, &mut run) {
            tally.ties.push(net);
            return;
        }
        let bits = |t: Option<f64>| t.map(f64::to_bits);
        let mut sim = self.settled();
        let flipped = |net: NetId| match self.state[net.index()] {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::Unknown => unreachable!("the compile accepts no X"),
        };
        let (valid, valid_clock) = self.phase(&mut sim, moved, flipped);
        for (net, &expected) in valid.iter().enumerate() {
            let net = NetId::from_index(net);
            assert_eq!(
                bits(run.valid_move_ps(net)),
                bits(expected),
                "{what}: valid move of net {net}"
            );
            assert_eq!(
                self.arrival.valid_value(&run, net),
                sim.value(net),
                "{what}: valid value of net {net}"
            );
        }
        assert_eq!(
            run.valid_clock_ps().to_bits(),
            valid_clock.to_bits(),
            "{what}: valid clock {} vs {valid_clock}",
            run.valid_clock_ps()
        );
        let (spacer, spacer_clock) = self.phase(&mut sim, moved, |net| self.state[net.index()]);
        for (net, &expected) in spacer.iter().enumerate() {
            let net = NetId::from_index(net);
            assert_eq!(
                bits(run.spacer_move_ps(net)),
                bits(expected),
                "{what}: spacer move of net {net}"
            );
        }
        assert_eq!(
            run.spacer_clock_ps().to_bits(),
            spacer_clock.to_bits(),
            "{what}: spacer clock {} vs {spacer_clock}",
            run.spacer_clock_ps()
        );
        assert_eq!(
            sim.net_values(),
            &self.state[..],
            "{what}: back at the spacer"
        );
        tally.matched += 1;
        let latest = |moves: &[Option<f64>]| moves.iter().flatten().fold(0.0f64, |a, &t| a.max(t));
        if valid_clock > latest(&valid) || spacer_clock > latest(&spacer) {
            tally.extended += 1;
        }
    }

    /// Checks every subset of the primary inputs as the moved set.
    fn check_every_drive(&self, what: &str, tally: &mut Tally) {
        let inputs = self.program.primary_inputs();
        assert!(inputs.len() < 16, "{what}: subsets stay few");
        for subset in 0..1usize << inputs.len() {
            let moved: Vec<NetId> = inputs
                .iter()
                .enumerate()
                .filter(|&(bit, _)| subset >> bit & 1 == 1)
                .map(|(_, &net)| net)
                .collect();
            self.check(&moved, &format!("{what}, inputs {subset:#b}"), tally);
        }
    }
}

/// The end of a chain of `length` cells of `kind` (buffers or
/// inverters) from `net`.
fn chain(nl: &mut Netlist, net: NetId, kind: CellKind, length: usize) -> NetId {
    (0..length).fold(net, |net, _| {
        let name = format!("c{}", nl.cell_count());
        nl.add_cell(name, kind, &[net]).expect("one pin")
    })
}

/// `kind` with pin `i` fed from its own input through a buffer chain
/// of `lengths[i]` cells (led by an inverter when `invert`, so every
/// pin rests high).
fn staggered(kind: CellKind, lengths: &[usize], invert: bool) -> Netlist {
    let mut nl = Netlist::new(format!("{kind}"));
    let pins: Vec<NetId> = lengths
        .iter()
        .take(kind.input_count())
        .enumerate()
        .map(|(pin, &length)| {
            let input = nl.add_input(format!("in{pin}"));
            let head = if invert {
                chain(&mut nl, input, CellKind::Inv, 1)
            } else {
                input
            };
            chain(&mut nl, head, CellKind::Buf, length)
        })
        .collect();
    let out = nl.add_cell("dut", kind, &pins).expect("arity");
    nl.add_output("y", out);
    nl
}

/// Non-inverting `kind` with pin 1 fed by a copy of itself and every
/// other pin by one buffer from a single input: the copy's output
/// reaches pin 1 exactly one cell delay after the other pins, which is
/// when an output event scheduled by those pins pops.  (An inverting
/// copy would move pin 1 against the others, which no monotone formula
/// admits.)  Returns the netlist and the cell's output.
fn tied(kind: CellKind) -> (Netlist, NetId) {
    let mut nl = Netlist::new(format!("{kind} tie"));
    let input = nl.add_input("in");
    let head = chain(&mut nl, input, CellKind::Buf, 1);
    let arity = kind.input_count();
    let copy = nl
        .add_cell("copy", kind, &vec![head; arity])
        .expect("arity");
    let mut pins = vec![head; arity];
    pins[1] = copy;
    let out = nl.add_cell("dut", kind, &pins).expect("arity");
    nl.add_output("y", out);
    (nl, out)
}

#[test]
fn every_kind_matches_the_event_kernel_around_its_flight_window() {
    let library = Library::umc_ll();
    // Arrivals zero to eight buffers apart, in orders that vary which
    // pin comes first.
    let staggers: [&[usize]; 6] = [
        &[0, 0, 0, 0, 0],
        &[0, 1, 2, 3, 4],
        &[4, 3, 2, 1, 0],
        &[0, 3, 6, 1, 8],
        &[2, 0, 8, 4, 1],
        &[8, 0, 0, 3, 0],
    ];
    let mut totals = Tally::default();
    for kind in KINDS {
        let mut tally = Tally::default();
        for (at, lengths) in staggers.iter().enumerate() {
            for invert in [false, true] {
                let nl = staggered(kind, lengths, invert);
                let Some(case) = Case::new(&nl, &library) else {
                    continue;
                };
                let what = format!("{kind} stagger {at} invert {invert}");
                case.check_every_drive(&what, &mut tally);
            }
        }
        assert!(tally.matched > 0, "{kind}: some cycle runs on the pass");
        totals.matched += tally.matched;
        totals.extended += tally.extended;
        totals.ties.extend(tally.ties);
    }
    println!(
        "{} staggered cycles matched ({} with a no-op pop setting a clock), {} tied",
        totals.matched,
        totals.extended,
        totals.ties.len()
    );
    assert!(totals.extended > 0, "some input lands inside a window");
}

#[test]
fn an_input_at_the_pop_is_a_tie_on_the_cell_it_reaches() {
    let library = Library::umc_ll();
    let mut tied_kinds = Vec::new();
    let non_inverting = [
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::Maj3,
        CellKind::CElement2,
        CellKind::CElement3,
    ];
    for kind in non_inverting {
        let (nl, out) = tied(kind);
        let case = Case::new(&nl, &library).expect("every pin rises");
        let mut tally = Tally::default();
        case.check_every_drive(&format!("{kind} tie"), &mut tally);
        assert!(
            tally.ties.iter().all(|&net| net == out),
            "{kind}: only the cell fed at its pop ties, not {:?}",
            tally.ties
        );
        if !tally.ties.is_empty() {
            tied_kinds.push(kind);
        }
    }
    // An OR or a majority flips on the shared input and sees the copy
    // arrive at its pop in the valid phase, an AND on the way back.  A
    // C-element fires on its last input and returns on its last, so no
    // input of it changes after its flip.
    assert_eq!(tied_kinds, &non_inverting[..7]);
}

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

/// A random layered DAG over the monotone kinds: `inputs` primary
/// inputs, then `layers` layers of up to `width` cells, each reading
/// nets of earlier layers.  Most cells read nets that all rise or all
/// fall when the inputs rise, which the compile accepts; one in eight
/// reads any nets, which it may reject.
fn random_dag(seed: u64, inputs: usize, layers: usize, width: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("dag {seed}"));
    // Each net with whether it falls when the inputs rise.
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
fn random_layered_dags_match_the_event_kernel() {
    let library = Library::umc_ll();
    let (mut compiled, mut tally) = (0, Tally::default());
    let seeds = 400;
    for seed in 0..seeds {
        let nl = random_dag(seed, 4, 5, 4);
        let Some(case) = Case::new(&nl, &library) else {
            continue;
        };
        compiled += 1;
        case.check_every_drive(&format!("dag seed {seed}"), &mut tally);
    }
    println!(
        "{compiled} of {seeds} DAGs compiled; {} cycles matched ({} with a no-op pop \
         setting a clock), {} tied",
        tally.matched,
        tally.extended,
        tally.ties.len()
    );
    assert!(compiled >= seeds / 4, "only {compiled} DAGs compiled");
    assert!(tally.matched > 10 * tally.ties.len());
}
