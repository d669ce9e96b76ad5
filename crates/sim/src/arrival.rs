//! Race-logic arrival kernel: one `(min, max, +)` pass per protocol
//! phase instead of an event queue.
//!
//! In a dual-rail netlist that switches monotonically, every net moves
//! at most once per protocol phase: away from its spacer level while
//! the operand's valid codeword propagates, and back while the spacer
//! returns.  Which input moves a cell's output is fixed by its kind and
//! the spacer levels: an early-propagating OR-like join fires on its
//! **first** moved input, an AND-like join or C-element on its
//! **last**, and a majority or AND-OR cell on the earliest of several
//! latest inputs.  With transport delays, a cell's output therefore
//! moves at
//!
//! ```text
//! t_out = delay + min over terms S ( max over pins i in S ( t_i ) )
//! ```
//!
//! where the terms are the minimal input sets whose movement moves the
//! output.  The return phase is the dual: the output returns once no
//! term is still fully moved, at `delay + max over S (min over i in S
//! (t_i))`.  [`ArrivalProgram`] compiles those terms once from the
//! cells' truth tables and a settled state, and [`ArrivalProgram::run_cycle`]
//! settles both phases of one operand with one topological pass each —
//! the arrival-time algebra of race logic.
//!
//! # Layout
//!
//! The compile orders each depth's cells by (valid formula, spacer
//! formula, arity) — cells of one depth are independent, so the order
//! stays topological — and stores each run of cells that share all
//! three contiguously: delays and input slots.  An [`ArrivalRun`] keeps
//! its times in slots rather than per net: the inputs a cycle may move,
//! then each settled cell's output in pass order (so no output index is
//! stored), then the constant nets those cells read.  A pass then
//! settles a first-pin or last-pin run as one min or max over exactly
//! its arity per cell, with no per-cell dispatch; only the general
//! (majority and AND-OR) formulas walk their pin sets.
//!
//! # Exactness
//!
//! The pass reproduces the event kernel's observable per-lane results
//! bit for bit, not just its settled values:
//!
//! - move times are the same `f64` sums (`input time + delay`, with the
//!   delays of the [`EngineProgram`]), and mins and maxes of them, which
//!   no run order or grouping changes;
//! - the lane clock counts **no-op pops** too.  An input that changes
//!   while its cell's output event is still in flight re-schedules the
//!   output (the event kernel's suppression rule only drops a schedule
//!   when nothing is in flight), and the resulting no-op pop advances
//!   the lane clock.  The pass replays that rule for a cell only when an
//!   input lands inside the flight window `(flip, flip + delay]` of its
//!   first schedule: an input after the window finds nothing in flight,
//!   so without one the last pop is the first;
//! - an input change at exactly the time the cell's last in-flight
//!   event pops is a tie the event queue breaks by insertion order,
//!   which a levelized pass cannot see.  Such a cycle returns an
//!   [`ArrivalTie`] (naming the first tied net in pass order) instead of
//!   guessing, and the caller re-runs it on the event kernel.  A tie
//!   with the first pop lies inside the window, so the replay sees it.
//!
//! # Specialisation
//!
//! When most primary inputs hold one level over a stream of cycles (a
//! trained model's parameters, say) and only a few change per cycle,
//! [`ArrivalProgram::specialise`] compiles the program down to the
//! cells those few can move: the structural cone of the varying
//! inputs, minus the cone cells that stay still even when every
//! varying input moves (the formulas are monotone, so that one pass
//! bounds every cycle).  Every other net moves at the same time in
//! every cycle of the stream, or never; the specialised program keeps
//! those times as a template its runs start from, and the latest pop
//! among those cells as each phase's clock floor.  A cycle then settles
//! only the cone and takes `max(floor, cone clock)`, which is the same
//! maximum in another order, so move times, clocks and ties stay bit
//! for bit those of the general program.  A general program is the
//! same thing with every primary input varying, an all-still template
//! and zero floors.
//!
//! # Compile errors
//!
//! A cell without such a formula is an [`ArrivalCompileError`]: a
//! flip-flop, a non-monotone cell (an XOR, or a join of one rising and
//! one falling input — the cases `tm-lint` reports as T201 and T202), a
//! cell that would not return at the spacer, a cell reading an unknown
//! level, or a netlist loop.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use celllib::Library;
//! use gatesim::{EngineProgram, Logic};
//! use netlist::{CellKind, Netlist};
//!
//! // Early propagation: an OR fires on its first input, an AND on its
//! // last.
//! let mut nl = Netlist::new("joins");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let first = nl.add_cell("or", CellKind::Or2, &[a, b]).unwrap();
//! let last = nl.add_cell("and", CellKind::And2, &[a, first]).unwrap();
//! nl.add_output("y", last);
//!
//! let program = EngineProgram::new(&nl, &Library::umc_ll());
//! let spacer = vec![Logic::Zero; nl.net_count()];
//! let arrival = program.arrival_program(&spacer).unwrap();
//! let mut run = arrival.new_run();
//! arrival.run_cycle(&[a, b], &mut run).unwrap();
//! let or_delay = program.cell_delay_ps(nl.driver_cell(first).unwrap());
//! assert_eq!(run.valid_move_ps(first), Some(or_delay));
//! assert_eq!(arrival.valid_value(&run, last), Logic::One);
//! assert!(run.spacer_move_ps(last).is_some(), "the spacer phase returns it");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use netlist::{CellId, CellKind, NetId};

use crate::program::{EngineProgram, NO_DRIVER};
use crate::Logic;

const INF: f64 = f64::INFINITY;
const NEG_INF: f64 = f64::NEG_INFINITY;

/// Most input pins any cell kind has.
const MAX_PINS: usize = CellKind::MAX_INPUTS;

/// Specialisations kept per [`ArrivalProgram`], one per distinct split
/// of its inputs.  A server that swaps models compiles each model once
/// while it rotates through at most this many (one engine serving the
/// sixteen models of a benchmark round, say); a stream of ever new
/// models evicts the oldest, so the memo of a program never holds more
/// than this many specialisations: about 100 KB each on the standard
/// (12, 8) netlist, mostly the full-size template (51 KB), so at most
/// about 3.3 MB per program.
const SPECIALISED_CACHE_CAP: usize = 32;

/// Why a state and program have no arrival program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrivalCompileError {
    /// The state does not hold one value per net.
    StateLength {
        /// Nets in the netlist.
        expected: usize,
        /// Values in the state.
        got: usize,
    },
    /// The netlist has a loop through `cell`, so no topological order
    /// exists.
    Loop {
        /// A cell on (or downstream of) the loop.
        cell: CellId,
    },
    /// `cell` has edge semantics (a flip-flop), not a level function.
    UnsupportedCell {
        /// The cell.
        cell: CellId,
        /// Its kind.
        kind: CellKind,
    },
    /// `cell` reads (or drives) `net`, which holds X in the state.
    UnknownLevel {
        /// The cell.
        cell: CellId,
        /// The unknown net.
        net: NetId,
    },
    /// `cell`'s truth table would change its output in the state itself.
    Unsettled {
        /// The cell.
        cell: CellId,
    },
    /// `cell` has no monotone formula at its spacer levels: moving more
    /// inputs can move its output back (an XOR, a join of one rising
    /// and one falling input), or it would not return at the spacer.
    NonMonotone {
        /// The cell.
        cell: CellId,
        /// Its kind.
        kind: CellKind,
    },
}

impl fmt::Display for ArrivalCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StateLength { expected, got } => {
                write!(
                    f,
                    "the state covers {got} nets but the netlist has {expected}"
                )
            }
            Self::Loop { cell } => write!(f, "cell {} sits on a netlist loop", cell.index()),
            Self::UnsupportedCell { cell, kind } => {
                write!(f, "cell {} ({kind}) has edge semantics", cell.index())
            }
            Self::UnknownLevel { cell, net } => {
                write!(f, "cell {} reads net {net}, which holds X", cell.index())
            }
            Self::Unsettled { cell } => {
                write!(
                    f,
                    "cell {} would change its output in the state",
                    cell.index()
                )
            }
            Self::NonMonotone { cell, kind } => write!(
                f,
                "cell {} ({kind}) does not switch monotonically at its spacer levels",
                cell.index()
            ),
        }
    }
}

impl std::error::Error for ArrivalCompileError {}

/// A cycle the event kernel must run instead: an input of `net`'s
/// driving cell changes exactly when the last event in flight for `net`
/// pops, and the event queue breaks that tie by insertion order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalTie {
    /// The net whose in-flight event ties.
    pub net: NetId,
}

/// The minimal input sets that move a cell's output in one phase,
/// evaluated as `min over sets (max over pins)` in the valid phase and
/// `max over sets (min over pins)` in the spacer phase.  The order
/// groups the pass's cells by formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Formula {
    /// Every pin alone: the first (valid) or last (spacer) pin.
    AnyPin,
    /// One set of every pin: the last (valid) or first (spacer) pin.
    AllPins,
    /// General sets, `terms[start..start + len]` as pin masks.
    Terms { start: u32, len: u32 },
}

/// Pin indices of a pin mask.
fn pins_of(set: u8) -> impl Iterator<Item = usize> {
    (0..MAX_PINS).filter(move |&pin| set >> pin & 1 == 1)
}

/// The earlier of two times.  Times are never NaN, so a compare does
/// what `f64::min` does without its NaN handling.
#[inline(always)]
fn min_time(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The later of two times (see [`min_time`]).
#[inline(always)]
fn max_time(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The earliest of `t`.
#[inline(always)]
fn first(t: &[f64]) -> f64 {
    t.iter().copied().fold(INF, min_time)
}

/// The latest of `t`.
#[inline(always)]
fn last(t: &[f64]) -> f64 {
    t.iter().copied().fold(NEG_INF, max_time)
}

/// Marker in [`Frame::slot`] for a net that a run does not store.
const NO_SLOT: u32 = u32::MAX;

/// Cells that share their valid and spacer formulas and their arity,
/// consecutive in the pass order: `delays` holds them at
/// `start..start + len`, and `pins` holds their `arity` input slots
/// each from `pins_start` on.
#[derive(Clone, Copy, Debug)]
struct Run {
    valid: Formula,
    spacer: Formula,
    arity: usize,
    start: u32,
    len: u32,
    pins_start: u32,
}

/// One cell in net terms: its formulas, output net, delay and input
/// nets.
#[derive(Clone, Copy, Debug)]
struct Cell {
    valid: Formula,
    spacer: Formula,
    out: u32,
    delay: f64,
    arity: usize,
    pins: [u32; MAX_PINS],
}

impl Cell {
    fn new(valid: Formula, spacer: Formula, out: u32, delay: f64, inputs: &[u32]) -> Self {
        let mut pins = [0; MAX_PINS];
        pins[..inputs.len()].copy_from_slice(inputs);
        Self {
            valid,
            spacer,
            out,
            delay,
            arity: inputs.len(),
            pins,
        }
    }

    fn pins(&self) -> &[u32] {
        &self.pins[..self.arity]
    }
}

/// Cells in a topological pass order, grouped into runs of one formula
/// pair and arity, with their delays and input slots stored
/// contiguously per run.  Cell `i` of the order writes slot
/// `first_out + i`.
#[derive(Debug, Default)]
struct Layout {
    first_out: usize,
    runs: Vec<Run>,
    delays: Vec<f64>,
    pins: Vec<u32>,
    /// Pin masks of the `Formula::Terms` formulas.
    terms: Vec<u8>,
}

impl Layout {
    /// Appends a cell reading the slots `pins`, extending the last run
    /// when the cell shares its formulas and arity.
    fn push(&mut self, valid: Formula, spacer: Formula, delay: f64, pins: &[u32]) {
        let arity = pins.len();
        match self.runs.last_mut() {
            Some(run) if (run.valid, run.spacer, run.arity) == (valid, spacer, arity) => {
                run.len += 1;
            }
            _ => self.runs.push(Run {
                valid,
                spacer,
                arity,
                start: u32::try_from(self.delays.len()).expect("cells fit in u32"),
                len: 1,
                pins_start: u32::try_from(self.pins.len()).expect("pins fit in u32"),
            }),
        }
        self.delays.push(delay);
        self.pins.extend_from_slice(pins);
    }

    /// One phase (the spacer phase if `spacer`) over every run, in pass
    /// order; returns the latest pop of its cells, or zero, and on a tie
    /// the slot of the tied output.
    fn pass(&self, spacer: bool, times: &mut [f64]) -> Result<f64, usize> {
        let mut clock = 0.0f64;
        for run in &self.runs {
            let run_clock = match run.arity {
                1 => self.run::<1>(run, spacer, times),
                2 => self.run::<2>(run, spacer, times),
                3 => self.run::<3>(run, spacer, times),
                4 => self.run::<4>(run, spacer, times),
                5 => self.run::<5>(run, spacer, times),
                6 => self.run::<6>(run, spacer, times),
                7 => self.run::<7>(run, spacer, times),
                8 => self.run::<8>(run, spacer, times),
                arity => unreachable!("a movable cell has {arity} pins"),
            }?;
            clock = max_time(clock, run_clock);
        }
        Ok(clock)
    }

    /// One phase over the `A`-pin cells of `run`.  In the valid phase a
    /// cell's output moves at `delay + min of max` of its inputs' move
    /// times; in the spacer phase an output that moved returns at
    /// `delay + max of min` of its inputs' return times, where an input
    /// that never moved counts as returned at minus infinity.  A
    /// first-pin or last-pin formula is one min or max over the pins;
    /// only a general formula walks its sets.
    fn run<const A: usize>(
        &self,
        run: &Run,
        spacer: bool,
        times: &mut [f64],
    ) -> Result<f64, usize> {
        let (start, len) = (run.start as usize, run.len as usize);
        let cells = Cells::<A> {
            first_out: self.first_out + start,
            delays: &self.delays[start..][..len],
            pins: self.pins[run.pins_start as usize..][..len * A]
                .as_chunks()
                .0,
        };
        let sets = |start: u32, len: u32| &self.terms[start as usize..][..len as usize];
        match (spacer, run.valid, run.spacer) {
            (false, Formula::AnyPin, _) => cells.settle::<false>(times, first, true),
            (false, Formula::AllPins, _) => cells.settle::<false>(times, last, false),
            (false, Formula::Terms { start, len }, _) => {
                let sets = sets(start, len);
                let flip = |t: &[f64]| {
                    sets.iter()
                        .map(|&set| pins_of(set).fold(NEG_INF, |acc, pin| max_time(acc, t[pin])))
                        .fold(INF, min_time)
                };
                cells.settle::<false>(times, flip, true)
            }
            (true, _, Formula::AnyPin) => cells.settle::<true>(times, last, false),
            (true, _, Formula::AllPins) => cells.settle::<true>(times, first, true),
            (true, _, Formula::Terms { start, len }) => {
                let sets = sets(start, len);
                let flip = |t: &[f64]| {
                    sets.iter()
                        .map(|&set| pins_of(set).fold(INF, |acc, pin| min_time(acc, t[pin])))
                        .fold(NEG_INF, max_time)
                };
                cells.settle::<true>(times, flip, true)
            }
        }
    }
}

/// Whether a cell with valid-phase `formula` over the nets `pins` moves
/// when exactly the nets `moving` marks move, its `Formula::Terms` sets
/// in `terms`: whether its move time is finite.
fn moves(terms: &[u8], formula: Formula, pins: &[u32], moving: &[bool]) -> bool {
    let at = |pin: usize| moving[pins[pin] as usize];
    match formula {
        Formula::AnyPin => (0..pins.len()).any(at),
        Formula::AllPins => (0..pins.len()).all(at),
        Formula::Terms { start, len } => terms[start as usize..][..len as usize]
            .iter()
            .any(|&set| pins_of(set).all(at)),
    }
}

/// Where a program's runs keep their times.  A run stores one slot per
/// net that a cycle resets, writes or reads: the varying inputs, then
/// the settled cells' outputs in pass order, then the other nets those
/// cells read, which hold their template times.  Every other net holds
/// its template time in every cycle.  Shared by a program and its runs.
#[derive(Debug)]
struct Frame {
    /// Per net, its slot, or `NO_SLOT`.
    slot: Box<[u32]>,
    /// The net of each slot.
    nets: Box<[u32]>,
    /// Slots `..varying` hold the varying inputs, `varying..dynamic` the
    /// settled cells' outputs.
    varying: usize,
    dynamic: usize,
    /// The varying inputs as a bitset over net indices, up to the
    /// highest.
    varying_bits: Box<[u64]>,
    /// Each net's move time per phase in every cycle, for the nets
    /// outside `..dynamic`: infinity in the valid phase and minus
    /// infinity in the spacer phase for a net that never moves.
    template_ps: [Box<[f64]>; 2],
    /// The template times of slots `dynamic..`, in slot order.
    frontier_ps: [Box<[f64]>; 2],
}

/// A memoised specialisation: a hash of its split, which a lookup
/// compares first, the split and the outcome.
type Specialisation = (u64, InputSplit, Option<Arc<ArrivalProgram>>);

/// How a specialisation splits an [`ArrivalProgram`]'s varying inputs:
/// the ones that keep varying from cycle to cycle, and the held ones
/// that move in every cycle; every other input is held still.  The key
/// of [`ArrivalProgram::specialise`], compared by content.
///
/// ```
/// use celllib::Library;
/// use gatesim::{EngineProgram, InputSplit, Logic};
/// use netlist::{CellKind, Netlist};
///
/// // `b` is a held parameter: the AND then follows `a` alone.
/// let mut nl = Netlist::new("gate");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
/// nl.add_output("y", y);
/// let program = EngineProgram::new(&nl, &Library::umc_ll());
/// let general = program.arrival_program(&vec![Logic::Zero; nl.net_count()]).unwrap();
/// let mut split = InputSplit::new(&general);
/// split.vary(a);
/// split.hold_moved(b);
/// let specialised = general.specialise(&split).unwrap();
/// let (mut both, mut one) = (general.new_run(), specialised.new_run());
/// general.run_cycle(&[a, b], &mut both).unwrap();
/// specialised.run_cycle(&[a], &mut one).unwrap();
/// assert_eq!(one.valid_move_ps(y), both.valid_move_ps(y));
/// assert_eq!(one.spacer_clock_ps(), both.spacer_clock_ps());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputSplit {
    /// One bit per net up to the program's highest varying input: the
    /// varying nets in the first half, the held moved ones in the
    /// second.
    bits: Vec<u64>,
}

impl InputSplit {
    /// A split of `program`'s varying inputs that holds every one still.
    #[must_use]
    pub fn new(program: &ArrivalProgram) -> Self {
        Self {
            bits: vec![0; 2 * program.frame.varying_bits.len()],
        }
    }

    /// Holds every input still again.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Keeps `net` varying from cycle to cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` lies beyond the program's highest varying input.
    pub fn vary(&mut self, net: NetId) {
        self.set(0, net);
    }

    /// Holds `net` moved in every cycle.
    ///
    /// # Panics
    ///
    /// Panics if `net` lies beyond the program's highest varying input.
    pub fn hold_moved(&mut self, net: NetId) {
        self.set(1, net);
    }

    fn set(&mut self, half: usize, net: NetId) {
        let words = self.bits.len() / 2;
        let word = net.index() / 64;
        assert!(
            word < words,
            "net {net} lies beyond the varying inputs of the split's program"
        );
        self.bits[half * words + word] |= 1 << (net.index() % 64);
    }

    /// The nets of one half, ascending.
    fn nets(&self, half: usize) -> impl Iterator<Item = NetId> + '_ {
        let words = self.bits.len() / 2;
        self.bits[half * words..][..words]
            .iter()
            .enumerate()
            .flat_map(|(word, &bits)| {
                (0..64)
                    .filter(move |bit| bits >> bit & 1 == 1)
                    .map(move |bit| NetId::from_index(word * 64 + bit))
            })
    }
}

/// A compiled arrival program: the cells a cycle settles, in a
/// topological order, grouped into runs of one formula pair and arity,
/// with their delays and input slots stored contiguously per run, and
/// the template every other net keeps.  Built by
/// [`EngineProgram::arrival_program`], which compiles at most once per
/// program and state, and specialised to held inputs by
/// [`ArrivalProgram::specialise`].
#[derive(Debug)]
pub struct ArrivalProgram {
    /// The settled state the formulas were derived at; every cycle
    /// starts and ends in it.
    state: Arc<[Logic]>,
    frame: Arc<Frame>,
    layout: Layout,
    /// Each phase's latest pop among the cells that move but that the
    /// pass leaves out, or zero.
    floor_ps: [f64; 2],
    pop_bound: u64,
    /// Specialisations compiled from this program so far, oldest first.
    specialised: Mutex<Vec<Specialisation>>,
}

/// Why a cell class has no formula.
#[derive(Clone, Copy, Debug)]
enum Underived {
    /// The truth table changes the output in the state itself.
    Unsettled,
    /// Not monotone, or no return at the spacer.
    NonMonotone,
}

/// Formulas of one `(kind, input levels, movable pins, output level)`
/// class, or `None` when the output never moves.
type Derived = Result<Option<(Formula, Formula)>, Underived>;

impl ArrivalProgram {
    /// Compiles the arrival program of `program` at the settled `state`
    /// (one value per net).  Formulas are derived from the truth tables
    /// once per cell kind, spacer levels and set of pins that can move,
    /// so a compile costs a topological sort, a table lookup per cell
    /// and a sort of the cells into runs.
    ///
    /// # Errors
    ///
    /// See [`ArrivalCompileError`]; the checks run in this order: state
    /// length, loops, then cells in topological order.
    pub fn compile(
        program: &EngineProgram<'_>,
        state: &[Logic],
    ) -> Result<Self, ArrivalCompileError> {
        let nets = program.netlist.net_count();
        if state.len() != nets {
            return Err(ArrivalCompileError::StateLength {
                expected: nets,
                got: state.len(),
            });
        }
        let (order, depth) = topological_order(program)?;
        let mut derived: HashMap<(CellKind, u8, u8, bool), Derived> = HashMap::new();
        let mut terms = Vec::new();
        let mut cells = Vec::new();
        let inputs_of = |cell: usize| {
            &program.cell_input_nets[program.cell_input_offsets[cell] as usize
                ..program.cell_input_offsets[cell + 1] as usize]
        };
        // Nets that can move: primary inputs, then the outputs of cells
        // that can move.  A pin on a net that never moves (a constant)
        // stays at its level and takes no part in the formula.
        let mut movable = vec![false; nets];
        for net in &program.primary_inputs {
            movable[net.index()] = true;
        }
        for cell in order {
            let kind = program.cell_kind[cell];
            let id = CellId::from_index(cell);
            if kind == CellKind::Dff {
                return Err(ArrivalCompileError::UnsupportedCell { cell: id, kind });
            }
            let inputs = inputs_of(cell);
            let out = program.cell_output[cell];
            let level = |net: u32| {
                state[net as usize]
                    .to_option()
                    .ok_or(ArrivalCompileError::UnknownLevel {
                        cell: id,
                        net: NetId::from_index(net as usize),
                    })
            };
            let out_level = level(out)?;
            let (mut in_levels, mut pins_moving) = (0u8, 0u8);
            for (pin, &net) in inputs.iter().enumerate() {
                in_levels |= u8::from(level(net)?) << pin;
                pins_moving |= u8::from(movable[net as usize]) << pin;
            }
            let formulas = *derived
                .entry((kind, in_levels, pins_moving, out_level))
                .or_insert_with(|| derive(kind, in_levels, pins_moving, out_level, &mut terms));
            let formulas = formulas.map_err(|why| match why {
                Underived::Unsettled => ArrivalCompileError::Unsettled { cell: id },
                Underived::NonMonotone => ArrivalCompileError::NonMonotone { cell: id, kind },
            })?;
            let Some((valid, spacer)) = formulas else {
                continue;
            };
            movable[out as usize] = true;
            cells.push((depth[cell], valid, spacer, inputs.len(), cell));
        }
        // Cells of one depth are independent, so depth order, with each
        // depth sorted by formulas and arity, is a topological order
        // too; consecutive cells that share all three form a run.
        cells.sort_unstable();
        let cells: Vec<Cell> = cells
            .into_iter()
            .map(|(_, valid, spacer, _, cell)| {
                let (out, delay) = (program.cell_output[cell], program.cell_delay_ps[cell]);
                Cell::new(valid, spacer, out, delay, inputs_of(cell))
            })
            .collect();
        let inputs: Vec<u32> = program
            .primary_inputs
            .iter()
            .map(|net| u32::try_from(net.index()).expect("nets fit in u32"))
            .collect();
        Ok(Self::assemble(
            state.into(),
            &inputs,
            &cells,
            terms,
            [vec![INF; nets].into(), vec![NEG_INF; nets].into()],
            [0.0; 2],
            // Every popped event is an input drive or a cell evaluation's
            // schedule, and a net's change evaluates each of its loads
            // once.
            (program.primary_inputs.len() + program.fanout_loads.len()) as u64,
        ))
    }

    /// The program whose cycles move any of the nets `varying`, settle
    /// `cells` (in net terms and pass order, none driving a net of
    /// `varying`) and keep every other net at its `template_ps` time,
    /// with each phase's clock at least its `floor_ps`.
    fn assemble(
        state: Arc<[Logic]>,
        varying: &[u32],
        cells: &[Cell],
        terms: Vec<u8>,
        template_ps: [Box<[f64]>; 2],
        floor_ps: [f64; 2],
        pop_bound: u64,
    ) -> Self {
        let mut slot = vec![NO_SLOT; state.len()];
        let mut nets = Vec::with_capacity(varying.len() + cells.len());
        let mut slot_of = |net: u32, nets: &mut Vec<u32>| {
            let at = &mut slot[net as usize];
            if *at == NO_SLOT {
                *at = u32::try_from(nets.len()).expect("slots fit in u32");
                nets.push(net);
            }
            *at
        };
        for &net in varying {
            slot_of(net, &mut nets);
        }
        let first_out = nets.len();
        for cell in cells {
            slot_of(cell.out, &mut nets);
        }
        let dynamic = nets.len();
        debug_assert_eq!(
            dynamic,
            first_out + cells.len(),
            "cells drive distinct nets"
        );
        let mut layout = Layout {
            first_out,
            terms,
            ..Layout::default()
        };
        for cell in cells {
            let mut pins = [0; MAX_PINS];
            for (slot, &net) in pins.iter_mut().zip(cell.pins()) {
                *slot = slot_of(net, &mut nets);
            }
            layout.push(cell.valid, cell.spacer, cell.delay, &pins[..cell.arity]);
        }
        let mut varying_bits = vec![
            0u64;
            varying
                .iter()
                .max()
                .map_or(0, |&net| net as usize + 1)
                .div_ceil(64)
        ];
        for &net in varying {
            varying_bits[net as usize / 64] |= 1 << (net % 64);
        }
        let frontier_ps = [0, 1].map(|phase| {
            nets[dynamic..]
                .iter()
                .map(|&net| template_ps[phase][net as usize])
                .collect()
        });
        Self {
            state,
            frame: Arc::new(Frame {
                slot: slot.into(),
                nets: nets.into(),
                varying: first_out,
                dynamic,
                varying_bits: varying_bits.into(),
                template_ps,
                frontier_ps,
            }),
            layout,
            floor_ps,
            pop_bound,
            specialised: Mutex::new(Vec::new()),
        }
    }

    /// Every cell a cycle settles, in pass order and net terms.
    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let (layout, nets) = (&self.layout, &self.frame.nets);
        layout.runs.iter().flat_map(move |run| {
            (0..run.len as usize).map(move |i| {
                let at = run.start as usize + i;
                let slots = &layout.pins[run.pins_start as usize + i * run.arity..][..run.arity];
                let mut pins = [0; MAX_PINS];
                for (net, &slot) in pins.iter_mut().zip(slots) {
                    *net = nets[slot as usize];
                }
                let out = nets[layout.first_out + at];
                Cell::new(
                    run.valid,
                    run.spacer,
                    out,
                    layout.delays[at],
                    &pins[..run.arity],
                )
            })
        })
    }

    /// An upper bound on the events the event kernel pops in one phase
    /// of one lane: compare it with an event limit before trusting a
    /// cycle that the limit could have cut short.
    #[must_use]
    pub fn pop_bound(&self) -> u64 {
        self.pop_bound
    }

    /// How many cells one phase of a cycle settles: every cell that can
    /// move in a general program, the cells the varying inputs can move
    /// in a specialised one.
    #[must_use]
    pub fn settled_cells(&self) -> usize {
        self.layout.delays.len()
    }

    /// This program specialised to a stream of cycles in which, of its
    /// own varying inputs (every primary input, for a general program),
    /// only those `split` keeps varying change from cycle to cycle, those
    /// it holds moved move in every cycle, and the rest never move.  Its
    /// [`ArrivalProgram::run_cycle`] takes the moved nets among the
    /// varying ones alone and returns what this program's would return
    /// for them plus the held moved ones, bit for bit (see the
    /// [module documentation](self)).
    ///
    /// Compiled on first request and memoised on this program by the
    /// split's content, at most once even across threads; the memo
    /// keeps the latest 32 splits.  A compile costs one pass over this
    /// program's cells and a cycle over those no varying input reaches.
    ///
    /// Returns `None` when a cell that no varying input reaches ties
    /// (see [`ArrivalTie`]): every cycle of the stream then ties, and
    /// this program reports it.
    ///
    /// # Panics
    ///
    /// Panics if `split` was made for a program with other varying
    /// inputs, names a net that is not one of this program's varying
    /// inputs, or both keeps a net varying and holds it.
    pub fn specialise(&self, split: &InputSplit) -> Option<Arc<ArrivalProgram>> {
        let inputs = &self.frame.varying_bits;
        assert_eq!(
            split.bits.len(),
            2 * inputs.len(),
            "the split was made for another program"
        );
        let (varying, moved) = split.bits.split_at(inputs.len());
        for ((&v, &m), &inputs) in varying.iter().zip(moved).zip(inputs.iter()) {
            assert!(
                (v | m) & !inputs == 0,
                "the split names a net that is not a varying input of this program"
            );
            assert!(
                v & m == 0,
                "the split both keeps an input varying and holds it"
            );
        }
        // FNV-1a over the split's words.
        let hash = split
            .bits
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, &word| {
                (hash ^ word).wrapping_mul(0x0100_0000_01b3)
            });
        let mut memo = self
            .specialised
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cached = memo
            .iter()
            .find(|(h, cached, _)| *h == hash && cached == split);
        if let Some((_, _, compiled)) = cached {
            return compiled.clone();
        }
        let nets = |half: usize| -> Vec<NetId> { split.nets(half).collect() };
        let compiled = self.compile_specialised(&nets(0), &nets(1)).map(Arc::new);
        if memo.len() == SPECIALISED_CACHE_CAP {
            drop(memo.remove(0));
        }
        memo.push((hash, split.clone(), compiled.clone()));
        compiled
    }

    /// Whether `net` is one of this program's varying inputs.
    fn varies(&self, net: NetId) -> bool {
        let bits = self.frame.varying_bits.get(net.index() / 64);
        bits.is_some_and(|&bits| bits >> (net.index() % 64) & 1 == 1)
    }

    /// Compiles [`ArrivalProgram::specialise`]'s program; `None` on a
    /// tie among the cells that no varying input reaches.
    fn compile_specialised(&self, varying: &[NetId], moved: &[NetId]) -> Option<Self> {
        let frame = &*self.frame;
        // One walk in pass order: a cell is in the cone when a pin is,
        // and can move when its formula holds over the nets that can
        // move with every varying input moving.  The cone cells that can
        // move are the new program's; the cells outside the cone move
        // the same way in every cycle, into the template.
        let mut cone = vec![false; self.state.len()];
        let mut can_move: Vec<bool> = frame.template_ps[0].iter().map(|&t| t < INF).collect();
        for &net in varying {
            cone[net.index()] = true;
            can_move[net.index()] = true;
        }
        for &net in moved {
            can_move[net.index()] = true;
        }
        let (mut held, mut settled) = (Vec::new(), Vec::new());
        for cell in self.cells() {
            let out = cell.out as usize;
            can_move[out] = moves(&self.layout.terms, cell.valid, cell.pins(), &can_move);
            if cell.pins().iter().any(|&net| cone[net as usize]) {
                cone[out] = true;
                if can_move[out] {
                    settled.push(cell);
                }
            } else {
                held.push(cell);
            }
        }
        // The held cells' cycle, on a program of their own whose varying
        // inputs are `moved`, all moving.
        let nets = |nets: &[NetId]| -> Vec<u32> {
            nets.iter()
                .map(|net| u32::try_from(net.index()).expect("nets fit in u32"))
                .collect()
        };
        let held = Self::assemble(
            Arc::clone(&self.state),
            &nets(moved),
            &held,
            self.layout.terms.clone(),
            frame.template_ps.clone(),
            self.floor_ps,
            self.pop_bound,
        );
        let mut run = held.new_run();
        held.run_cycle(moved, &mut run).ok()?;
        let mut template_ps = frame.template_ps.clone();
        for (slot, &net) in held.frame.nets[..held.frame.dynamic].iter().enumerate() {
            template_ps[0][net as usize] = run.valid_ps[slot];
            template_ps[1][net as usize] = run.spacer_ps[slot];
        }
        Some(Self::assemble(
            Arc::clone(&self.state),
            &nets(varying),
            &settled,
            self.layout.terms.clone(),
            template_ps,
            [run.valid_clock_ps, run.spacer_clock_ps],
            self.pop_bound,
        ))
    }

    /// Scratch and results for [`ArrivalProgram::run_cycle`], holding
    /// this program's template until the first cycle.
    #[must_use]
    pub fn new_run(&self) -> ArrivalRun {
        let mut run = ArrivalRun {
            frame: Arc::clone(&self.frame),
            valid_ps: Vec::new(),
            spacer_ps: Vec::new(),
            valid_clock_ps: 0.0,
            spacer_clock_ps: 0.0,
        };
        run.load(&self.frame);
        run
    }

    /// Settles one return-to-zero cycle of one operand: the varying
    /// inputs in `moved` leave their compiled levels at time zero of the
    /// valid phase and return at time zero of the spacer phase, each
    /// phase in its own zero-based frame, as a phase-rebased event
    /// driver runs them (a specialised program's held inputs do what
    /// [`ArrivalProgram::specialise`] was told).  `run` receives every
    /// net's move time per phase and each phase's lane clock,
    /// bit-identical to the event kernel's for the same lane.  A run
    /// last used by another program is first refilled for this one;
    /// otherwise a cycle resets only the varying inputs and the settled
    /// cells' outputs.
    ///
    /// # Errors
    ///
    /// [`ArrivalTie`] when the event kernel's result depends on its
    /// queue order; `run` then holds partial results.
    ///
    /// # Panics
    ///
    /// Panics if a net in `moved` is not a varying input of this
    /// program.
    pub fn run_cycle(&self, moved: &[NetId], run: &mut ArrivalRun) -> Result<(), ArrivalTie> {
        for &net in moved {
            assert!(
                self.varies(net),
                "net {net} is not a varying input of this program"
            );
        }
        if !Arc::ptr_eq(&run.frame, &self.frame) {
            run.load(&self.frame);
        }
        let frame = &*self.frame;
        let (varying, dynamic) = (frame.varying, frame.dynamic);
        let moved_slots = || moved.iter().map(|net| frame.slot[net.index()] as usize);
        let (valid, spacer) = (&mut run.valid_ps[..], &mut run.spacer_ps[..]);
        valid[..varying].fill(INF);
        for slot in moved_slots() {
            valid[slot] = 0.0;
        }
        run.valid_clock_ps = max_time(self.floor_ps[0], self.pass(false, valid)?);
        // A net that moved waits at infinity for its return, one that
        // did not stays at minus infinity; the other slots hold their
        // template times.
        for (spacer, &valid) in spacer[varying..dynamic]
            .iter_mut()
            .zip(&valid[varying..dynamic])
        {
            *spacer = if valid < INF { INF } else { NEG_INF };
        }
        spacer[..varying].fill(NEG_INF);
        for slot in moved_slots() {
            spacer[slot] = 0.0;
        }
        run.spacer_clock_ps = max_time(self.floor_ps[1], self.pass(true, spacer)?);
        Ok(())
    }

    /// One phase of the layout, a tie named by its net.
    fn pass(&self, spacer: bool, times: &mut [f64]) -> Result<f64, ArrivalTie> {
        self.layout.pass(spacer, times).map_err(|slot| ArrivalTie {
            net: NetId::from_index(self.frame.nets[slot] as usize),
        })
    }

    /// The value of `net` at the end of `run`'s valid phase.
    #[must_use]
    pub fn valid_value(&self, run: &ArrivalRun, net: NetId) -> Logic {
        let level = self.state[net.index()];
        match (level, run.valid_move_ps(net).is_some()) {
            (Logic::Zero, true) => Logic::One,
            (Logic::One, true) => Logic::Zero,
            (level, _) => level,
        }
    }
}

/// The cells of one run: their delays and `A` input slots; cell `i`
/// writes slot `first_out + i`.
struct Cells<'p, const A: usize> {
    first_out: usize,
    delays: &'p [f64],
    pins: &'p [[u32; A]],
}

impl<const A: usize> Cells<'_, A> {
    /// Settles the cells in order and returns their latest pop, or zero
    /// when none moves, or on a tie the slot of the tied output.  `flip`
    /// folds a cell's input times into the time its output flips.  In
    /// the `SPACER` phase an output holds infinity if it moved in the
    /// valid phase and minus infinity if not, which it keeps.  With
    /// `later`, an input may change after the flip: the in-flight rule
    /// is replayed only for a cell with an input inside its flight
    /// window `(flip, flip + delay]`, since only such an input
    /// re-schedules the output or ties with its pop.
    #[inline(always)]
    fn settle<const SPACER: bool>(
        &self,
        times: &mut [f64],
        flip: impl Fn(&[f64]) -> f64,
        later: bool,
    ) -> Result<f64, usize> {
        let mut clock = 0.0f64;
        for (out, (&delay, pins)) in (self.first_out..).zip(self.delays.iter().zip(self.pins)) {
            let t: [f64; A] = std::array::from_fn(|pin| times[pins[pin] as usize]);
            let flip = flip(&t);
            let slot = &mut times[out];
            let (moved, pop) = if SPACER {
                (*slot == INF, min_time(flip + delay, *slot))
            } else {
                (flip < INF, flip + delay)
            };
            // The compile's containment check keeps an output that moved
            // moved through a set of pins that all moved, and so all
            // return.
            debug_assert!(!moved || flip.is_finite(), "slot {out} does not return");
            *slot = pop;
            // The first input after the flip, against the flight window's
            // end: minus infinity for an output that does not move.
            let next = t.iter().fold(INF, |next, &x| {
                min_time(next, if x > flip { x } else { INF })
            });
            let end = if moved { pop } else { NEG_INF };
            let pop = if later && next <= end {
                last_schedule(flip, delay, &t).ok_or(out)? + delay
            } else {
                pop
            };
            // An output that does not move sets no pop: in the valid
            // phase it keeps `INFINITY + delay`, in the spacer phase
            // minus infinity.
            clock = max_time(clock, if SPACER || moved { pop } else { 0.0 });
        }
        Ok(clock)
    }
}

/// The time of the last schedule a cell's output gets in one phase, or
/// `None` on a tie.  The output flips at `flip` (its first schedule);
/// every input change after that, while an event is still in flight,
/// schedules a no-op one `delay` later.  An input change exactly when
/// the last in-flight event pops is a tie.
#[inline(always)]
fn last_schedule(flip: f64, delay: f64, t: &[f64]) -> Option<f64> {
    let mut later = [0.0f64; MAX_PINS];
    let mut count = 0;
    for &x in t {
        if x > flip && x.is_finite() {
            later[count] = x;
            count += 1;
        }
    }
    if count == 0 {
        return Some(flip);
    }
    let later = &mut later[..count];
    later.sort_unstable_by(f64::total_cmp);
    let mut last = flip;
    for &x in later.iter() {
        let pop = last + delay;
        if x < pop {
            last = x;
        } else if x == pop {
            return None;
        } else {
            break;
        }
    }
    Some(last)
}

/// Cells in topological order (drivers before loads) with each cell's
/// depth (one more than its deepest driving cell), or the first cell
/// left on a loop.
fn topological_order(
    program: &EngineProgram<'_>,
) -> Result<(Vec<usize>, Vec<u32>), ArrivalCompileError> {
    let cells = program.cell_kind.len();
    let mut waiting: Vec<u32> = (0..cells)
        .map(|cell| {
            let inputs = &program.cell_input_nets[program.cell_input_offsets[cell] as usize
                ..program.cell_input_offsets[cell + 1] as usize];
            let driven = inputs
                .iter()
                .filter(|&&net| program.driver_of[net as usize] != NO_DRIVER)
                .count();
            u32::try_from(driven).expect("small arity")
        })
        .collect();
    let mut order: Vec<usize> = (0..cells).filter(|&cell| waiting[cell] == 0).collect();
    let mut depth = vec![0u32; cells];
    let mut next = 0;
    while next < order.len() {
        let cell = order[next];
        let out = program.cell_output[cell] as usize;
        next += 1;
        let loads = program.fanout_offsets[out] as usize..program.fanout_offsets[out + 1] as usize;
        for &(load, _) in &program.fanout_loads[loads] {
            let load = load.index();
            depth[load] = depth[load].max(depth[cell] + 1);
            waiting[load] -= 1;
            if waiting[load] == 0 {
                order.push(load);
            }
        }
    }
    if order.len() < cells {
        let cell = (0..cells)
            .find(|&cell| waiting[cell] > 0)
            .expect("a cell is left");
        return Err(ArrivalCompileError::Loop {
            cell: CellId::from_index(cell),
        });
    }
    Ok((order, depth))
}

/// Derives the valid- and spacer-phase formulas of `kind` with inputs
/// at `levels` (bit `i` = pin `i`) and output at `out`, from the
/// three-valued truth table the event kernels evaluate.  Only the pins
/// in `moving` can leave their level.
///
/// With `moved ⊆ moving` the set of pins off their level, the output
/// has moved in the valid phase when `valid(moved) = f(levels ^ moved,
/// prev = out) != out`, and is still moved in the spacer phase when
/// `spacer(moved) = f(levels ^ moved, prev = !out) == !out`.  Both must
/// be monotone (moving more pins never moves the output back), a
/// valid-phase move must hold once the output has moved (`valid ⊆
/// spacer`), and the output must return once every pin has
/// (`!spacer(∅)`).  Each formula is then the function's minimal true
/// sets.
fn derive(kind: CellKind, levels: u8, moving: u8, out: bool, terms: &mut Vec<u8>) -> Derived {
    let arity = kind.input_count();
    let eval = |moved: usize, prev: bool| {
        let mut inputs = [None; MAX_PINS];
        for (pin, slot) in inputs.iter_mut().enumerate().take(arity) {
            *slot = Some((levels >> pin & 1 == 1) ^ (moved >> pin & 1 == 1));
        }
        kind.eval_tristate(&inputs[..arity], Some(prev))
            .expect("known inputs and state give a known output")
    };
    let moving = usize::from(moving);
    let sets = 1usize << arity;
    let reachable = |m: &usize| m & !moving == 0;
    let valid: Vec<bool> = (0..sets)
        .map(|m| reachable(&m) && eval(m, out) != out)
        .collect();
    if eval(0, out) != out {
        return Err(Underived::Unsettled);
    }
    if !valid.contains(&true) {
        return Ok(None);
    }
    let spacer: Vec<bool> = (0..sets)
        .map(|m| reachable(&m) && eval(m, !out) != out)
        .collect();
    let monotone = |g: &[bool]| {
        (0..sets)
            .filter(reachable)
            .all(|m| (0..arity).all(|pin| moving >> pin & 1 == 0 || !g[m] || g[m | 1 << pin]))
    };
    let contained = (0..sets).all(|m| !valid[m] || spacer[m]);
    if !monotone(&valid) || !monotone(&spacer) || !contained || spacer[0] {
        return Err(Underived::NonMonotone);
    }
    let moving_pins = moving.count_ones() as usize;
    let mut formula = |g: &[bool]| {
        let minimal: Vec<u8> = (0..sets)
            .filter(|&m| g[m] && (0..arity).all(|pin| m >> pin & 1 == 0 || !g[m & !(1 << pin)]))
            .map(|m| u8::try_from(m).expect("at most eight pins"))
            .collect();
        let all = u8::try_from(sets - 1).expect("at most eight pins");
        // A pin that never moves sits at infinity in the valid phase and
        // minus infinity in the spacer phase, so it drops out of a
        // first-pin (`AnyPin`) formula but not out of a last-pin one.
        if minimal == [all] {
            Formula::AllPins
        } else if minimal.len() == moving_pins && minimal.iter().all(|m| m.count_ones() == 1) {
            Formula::AnyPin
        } else {
            let start = u32::try_from(terms.len()).expect("terms fit in u32");
            terms.extend_from_slice(&minimal);
            Formula::Terms {
                start,
                len: u32::try_from(minimal.len()).expect("terms fit in u32"),
            }
        }
    };
    Ok(Some((formula(&valid), formula(&spacer))))
}

/// One operand's cycle on an [`ArrivalProgram`]: per net, its move time
/// in each phase, and each phase's lane clock (the time of the last
/// event the event kernel pops for the lane, no-op pops included).
#[derive(Clone, Debug)]
pub struct ArrivalRun {
    /// Where the program whose cycle the run holds keeps its times.
    frame: Arc<Frame>,
    /// Valid-phase move time per slot; `INFINITY` if it did not move.
    valid_ps: Vec<f64>,
    /// Spacer-phase return time per slot; `NEG_INFINITY` if it did not
    /// move in the valid phase.
    spacer_ps: Vec<f64>,
    valid_clock_ps: f64,
    spacer_clock_ps: f64,
}

impl ArrivalRun {
    /// Sizes the run for `frame`: still settled slots, then the
    /// frontier's template times.
    fn load(&mut self, frame: &Arc<Frame>) {
        self.frame = Arc::clone(frame);
        for ((times, still), frontier) in
            [(&mut self.valid_ps, INF), (&mut self.spacer_ps, NEG_INF)]
                .into_iter()
                .zip(&frame.frontier_ps)
        {
            times.clear();
            times.resize(frame.dynamic, still);
            times.extend_from_slice(frontier);
        }
    }

    /// `net`'s time in the valid phase, or the spacer phase if `spacer`.
    fn time(&self, net: NetId, spacer: bool) -> f64 {
        let slot = self.frame.slot[net.index()] as usize;
        match (slot < self.frame.dynamic, spacer) {
            (true, false) => self.valid_ps[slot],
            (true, true) => self.spacer_ps[slot],
            (false, spacer) => self.frame.template_ps[usize::from(spacer)][net.index()],
        }
    }

    /// When `net` moved in the valid phase, if it did.
    #[must_use]
    pub fn valid_move_ps(&self, net: NetId) -> Option<f64> {
        let t = self.time(net, false);
        (t < INF).then_some(t)
    }

    /// When `net` returned in the spacer phase, if it moved.
    #[must_use]
    pub fn spacer_move_ps(&self, net: NetId) -> Option<f64> {
        let t = self.time(net, true);
        t.is_finite().then_some(t)
    }

    /// The valid phase's lane clock.
    #[must_use]
    pub fn valid_clock_ps(&self) -> f64 {
        self.valid_clock_ps
    }

    /// The spacer phase's lane clock.
    #[must_use]
    pub fn spacer_clock_ps(&self) -> f64 {
        self.spacer_clock_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celllib::Library;
    use netlist::Netlist;

    fn zeros(nl: &Netlist) -> Vec<Logic> {
        vec![Logic::Zero; nl.net_count()]
    }

    #[test]
    fn joins_take_the_first_or_last_input() {
        let mut nl = Netlist::new("joins");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let or = nl.add_cell("or", CellKind::Or2, &[a, b]).unwrap();
        let cel = nl.add_cell("cel", CellKind::CElement2, &[or, c]).unwrap();
        let maj = nl.add_cell("maj", CellKind::Maj3, &[a, b, c]).unwrap();
        nl.add_output("y", cel);
        nl.add_output("m", maj);
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let arrival = program.arrival_program(&zeros(&nl)).unwrap();
        let delay = |net: NetId| program.cell_delay_ps(nl.driver_cell(net).unwrap());
        let mut run = arrival.new_run();

        arrival.run_cycle(&[a, c], &mut run).unwrap();
        assert_eq!(run.valid_move_ps(or), Some(delay(or)));
        assert_eq!(run.valid_move_ps(cel), Some(delay(or) + delay(cel)));
        assert_eq!(run.valid_move_ps(maj), Some(delay(maj)));
        // The C-element returns on its last input, the OR on its last.
        assert_eq!(run.spacer_move_ps(or), Some(delay(or)));
        assert_eq!(run.spacer_move_ps(cel), Some(delay(or) + delay(cel)));
        assert_eq!(arrival.valid_value(&run, cel), Logic::One);

        // Only `a`: the C-element waits for `c` and never moves.
        arrival.run_cycle(&[a], &mut run).unwrap();
        assert_eq!(run.valid_move_ps(cel), None);
        assert_eq!(run.valid_move_ps(maj), None);
        assert_eq!(run.spacer_move_ps(cel), None);
        assert_eq!(arrival.valid_value(&run, cel), Logic::Zero);
    }

    #[test]
    fn a_late_input_while_the_output_is_in_flight_extends_the_clock() {
        // `b` reaches the OR one buffer delay after `a`; the buffer is
        // faster than the OR, so `b` arrives while the OR's event is in
        // flight and its no-op pop sets the lane clock.
        let mut nl = Netlist::new("noop");
        let a = nl.add_input("a");
        let slow = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        let or = nl.add_cell("or", CellKind::Or4, &[a, slow, a, a]).unwrap();
        nl.add_output("y", or);
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let (d_buf, d_or) = (
            program.cell_delay_ps(nl.driver_cell(slow).unwrap()),
            program.cell_delay_ps(nl.driver_cell(or).unwrap()),
        );
        assert!(d_buf < d_or, "the buffer is faster than the OR4");
        let arrival = program.arrival_program(&zeros(&nl)).unwrap();
        let mut run = arrival.new_run();
        arrival.run_cycle(&[a], &mut run).unwrap();
        assert_eq!(run.valid_move_ps(or), Some(d_or));
        assert_eq!(run.valid_clock_ps(), d_buf + d_or);
    }

    #[test]
    fn monotone_failures_and_loops_are_typed_errors() {
        let library = Library::umc_ll();
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell("x", CellKind::Xor2, &[a, b]).unwrap();
        nl.add_output("y", x);
        let program = EngineProgram::new(&nl, &library);
        assert!(matches!(
            program.arrival_program(&zeros(&nl)),
            Err(ArrivalCompileError::NonMonotone {
                kind: CellKind::Xor2,
                ..
            })
        ));
        let mut state = zeros(&nl);
        state[b.index()] = Logic::Unknown;
        assert!(matches!(
            program.arrival_program(&state),
            Err(ArrivalCompileError::UnknownLevel { net, .. }) if net == b
        ));
        assert!(matches!(
            program.arrival_program(&state[1..]),
            Err(ArrivalCompileError::StateLength { .. })
        ));

        let mut nl = Netlist::new("loop");
        let back = nl.add_net_named("back").unwrap();
        let fwd = nl.add_cell("fwd", CellKind::Buf, &[back]).unwrap();
        nl.add_cell_with_output("close", CellKind::Buf, &[fwd], back)
            .unwrap();
        let program = EngineProgram::new(&nl, &library);
        assert!(matches!(
            program.arrival_program(&zeros(&nl)),
            Err(ArrivalCompileError::Loop { .. })
        ));
    }

    #[test]
    fn pins_on_constant_nets_drop_out_of_the_formula() {
        // AND(a, 1): moving the constant pin too would break
        // monotonicity, but it never moves, so the cell follows `a`.
        let mut nl = Netlist::new("tied");
        let a = nl.add_input("a");
        let one = nl.add_cell("one", CellKind::Tie1, &[]).unwrap();
        let y = nl.add_cell("and", CellKind::And2, &[a, one]).unwrap();
        nl.add_output("y", y);
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let mut state = zeros(&nl);
        state[one.index()] = Logic::One;
        let arrival = program.arrival_program(&state).unwrap();
        let mut run = arrival.new_run();
        arrival.run_cycle(&[a], &mut run).unwrap();
        let delay = program.cell_delay_ps(nl.driver_cell(y).unwrap());
        assert_eq!(run.valid_move_ps(y), Some(delay));
        assert_eq!(run.spacer_move_ps(y), Some(delay));
        assert_eq!(run.valid_move_ps(one), None);
    }

    #[test]
    fn compiles_are_memoised_by_state_content() {
        let mut nl = Netlist::new("memo");
        let a = nl.add_input("a");
        let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        nl.add_output("y", y);
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let mut state = zeros(&nl);
        state[y.index()] = Logic::One;
        let first = program.arrival_program(&state).unwrap();
        let copy = state.clone();
        assert!(std::sync::Arc::ptr_eq(
            &first,
            &program.arrival_program(&copy).unwrap()
        ));
        // A state that is not settled is rejected, not cached as valid.
        assert!(matches!(
            program.arrival_program(&zeros(&nl)),
            Err(ArrivalCompileError::Unsettled { .. })
        ));
    }

    /// `a` varies through one buffer; `b` is held moved through a chain
    /// of five, which no varying input reaches and which sets both lane
    /// clocks.  `c` is held still, so the AND it gates with `a` never
    /// moves.
    fn held_chain() -> (Netlist, [NetId; 3], [NetId; 3]) {
        let mut nl = Netlist::new("held");
        let (a, b, c) = (nl.add_input("a"), nl.add_input("b"), nl.add_input("c"));
        let fast = nl.add_cell("fast", CellKind::Buf, &[a]).unwrap();
        let slow = (0..5).fold(b, |net, i| {
            nl.add_cell(format!("slow{i}"), CellKind::Buf, &[net])
                .unwrap()
        });
        let gated = nl.add_cell("gated", CellKind::And2, &[a, c]).unwrap();
        nl.add_output("y", fast);
        nl.add_output("z", slow);
        nl.add_output("g", gated);
        (nl, [a, b, c], [fast, slow, gated])
    }

    #[test]
    fn a_specialised_cycle_equals_the_general_one_with_the_held_inputs() {
        let (nl, [a, b, c], [fast, slow, gated]) = held_chain();
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let general = program.arrival_program(&zeros(&nl)).unwrap();
        let mut split = InputSplit::new(&general);
        split.vary(a);
        split.hold_moved(b);
        let specialised = general.specialise(&split).unwrap();
        // `fast` and `gated` are `a`'s cone, and `gated` never moves
        // with `c` held still.
        assert_eq!(general.settled_cells(), 7);
        assert_eq!(specialised.settled_cells(), 1);
        let (mut both, mut one) = (general.new_run(), specialised.new_run());
        for moved in [&[][..], &[a]] {
            let with_b: Vec<NetId> = moved.iter().copied().chain([b]).collect();
            general.run_cycle(&with_b, &mut both).unwrap();
            specialised.run_cycle(moved, &mut one).unwrap();
            for net in (0..nl.net_count()).map(NetId::from_index) {
                assert_eq!(one.valid_move_ps(net), both.valid_move_ps(net), "{net}");
                assert_eq!(one.spacer_move_ps(net), both.spacer_move_ps(net), "{net}");
            }
            assert_eq!(one.valid_clock_ps(), both.valid_clock_ps());
            assert_eq!(one.spacer_clock_ps(), both.spacer_clock_ps());
            // The held chain's last pop is the clock floor.
            assert_eq!(Some(one.valid_clock_ps()), one.valid_move_ps(slow));
            assert_eq!(Some(one.spacer_clock_ps()), one.spacer_move_ps(slow));
            assert_eq!(one.valid_move_ps(fast).is_some(), !moved.is_empty());
            assert_eq!(one.valid_move_ps(gated), None);
        }
        // A run moves between programs: it is refilled for each.
        general.run_cycle(&[a, c], &mut one).unwrap();
        assert!(one.valid_move_ps(gated).is_some());
        assert_eq!(one.valid_move_ps(slow), None);
        specialised.run_cycle(&[a], &mut one).unwrap();
        assert_eq!(one.valid_move_ps(gated), None);
        assert!(one.valid_move_ps(slow).is_some());
    }

    #[test]
    fn specialisations_are_memoised_by_split_content_and_bounded() {
        let mut nl = Netlist::new("many");
        let inputs: Vec<NetId> = (0..7).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_cell("or", CellKind::Or3, &inputs[..3]).unwrap();
        nl.add_output("y", y);
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let general = program.arrival_program(&zeros(&nl)).unwrap();
        let split = |held: usize| {
            let mut split = InputSplit::new(&general);
            split.vary(inputs[0]);
            for (bit, &net) in inputs[1..].iter().enumerate() {
                if held >> bit & 1 == 1 {
                    split.hold_moved(net);
                }
            }
            split
        };
        let first = general.specialise(&split(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &general.specialise(&split(0)).unwrap()));
        // As many other splits of the six held inputs as the memo keeps
        // push the first out.
        for held in 1..=SPECIALISED_CACHE_CAP {
            assert!(!Arc::ptr_eq(
                &first,
                &general.specialise(&split(held)).unwrap()
            ));
        }
        assert!(!Arc::ptr_eq(
            &first,
            &general.specialise(&split(0)).unwrap()
        ));
        // A specialisation can itself be specialised.
        let mut narrower = InputSplit::new(&first);
        narrower.hold_moved(inputs[0]);
        let constant = first.specialise(&narrower).unwrap();
        assert_eq!(constant.settled_cells(), 0);
        let mut run = constant.new_run();
        constant.run_cycle(&[], &mut run).unwrap();
        assert!(run.valid_move_ps(y).is_some());
    }

    #[test]
    #[should_panic(expected = "both keeps an input varying and holds it")]
    fn a_split_may_not_both_vary_and_hold_an_input() {
        let (nl, [a, ..], _) = held_chain();
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let general = program.arrival_program(&zeros(&nl)).unwrap();
        let mut split = InputSplit::new(&general);
        split.vary(a);
        split.hold_moved(a);
        let _ = general.specialise(&split);
    }

    #[test]
    #[should_panic(expected = "is not a varying input of this program")]
    fn a_specialised_cycle_moves_only_varying_inputs() {
        let (nl, [a, b, _], _) = held_chain();
        let program = EngineProgram::new(&nl, &Library::umc_ll());
        let general = program.arrival_program(&zeros(&nl)).unwrap();
        let mut split = InputSplit::new(&general);
        split.vary(a);
        let specialised = general.specialise(&split).unwrap();
        let _ = specialised.run_cycle(&[b], &mut specialised.new_run());
    }
}
