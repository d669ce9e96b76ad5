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
//! # Exactness
//!
//! The pass reproduces the event kernel's observable per-lane results
//! bit for bit, not just its settled values:
//!
//! - move times are the same `f64` sums (`input time + delay`, with the
//!   delays of the [`EngineProgram`]);
//! - the lane clock counts **no-op pops** too.  An input that changes
//!   while its cell's output event is still in flight re-schedules the
//!   output (the event kernel's suppression rule only drops a schedule
//!   when nothing is in flight), and the resulting no-op pop advances
//!   the lane clock.  The pass replays that rule per cell;
//! - an input change at exactly the time the cell's last in-flight
//!   event pops is a tie the event queue breaks by insertion order,
//!   which a levelized pass cannot see.  Such a cycle returns an
//!   [`ArrivalTie`] instead of guessing, and the caller re-runs it on
//!   the event kernel.
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

use netlist::{CellId, CellKind, NetId};

use crate::program::{EngineProgram, NO_DRIVER};
use crate::Logic;

const INF: f64 = f64::INFINITY;
const NEG_INF: f64 = f64::NEG_INFINITY;

/// Most input pins any cell kind has.
const MAX_PINS: usize = CellKind::MAX_INPUTS;

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
/// `max over sets (min over pins)` in the spacer phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Formula {
    /// Every pin alone: the first (valid) or last (spacer) pin.
    AnyPin,
    /// One set of every pin: the last (valid) or first (spacer) pin.
    AllPins,
    /// General sets, `terms[start..start + len]` as pin masks.
    Terms { start: u32, len: u32 },
}

impl Formula {
    /// `min over sets (max over pins in the set)`, and whether an input
    /// can change after that time (the result is not the latest input).
    #[inline(always)]
    fn min_of_max(self, t: &[f64], terms: &[u8]) -> (f64, bool) {
        match self {
            Formula::AnyPin => (t.iter().copied().fold(INF, f64::min), true),
            Formula::AllPins => (t.iter().copied().fold(NEG_INF, f64::max), false),
            Formula::Terms { start, len } => (
                terms[start as usize..][..len as usize]
                    .iter()
                    .map(|&set| pins_of(set).fold(NEG_INF, |acc, pin| acc.max(t[pin])))
                    .fold(INF, f64::min),
                true,
            ),
        }
    }

    /// `max over sets (min over pins in the set)`, and whether an input
    /// can change after that time.
    #[inline(always)]
    fn max_of_min(self, t: &[f64], terms: &[u8]) -> (f64, bool) {
        match self {
            Formula::AnyPin => (t.iter().copied().fold(NEG_INF, f64::max), false),
            Formula::AllPins => (t.iter().copied().fold(INF, f64::min), true),
            Formula::Terms { start, len } => (
                terms[start as usize..][..len as usize]
                    .iter()
                    .map(|&set| pins_of(set).fold(INF, |acc, pin| acc.min(t[pin])))
                    .fold(NEG_INF, f64::max),
                true,
            ),
        }
    }

    /// Sort key grouping cells of one formula shape.
    fn rank(self) -> u8 {
        match self {
            Formula::AnyPin => 0,
            Formula::AllPins => 1,
            Formula::Terms { .. } => 2,
        }
    }
}

/// Pin indices of a pin mask.
fn pins_of(set: u8) -> impl Iterator<Item = usize> {
    (0..MAX_PINS).filter(move |&pin| set >> pin & 1 == 1)
}

/// One cell that can move, in topological order.
#[derive(Clone, Copy, Debug)]
struct ArrivalCell {
    out: u32,
    pins_start: u32,
    arity: u32,
    delay_ps: f64,
    valid: Formula,
    spacer: Formula,
}

/// A compiled arrival program: per movable cell, in topological order,
/// its valid-phase and spacer-phase formulas over the move times of its
/// inputs.  Built by [`EngineProgram::arrival_program`], which compiles
/// at most once per program and state.
#[derive(Debug)]
pub struct ArrivalProgram {
    /// The settled state the formulas were derived at; every cycle
    /// starts and ends in it.
    state: Box<[Logic]>,
    cells: Vec<ArrivalCell>,
    /// Input nets of `cells`, flattened in the same order.
    pins: Vec<u32>,
    /// Pin masks of the `Formula::Terms` formulas.
    terms: Vec<u8>,
    primary_input: Vec<bool>,
    pop_bound: u64,
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
    /// so a compile costs a topological sort plus a table lookup per
    /// cell.
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
        // Nets that can move: primary inputs, then the outputs of cells
        // that can move.  A pin on a net that never moves (a constant)
        // stays at its level and takes no part in the formula.
        let mut primary_input = vec![false; nets];
        for net in &program.primary_inputs {
            primary_input[net.index()] = true;
        }
        let mut movable = primary_input.clone();
        for cell in order {
            let kind = program.cell_kind[cell];
            let id = CellId::from_index(cell);
            if kind == CellKind::Dff {
                return Err(ArrivalCompileError::UnsupportedCell { cell: id, kind });
            }
            let inputs = &program.cell_input_nets[program.cell_input_offsets[cell] as usize
                ..program.cell_input_offsets[cell + 1] as usize];
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
            cells.push((depth[cell], cell, valid, spacer));
        }
        // Depth order is a topological order too; grouping each depth by
        // formula keeps the pass's per-cell branches predictable.
        cells.sort_by_key(|&(depth, cell, valid, spacer)| {
            (depth, valid.rank(), spacer.rank(), cell)
        });
        let mut pins = Vec::new();
        let cells = cells
            .into_iter()
            .map(|(_, cell, valid, spacer)| {
                let inputs = &program.cell_input_nets[program.cell_input_offsets[cell] as usize
                    ..program.cell_input_offsets[cell + 1] as usize];
                let pins_start = u32::try_from(pins.len()).expect("pins fit in u32");
                pins.extend_from_slice(inputs);
                ArrivalCell {
                    out: program.cell_output[cell],
                    pins_start,
                    arity: u32::try_from(inputs.len()).expect("small arity"),
                    delay_ps: program.cell_delay_ps[cell],
                    valid,
                    spacer,
                }
            })
            .collect();
        Ok(Self {
            state: state.into(),
            cells,
            pins,
            terms,
            primary_input,
            // Every popped event is an input drive or a cell evaluation's
            // schedule, and a net's change evaluates each of its loads
            // once.
            pop_bound: (program.primary_inputs.len() + program.fanout_loads.len()) as u64,
        })
    }

    /// An upper bound on the events the event kernel pops in one phase
    /// of one lane: compare it with an event limit before trusting a
    /// cycle that the limit could have cut short.
    #[must_use]
    pub fn pop_bound(&self) -> u64 {
        self.pop_bound
    }

    /// Scratch and results for [`ArrivalProgram::run_cycle`], sized for
    /// this program.
    #[must_use]
    pub fn new_run(&self) -> ArrivalRun {
        ArrivalRun {
            valid_ps: vec![INF; self.state.len()],
            spacer_ps: vec![NEG_INF; self.state.len()],
            valid_clock_ps: 0.0,
            spacer_clock_ps: 0.0,
        }
    }

    /// Settles one return-to-zero cycle of one operand: the primary
    /// inputs in `moved` leave their compiled levels at time zero of the
    /// valid phase and return at time zero of the spacer phase, each
    /// phase in its own zero-based frame, as a phase-rebased event
    /// driver runs them.  `run` receives every net's move time per
    /// phase and each phase's lane clock, bit-identical to the event
    /// kernel's for the same lane.
    ///
    /// # Errors
    ///
    /// [`ArrivalTie`] when the event kernel's result depends on its
    /// queue order; `run` then holds partial results.
    ///
    /// # Panics
    ///
    /// Panics if a net in `moved` is not a primary input or `run` was
    /// made for a program of another size.
    pub fn run_cycle(&self, moved: &[NetId], run: &mut ArrivalRun) -> Result<(), ArrivalTie> {
        assert_eq!(
            run.valid_ps.len(),
            self.state.len(),
            "run sized for another program"
        );
        for &net in moved {
            assert!(
                self.primary_input[net.index()],
                "net {net} is not a primary input"
            );
        }
        run.valid_ps.fill(INF);
        for &net in moved {
            run.valid_ps[net.index()] = 0.0;
        }
        run.valid_clock_ps = self.valid_pass(&mut run.valid_ps)?;
        for (spacer, &valid) in run.spacer_ps.iter_mut().zip(&run.valid_ps) {
            *spacer = if valid < INF { INF } else { NEG_INF };
        }
        for &net in moved {
            run.spacer_ps[net.index()] = 0.0;
        }
        run.spacer_clock_ps = self.spacer_pass(&run.valid_ps, &mut run.spacer_ps)?;
        Ok(())
    }

    /// The valid phase: each movable cell's output moves at
    /// `delay + min of max` of its inputs' move times.
    fn valid_pass(&self, times: &mut [f64]) -> Result<f64, ArrivalTie> {
        let mut clock = 0.0f64;
        for cell in &self.cells {
            let t = self.gather(cell, times);
            let t = &t[..cell.arity as usize];
            let (flip, later) = cell.valid.min_of_max(t, &self.terms);
            // A cell that does not move keeps `INFINITY + delay`.
            times[cell.out as usize] = flip + cell.delay_ps;
            if flip < INF {
                let last = if later {
                    last_schedule(flip, cell.delay_ps, t, cell.out)?
                } else {
                    flip
                };
                clock = clock.max(last + cell.delay_ps);
            }
        }
        Ok(clock)
    }

    /// The spacer phase: each output that moved returns at
    /// `delay + max of min` of its inputs' return times, where an input
    /// that never moved counts as returned at minus infinity.
    fn spacer_pass(&self, valid: &[f64], times: &mut [f64]) -> Result<f64, ArrivalTie> {
        let mut clock = 0.0f64;
        for cell in &self.cells {
            let out = cell.out as usize;
            if valid[out] == INF {
                continue;
            }
            let t = self.gather(cell, times);
            let t = &t[..cell.arity as usize];
            let (flip, later) = cell.spacer.max_of_min(t, &self.terms);
            // The compile's containment check keeps the output moved
            // through a set of pins that all moved, and so all return.
            debug_assert!(flip.is_finite(), "net {out} does not return");
            times[out] = flip + cell.delay_ps;
            let last = if later {
                last_schedule(flip, cell.delay_ps, t, cell.out)?
            } else {
                flip
            };
            clock = clock.max(last + cell.delay_ps);
        }
        Ok(clock)
    }

    #[inline(always)]
    fn gather(&self, cell: &ArrivalCell, times: &[f64]) -> [f64; MAX_PINS] {
        let mut t = [0.0f64; MAX_PINS];
        let pins = &self.pins[cell.pins_start as usize..][..cell.arity as usize];
        for (slot, &net) in t.iter_mut().zip(pins) {
            *slot = times[net as usize];
        }
        t
    }

    /// The value of `net` at the end of `run`'s valid phase.
    #[must_use]
    pub fn valid_value(&self, run: &ArrivalRun, net: NetId) -> Logic {
        let level = self.state[net.index()];
        match (level, run.valid_ps[net.index()] < INF) {
            (Logic::Zero, true) => Logic::One,
            (Logic::One, true) => Logic::Zero,
            (level, _) => level,
        }
    }
}

/// The time of the last schedule a cell's output gets in one phase.
/// The output flips at `flip` (its first schedule); every input change
/// after that, while an event is still in flight, schedules a no-op one
/// `delay` later.  An input change exactly when the last in-flight
/// event pops is a tie.
#[inline(always)]
fn last_schedule(flip: f64, delay: f64, t: &[f64], out: u32) -> Result<f64, ArrivalTie> {
    let mut later = [0.0f64; MAX_PINS];
    let mut count = 0;
    for &x in t {
        if x > flip && x.is_finite() {
            later[count] = x;
            count += 1;
        }
    }
    if count == 0 {
        return Ok(flip);
    }
    let later = &mut later[..count];
    later.sort_unstable_by(f64::total_cmp);
    let mut last = flip;
    for &x in later.iter() {
        let pop = last + delay;
        if x < pop {
            last = x;
        } else if x == pop {
            return Err(ArrivalTie {
                net: NetId::from_index(out as usize),
            });
        } else {
            break;
        }
    }
    Ok(last)
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
    /// Valid-phase move time per net; `INFINITY` if it did not move.
    valid_ps: Vec<f64>,
    /// Spacer-phase return time per net; `NEG_INFINITY` if it did not
    /// move in the valid phase.
    spacer_ps: Vec<f64>,
    valid_clock_ps: f64,
    spacer_clock_ps: f64,
}

impl ArrivalRun {
    /// When `net` moved in the valid phase, if it did.
    #[must_use]
    pub fn valid_move_ps(&self, net: NetId) -> Option<f64> {
        let t = self.valid_ps[net.index()];
        (t < INF).then_some(t)
    }

    /// When `net` returned in the spacer phase, if it moved.
    #[must_use]
    pub fn spacer_move_ps(&self, net: NetId) -> Option<f64> {
        let t = self.spacer_ps[net.index()];
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
}
