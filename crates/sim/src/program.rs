//! The immutable half of the event-driven engine, split out so it can be
//! shared between simulator instances.
//!
//! [`crate::Simulator`] construction does real work: it memoises the
//! voltage model's transcendental delay queries per `(kind, fanout)`
//! pair, flattens the netlist's net→load and cell→input relations into
//! CSR arrays, and precomputes a three-valued truth table per cell kind.
//! None of that depends on simulation state — it is a pure function of
//! the netlist and the library — so it lives here in [`EngineProgram`],
//! an `Arc`-able bundle every simulator instance reads through.
//!
//! Replicating a simulator (one instance per worker thread, as
//! [`crate::ParallelEventSim`] does) therefore costs only the per-worker
//! *mutable* state: net values, the event queue and the activity
//! counters.  The program itself is built once and shared read-only.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use netlist::{Netlist, CellKind};
//! use celllib::Library;
//! use gatesim::{EngineProgram, Logic, Simulator};
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
//! nl.add_output("y", y);
//!
//! let lib = Library::umc_ll();
//! let program = Arc::new(EngineProgram::new(&nl, &lib));
//! // Two independent simulators over one shared program.
//! let mut sim_a = Simulator::from_program(Arc::clone(&program));
//! let mut sim_b = Simulator::from_program(program);
//! sim_a.set_input(a, Logic::One);
//! sim_b.set_input(a, Logic::Zero);
//! sim_a.run_until_quiescent();
//! sim_b.run_until_quiescent();
//! assert_eq!(sim_a.value(y), Logic::Zero);
//! assert_eq!(sim_b.value(y), Logic::One);
//! ```

use std::sync::{Arc, Mutex, PoisonError};

use celllib::Library;
use netlist::{CellId, CellKind, NetId, Netlist};

use crate::arrival::{ArrivalCompileError, ArrivalProgram};
use crate::Logic;

/// Arrival programs kept per [`EngineProgram`], one per distinct state.
const ARRIVAL_CACHE_CAP: usize = 4;

/// A memoised arrival compile: the state it was compiled at, and the
/// outcome.
type ArrivalEntry = (
    Box<[Logic]>,
    Result<Arc<ArrivalProgram>, ArrivalCompileError>,
);

/// Marker for nets without a driving cell in [`EngineProgram::driver_of`].
pub(crate) const NO_DRIVER: u32 = u32::MAX;
/// Marker in [`EngineProgram::cell_lut`] for cells without a truth table
/// (flip-flops, which have edge semantics instead).
pub(crate) const NO_LUT: u32 = u32::MAX;

/// The immutable, shareable compilation of a netlist + library pair for
/// event-driven simulation.
///
/// Everything in here is read-only after construction, so the program is
/// `Send + Sync` and can be wrapped in an [`std::sync::Arc`] and shared
/// by any number of [`crate::Simulator`] instances — on one thread or
/// across worker threads.  See the [module documentation](self) for an
/// example.
#[derive(Debug)]
pub struct EngineProgram<'a> {
    pub(crate) netlist: &'a Netlist,
    /// Per-cell transport delay at the library's supply voltage/corner.
    pub(crate) cell_delay_ps: Vec<f64>,
    /// CSR-style fanout: loads of net `n` are
    /// `fanout_loads[fanout_offsets[n] .. fanout_offsets[n + 1]]`.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) fanout_loads: Vec<(CellId, u8)>,
    /// Flattened per-cell data (kind, output-net index, CSR input-net
    /// list), so cell evaluation never chases a `Cell`'s `Vec<NetId>`
    /// pointer: one contiguous read per field.
    pub(crate) cell_kind: Vec<CellKind>,
    pub(crate) cell_output: Vec<u32>,
    pub(crate) cell_input_offsets: Vec<u32>,
    pub(crate) cell_input_nets: Vec<u32>,
    /// Driving cell of each net (`NO_DRIVER` for inputs/undriven nets),
    /// so transition accounting skips the `Net` lookup.
    pub(crate) driver_of: Vec<u32>,
    /// Per-cell offset into `lut_data` (`NO_LUT` for flip-flops).
    pub(crate) cell_lut: Vec<u32>,
    /// Concatenated three-valued truth tables, one per distinct cell
    /// kind: entry `Σ value_i · 3^i` (plus a `3^arity` digit for the
    /// previous output of state-holding C-elements) is the cell's output
    /// for that input combination, precomputed from
    /// [`CellKind::eval_tristate`] at construction.
    pub(crate) lut_data: Vec<Logic>,
    /// Constant (tie-cell) outputs scheduled at time zero by every fresh
    /// simulator instance.
    pub(crate) constants: Vec<(NetId, Logic, f64)>,
    /// Primary inputs in port declaration order, cached so per-operand
    /// protocols ([`crate::run_return_to_zero`]) never re-derive (and
    /// re-allocate) the list on the hot path.
    pub(crate) primary_inputs: Vec<NetId>,
    /// Event-queue granularity every instance starts with.
    pub(crate) bucket_width_ps: f64,
    pub(crate) bucket_count: usize,
    /// Arrival programs compiled so far, keyed by the state's content
    /// (see [`EngineProgram::arrival_program`]).
    arrival: Mutex<Vec<ArrivalEntry>>,
}

impl<'a> EngineProgram<'a> {
    /// Compiles `netlist` with delays taken from `library` (at the
    /// library's current supply voltage and corner), sizing the event
    /// queue automatically from the largest cell delay.
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &Library) -> Self {
        Self::build(netlist, library, None)
    }

    /// Like [`EngineProgram::new`] with an explicit event-queue
    /// granularity (see [`crate::EventQueue::with_granularity`]).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width_ps` is not finite and positive or if
    /// `bucket_count` is zero.
    #[must_use]
    pub fn with_queue_granularity(
        netlist: &'a Netlist,
        library: &Library,
        bucket_width_ps: f64,
        bucket_count: usize,
    ) -> Self {
        assert!(
            bucket_width_ps.is_finite() && bucket_width_ps > 0.0,
            "bucket width must be finite and positive"
        );
        assert!(bucket_count > 0, "bucket count must be positive");
        Self::build(netlist, library, Some((bucket_width_ps, bucket_count)))
    }

    fn build(netlist: &'a Netlist, library: &Library, granularity: Option<(f64, usize)>) -> Self {
        // The voltage-scaled delay model evaluates transcendentals per
        // query; memoise per (kind, fanout) so construction stays cheap
        // for large netlists (distinct pairs number a few dozen).
        let mut delay_cache: std::collections::HashMap<(CellKind, usize), f64> =
            std::collections::HashMap::new();
        let cell_delay_ps: Vec<f64> = netlist
            .cells()
            .map(|(_, cell)| {
                let fanout = netlist.net(cell.output()).fanout().max(1);
                *delay_cache
                    .entry((cell.kind(), fanout))
                    .or_insert_with(|| library.cell_delay(cell.kind(), fanout))
            })
            .collect();

        // Flatten the per-net load lists into one contiguous CSR array.
        let mut fanout_offsets = Vec::with_capacity(netlist.net_count() + 1);
        let mut fanout_loads = Vec::with_capacity(netlist.nets().map(|(_, n)| n.fanout()).sum());
        fanout_offsets.push(0);
        for (_, net) in netlist.nets() {
            for &(cell, pin) in net.loads() {
                fanout_loads.push((cell, u8::try_from(pin).expect("pin index fits in u8")));
            }
            fanout_offsets.push(u32::try_from(fanout_loads.len()).expect("loads fit in u32"));
        }

        // Flatten per-cell kind/output/inputs the same way.
        let mut cell_kind = Vec::with_capacity(netlist.cell_count());
        let mut cell_output = Vec::with_capacity(netlist.cell_count());
        let mut cell_input_offsets = Vec::with_capacity(netlist.cell_count() + 1);
        let mut cell_input_nets = Vec::new();
        cell_input_offsets.push(0);
        for (_, cell) in netlist.cells() {
            cell_kind.push(cell.kind());
            cell_output.push(u32::try_from(cell.output().index()).expect("nets fit in u32"));
            cell_input_nets.extend(
                cell.inputs()
                    .iter()
                    .map(|n| u32::try_from(n.index()).expect("nets fit in u32")),
            );
            cell_input_offsets
                .push(u32::try_from(cell_input_nets.len()).expect("connections fit in u32"));
        }

        // Precompute each kind's three-valued truth table so the hot loop
        // replaces `eval_tristate` (slice scans over `Option<bool>`) with
        // one table load.  Digit `i` of the index is input `i`'s value
        // (0, 1, X); state-holding C-elements get one extra digit for
        // their previous output.
        let decode = |digit: usize| match digit {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        let mut lut_data: Vec<Logic> = Vec::new();
        let mut kind_offsets: std::collections::HashMap<CellKind, u32> =
            std::collections::HashMap::new();
        let mut cell_lut = Vec::with_capacity(netlist.cell_count());
        for (_, cell) in netlist.cells() {
            let kind = cell.kind();
            if kind == CellKind::Dff {
                cell_lut.push(NO_LUT);
                continue;
            }
            let offset = *kind_offsets.entry(kind).or_insert_with(|| {
                let offset = u32::try_from(lut_data.len()).expect("tables stay small");
                let arity = kind.input_count();
                let digits = arity + usize::from(kind.is_sequential());
                for code in 0..3usize.pow(u32::try_from(digits).expect("small arity")) {
                    let mut rest = code;
                    let mut inputs = [None; CellKind::MAX_INPUTS];
                    for slot in inputs.iter_mut().take(arity) {
                        *slot = decode(rest % 3);
                        rest /= 3;
                    }
                    let prev = if kind.is_sequential() {
                        decode(rest % 3)
                    } else {
                        None
                    };
                    lut_data.push(Logic::from(kind.eval_tristate(&inputs[..arity], prev)));
                }
                offset
            });
            cell_lut.push(offset);
        }

        let driver_of = (0..netlist.net_count())
            .map(|n| {
                netlist
                    .driver_cell(NetId::from_index(n))
                    .map_or(NO_DRIVER, |c| {
                        u32::try_from(c.index()).expect("cells fit in u32")
                    })
            })
            .collect();

        // Constant cells drive their outputs at time zero in every fresh
        // instance; collect them once.
        let constants = netlist
            .cells()
            .filter_map(|(id, cell)| {
                let value = match cell.kind() {
                    CellKind::Tie0 => Logic::Zero,
                    CellKind::Tie1 => Logic::One,
                    _ => return None,
                };
                Some((cell.output(), value, cell_delay_ps[id.index()]))
            })
            .collect();

        // Size the two-level event queue from the largest cell delay: no
        // event is ever scheduled further ahead than one cell delay, so a
        // horizon of a few delays keeps the overflow heap empty.
        let max_delay_ps = cell_delay_ps
            .iter()
            .copied()
            .fold(f64::MIN_POSITIVE, f64::max);
        let (bucket_width_ps, bucket_count) = granularity.unwrap_or((max_delay_ps / 16.0, 64));

        Self {
            netlist,
            cell_delay_ps,
            fanout_offsets,
            fanout_loads,
            cell_kind,
            cell_output,
            cell_input_offsets,
            cell_input_nets,
            driver_of,
            cell_lut,
            lut_data,
            constants,
            primary_inputs: netlist.primary_inputs(),
            bucket_width_ps,
            bucket_count,
            arrival: Mutex::new(Vec::new()),
        }
    }

    /// The [`ArrivalProgram`] of this program at the settled `state`,
    /// compiled on first request and memoised: later requests with a
    /// state of the same **content** (not the same address) share the
    /// compiled program, or its error.  At most once per state and
    /// program, even across threads — concurrent first requests wait
    /// for one compile.
    ///
    /// # Errors
    ///
    /// The [`ArrivalCompileError`] of [`ArrivalProgram::compile`].
    pub fn arrival_program(
        &self,
        state: &[Logic],
    ) -> Result<Arc<ArrivalProgram>, ArrivalCompileError> {
        let mut cache = self.arrival.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, compiled)) = cache.iter().find(|(key, _)| **key == *state) {
            return compiled.clone();
        }
        let compiled = ArrivalProgram::compile(self, state).map(Arc::new);
        if cache.len() == ARRIVAL_CACHE_CAP {
            drop(cache.remove(0));
        }
        cache.push((state.into(), compiled.clone()));
        compiled
    }

    /// Primary inputs of the compiled netlist, in port declaration
    /// order (cached at construction).
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// The netlist this program was compiled from.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Output of non-flip-flop `cell` under the per-net `values`: one
    /// three-valued table load (`Logic`'s discriminants are the table
    /// digits 0, 1, 2), with a state-holding cell's own output as the
    /// last digit.  Always inlined: the scalar kernel's cell
    /// evaluation is its hot loop, and a second caller must not move it
    /// out of line.
    #[inline(always)]
    pub(crate) fn lut_output(&self, cell: usize, values: &[Logic]) -> Logic {
        debug_assert!(
            self.cell_lut[cell] != NO_LUT,
            "non-DFF cell {cell} has no truth table"
        );
        let start = self.cell_input_offsets[cell] as usize;
        let end = self.cell_input_offsets[cell + 1] as usize;
        let mut index3 = 0usize;
        let mut power = 1usize;
        for &net in &self.cell_input_nets[start..end] {
            index3 += values[net as usize] as usize * power;
            power *= 3;
        }
        if self.cell_kind[cell].is_sequential() {
            index3 += values[self.cell_output[cell] as usize] as usize * power;
        }
        self.lut_data[self.cell_lut[cell] as usize + index3]
    }

    /// Transport delay of `cell` in picoseconds at the compiled supply
    /// voltage and corner.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range.
    #[must_use]
    pub fn cell_delay_ps(&self, cell: CellId) -> f64 {
        self.cell_delay_ps[cell.index()]
    }

    /// Whether the compiled netlist contains only combinational cells
    /// (no flip-flops, no state-holding C-elements).
    ///
    /// Combinational programs have history-independent settled states,
    /// which is what lets [`crate::ParallelEventSim`] replay operands on
    /// replicated instances with bit-identical results.
    #[must_use]
    pub fn is_combinational(&self) -> bool {
        self.sequential_cell_count() == 0
    }

    /// Number of state-holding cells (flip-flops and C-elements) in the
    /// compiled netlist.
    ///
    /// Sequential programs can still be sharded across replicated
    /// instances when every replayed cycle provably returns the whole
    /// circuit to one quiescent state — the reset-phase contract the
    /// dual-rail protocol drivers verify after every cycle.
    #[must_use]
    pub fn sequential_cell_count(&self) -> usize {
        self.cell_kind
            .iter()
            .filter(|kind| kind.is_sequential() || **kind == CellKind::Dff)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_is_send_sync_and_reports_combinationality() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineProgram<'_>>();

        let mut comb = Netlist::new("comb");
        let a = comb.add_input("a");
        let y = comb.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        comb.add_output("y", y);
        let library = Library::umc_ll();
        let program = EngineProgram::new(&comb, &library);
        assert!(program.is_combinational());
        assert!(std::ptr::eq(program.netlist(), &comb));
        let inv = comb.driver_cell(y).unwrap();
        assert!(program.cell_delay_ps(inv) > 0.0);

        let mut seq = Netlist::new("seq");
        let b = seq.add_input("b");
        let c = seq.add_input("c");
        let q = seq.add_cell("cel", CellKind::CElement2, &[b, c]).unwrap();
        seq.add_output("q", q);
        assert!(!EngineProgram::new(&seq, &library).is_combinational());
    }

    #[test]
    #[should_panic(expected = "bucket width must be finite and positive")]
    fn bad_granularity_panics() {
        let nl = Netlist::new("t");
        let library = Library::umc_ll();
        let _ = EngineProgram::with_queue_granularity(&nl, &library, 0.0, 4);
    }
}
