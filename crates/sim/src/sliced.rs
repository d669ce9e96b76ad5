//! 64-wide bit-sliced three-valued event simulation.
//!
//! The scalar [`crate::Simulator`] replays one operand at a time: every
//! pop applies one net change for one operand and re-evaluates that
//! net's loads through a per-kind truth table.  Operands are mutually
//! independent, though, so the word-level trick that gives the batch
//! spine its throughput applies to the *event kernel* as well: encode
//! each net's three-valued state (0/1/X) as two `u64` bitplanes — a
//! known-one plane and an unknown plane, bit `l` describing lane `l` —
//! and drive 64 operands per word through one queue.
//!
//! # Bitplane encoding
//!
//! Per net, `v` holds "lane is One" and `x` holds "lane is Unknown"
//! (`v & x == 0`; Zero is neither).  A gate's three-valued function is
//! then a handful of bitwise plane operations on the known-one
//! (`k1 = v`) and known-zero (`k0 = !(v | x)`) planes — Kleene AND is
//! `k1 = k1a & k1b`, `k0 = k0a | k0b`, and every supported kind is a
//! composition of AND/OR/NOT on those planes, mirroring
//! [`netlist::CellKind::eval_tristate`] exactly (an exhaustive unit
//! test pins every kind against it).  One evaluation serves all 64
//! lanes.
//!
//! # Per-lane exactness
//!
//! Events carry a **lane mask**: the set of lanes whose value actually
//! changes.  A scheduled change is suppressed per lane under the same
//! rule as the scalar engine (no event in flight for the net *and* the
//! lane already holds the value), in-flight counts are tracked per
//! `(net, lane)` as bit-sliced ripple counters, and per-lane clocks and
//! event counts advance on every pop whose mask contains the lane —
//! including no-op applies, exactly as the scalar `now_ps` does.  The
//! queue pops in `(time, insertion order)`, and lane-`l` events are
//! only ever scheduled by pops whose mask contains `l`, so the
//! restriction of the merged pop sequence to one lane reproduces the
//! scalar engine's pop sequence for that operand — outputs, per-lane
//! settle times and per-lane event counts are bit-identical to
//! streaming the operands one at a time.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, CellKind};
//! use celllib::Library;
//! use gatesim::{run_word_return_to_zero, SlicedSimulator};
//!
//! let mut nl = Netlist::new("majority");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let y = nl.add_cell("maj", CellKind::Maj3, &[a, b, c]).unwrap();
//! nl.add_output("y", y);
//!
//! let lib = Library::umc_ll();
//! let mut sim = SlicedSimulator::new(&nl, &lib);
//! // One word = up to 64 operands, one return-to-zero cycle for all.
//! let runs = run_word_return_to_zero(
//!     &mut sim,
//!     &[vec![true, true, false], vec![false, true, true], vec![false, false, true]],
//! );
//! assert!(runs[0].outputs[0].is_one());
//! assert!(runs[1].outputs[0].is_one());
//! assert!(runs[2].outputs[0].is_zero());
//! // Lanes that moved settle one cell delay after injection.
//! assert_eq!(runs[0].latency_ps, runs[1].latency_ps);
//! assert_eq!(runs[2].latency_ps, 0.0); // single 1 leaves the output at 0
//! ```

use std::sync::Arc;

use celllib::Library;
use netlist::{CellKind, NetId, Netlist, LANES};

use crate::engine::RunOutcome;
use crate::event::{EventQueue, SimEvent};
use crate::fault::{FaultOverlay, FaultPlan, SettleError, SettlePhase, NO_STUCK};
use crate::parallel::OperandRun;
use crate::program::{EngineProgram, NO_LUT};
use crate::Logic;

/// Bit-sliced pending-event counters: 8 ripple-carry planes per net
/// bound the in-flight count per `(net, lane)` at 255, far above what
/// any real cascade produces (overflow is a hard error, not a wrap).
const PENDING_PLANES: usize = 8;

/// Marker in the per-net watch-slot table for unwatched nets.
const NO_WATCH: u32 = u32::MAX;

/// All 64 lanes.
const FULL: u64 = !0;

/// Lane mask covering the first `n` lanes.
#[must_use]
pub fn lane_mask(n: usize) -> u64 {
    assert!(n <= LANES, "a word holds at most {LANES} lanes, got {n}");
    if n == LANES {
        FULL
    } else {
        (1u64 << n) - 1
    }
}

/// The `(v, x)` plane pair holding `value` on every lane.
#[inline]
fn broadcast(value: Logic) -> (u64, u64) {
    match value {
        Logic::One => (FULL, 0),
        Logic::Zero => (0, 0),
        Logic::Unknown => (0, FULL),
    }
}

/// A scheduled plane change: the new `v`/`x` planes for `net`, applied
/// only to the lanes in `mask`.
#[derive(Clone, Copy, Debug)]
struct SlicedEvent {
    time_ps: f64,
    net: u32,
    v: u64,
    x: u64,
    mask: u64,
}

impl SimEvent for SlicedEvent {
    fn time_ps(&self) -> f64 {
        self.time_ps
    }
}

/// A three-valued plane pair in known-one / known-zero form: bit `l` of
/// `one` means lane `l` is definitely One, bit `l` of `zero` definitely
/// Zero, neither bit means Unknown (both set is impossible by
/// construction).
#[derive(Clone, Copy, Debug)]
struct Tri {
    one: u64,
    zero: u64,
}

impl Tri {
    #[cfg(test)]
    const UNKNOWN: Tri = Tri { one: 0, zero: 0 };

    #[inline]
    fn from_planes(v: u64, x: u64) -> Tri {
        Tri {
            one: v,
            zero: !(v | x),
        }
    }

    /// Kleene AND: One iff all One, Zero iff any Zero.
    #[inline]
    fn and(self, other: Tri) -> Tri {
        Tri {
            one: self.one & other.one,
            zero: self.zero | other.zero,
        }
    }

    /// Kleene OR: One iff any One, Zero iff all Zero.
    #[inline]
    fn or(self, other: Tri) -> Tri {
        Tri {
            one: self.one | other.one,
            zero: self.zero & other.zero,
        }
    }

    /// Kleene NOT: swaps the planes (X stays X).
    #[inline]
    fn not(self) -> Tri {
        Tri {
            one: self.zero,
            zero: self.one,
        }
    }
}

/// Kleene AND over a position range, loading each input on demand.
#[inline]
fn and_all(range: std::ops::Range<usize>, at: impl Fn(usize) -> Tri + Copy) -> Tri {
    range.fold(Tri { one: FULL, zero: 0 }, |acc, i| acc.and(at(i)))
}

/// Kleene OR over a position range, loading each input on demand.
#[inline]
fn or_all(range: std::ops::Range<usize>, at: impl Fn(usize) -> Tri + Copy) -> Tri {
    range.fold(Tri { one: 0, zero: FULL }, |acc, i| acc.or(at(i)))
}

/// Evaluates `kind` on plane pairs, composing AND/OR/NOT exactly as
/// [`CellKind::eval_tristate`] does (so the result matches the scalar
/// engine's truth tables bit for bit — pinned by an exhaustive test).
/// `prev` is the cell's current output (state-holding kinds only).
///
/// Inputs are fetched by position through `at` so the hot path reads
/// each net's planes straight from the state arrays — no staging
/// buffer to fill per evaluation.
#[inline]
fn eval_kind_at(kind: CellKind, arity: usize, at: impl Fn(usize) -> Tri + Copy, prev: Tri) -> Tri {
    match kind {
        CellKind::Buf => at(0),
        CellKind::Inv => at(0).not(),
        CellKind::And2 | CellKind::And3 | CellKind::And4 => and_all(0..arity, at),
        CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => or_all(0..arity, at),
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => and_all(0..arity, at).not(),
        CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => or_all(0..arity, at).not(),
        CellKind::Xor2 => {
            let (a, b) = (at(0), at(1));
            Tri {
                one: (a.one & b.zero) | (a.zero & b.one),
                zero: (a.one & b.one) | (a.zero & b.zero),
            }
        }
        CellKind::Xnor2 => eval_kind_at(CellKind::Xor2, arity, at, prev).not(),
        CellKind::Aoi21 => and_all(0..2, at).or(at(2)).not(),
        CellKind::Aoi22 => and_all(0..2, at).or(and_all(2..4, at)).not(),
        CellKind::Aoi32 => and_all(0..3, at).or(and_all(3..5, at)).not(),
        CellKind::Oai21 => or_all(0..2, at).and(at(2)).not(),
        CellKind::Oai22 => or_all(0..2, at).and(or_all(2..4, at)).not(),
        CellKind::Maj3 => {
            let (a, b, c) = (at(0), at(1), at(2));
            a.and(b).or(b.and(c)).or(a.and(c))
        }
        CellKind::CElement2 | CellKind::CElement3 => {
            // Rises when every input is One, falls when every input is
            // Zero, otherwise holds the previous output (X holds X).
            let (mut set, mut reset) = (FULL, FULL);
            for i in 0..arity {
                let t = at(i);
                set &= t.one;
                reset &= t.zero;
            }
            let hold = !(set | reset);
            Tri {
                one: set | (hold & prev.one),
                zero: reset | (hold & prev.zero),
            }
        }
        CellKind::Tie0 => Tri { one: 0, zero: FULL },
        CellKind::Tie1 => Tri { one: FULL, zero: 0 },
        // The flip-flop has edge semantics, handled before dispatch.
        CellKind::Dff => unreachable!("Dff is evaluated by edge, not by function"),
    }
}

/// [`eval_kind_at`] over a pre-staged slice — the form the exhaustive
/// table-parity test exercises.
#[cfg(test)]
#[inline]
fn eval_kind(kind: CellKind, inputs: &[Tri], prev: Tri) -> Tri {
    eval_kind_at(kind, inputs.len(), |i| inputs[i], prev)
}

/// Event-driven gate-level simulator evaluating 64 independent operand
/// lanes per step.
///
/// Shares the scalar engine's immutable compilation
/// ([`EngineProgram`]): the CSR fanout walk, transport delays and event
/// discipline are identical, but net state is two `u64` bitplanes per
/// net and each queue entry updates up to 64 lanes at once.  Per-lane
/// clocks ([`SlicedSimulator::lane_now_ps`]), event counts and change
/// tracking keep every lane's observable results bit-identical to a
/// scalar [`crate::Simulator`] run of that lane alone — see the
/// [module documentation](self) for the argument and
/// `tests/property_tests.rs` for the pinning tests.
#[derive(Debug)]
pub struct SlicedSimulator<'a> {
    program: Arc<EngineProgram<'a>>,
    /// Per net: the `(v, x)` plane pair — bit `l` of the first word set
    /// means lane `l` holds One, of the second Unknown (`v & x == 0`).
    /// Interleaved so reading one net's state touches one cache line,
    /// not one in each of two arrays.
    planes: Vec<(u64, u64)>,
    queue: EventQueue<SlicedEvent>,
    now_ps: f64,
    /// Per lane: timestamp of the last pop whose mask contained the
    /// lane — the lane's own simulation clock.  Lazily flushed: lanes
    /// in [`SlicedSimulator::clock_touched`] are logically at
    /// [`SlicedSimulator::clock_time`] instead, so the hot path pays
    /// one per-lane write per *distinct timestamp* rather than per
    /// event (pops arrive in nondecreasing time order).
    lane_now_ps: [f64; LANES],
    /// Timestamp shared by every pop since the last clock flush.
    clock_time: f64,
    /// Lanes touched at [`SlicedSimulator::clock_time`] and not yet
    /// flushed into [`SlicedSimulator::lane_now_ps`].
    clock_touched: u64,
    /// Per lane: pops whose mask contained the lane since the last
    /// [`SlicedSimulator::reset_lane_events`] (no-op applies included,
    /// matching the scalar engine's processed-event count), held as
    /// binary bit-planes (plane `p` carries bit `p` of every lane's
    /// count) so one pop costs a short ripple-carry add instead of a
    /// loop over the mask's set bits.
    lane_event_planes: Vec<u64>,
    /// Bit-sliced in-flight event counters, `PENDING_PLANES` planes per
    /// net (plane `p` holds bit `p` of every lane's count).
    pending: Vec<u64>,
    /// Per net: OR of its pending planes — lanes with at least one
    /// event in flight.  Maintained incrementally so the scheduling
    /// hot path reads one word instead of folding all the planes on
    /// every fanout evaluation.
    pending_any: Vec<u64>,
    /// Per net: OR of planes `1..` — lanes with **two or more** events
    /// in flight.  Kept exact (increments set it, multi-plane
    /// decrements refold it), so the overwhelmingly common
    /// one-in-flight decrement is a single plane-0 bit clear instead
    /// of a full ripple borrow.
    pending_high: Vec<u64>,
    /// Per flip-flop: the clock net's planes as of its last clock-pin
    /// event, for edge detection.
    dff_clk_v: Vec<u64>,
    dff_clk_x: Vec<u64>,
    event_limit: u64,
    /// Per net: index into the watch arrays, or `NO_WATCH`.
    watch_slot: Vec<u32>,
    watch_list: Vec<NetId>,
    /// Per watched net: lanes that changed since the last
    /// [`SlicedSimulator::clear_watch_activity`].
    watch_moved: Vec<u64>,
    /// Per watched net × lane: time of the last change.
    watch_last: Vec<f64>,
    /// Per watched net × lane: changes since the last clear.
    watch_count: Vec<u64>,
    /// Installed fault overlay, or `None` for a healthy instance.
    /// Stuck-at clamps and SEU pulses apply to **every** lane (the
    /// fault lives in the silicon, not in one operand).
    faults: Option<Box<FaultOverlay>>,
    /// Watchdog time horizon; `INFINITY` disables the bound.
    horizon_ps: f64,
    /// Cumulative merged pops applied over the instance's lifetime
    /// (pulse applies included), for the coalescing figures.
    merged_applies: u64,
    /// Cumulative per-lane events those merged applies carried
    /// (`popcount` of every applied mask); `applied_lane_events -
    /// merged_applies` is the lane-event count equal-time coalescing
    /// absorbed.
    applied_lane_events: u64,
    /// Cumulative per-lane schedules dropped by the no-op suppression
    /// rule, the sliced analogue of
    /// [`crate::Simulator::suppressed_events`].
    suppressed_lane_events: u64,
    /// Attached metric handles plus flush baselines, or `None`.
    metrics: Option<Box<SlicedMetricsState>>,
    /// Attached waveform probe observing one lane: `(probe, lane bit)`.
    wave: Option<Box<(tm_obs::WaveProbe, u64)>>,
}

/// Metric handles with flush baselines (deltas, never totals, reach
/// the registry — see the scalar engine's equivalent).  `armed`
/// scopes recording to measured work exactly as in the scalar
/// [`crate::Simulator`]: paused deltas (construction, spacer phases)
/// are discarded at the next rebase instead of shipped.
#[derive(Debug)]
struct SlicedMetricsState {
    handles: tm_obs::SimMetrics,
    armed: bool,
    applies: u64,
    lane_events: u64,
    suppressed: u64,
    drain: u64,
    bucket: u64,
    overflow: u64,
}

impl<'a> SlicedSimulator<'a> {
    /// Creates a sliced simulator for `netlist` with delays taken from
    /// `library`.  All lanes of every net start at X; constant cells
    /// are scheduled at time zero on every lane, exactly as in the
    /// scalar [`crate::Simulator::new`].
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &Library) -> Self {
        Self::from_program(Arc::new(EngineProgram::new(netlist, library)))
    }

    /// Creates a fresh sliced instance over an existing (possibly
    /// shared) [`EngineProgram`] — the same replication primitive the
    /// scalar engine offers, so scalar and sliced instances can share
    /// one compilation.
    #[must_use]
    pub fn from_program(program: Arc<EngineProgram<'a>>) -> Self {
        let net_count = program.netlist.net_count();
        let cell_count = program.netlist.cell_count();
        let queue = EventQueue::with_granularity(program.bucket_width_ps, program.bucket_count);
        let mut sim = Self {
            program,
            planes: vec![(0, FULL); net_count],
            queue,
            now_ps: 0.0,
            lane_now_ps: [0.0; LANES],
            clock_time: 0.0,
            clock_touched: 0,
            lane_event_planes: Vec::new(),
            pending: vec![0; net_count * PENDING_PLANES],
            pending_any: vec![0; net_count],
            pending_high: vec![0; net_count],
            dff_clk_v: vec![0; cell_count],
            dff_clk_x: vec![FULL; cell_count],
            event_limit: crate::Simulator::DEFAULT_EVENT_LIMIT,
            watch_slot: vec![NO_WATCH; net_count],
            watch_list: Vec::new(),
            watch_moved: Vec::new(),
            watch_last: Vec::new(),
            watch_count: Vec::new(),
            faults: None,
            horizon_ps: f64::INFINITY,
            merged_applies: 0,
            applied_lane_events: 0,
            suppressed_lane_events: 0,
            metrics: None,
            wave: None,
        };
        for i in 0..sim.program.constants.len() {
            let (net, value, delay_ps) = sim.program.constants[i];
            let (cv, cx) = broadcast(value);
            // Constants are raw-scheduled (never suppressed), matching
            // the scalar engine's construction-time schedule.
            sim.schedule(net.index(), cv, cx, FULL, sim.now_ps + delay_ps);
        }
        sim
    }

    /// The shared immutable program this instance evaluates.
    #[must_use]
    pub fn program(&self) -> &Arc<EngineProgram<'a>> {
        &self.program
    }

    /// Current merged simulation time (the maximum over all lanes).
    #[must_use]
    pub fn now_ps(&self) -> f64 {
        self.now_ps
    }

    /// Lane `lane`'s own simulation clock: the timestamp of the last
    /// event applied to that lane, exactly the scalar engine's
    /// [`crate::Simulator::now_ps`] for a solo run of the lane.
    #[must_use]
    pub fn lane_now_ps(&self, lane: usize) -> f64 {
        // Unflushed lanes are logically at the shared clock timestamp,
        // which is never behind their stored clock (pops arrive in
        // nondecreasing time order).
        if self.clock_touched >> lane & 1 == 1 {
            self.clock_time
        } else {
            self.lane_now_ps[lane]
        }
    }

    /// Events applied to `lane` since the last
    /// [`SlicedSimulator::reset_lane_events`] (no-op applies included,
    /// matching the scalar processed-event count).
    #[must_use]
    pub fn lane_events(&self, lane: usize) -> u64 {
        self.lane_event_planes
            .iter()
            .enumerate()
            .fold(0, |acc, (plane, &bits)| acc | ((bits >> lane & 1) << plane))
    }

    /// Zeroes every lane's event counter (the sliced analogue of
    /// reading the scalar engine's per-call event count).
    pub fn reset_lane_events(&mut self) {
        self.lane_event_planes.clear();
    }

    /// Bit-sliced `lane_events[lane] += 1` for every lane in `mask`:
    /// ripple-carry addition across the count planes, which terminates
    /// after two iterations on average.
    #[inline]
    fn lane_events_add(&mut self, mask: u64) {
        let mut carry = mask;
        for plane in &mut self.lane_event_planes {
            let old = *plane;
            *plane = old ^ carry;
            carry &= old;
            if carry == 0 {
                return;
            }
        }
        self.lane_event_planes.push(carry);
    }

    /// Writes the shared clock timestamp into every unflushed lane's
    /// stored clock.  Called once per distinct pop timestamp and before
    /// bulk per-lane reads.
    #[inline]
    fn flush_lane_clocks(&mut self) {
        if self.clock_touched == FULL {
            // Dense timestamps (all lanes moved) take a straight-line
            // fill the compiler vectorises.
            self.lane_now_ps = [self.clock_time; LANES];
        } else {
            let mut lanes = self.clock_touched;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                self.lane_now_ps[lane] = self.clock_time;
            }
        }
        self.clock_touched = 0;
    }

    /// Whether scheduled events are still waiting to be applied.
    #[must_use]
    pub fn has_pending_events(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Changes the event limit used to detect runaway oscillation.
    /// Note the limit bounds *merged* pops: a word of 64 lanes shares
    /// one budget, so oscillation aborts the whole word.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Bounds the watchdog time horizon, the sliced analogue of
    /// [`crate::Simulator::set_time_horizon_ps`]: a settle that reaches
    /// an event beyond `horizon_ps` aborts with
    /// [`RunOutcome::LimitReached`], leaving the tail pending.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_ps` is NaN or not positive.
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        assert!(
            horizon_ps > 0.0,
            "watchdog horizon must be positive, got {horizon_ps}"
        );
        self.horizon_ps = horizon_ps;
    }

    /// The watchdog time horizon set by
    /// [`SlicedSimulator::set_time_horizon_ps`] (`INFINITY` when
    /// unbounded).
    #[must_use]
    pub fn time_horizon_ps(&self) -> f64 {
        self.horizon_ps
    }

    /// Whether a non-empty [`FaultPlan`] is installed.
    #[must_use]
    pub fn has_fault_plan(&self) -> bool {
        self.faults.is_some()
    }

    /// Installs `plan` as this instance's fault overlay, replacing any
    /// previous plan (an empty plan clears the overlay) — the sliced
    /// analogue of [`crate::Simulator::set_fault_plan`].  Faults apply
    /// to **all 64 lanes**: the fault lives in the silicon, so every
    /// operand sharing the word sees it.  Stuck nets are forced to
    /// their stuck value on every lane at the current time; SEU pulses
    /// fire inside subsequent settles and re-arm on every
    /// [`SlicedSimulator::reset_time`].
    ///
    /// # Panics
    ///
    /// Panics if a fault references a net or cell outside the netlist.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let overlay = FaultOverlay::new(plan, &self.program);
        for &(net, value) in plan.stuck_faults() {
            let v = if value { FULL } else { 0 };
            self.schedule(net.index(), v, 0, FULL, self.now_ps);
        }
        self.faults = Some(Box::new(overlay));
    }

    /// Current value of `net` on `lane`.
    #[must_use]
    pub fn value(&self, net: NetId, lane: usize) -> Logic {
        let bit = 1u64 << lane;
        let (v, x) = self.planes[net.index()];
        if x & bit != 0 {
            Logic::Unknown
        } else if v & bit != 0 {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Values of all primary outputs on `lane`, in port declaration
    /// order.
    #[must_use]
    pub fn output_values(&self, lane: usize) -> Vec<Logic> {
        self.program
            .netlist
            .primary_outputs()
            .iter()
            .map(|&n| self.value(n, lane))
            .collect()
    }

    /// Compares the active lanes against a per-net snapshot and returns
    /// the first mismatch in **lane-major** order (the lowest
    /// mismatching lane, then that lane's first mismatching net) as
    /// `(lane, net, snapshot value, current value)` — the order a
    /// streamed scalar run would encounter the failure in.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` does not have one value per net.
    #[must_use]
    pub fn lane_state_mismatch(
        &self,
        snapshot: &[Logic],
        active: u64,
    ) -> Option<(usize, NetId, Logic, Logic)> {
        assert_eq!(
            snapshot.len(),
            self.planes.len(),
            "snapshot covers {} nets but the netlist has {}",
            snapshot.len(),
            self.planes.len()
        );
        let mismatch = |n: usize| {
            let (bv, bx) = broadcast(snapshot[n]);
            let (nv, nx) = self.planes[n];
            ((nv ^ bv) | (nx ^ bx)) & active
        };
        let failing = (0..snapshot.len()).fold(0u64, |acc, n| acc | mismatch(n));
        if failing == 0 {
            return None;
        }
        let lane = failing.trailing_zeros() as usize;
        let net = (0..snapshot.len())
            .find(|&n| mismatch(n) & (1 << lane) != 0)
            .expect("a failing lane has a failing net");
        Some((
            lane,
            NetId::from_index(net),
            snapshot[net],
            self.value(NetId::from_index(net), lane),
        ))
    }

    /// Loads a settled net state onto all 64 lanes, in place of the
    /// settle from X a fresh instance would otherwise need.  Every lane
    /// of net `n` takes `state[n]`; the construction-time constant
    /// schedule and any other pending event are dropped together with
    /// their in-flight counters; and each flip-flop's clock-edge planes
    /// are set from its clock net, as a settle leaves them.  Clocks,
    /// event counts, watched activity and attached instruments are left
    /// alone, so loading the state an instance has already settled to
    /// changes nothing.
    ///
    /// The state is checked, not trusted: every net's driver is
    /// re-evaluated on the loaded state (a stuck-at clamp of an
    /// installed [`FaultPlan`] counts as the net's driver), and the
    /// first net in net order whose driver would change it is returned.
    /// `None` means `state` is a fixed point of the circuit, so no cell
    /// has a change to schedule.  On `Some` the instance holds an
    /// unsettled state and should be discarded.
    ///
    /// A fixed point need not be the state a settle from X reaches — a
    /// state-holding loop can rest at either value — so load a state
    /// captured from such a settle.  The sliced dual-rail word driver
    /// (`dualrail::SlicedProtocolDriver::from_sliced_simulator`) loads
    /// the snapshot its scalar reference settled, and the test suite
    /// pins that a fresh instance settled from X reaches that snapshot
    /// on every lane.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one value per net.
    #[must_use]
    pub fn load_settled_state(&mut self, state: &[Logic]) -> Option<NetId> {
        assert_eq!(
            state.len(),
            self.planes.len(),
            "state covers {} nets but the netlist has {}",
            state.len(),
            self.planes.len()
        );
        // Drop whatever is queued (a fresh instance's constants) and
        // zero the in-flight counters of the nets it was for.
        self.queue.clear();
        for (net, any) in self.pending_any.iter_mut().enumerate() {
            if *any != 0 {
                *any = 0;
                self.pending_high[net] = 0;
                self.pending[net * PENDING_PLANES..(net + 1) * PENDING_PLANES].fill(0);
            }
        }
        for (planes, &value) in self.planes.iter_mut().zip(state) {
            *planes = broadcast(value);
        }
        let program = &self.program;
        for (cell, &kind) in program.cell_kind.iter().enumerate() {
            if kind == CellKind::Dff {
                let clk = program.cell_input_nets[program.cell_input_offsets[cell] as usize + 1];
                (self.dff_clk_v[cell], self.dff_clk_x[cell]) = self.planes[clk as usize];
            }
        }
        self.first_unstable_net(state)
    }

    /// The lowest net whose driver would change it in `state`: a
    /// stuck-at clamp's value, else its driving cell's truth table (the
    /// scalar engine's tables, which the plane evaluation is pinned
    /// to).  Nets no cell drives and flip-flop outputs, which change
    /// only on a clock edge, are stable.
    fn first_unstable_net(&self, state: &[Logic]) -> Option<NetId> {
        let program = &self.program;
        let stuck = self.faults.as_deref().map(|faults| &faults.stuck);
        let cells = (0..program.cell_kind.len()).filter_map(|cell| {
            let out = program.cell_output[cell] as usize;
            let clamped = stuck.is_some_and(|stuck| stuck[out] != NO_STUCK);
            let unstable = program.cell_kind[cell] != CellKind::Dff
                && !clamped
                && program.lut_output(cell, state) != state[out];
            unstable.then_some(out)
        });
        let clamps = stuck.into_iter().flat_map(|stuck| {
            stuck.iter().enumerate().filter_map(|(net, &value)| {
                let moves = value != NO_STUCK && Logic::from(value == 1) != state[net];
                moves.then_some(net)
            })
        });
        cells.chain(clamps).min().map(NetId::from_index)
    }

    // ------------------------------------------------------------------
    // Change tracking for protocol drivers
    // ------------------------------------------------------------------

    /// Registers the nets whose per-lane change activity (move masks,
    /// last-change times, transition counts) should be tracked —
    /// typically a protocol's observed outputs plus its completion
    /// signal.  Replaces any previous watch list and clears activity.
    pub fn set_watch_nets(&mut self, nets: &[NetId]) {
        for &net in &self.watch_list {
            self.watch_slot[net.index()] = NO_WATCH;
        }
        self.watch_list = nets.to_vec();
        for (slot, &net) in nets.iter().enumerate() {
            self.watch_slot[net.index()] = u32::try_from(slot).expect("watch list fits in u32");
        }
        self.watch_moved = vec![0; nets.len()];
        self.watch_last = vec![0.0; nets.len() * LANES];
        self.watch_count = vec![0; nets.len() * LANES];
    }

    /// Clears the per-phase activity of every watched net (move masks
    /// and transition counts; last-change times are only meaningful for
    /// lanes whose move bit is set, so they need no clearing).
    pub fn clear_watch_activity(&mut self) {
        self.watch_moved.iter_mut().for_each(|m| *m = 0);
        self.watch_count.iter_mut().for_each(|c| *c = 0);
    }

    /// Lanes on which watched `net` changed since the last
    /// [`SlicedSimulator::clear_watch_activity`].
    ///
    /// # Panics
    ///
    /// Panics if `net` is not watched.
    #[must_use]
    pub fn watch_moved_mask(&self, net: NetId) -> u64 {
        self.watch_moved[self.watch_slot_of(net)]
    }

    /// Time of the last change of watched `net` on `lane` (meaningful
    /// only when the lane's [`SlicedSimulator::watch_moved_mask`] bit is
    /// set).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not watched.
    #[must_use]
    pub fn watch_last_change_ps(&self, net: NetId, lane: usize) -> f64 {
        self.watch_last[self.watch_slot_of(net) * LANES + lane]
    }

    /// Changes of watched `net` on `lane` since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not watched.
    #[must_use]
    pub fn watch_transitions(&self, net: NetId, lane: usize) -> u64 {
        self.watch_count[self.watch_slot_of(net) * LANES + lane]
    }

    fn watch_slot_of(&self, net: NetId) -> usize {
        let slot = self.watch_slot[net.index()];
        assert!(slot != NO_WATCH, "net {net} is not watched");
        slot as usize
    }

    // ------------------------------------------------------------------
    // Stimulus
    // ------------------------------------------------------------------

    /// Drives a primary input's planes on the lanes in `mask` at the
    /// current time (`v` = known-one plane, `x` = unknown plane), with
    /// the same per-lane no-op suppression as the scalar
    /// [`crate::Simulator::set_input`].
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input or if `v` and `x`
    /// overlap.
    pub fn set_input_planes(&mut self, net: NetId, v: u64, x: u64, mask: u64) {
        assert!(
            self.program.netlist.is_primary_input(net),
            "net {net} is not a primary input"
        );
        assert_eq!(v & x, 0, "a lane cannot be both One and Unknown");
        self.schedule_if_effective(net.index(), v, x, mask, self.now_ps);
    }

    /// Rebases the simulation clock (merged and per-lane) to zero, the
    /// sliced analogue of [`crate::Simulator::reset_time`].  Watched
    /// last-change timestamps shift into the new frame.  Valid only
    /// when every lane is being rebased together — i.e. at a protocol
    /// phase boundary after a full settle.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending.
    pub fn reset_time(&mut self) {
        assert!(
            self.queue.is_empty(),
            "cannot reset time with {} events pending",
            self.queue.len()
        );
        if self.now_ps != 0.0 {
            for t in &mut self.watch_last {
                *t -= self.now_ps;
            }
            if let Some(wave) = self.wave.as_deref_mut() {
                // Keep the probe's absolute clock monotonic across the
                // engine's rebased frames.
                wave.0.rebase(self.now_ps);
            }
        }
        self.now_ps = 0.0;
        self.lane_now_ps = [0.0; LANES];
        self.clock_time = 0.0;
        self.clock_touched = 0;
        if let Some(faults) = &mut self.faults {
            faults.rearm_pulses();
        }
        // Measured work starts here: what follows the rebase is a pure
        // function of the next operand word, so the metric deltas
        // re-anchor (discarding paused spacer/priming activity) and
        // counting resumes.
        if self.metrics.is_some() {
            self.rearm_metrics();
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Processes events until no activity remains or the watchdog trips
    /// (the event limit, or the time horizon set by
    /// [`SlicedSimulator::set_time_horizon_ps`]).  The returned event
    /// count is *merged* pops; per-lane counts accumulate in
    /// [`SlicedSimulator::lane_events`].  SEU pulses of an installed
    /// [`FaultPlan`] fire here, interleaved with queued events in time
    /// order.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        let mut processed = 0u64;
        loop {
            if self.faults.is_some() {
                self.fire_due_pulses();
            }
            let Some(event) = self.pop_event() else {
                if self.metrics.is_some() {
                    self.note_settle(processed);
                }
                return RunOutcome::Quiescent { events: processed };
            };
            if event.time_ps > self.horizon_ps {
                // Watchdog horizon: push the event back so the aborted
                // tail stays visible as pending work.
                self.schedule(
                    event.net as usize,
                    event.v,
                    event.x,
                    event.mask,
                    event.time_ps,
                );
                self.flush_metrics();
                return RunOutcome::LimitReached;
            }
            processed += 1;
            if processed > self.event_limit {
                self.flush_metrics();
                return RunOutcome::LimitReached;
            }
            self.apply_event(event);
        }
    }

    /// The configured per-settle event allowance (see
    /// [`SlicedSimulator::set_event_limit`]).
    #[must_use]
    pub fn event_limit(&self) -> u64 {
        self.event_limit
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Cumulative per-lane schedules dropped by the no-op suppression
    /// rule — the sliced analogue of
    /// [`crate::Simulator::suppressed_events`].
    #[must_use]
    pub fn suppressed_lane_events(&self) -> u64 {
        self.suppressed_lane_events
    }

    /// Attaches a [`tm_obs::SimMetrics`] handle set; every completed
    /// settle flushes the engine's internal counters into the registry
    /// the handles came from.  The sliced engine additionally reports
    /// `events_coalesced`: the per-lane events absorbed because one
    /// merged pop applied to many lanes at the same timestamp.  Deltas
    /// only, per settle, never per event — attachment changes no
    /// simulation outcome.
    pub fn attach_metrics(&mut self, handles: tm_obs::SimMetrics) {
        self.install_metrics(handles, true);
    }

    /// Like [`SlicedSimulator::attach_metrics`], but counting stays
    /// paused until the first [`SlicedSimulator::reset_time`] call —
    /// the attachment mode for replicated shard instances (see
    /// [`crate::Simulator::attach_metrics_deferred`]).
    pub fn attach_metrics_deferred(&mut self, handles: tm_obs::SimMetrics) {
        self.install_metrics(handles, false);
    }

    fn install_metrics(&mut self, handles: tm_obs::SimMetrics, armed: bool) {
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        self.metrics = Some(Box::new(SlicedMetricsState {
            handles,
            armed,
            applies: self.merged_applies,
            lane_events: self.applied_lane_events,
            suppressed: self.suppressed_lane_events,
            drain,
            bucket,
            overflow,
        }));
    }

    /// Pauses metric counting until the next
    /// [`SlicedSimulator::reset_time`] re-arms it (see
    /// [`crate::Simulator::pause_metrics`]).
    pub fn pause_metrics(&mut self) {
        if let Some(state) = self.metrics.as_deref_mut() {
            state.armed = false;
        }
    }

    /// Detaches the metric handles (unflushed deltas are flushed
    /// first).
    pub fn detach_metrics(&mut self) {
        self.flush_metrics();
        self.metrics = None;
    }

    /// Whether metric handles are attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.metrics.is_some()
    }

    /// Flushes counter deltas accumulated since the last flush (no-op
    /// when nothing is attached).  Every settle and
    /// [`SlicedSimulator::detach_metrics`] call this.
    pub fn flush_metrics(&mut self) {
        let (merged, lanes, suppressed) = (
            self.merged_applies,
            self.applied_lane_events,
            self.suppressed_lane_events,
        );
        let Some(state) = self.metrics.as_deref_mut() else {
            return;
        };
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        if state.armed {
            let applies = merged - state.applies;
            let lane_events = lanes - state.lane_events;
            state.handles.events_popped.add(applies);
            state.handles.events_coalesced.add(lane_events - applies);
            state
                .handles
                .events_suppressed
                .add(suppressed - state.suppressed);
            state.handles.queue_drain.add(drain - state.drain);
            state.handles.queue_bucket.add(bucket - state.bucket);
            state.handles.queue_overflow.add(overflow - state.overflow);
        }
        state.applies = merged;
        state.lane_events = lanes;
        state.suppressed = suppressed;
        state.drain = drain;
        state.bucket = bucket;
        state.overflow = overflow;
    }

    /// Re-baselines the metric deltas and resumes counting (the
    /// [`SlicedSimulator::reset_time`] hook).
    fn rearm_metrics(&mut self) {
        let (merged, lanes, suppressed) = (
            self.merged_applies,
            self.applied_lane_events,
            self.suppressed_lane_events,
        );
        let Some(state) = self.metrics.as_deref_mut() else {
            return;
        };
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        state.armed = true;
        state.applies = merged;
        state.lane_events = lanes;
        state.suppressed = suppressed;
        state.drain = drain;
        state.bucket = bucket;
        state.overflow = overflow;
    }

    /// Settle epilogue: flush deltas and record the per-settle
    /// watchdog headroom.  Paused settles record nothing.
    fn note_settle(&mut self, processed: u64) {
        if !self.metrics.as_deref().is_some_and(|state| state.armed) {
            return;
        }
        self.flush_metrics();
        if let Some(state) = self.metrics.as_deref() {
            state.handles.settles.inc();
            state
                .handles
                .watchdog_headroom
                .record(self.event_limit.saturating_sub(processed));
        }
    }

    /// Attaches a waveform probe observing **one lane** of the sliced
    /// run: every effective change of a watched net on `lane` is
    /// recorded at its event timestamp, exactly as the scalar
    /// [`crate::Simulator::attach_wave_probe`] records its single
    /// operand.  Watched nets are seeded with the lane's current
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`LANES`].
    pub fn attach_wave_probe(&mut self, mut probe: tm_obs::WaveProbe, lane: usize) {
        assert!(lane < LANES, "lane {lane} out of range");
        for net in probe.watched_nets() {
            let value = if net < self.planes.len() {
                let (v, x) = self.planes[net];
                if x >> lane & 1 != 0 {
                    tm_obs::Wire::X
                } else if v >> lane & 1 != 0 {
                    tm_obs::Wire::V1
                } else {
                    tm_obs::Wire::V0
                }
            } else {
                tm_obs::Wire::X
            };
            probe.set_initial(net, value);
        }
        self.wave = Some(Box::new((probe, 1u64 << lane)));
    }

    /// Whether a waveform probe is attached.
    #[must_use]
    pub fn wave_probe_attached(&self) -> bool {
        self.wave.is_some()
    }

    /// Detaches and returns the waveform probe, if one is attached.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.wave.take().map(|wave| wave.0)
    }

    /// Fires every armed SEU pulse due before the next queued event:
    /// the net flips on all lanes (0↔1, X stays X) and the pre-pulse
    /// planes are rescheduled one pulse width later.
    fn fire_due_pulses(&mut self) {
        loop {
            let next_queue = self.queue.next_time_ps();
            let Some(faults) = self.faults.as_deref_mut() else {
                return;
            };
            let Some(i) = faults.due_pulse(next_queue) else {
                return;
            };
            faults.fired[i] = true;
            let pulse = faults.pulses[i];
            let at = pulse.at_ps.max(self.now_ps);
            let net = pulse.net.index();
            let (old_v, old_x) = self.planes[net];
            // Flip: known-zero lanes become One, known-one lanes become
            // Zero, X lanes stay X.
            let flipped_v = !(old_v | old_x);
            self.schedule(net, old_v, old_x, FULL, at + pulse.duration_ps);
            self.apply_event(SlicedEvent {
                time_ps: at,
                net: u32::try_from(net).expect("nets fit in u32"),
                v: flipped_v,
                x: old_x,
                mask: FULL,
            });
        }
    }

    // ------------------------------------------------------------------
    // Kernel internals
    // ------------------------------------------------------------------

    /// Bit-sliced increment of the in-flight counters of `net` for the
    /// lanes in `mask` (ripple-carry across the planes).
    fn pending_inc(&mut self, net: usize, mask: u64) {
        self.pending_any[net] |= mask;
        let base = net * PENDING_PLANES;
        let old = self.pending[base];
        self.pending[base] = old ^ mask;
        let mut carry = mask & old;
        if carry == 0 {
            return;
        }
        // A lane carrying out of plane 0 now holds two or more events.
        self.pending_high[net] |= carry;
        for plane in &mut self.pending[base + 1..base + PENDING_PLANES] {
            let old = *plane;
            *plane = old ^ carry;
            carry &= old;
            if carry == 0 {
                return;
            }
        }
        panic!("per-lane pending-event counter overflow (>= 256 events in flight for one net)");
    }

    /// Bit-sliced decrement of the in-flight counters (ripple borrow).
    /// Runs once per pop, so it also refreshes the net's incremental
    /// OR-planes — the folds live here instead of in the (much hotter)
    /// per-fanout scheduling check.
    fn pending_dec(&mut self, net: usize, mask: u64) {
        let base = net * PENDING_PLANES;
        let high = self.pending_high[net];
        if high & mask == 0 {
            // Every masked lane holds exactly one event (counts of two
            // or more would appear in `high`): the decrement is a plain
            // plane-0 bit clear, no ripple.
            let p0 = self.pending[base];
            debug_assert_eq!(p0 & mask, mask, "pending-event counter underflow");
            self.pending[base] = p0 ^ mask;
            self.pending_any[net] = (p0 ^ mask) | high;
            return;
        }
        let old0 = self.pending[base];
        self.pending[base] = old0 ^ mask;
        let mut borrow = mask & !old0;
        let mut hi = 0;
        for plane in &mut self.pending[base + 1..base + PENDING_PLANES] {
            let old = *plane;
            *plane = old ^ borrow;
            borrow &= !old;
            hi |= *plane;
        }
        debug_assert_eq!(borrow, 0, "pending-event counter underflow");
        self.pending_any[net] = self.pending[base] | hi;
        self.pending_high[net] = hi;
    }

    /// Lanes of `net` with at least one event in flight.
    #[inline]
    fn pending_nonzero(&self, net: usize) -> u64 {
        self.pending_any[net]
    }

    /// Unconditionally schedules new planes for `net` on `mask` lanes.
    fn schedule(&mut self, net: usize, v: u64, x: u64, mask: u64, time_ps: f64) {
        self.pending_inc(net, mask);
        self.queue.push(SlicedEvent {
            time_ps,
            net: u32::try_from(net).expect("nets fit in u32"),
            v,
            x,
            mask,
        });
    }

    /// Schedules new planes for `net`, suppressing each lane for which
    /// the schedule is a provable no-op — no event in flight for the
    /// lane and the lane already holding the scheduled value — exactly
    /// the scalar [`crate::Simulator`] suppression rule applied 64
    /// lanes at a time.
    fn schedule_if_effective(&mut self, net: usize, v: u64, x: u64, mask: u64, time_ps: f64) {
        let (cv, cx) = self.planes[net];
        let differs = (cv ^ v) | (cx ^ x);
        let sched = mask & (self.pending_nonzero(net) | differs);
        self.suppressed_lane_events += u64::from((mask & !sched).count_ones());
        if sched != 0 {
            self.schedule(net, v, x, sched, time_ps);
        }
    }

    fn pop_event(&mut self) -> Option<SlicedEvent> {
        let event = self.queue.pop()?;
        self.pending_dec(event.net as usize, event.mask);
        Some(event)
    }

    fn apply_event(&mut self, mut event: SlicedEvent) {
        if let Some(faults) = &self.faults {
            // A stuck net clamps every applied value on every lane.
            let stuck = faults.stuck[event.net as usize];
            if stuck != NO_STUCK {
                event.v = if stuck == 1 { FULL } else { 0 };
                event.x = 0;
            }
        }
        // Pops arrive in nondecreasing time order (asserted below), so
        // the merged clock is a plain assignment.
        self.now_ps = event.time_ps;
        // Advance each masked lane's clock and event count *before* the
        // no-op check: a scalar apply advances `now_ps` even when the
        // value is unchanged, and per-lane settle times must match.
        // Both updates are O(1) amortised: clocks flush once per
        // distinct timestamp, counts are a bit-sliced ripple add.
        debug_assert!(
            event.time_ps >= self.clock_time,
            "pops must arrive in nondecreasing time order"
        );
        if event.time_ps != self.clock_time {
            self.flush_lane_clocks();
            self.clock_time = event.time_ps;
        }
        self.clock_touched |= event.mask;
        self.lane_events_add(event.mask);
        self.merged_applies += 1;
        self.applied_lane_events += u64::from(event.mask.count_ones());

        let net = event.net as usize;
        let (cv, cx) = self.planes[net];
        let diff = event.mask & ((cv ^ event.v) | (cx ^ event.x));
        if diff == 0 {
            return;
        }
        self.planes[net] = (
            (cv & !diff) | (event.v & diff),
            (cx & !diff) | (event.x & diff),
        );

        let slot = self.watch_slot[net];
        if slot != NO_WATCH {
            let slot = slot as usize;
            self.watch_moved[slot] |= diff;
            let base = slot * LANES;
            let mut lanes = diff;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                self.watch_last[base + lane] = event.time_ps;
                self.watch_count[base + lane] += 1;
            }
        }

        if let Some(wave) = self.wave.as_deref_mut() {
            let (probe, lane_bit) = wave;
            if diff & *lane_bit != 0 {
                let value = if event.x & *lane_bit != 0 {
                    tm_obs::Wire::X
                } else if event.v & *lane_bit != 0 {
                    tm_obs::Wire::V1
                } else {
                    tm_obs::Wire::V0
                };
                probe.on_change(net, event.time_ps, value);
            }
        }

        // Re-evaluate every load of the net, restricted to the lanes
        // that actually changed — lane-`l` events only ever descend
        // from lane-`l` changes, which is what keeps the per-lane pop
        // sequences identical to the scalar engine's.
        let start = self.program.fanout_offsets[net] as usize;
        let end = self.program.fanout_offsets[net + 1] as usize;
        for i in start..end {
            let (cell_id, pin) = self.program.fanout_loads[i];
            self.evaluate_cell(cell_id.index(), usize::from(pin), event.time_ps, diff);
        }
    }

    fn evaluate_cell(&mut self, index: usize, changed_pin: usize, time_ps: f64, mask: u64) {
        // All per-cell data comes from the shared program's flattened
        // arrays, read into locals before any mutable step.
        let kind = self.program.cell_kind[index];
        let delay = match &self.faults {
            Some(faults) => faults.cell_delay_ps[index],
            None => self.program.cell_delay_ps[index],
        };
        let start = self.program.cell_input_offsets[index] as usize;
        let end = self.program.cell_input_offsets[index + 1] as usize;
        let out = self.program.cell_output[index] as usize;

        if kind == CellKind::Dff {
            // Pin 1 is the clock; capture D on lanes seeing a 0 -> 1
            // edge (per-lane edge detection on the stored clock planes).
            if changed_pin == 1 {
                let d = self.program.cell_input_nets[start] as usize;
                let clk = self.program.cell_input_nets[start + 1] as usize;
                let (clk_v, clk_x) = self.planes[clk];
                let prev_zero = !(self.dff_clk_v[index] | self.dff_clk_x[index]);
                let capture = mask & prev_zero & clk_v;
                if capture != 0 {
                    let (dv, dx) = self.planes[d];
                    self.schedule_if_effective(out, dv, dx, capture, time_ps + delay);
                }
                self.dff_clk_v[index] = (self.dff_clk_v[index] & !mask) | (clk_v & mask);
                self.dff_clk_x[index] = (self.dff_clk_x[index] & !mask) | (clk_x & mask);
            }
            return;
        }

        debug_assert!(
            self.program.cell_lut[index] != NO_LUT,
            "non-DFF cell {index} has no truth table"
        );
        let input_nets = &self.program.cell_input_nets[start..end];
        let planes = &self.planes;
        let at = |i: usize| {
            let (v, x) = planes[input_nets[i] as usize];
            Tri::from_planes(v, x)
        };
        let (ov, ox) = self.planes[out];
        let prev = Tri::from_planes(ov, ox);
        let result = eval_kind_at(kind, input_nets.len(), at, prev);
        let new_v = result.one;
        let new_x = !(result.one | result.zero);
        self.schedule_if_effective(out, new_v, new_x, mask, time_ps + delay);
    }
}

/// Drives one return-to-zero cycle for a whole word of up to 64
/// operands on `sim` and reports each lane's settled outputs,
/// injection latency and event count — bit-identical, lane for lane,
/// to [`crate::run_return_to_zero`] streaming the same operands
/// through a scalar simulator.
///
/// The cycle mirrors the scalar protocol: drive every primary input to
/// 0 on **all** lanes (inactive tail lanes of a partial word are parked
/// at the spacer, so they never schedule events, accrue latency or
/// fail state checks), settle, rebase the clock, drive each active
/// lane's operand, settle.
///
/// # Panics
///
/// Panics if the word holds more than 64 operands, if an operand does
/// not have one bit per primary input, or if either phase fails to
/// settle within the event limit.
#[must_use]
pub fn run_word_return_to_zero(
    sim: &mut SlicedSimulator<'_>,
    operands: &[Vec<bool>],
) -> Vec<OperandRun> {
    try_run_word_return_to_zero(sim, operands).unwrap_or_else(|error| panic!("{error}"))
}

/// Fallible form of [`run_word_return_to_zero`]: a word whose spacer or
/// injection phase fails to settle within the watchdog bounds (event
/// limit and/or time horizon) returns [`SettleError::Watchdog`] instead
/// of panicking — the entry point fault campaigns drive faulted words
/// through.
///
/// # Errors
///
/// Returns [`SettleError::Watchdog`] naming the phase that failed to
/// settle.
///
/// # Panics
///
/// Panics if the word holds more than 64 operands or if an operand does
/// not have one bit per primary input (caller bugs, not fault effects).
pub fn try_run_word_return_to_zero(
    sim: &mut SlicedSimulator<'_>,
    operands: &[Vec<bool>],
) -> Result<Vec<OperandRun>, SettleError> {
    assert!(
        operands.len() <= LANES,
        "a word holds at most {LANES} lanes, got {}",
        operands.len()
    );
    if operands.is_empty() {
        return Ok(Vec::new());
    }
    let input_count = sim.program.primary_inputs.len();
    for operand in operands {
        assert_eq!(
            operand.len(),
            input_count,
            "operand width {} does not match {} primary inputs",
            operand.len(),
            input_count
        );
    }

    // Spacer phase: every input to zero on every lane (inactive tail
    // lanes included — they settle to, and then stay parked at, the
    // canonical quiescent state).  Spacer work depends on the previous
    // word (or construction state), so it is excluded from the metric
    // stream; `reset_time` below re-arms it.
    sim.pause_metrics();
    for i in 0..input_count {
        let net = sim.program.primary_inputs[i];
        sim.set_input_planes(net, 0, 0, FULL);
    }
    if !sim.run_until_quiescent().is_quiescent() {
        return Err(SettleError::Watchdog {
            phase: SettlePhase::Spacer,
        });
    }

    // Injection phase from time zero.  Inactive lanes drive the spacer
    // value again, which the per-lane suppression drops outright: no
    // events, no latency, no state disturbance.
    sim.reset_time();
    sim.reset_lane_events();
    for i in 0..input_count {
        let mut v = 0u64;
        for (lane, operand) in operands.iter().enumerate() {
            v |= u64::from(operand[i]) << lane;
        }
        let net = sim.program.primary_inputs[i];
        sim.set_input_planes(net, v, 0, FULL);
    }
    if !sim.run_until_quiescent().is_quiescent() {
        return Err(SettleError::Watchdog {
            phase: SettlePhase::Injection,
        });
    }
    Ok((0..operands.len())
        .map(|lane| OperandRun {
            outputs: sim.output_values(lane),
            latency_ps: sim.lane_now_ps(lane),
            events: sim.lane_events(lane),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::parallel::run_return_to_zero;

    fn lib() -> Library {
        Library::umc_ll()
    }

    /// Every kind's plane evaluation must agree with
    /// [`CellKind::eval_tristate`] on every three-valued input
    /// combination (and every previous-output value for state-holding
    /// kinds) — the exact tables the scalar engine runs on.
    #[test]
    fn plane_evaluation_matches_eval_tristate_exhaustively() {
        let kinds = [
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
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Aoi21,
            CellKind::Aoi22,
            CellKind::Aoi32,
            CellKind::Oai21,
            CellKind::Oai22,
            CellKind::Maj3,
            CellKind::CElement2,
            CellKind::CElement3,
            CellKind::Tie0,
            CellKind::Tie1,
        ];
        let decode = |digit: usize| match digit {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        let broadcast = |value: Option<bool>| match value {
            Some(true) => Tri { one: FULL, zero: 0 },
            Some(false) => Tri { one: 0, zero: FULL },
            None => Tri::UNKNOWN,
        };
        for kind in kinds {
            let arity = kind.input_count();
            let digits = arity + usize::from(kind.is_sequential());
            for code in 0..3usize.pow(u32::try_from(digits).unwrap()) {
                let mut rest = code;
                let mut opts = [None; CellKind::MAX_INPUTS];
                for slot in opts.iter_mut().take(arity) {
                    *slot = decode(rest % 3);
                    rest /= 3;
                }
                let prev = if kind.is_sequential() {
                    decode(rest % 3)
                } else {
                    None
                };
                let golden = kind.eval_tristate(&opts[..arity], prev);

                let mut tris = [Tri::UNKNOWN; CellKind::MAX_INPUTS];
                for (tri, &opt) in tris.iter_mut().zip(&opts) {
                    *tri = broadcast(opt);
                }
                let got = eval_kind(kind, &tris[..arity], broadcast(prev));
                assert_eq!(got.one & got.zero, 0, "{kind:?} produced 1-and-0");
                let got_opt = if got.one == FULL {
                    Some(true)
                } else if got.zero == FULL {
                    Some(false)
                } else {
                    assert_eq!((got.one, got.zero), (0, 0), "{kind:?} mixed lanes");
                    None
                };
                assert_eq!(got_opt, golden, "{kind:?} diverged at code {code}");
            }
        }
    }

    fn xor_chain(width: usize) -> Netlist {
        let mut nl = Netlist::new("xor_chain");
        let inputs: Vec<NetId> = (0..width).map(|i| nl.add_input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for (k, &input) in inputs.iter().enumerate().skip(1) {
            acc = nl
                .add_cell(format!("x{k}"), CellKind::Xor2, &[acc, input])
                .unwrap();
        }
        nl.add_output("parity", acc);
        nl
    }

    fn streamed(nl: &Netlist, library: &Library, operands: &[Vec<bool>]) -> Vec<OperandRun> {
        let mut sim = Simulator::new(nl, library);
        operands
            .iter()
            .map(|operand| run_return_to_zero(&mut sim, operand))
            .collect()
    }

    #[test]
    fn full_word_matches_streamed_scalar_per_lane() {
        let nl = xor_chain(6);
        let library = lib();
        let operands: Vec<Vec<bool>> = (0..LANES as u32)
            .map(|p| {
                (0..6)
                    .map(|b| p.wrapping_mul(2_654_435_761) & (1 << b) != 0)
                    .collect()
            })
            .collect();
        let expected = streamed(&nl, &library, &operands);
        let mut sim = SlicedSimulator::new(&nl, &library);
        let runs = run_word_return_to_zero(&mut sim, &operands);
        assert_eq!(runs, expected);
    }

    #[test]
    fn partial_word_tails_stay_inert() {
        // Width-1 and width-63 words: inactive tail lanes must not
        // contribute events, latencies or output changes, and a second
        // word through the same instance must stay bit-identical.
        let nl = xor_chain(4);
        let library = lib();
        for width in [1usize, 63] {
            let operands: Vec<Vec<bool>> = (0..width as u32)
                .map(|p| (0..4).map(|b| (p * 7 + 3) & (1 << b) != 0).collect())
                .collect();
            let expected = streamed(&nl, &library, &operands);
            let mut sim = SlicedSimulator::new(&nl, &library);
            let runs = run_word_return_to_zero(&mut sim, &operands);
            assert_eq!(runs, expected, "width {width}");
            assert_eq!(runs.len(), width);
            // Replay: lanes beyond the tail held no state that could
            // leak into the next word.
            let again = run_word_return_to_zero(&mut sim, &operands);
            assert_eq!(again, expected, "width {width} replay");
        }
    }

    #[test]
    fn words_reuse_one_instance_without_history_effects() {
        let nl = xor_chain(5);
        let library = lib();
        let first: Vec<Vec<bool>> = (0..10u32)
            .map(|p| (0..5).map(|b| p & (1 << b) != 0).collect())
            .collect();
        let second: Vec<Vec<bool>> = (11..40u32)
            .map(|p| (0..5).map(|b| p & (1 << b) != 0).collect())
            .collect();
        let mut expected = streamed(&nl, &library, &first);
        expected.extend(streamed(&nl, &library, &second));
        let mut sim = SlicedSimulator::new(&nl, &library);
        let mut runs = run_word_return_to_zero(&mut sim, &first);
        runs.extend(run_word_return_to_zero(&mut sim, &second));
        assert_eq!(runs, expected);
    }

    /// Lane 0 of every net: the state all lanes share after uniform
    /// stimulus.
    fn lane0_state(sim: &SlicedSimulator<'_>) -> Vec<Logic> {
        (0..sim.planes.len())
            .map(|n| sim.value(NetId::from_index(n), 0))
            .collect()
    }

    /// A C-element fed through a tie-low OR, so loading must also drop
    /// the construction-time constant schedule; returns the OR's net.
    fn celem_with_tie() -> (Netlist, NetId) {
        let mut nl = Netlist::new("celem_tie");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let lo = nl.add_cell("tie", CellKind::Tie0, &[]).unwrap();
        let bl = nl.add_cell("or", CellKind::Or2, &[b, lo]).unwrap();
        let c = nl.add_cell("cel", CellKind::CElement2, &[a, bl]).unwrap();
        nl.add_output("y", c);
        (nl, bl)
    }

    #[test]
    fn a_loaded_settled_state_runs_like_the_settle_it_replaces() {
        let (nl, _) = celem_with_tie();
        let library = lib();
        let operands: Vec<Vec<bool>> = (0..9u32).map(|p| vec![p & 1 != 0, p & 2 != 0]).collect();
        let mut settled = SlicedSimulator::new(&nl, &library);
        for net in nl.primary_inputs() {
            settled.set_input_planes(net, 0, 0, FULL);
        }
        assert!(settled.run_until_quiescent().is_quiescent());
        let state = lane0_state(&settled);

        let mut loaded = SlicedSimulator::new(&nl, &library);
        assert_eq!(loaded.load_settled_state(&state), None);
        assert!(!loaded.has_pending_events(), "constants were dropped");
        assert_eq!(loaded.lane_state_mismatch(&state, FULL), None);
        assert_eq!(
            run_word_return_to_zero(&mut loaded, &operands),
            run_word_return_to_zero(&mut settled, &operands)
        );
    }

    #[test]
    fn states_off_the_fixed_point_are_reported() {
        let (nl, or) = celem_with_tie();
        let library = lib();
        let mut settled = SlicedSimulator::new(&nl, &library);
        for net in nl.primary_inputs() {
            settled.set_input_planes(net, 0, 0, FULL);
        }
        assert!(settled.run_until_quiescent().is_quiescent());
        let state = lane0_state(&settled);

        let mut flipped = state.clone();
        flipped[or.index()] = Logic::One;
        let mut sim = SlicedSimulator::new(&nl, &library);
        assert_eq!(sim.load_settled_state(&flipped), Some(or));
        // A stuck-at clamp drives its net like a cell does.
        let mut sim = SlicedSimulator::new(&nl, &library);
        sim.set_fault_plan(&FaultPlan::new().stuck_at(or, true));
        assert_eq!(sim.load_settled_state(&state), Some(or));
    }

    #[test]
    fn loading_sets_the_flip_flop_clock_edge_planes() {
        let mut nl = Netlist::new("reg");
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_cell("ff", CellKind::Dff, &[d, clk]).unwrap();
        nl.add_output("q", q);
        let library = lib();
        let mut sim = SlicedSimulator::new(&nl, &library);
        let mut state = vec![Logic::Zero; nl.net_count()];
        state[q.index()] = Logic::Unknown;
        assert_eq!(sim.load_settled_state(&state), None);
        // The loaded low clock arms the edge: the first rise captures.
        sim.set_input_planes(d, 0b01, 0, FULL);
        sim.set_input_planes(clk, FULL, 0, FULL);
        assert!(sim.run_until_quiescent().is_quiescent());
        assert_eq!(sim.value(q, 0), Logic::One);
        assert_eq!(sim.value(q, 1), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "state covers 2 nets")]
    fn loading_a_state_of_the_wrong_length_panics() {
        let nl = xor_chain(3);
        let library = lib();
        let mut sim = SlicedSimulator::new(&nl, &library);
        let _ = sim.load_settled_state(&[Logic::Zero; 2]);
    }

    #[test]
    fn dff_captures_per_lane_edges() {
        // Lanes drive different data; a shared rising clock edge must
        // capture each lane's own D value.
        let mut nl = Netlist::new("reg");
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_cell("ff", CellKind::Dff, &[d, clk]).unwrap();
        nl.add_output("q", q);
        let library = lib();
        let mut sim = SlicedSimulator::new(&nl, &library);
        let active = lane_mask(3);

        sim.set_input_planes(clk, 0, 0, active);
        sim.set_input_planes(d, 0b101, 0, active);
        assert!(sim.run_until_quiescent().is_quiescent());
        for lane in 0..3 {
            assert_eq!(sim.value(q, lane), Logic::Unknown, "no edge yet");
        }
        sim.set_input_planes(clk, active, 0, active);
        assert!(sim.run_until_quiescent().is_quiescent());
        assert_eq!(sim.value(q, 0), Logic::One);
        assert_eq!(sim.value(q, 1), Logic::Zero);
        assert_eq!(sim.value(q, 2), Logic::One);
        // A data change without an edge must not propagate.
        sim.set_input_planes(d, 0b010, 0, active);
        assert!(sim.run_until_quiescent().is_quiescent());
        assert_eq!(sim.value(q, 0), Logic::One);
        assert_eq!(sim.value(q, 1), Logic::Zero);
    }

    #[test]
    fn watch_tracking_reports_moves_counts_and_times() {
        let nl = xor_chain(2);
        let library = lib();
        let parity = nl.primary_outputs()[0];
        let i0 = nl.find_net("i0").unwrap();
        let i1 = nl.find_net("i1").unwrap();
        let mut sim = SlicedSimulator::new(&nl, &library);
        sim.set_watch_nets(&[parity]);

        // Settle the spacer, then clear: the watch window is one phase.
        sim.set_input_planes(i0, 0, 0, FULL);
        sim.set_input_planes(i1, 0, 0, FULL);
        assert!(sim.run_until_quiescent().is_quiescent());
        sim.reset_time();
        sim.clear_watch_activity();

        // Lane 0: i0 rises (one output change).  Lane 1: both rise
        // (the XOR glitches or settles back — either way it moved).
        // Lane 2: nothing.
        sim.set_input_planes(i0, 0b011, 0, lane_mask(3));
        sim.set_input_planes(i1, 0b010, 0, lane_mask(3));
        assert!(sim.run_until_quiescent().is_quiescent());
        let moved = sim.watch_moved_mask(parity);
        assert_eq!(moved & 0b001, 0b001, "lane 0 output moved");
        assert_eq!(moved & 0b100, 0, "lane 2 output did not move");
        assert!(sim.watch_transitions(parity, 0) >= 1);
        assert_eq!(sim.watch_transitions(parity, 2), 0);
        assert!(sim.watch_last_change_ps(parity, 0) > 0.0);
        assert_eq!(sim.watch_last_change_ps(parity, 0), sim.lane_now_ps(0));
    }

    #[test]
    #[should_panic(expected = "operand width")]
    fn wrong_operand_width_panics() {
        let nl = xor_chain(3);
        let library = lib();
        let mut sim = SlicedSimulator::new(&nl, &library);
        let _ = run_word_return_to_zero(&mut sim, &[vec![true; 2]]);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn oversized_word_panics() {
        let nl = xor_chain(3);
        let library = lib();
        let mut sim = SlicedSimulator::new(&nl, &library);
        let _ = run_word_return_to_zero(&mut sim, &vec![vec![false; 3]; 65]);
    }
}
