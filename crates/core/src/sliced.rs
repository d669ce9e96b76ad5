//! The bit-sliced four-phase protocol driver: up to 64 operands per
//! word through one [`gatesim::SlicedSimulator`].
//!
//! [`SlicedProtocolDriver`] is the dual-rail counterpart of the sliced
//! event kernel: each lane of the word carries one operand through the
//! same spacer → valid → spacer cycle a scalar [`ProtocolDriver`] runs,
//! with the same decoded outputs, the same per-operand latency
//! measurements and the same protocol checks — but every merged event
//! pop advances up to 64 operands at once, which is where the
//! throughput multiplier comes from.
//!
//! # Timebase: the phase-rebased frame
//!
//! Lanes of one word share a queue and therefore a clock, so per-lane
//! settle times are only comparable if every protocol phase starts from
//! time zero.  The driver therefore rebases the clock at **both** phase
//! boundaries — exactly the scalar contract driver with
//! [`ProtocolDriver::enable_phase_rebase`] switched on.  Against that
//! rebased scalar reference every per-lane field of [`OperandResult`]
//! is bit-identical; against the plain contract driver the phase-1
//! fields still match exactly while `v_to_s_latency_ps` and
//! `cycle_time_ps` agree up to floating-point association (the
//! spacer-phase offset is subtracted before instead of after the event
//! maximum).
//!
//! # Kernels
//!
//! A word with few live lanes on a healthy, uninstrumented driver runs
//! on the arrival kernel ([`gatesim::ArrivalProgram`]): one topological
//! `(min, max, +)` pass per phase and lane instead of the 64-lane event
//! queue, with bit-identical results.  When the circuit declares which
//! dual inputs vary per operand
//! ([`DualRailNetlist::declare_varying_inputs`]; the inference datapath
//! declares its features, so a model's exclude masks are held) and the
//! word's live lanes agree on every held input, the pass runs on the
//! program specialised to those levels
//! ([`gatesim::ArrivalProgram::specialise`]), which settles only the
//! cells the varying inputs can move.  Every other word runs on the
//! event kernel; see [`SlicedProtocolDriver::apply_word`] for the rule.
//!
//! Only the event kernel reads the 64-lane instance, so a healthy
//! driver primes it (loads the snapshot onto every lane, settles the
//! spacer and compares) on the first event-kernel word, fault plan,
//! instrument or watchdog setting, not at construction.  Construction
//! still verifies the snapshot: through the memoised arrival compile
//! and a check that it holds the spacer inputs, which together prove
//! the deferred priming succeeds.  Any other driver primes at
//! construction; see [`SlicedProtocolDriver::from_sliced_simulator`].
//!
//! # Error semantics
//!
//! [`SlicedProtocolDriver::apply_word`] returns one
//! `Result<OperandResult, DualRailError>` per lane, reporting each
//! lane's **first** failure.  Within a lane the checks run in the
//! scalar driver's order and with its error texts, because both apply
//! the crate's one set of cycle rules (the private `cycle` module): the
//! end-of-valid check (decode, then `done` rise) → monotonicity → the
//! end-of-spacer check (spacer return, then `done` fall) → reset-phase
//! verification.  Divergence (oscillation past the event limit) is the
//! one word-global failure mode: lanes share the event budget, so a
//! runaway lane aborts the whole word.

use std::sync::Arc;

use gatesim::{lane_mask, ArrivalProgram, ArrivalRun, InputSplit, Logic, SlicedSimulator};
use netlist::{NetId, LANES};

use crate::protocol::ProtocolDriver;
use crate::{cycle, DualRailError, DualRailNetlist, DualRailValue, OperandResult};

const FULL: u64 = !0u64;

/// Most live lanes a word may have to run on the arrival kernel, one
/// pass per lane; wider words run on the 64-lane event kernel, whose
/// word time grows far slower than linearly with its lanes.
///
/// Measured on an Intel Xeon (2 vCPUs) on the standard (12, 8)
/// netlist in both completion schemes, alternating the two kernels
/// over the same 32 words within each of two runs (medians of 5
/// trials): `k` lanes served as `k` arrival passes against one
/// event-kernel word of `k` lanes took 36–42 against 530–570 µs at
/// one lane (13–15x), 375–417 against 1018–1094 µs at 12 lanes
/// (2.6x), 512–541 against 1047–1153 µs at 16 lanes (2.0–2.1x),
/// 1031–1059 against 1342–1393 µs at 32 lanes (1.3x), 1198–1344
/// against 1287–1478 µs at 40 lanes (1.06–1.10x), 1411–1584 against
/// 1390–1457 µs at 48 lanes (0.92–1.03x) and 2028–2134 against
/// 1517–1714 µs at 64 lanes (0.75–0.80x).  The kernels cross near
/// 44–48 lanes; 32 keeps a margin.
pub(crate) const ARRIVAL_MAX_LANES: usize = 32;

/// Drives a dual-rail netlist through four-phase cycles 64 operand
/// lanes at a time.  See the [module documentation](self) for the
/// timebase and error semantics, and
/// [`crate::ParallelProtocolDriver::run_workload_sliced`] for the
/// sharded entry point.
#[derive(Debug)]
pub struct SlicedProtocolDriver<'a> {
    circuit: &'a DualRailNetlist,
    sim: SlicedSimulator<'a>,
    check_monotonic: bool,
    /// Canonical quiescent snapshot every lane is verified against
    /// after each return-to-zero phase (the reset-phase sharding
    /// contract is mandatory here: words are inherently shards).
    snapshot: Arc<[Logic]>,
    observed: Vec<NetId>,
    req: Option<NetId>,
    /// Protocol-level instrument set; `None` (the default) keeps the
    /// word loop free of metrics work.
    metrics: Option<Box<tm_obs::ProtocolMetrics>>,
    /// Set once a fault plan is installed through the driver, even an
    /// empty one: such a driver stays on the event kernel.
    faulted: bool,
    /// Whether `sim` has been primed: `snapshot` loaded onto every
    /// lane, the observed outputs watched and the spacer settled.
    /// Construction leaves it unset only when it has proved that
    /// priming succeeds (see
    /// [`SlicedProtocolDriver::from_sliced_simulator`]).
    primed: bool,
    /// Whether every lane holds `snapshot` with no event pending: the
    /// state an arrival pass starts from.  An unprimed driver counts as
    /// there, since priming puts it there.
    at_snapshot: bool,
    /// The arrival kernel at `snapshot`, looked up at construction;
    /// `None` when the circuit has none, or while a word runs on it.
    arrival: Option<Box<ArrivalLane>>,
}

/// The general arrival program at the snapshot and one lane's scratch.
#[derive(Debug)]
struct ArrivalLane {
    program: Arc<ArrivalProgram>,
    /// Made on the first word, from the program that serves it.
    run: Option<ArrivalRun>,
    /// The inputs the current operand moves.
    moved: Vec<NetId>,
    /// The current word's split of the inputs: the rails of the varying
    /// dual inputs vary, and the held inputs its valid drive moves are
    /// held moved.
    split: InputSplit,
}

impl<'a> SlicedProtocolDriver<'a> {
    /// Creates a word driver around a fresh sliced simulator instance,
    /// starting every lane from `snapshot`: the canonical quiescent
    /// state a scalar reference driver settled from X once (see
    /// [`ProtocolDriver::quiescent_snapshot`]).  The instance is not
    /// settled from X again; the snapshot is loaded onto all 64 lanes
    /// with [`SlicedSimulator::load_settled_state`] instead.
    ///
    /// Each construction still checks what it loads.  The snapshot must
    /// have one value per net and be a fixed point of the circuit, and
    /// priming (loading it, then driving and settling the spacer, which
    /// pops no event when the snapshot holds the spacer inputs) must
    /// leave every lane at it.  That a settle from X reaches the
    /// snapshot on every lane is pinned by the test suite for the
    /// shipped datapaths, and the reset-phase verification after every
    /// cycle is unchanged.
    ///
    /// Construction looks up the arrival kernel at the snapshot, then
    /// primes the instance unless it can prove that priming succeeds:
    /// the driver has an arrival kernel, `req` and both rails of every
    /// dual input hold their spacer levels in the snapshot, and the
    /// instance may serve words on the arrival kernel (no metrics, wave
    /// probe or fault plan, the default event limit).  The arrival
    /// compile behind that, memoised per program and snapshot, accepts
    /// only a fixed point without X, and spacer inputs leave the settle
    /// nothing to move, so the comparison cannot fail.  Such a driver
    /// primes on its first event-kernel word,
    /// [`SlicedProtocolDriver::set_fault_plan`], attached metrics or
    /// wave probe, or event limit or time horizon; while its words run
    /// on the arrival kernel it is never primed.
    ///
    /// `check_monotonic` turns the per-phase monotonicity check on the
    /// observed outputs on or off.  On, a lane whose output rail
    /// switches more than once in a phase fails with the scalar
    /// driver's non-monotonic [`DualRailError::ProtocolViolation`]; off,
    /// the lane is judged by its settled outputs alone.  An arrival pass
    /// moves each net at most once per phase, so the setting matters
    /// only on the event kernel.  Pass `true` unless a measurement
    /// needs the check off, as the E7 fault campaign's `dualrail_sliced`
    /// row does.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SpacerStateMismatch`] if the snapshot
    /// has the wrong length, is not a fixed point of the circuit, or
    /// disagrees with the state the spacer settles to;
    /// [`DualRailError::SimulationDiverged`] if that settle does not
    /// end; or [`DualRailError::StaticVerification`] if an installed
    /// pre-flight verifier ([`crate::preflight`]) rejects the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `sim` does not simulate this circuit's netlist.
    pub fn from_sliced_simulator(
        circuit: &'a DualRailNetlist,
        sim: SlicedSimulator<'a>,
        snapshot: Arc<[Logic]>,
        check_monotonic: bool,
    ) -> Result<Self, DualRailError> {
        assert!(
            std::ptr::eq(sim.program().netlist(), circuit.netlist()),
            "the simulator must run this circuit's netlist"
        );
        crate::preflight::run(circuit)?;
        let nets = circuit.netlist().net_count();
        if snapshot.len() != nets {
            return Err(DualRailError::SpacerStateMismatch {
                description: format!(
                    "the quiescent snapshot covers {} nets but the netlist has {nets}",
                    snapshot.len()
                ),
            });
        }
        let mut driver = Self {
            circuit,
            sim,
            check_monotonic,
            snapshot,
            observed: circuit.observed_output_nets(),
            req: cycle::request_input(circuit),
            metrics: None,
            faulted: false,
            primed: false,
            at_snapshot: true,
            arrival: None,
        };
        driver.arrival = driver.arrival_lane();
        // An arrival lane proves the snapshot a fixed point without X,
        // and spacer inputs leave the settle nothing to move (see the
        // rustdoc above), so such a driver's priming is deferred.
        let at_spacer = cycle::spacer_drive(circuit, driver.req)
            .all(|(net, level)| driver.snapshot[net.index()] == Logic::from(level));
        if !(driver.arrival.is_some() && at_spacer && driver.arrival_eligible()) {
            driver.prime()?;
        }
        Ok(driver)
    }

    /// Loads the snapshot onto every lane, watches the observed outputs
    /// and `done`, settles the spacer and compares the word with the
    /// snapshot on every lane.
    fn prime(&mut self) -> Result<(), DualRailError> {
        if let Some(net) = self.sim.load_settled_state(&self.snapshot) {
            return Err(DualRailError::SpacerStateMismatch {
                description: format!(
                    "net {net} holds {:?} in the quiescent snapshot but its driver would change \
                     it, so the snapshot is not a settled state of this circuit",
                    self.snapshot[net.index()]
                ),
            });
        }
        let mut watched = self.observed.clone();
        if let Some(done) = self.circuit.done() {
            if !watched.contains(&done) {
                watched.push(done);
            }
        }
        self.sim.set_watch_nets(&watched);
        // A snapshot already at the spacer suppresses every lane of this
        // drive, so the settle pops no event; any other snapshot moves
        // and fails the comparison below.
        self.drive_spacer_planes();
        if !self.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        if let Some((lane, net, expected, got)) = self.sim.lane_state_mismatch(&self.snapshot, FULL)
        {
            return Err(DualRailError::SpacerStateMismatch {
                description: format!(
                    "net {net} settled to {got:?} after initialisation (lane {lane}) but the \
                     quiescent snapshot holds {expected:?}"
                ),
            });
        }
        self.primed = true;
        Ok(())
    }

    /// Primes the instance if construction deferred it.  Construction
    /// defers only a priming it has proved to succeed, so a failure here
    /// is a broken invariant of this module, not a caller error.
    fn ensure_primed(&mut self) {
        if !self.primed {
            if let Err(error) = self.prime() {
                unreachable!("construction deferred a priming that fails: {error}");
            }
        }
    }

    /// Caps the merged events processed per settle phase; the word
    /// shares one budget, so oscillation aborts every lane (see
    /// [`gatesim::SlicedSimulator::set_event_limit`]).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.ensure_primed();
        self.sim.set_event_limit(limit);
    }

    /// Bounds each settle phase by **simulated time** as well (see
    /// [`gatesim::SlicedSimulator::set_time_horizon_ps`]) — the
    /// watchdog that keeps a faulted word from spinning the merged
    /// event loop until the (much larger) event limit.
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        self.ensure_primed();
        self.sim.set_time_horizon_ps(horizon_ps);
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Attaches the full word-driver instrument set, registering
    /// `"<prefix>.protocol.*"` and `"<prefix>.sim.*"` in `registry`.
    /// Per-lane cycle figures are recorded once per successful lane, so
    /// sharded word streams reduce to the same snapshot at any thread
    /// count (see [`ProtocolDriver::attach_metrics`]).
    pub fn attach_metrics(&mut self, registry: &tm_obs::MetricsRegistry, prefix: &str) {
        self.ensure_primed();
        self.metrics = Some(Box::new(tm_obs::ProtocolMetrics::register(
            registry,
            &format!("{prefix}.protocol"),
        )));
        self.sim.attach_metrics(tm_obs::SimMetrics::register(
            registry,
            &format!("{prefix}.sim"),
        ));
    }

    /// Detaches all instruments after flushing pending engine deltas.
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
        self.sim.detach_metrics();
    }

    /// Whether an instrument set is currently attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.metrics.is_some()
    }

    /// Attaches **only** the protocol-level handles — the sharded
    /// runner's worker path, where the engine-level instruments are
    /// already attached by the parallel harness at simulator
    /// construction.
    pub(crate) fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics) {
        self.metrics = Some(Box::new(handles));
    }

    /// Installs a [`tm_obs::WaveProbe`] following a single `lane` of
    /// the word; see [`gatesim::SlicedSimulator::attach_wave_probe`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= gatesim::LANES`.
    pub fn attach_wave_probe(&mut self, probe: tm_obs::WaveProbe, lane: usize) {
        self.ensure_primed();
        self.sim.attach_wave_probe(probe, lane);
    }

    /// Removes and returns the installed wave probe, if any.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.sim.take_wave_probe()
    }

    /// Installs a gate-level [`gatesim::FaultPlan`] on this word
    /// driver's private sliced instance (every lane sees the same
    /// faults — the overlay clamps whole bit-planes), re-settles the
    /// circuit under the faults and re-captures the quiescent snapshot
    /// from the **faulted** settled state, so the mandatory reset-phase
    /// verification measures history-dependence rather than the fault
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot reach quiescence within the watchdog bounds.
    pub fn set_fault_plan(&mut self, plan: &gatesim::FaultPlan) -> Result<(), DualRailError> {
        self.ensure_primed();
        self.faulted = true;
        self.sim.set_fault_plan(plan);
        if !self.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        let nets = self.circuit.netlist().net_count();
        self.snapshot = (0..nets)
            .map(|n| self.sim.value(NetId::from_index(n), 0))
            .collect();
        Ok(())
    }

    fn drive_spacer_planes(&mut self) {
        for (net, level) in cycle::spacer_drive(self.circuit, self.req) {
            self.sim
                .set_input_planes(net, if level { FULL } else { 0 }, 0, FULL);
        }
    }

    /// Drives valid codewords on the lanes in `run` (lane `l` carrying
    /// `operands[l]`) while every other lane keeps its spacer encoding,
    /// so inactive and width-mismatched lanes stay quiescent.
    fn drive_valid_planes(&mut self, operands: &[Vec<bool>], run: u64) {
        if let Some(req) = self.req {
            self.sim.set_input_planes(req, run, 0, FULL);
        }
        let inputs = self.circuit.dual_inputs();
        for (i, (_, signal)) in inputs.iter().enumerate() {
            let (sp, sn) = DualRailValue::encode_spacer(signal.polarity);
            let mut pos = if sp { FULL } else { 0 };
            let mut neg = if sn { FULL } else { 0 };
            let mut m = run;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let bit = 1u64 << lane;
                let (p, n) = DualRailValue::encode_valid(operands[lane][i], signal.polarity);
                if p {
                    pos |= bit;
                } else {
                    pos &= !bit;
                }
                if n {
                    neg |= bit;
                } else {
                    neg &= !bit;
                }
            }
            self.sim.set_input_planes(signal.positive, pos, 0, FULL);
            self.sim.set_input_planes(signal.negative, neg, 0, FULL);
        }
    }

    /// Latest change any of `nets` made on `lane` during the current
    /// (rebased, activity-cleared) phase — the sliced counterpart of
    /// the scalar driver's `latest_change_since(nets, 0.0)`.
    fn latest_watched_change(&self, nets: &[NetId], lane: usize) -> Option<f64> {
        let bit = 1u64 << lane;
        let moved = nets
            .iter()
            .filter(|&&n| self.sim.watch_moved_mask(n) & bit != 0);
        cycle::latest(moved.map(|&n| self.sim.watch_last_change_ps(n, lane)))
    }

    fn check_monotonic_lane(&self, lane: usize) -> Result<(), DualRailError> {
        if !self.check_monotonic {
            return Ok(());
        }
        for &net in &self.observed {
            let delta = self.sim.watch_transitions(net, lane);
            if delta > 1 {
                return Err(cycle::non_monotonic(net, delta));
            }
        }
        Ok(())
    }

    /// Runs one full four-phase cycle with up to [`LANES`] operands at
    /// once (lane `l` carrying `operands[l]`, one bit per dual-rail
    /// input in declaration order) and returns each lane's decoded
    /// result or first protocol failure, in lane order.
    ///
    /// Inactive lanes (words shorter than [`LANES`]) and lanes whose
    /// operand has the wrong width are held at the spacer for the whole
    /// cycle, contributing no events, no latencies and no spacer
    /// failures.
    ///
    /// # Kernels
    ///
    /// A word with few live lanes (at most a measured crossover, 32)
    /// on a healthy, uninstrumented driver runs on the
    /// **arrival kernel** ([`gatesim::ArrivalProgram`]): one
    /// topological `(min, max, +)` pass per phase and lane, compiled
    /// once per [`gatesim::EngineProgram`] and snapshot.  If the
    /// circuit declares its varying inputs and the live lanes agree on
    /// every other input, the pass runs on the program specialised to
    /// those held levels, compiled on the word that first needs it and
    /// memoised on the shared program by content; a word whose lanes
    /// differ on a held input, or a circuit without the declaration,
    /// takes the general pass.  Its results are bit-identical to the
    /// event kernel's, `cycle_time_ps` included.  Every other word runs
    /// on the 64-lane event kernel:
    /// a driver with a fault plan (even an empty one), a wave probe,
    /// metrics, a non-default event limit or a circuit the arrival
    /// compile rejects; a word with more live lanes; a word whose pass
    /// meets a tie its queue order would break or a pop past the time
    /// horizon; and any word in which a lane fails a check, so typed
    /// errors always come from the event kernel.
    ///
    /// # Panics
    ///
    /// Panics if `operands` holds more than [`LANES`] operands.
    pub fn apply_word(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Vec<Result<OperandResult, DualRailError>> {
        let word = lane_mask(operands.len());
        if let Some(results) = self.arrival_word(operands) {
            return results;
        }
        self.event_word(operands, word)
    }

    /// Whether this driver's words may run on the arrival kernel: no
    /// instruments or faults that need the event kernel's events, the
    /// default event limit, and every lane at the snapshot.
    fn arrival_eligible(&self) -> bool {
        !self.faulted
            && self.at_snapshot
            && self.metrics.is_none()
            && !self.sim.metrics_attached()
            && !self.sim.wave_probe_attached()
            && !self.sim.has_fault_plan()
            && self.sim.event_limit() == gatesim::Simulator::DEFAULT_EVENT_LIMIT
    }

    /// The arrival kernel at the snapshot, its program looked up in the
    /// engine program's memo (compiled at most once per engine program
    /// and snapshot content).  There is none when the compile fails or
    /// when a lane's pops could exceed the default event limit.
    ///
    /// A drive moves each input at most once, because the driven nets
    /// are distinct: [`DualRailNetlist::add_dual_input`], the only way
    /// to add a dual input, makes two fresh nets named `<name>_p` and
    /// `<name>_n` with [`netlist::Netlist::add_input`], which panics on
    /// a name already in use, and `req` is the primary input named
    /// `req`.
    fn arrival_lane(&self) -> Option<Box<ArrivalLane>> {
        let program = self.sim.program().arrival_program(&self.snapshot).ok()?;
        let fits = program.pop_bound() <= gatesim::Simulator::DEFAULT_EVENT_LIMIT;
        fits.then(|| {
            Box::new(ArrivalLane {
                split: InputSplit::new(&program),
                program,
                run: None,
                moved: Vec::new(),
            })
        })
    }

    /// Serves the word on the arrival kernel, or returns `None` when it
    /// must run on the event kernel (see [`SlicedProtocolDriver::apply_word`]).
    fn arrival_word(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Option<Vec<Result<OperandResult, DualRailError>>> {
        let expected = self.circuit.input_count();
        let live = operands.iter().filter(|op| op.len() == expected).count();
        if live == 0 || live > ARRIVAL_MAX_LANES || !self.arrival_eligible() {
            return None;
        }
        let mut lane = self.arrival.take()?;
        let specialised = self.specialised(&mut lane, operands);
        let program = specialised
            .clone()
            .unwrap_or_else(|| Arc::clone(&lane.program));
        let run = lane.run.get_or_insert_with(|| program.new_run());
        let results = operands
            .iter()
            .map(|operand| {
                if operand.len() == expected {
                    self.moved_inputs(operand, specialised.is_some(), &mut lane.moved);
                    self.arrival_result(&program, run, &lane.moved).map(Ok)
                } else {
                    Some(Err(DualRailError::OperandWidthMismatch {
                        expected,
                        got: operand.len(),
                    }))
                }
            })
            .collect();
        self.arrival = Some(lane);
        results
    }

    /// The general program specialised to the levels the word's live
    /// lanes hold on the circuit's held inputs (memoised on the general
    /// program; see [`ArrivalProgram::specialise`]).  `None` when the
    /// circuit declares no varying inputs, when two live lanes differ
    /// on a held input, or when the specialisation would tie.
    fn specialised(
        &self,
        lane: &mut ArrivalLane,
        operands: &[Vec<bool>],
    ) -> Option<Arc<ArrivalProgram>> {
        let varying = self.circuit.varying_inputs()?;
        let expected = self.circuit.input_count();
        let mut live = operands.iter().filter(|op| op.len() == expected);
        let first = live.next()?;
        if !live.all(|operand| held_inputs_agree(varying, first, operand)) {
            return None;
        }
        let split = &mut lane.split;
        split.clear();
        let moves = |net: NetId, level: bool| self.snapshot[net.index()] != Logic::from(level);
        if let Some(req) = self.req.filter(|&req| moves(req, true)) {
            split.hold_moved(req);
        }
        let mut next_varying = varying.iter().peekable();
        for (input, ((_, signal), &bit)) in self.circuit.dual_inputs().iter().zip(first).enumerate()
        {
            if next_varying.next_if_eq(&&input).is_some() {
                split.vary(signal.positive);
                split.vary(signal.negative);
            } else {
                for (net, level) in cycle::valid_rails(signal, bit) {
                    if moves(net, level) {
                        split.hold_moved(net);
                    }
                }
            }
        }
        lane.program.specialise(&lane.split)
    }

    /// The inputs whose valid drive for `operand` differs from the
    /// snapshot: exactly the inputs the event kernel's drive moves, or,
    /// for a `specialised` program, those among the rails of the varying
    /// dual inputs.
    fn moved_inputs(&self, operand: &[bool], specialised: bool, moved: &mut Vec<NetId>) {
        let moves =
            |&(net, level): &(NetId, bool)| self.snapshot[net.index()] != Logic::from(level);
        moved.clear();
        match self.circuit.varying_inputs().filter(|_| specialised) {
            Some(varying) => moved.extend(
                varying
                    .iter()
                    .flat_map(|&input| {
                        cycle::valid_rails(&self.circuit.dual_inputs()[input].1, operand[input])
                    })
                    .filter(moves)
                    .map(|(net, _)| net),
            ),
            None => moved.extend(
                cycle::valid_drive(self.circuit, self.req, operand)
                    .filter(moves)
                    .map(|(net, _)| net),
            ),
        }
    }

    /// One operand's [`OperandResult`] from its arrival pass on
    /// `program`, which moves `moved`, with the event path's checks in
    /// its order; `None` on a fallback, a failed check or a pop past the
    /// time horizon (the event kernel then re-runs the word and reports
    /// any typed error).  A pass moves each net at most once per phase
    /// and returns every net, so the monotonicity and reset-phase checks
    /// hold by construction.
    fn arrival_result(
        &self,
        program: &ArrivalProgram,
        run: &mut ArrivalRun,
        moved: &[NetId],
    ) -> Option<OperandResult> {
        program.run_cycle(moved, run).ok()?;
        let run = &*run;
        let horizon = self.sim.time_horizon_ps();
        if run.valid_clock_ps() > horizon || run.spacer_clock_ps() > horizon {
            return None;
        }
        let latest = |moves: &dyn Fn(NetId) -> Option<f64>| {
            cycle::latest(self.observed.iter().filter_map(|&net| moves(net))).unwrap_or(0.0)
        };
        let valid = |net| program.valid_value(run, net);
        let (outputs, one_of_n) = cycle::check_valid(self.circuit, valid).ok()?;
        let probes = cycle::decode_probes(self.circuit, valid);
        let done_latency_ps = self.circuit.done().and_then(|done| run.valid_move_ps(done));
        cycle::check_spacer(self.circuit, |net| self.snapshot[net.index()]).ok()?;
        Some(OperandResult {
            outputs,
            one_of_n,
            s_to_v_latency_ps: latest(&|net| run.valid_move_ps(net)),
            done_latency_ps,
            v_to_s_latency_ps: latest(&|net| run.spacer_move_ps(net)),
            cycle_time_ps: run.valid_clock_ps() + run.spacer_clock_ps(),
            probes,
        })
    }

    /// The 64-lane event-kernel cycle behind
    /// [`SlicedProtocolDriver::apply_word`].
    fn event_word(
        &mut self,
        operands: &[Vec<bool>],
        word: u64,
    ) -> Vec<Result<OperandResult, DualRailError>> {
        let lanes = operands.len();
        if lanes == 0 {
            return Vec::new();
        }
        let expected = self.circuit.input_count();
        let mut errors: Vec<Option<DualRailError>> = operands
            .iter()
            .map(|op| {
                (op.len() != expected).then_some(DualRailError::OperandWidthMismatch {
                    expected,
                    got: op.len(),
                })
            })
            .collect();
        let mut run = 0u64;
        for (l, e) in errors.iter().enumerate() {
            if e.is_none() {
                run |= 1u64 << l;
            }
        }
        debug_assert_eq!(run & !word, 0);
        let fail_all = |errors: Vec<Option<DualRailError>>| {
            errors
                .into_iter()
                .map(|e| Err(e.expect("every lane carries an error")))
                .collect()
        };
        if run == 0 {
            return fail_all(errors);
        }
        self.ensure_primed();
        // A previous word that diverged left its event tail in the
        // queue; the instance no longer sits in a quiescent state.
        if self.sim.has_pending_events() {
            for e in &mut errors {
                e.get_or_insert(DualRailError::SimulationDiverged);
            }
            return fail_all(errors);
        }

        // Phase 1: spacer -> valid, in a fresh zero-based frame.
        let was_at_snapshot = std::mem::replace(&mut self.at_snapshot, false);
        self.sim.clear_watch_activity();
        self.sim.reset_time();
        self.sim.reset_lane_events();
        self.drive_valid_planes(operands, run);
        if !self.sim.run_until_quiescent().is_quiescent() {
            // Divergence is word-global: the lanes share one event
            // budget, so every active lane is reported diverged.
            for e in &mut errors {
                e.get_or_insert(DualRailError::SimulationDiverged);
            }
            return fail_all(errors);
        }

        let mut decoded: Vec<Option<cycle::DecodedOutputs>> = vec![None; lanes];
        let mut probes: Vec<Option<Vec<(String, DualRailValue)>>> = vec![None; lanes];
        let mut s_to_v = [0.0f64; LANES];
        let mut done_latency: [Option<f64>; LANES] = [None; LANES];
        let mut t1 = [0.0f64; LANES];
        for lane in 0..lanes {
            if errors[lane].is_some() {
                continue;
            }
            let value = |net| self.sim.value(net, lane);
            match cycle::check_valid(self.circuit, value) {
                Ok(d) => decoded[lane] = Some(d),
                Err(e) => {
                    errors[lane] = Some(e);
                    continue;
                }
            }
            probes[lane] = Some(cycle::decode_probes(self.circuit, value));
            s_to_v[lane] = self
                .latest_watched_change(&self.observed, lane)
                .unwrap_or(0.0);
            done_latency[lane] = self
                .circuit
                .done()
                .and_then(|done| self.latest_watched_change(&[done], lane));
            if let Err(e) = self.check_monotonic_lane(lane) {
                errors[lane] = Some(e);
                continue;
            }
            t1[lane] = self.sim.lane_now_ps(lane);
        }

        // Phase 2: valid -> spacer (return-to-zero), rebased again so
        // the spacer phase also runs in a zero-based frame.
        self.sim.clear_watch_activity();
        self.sim.reset_time();
        self.drive_spacer_planes();
        if !self.sim.run_until_quiescent().is_quiescent() {
            for e in &mut errors {
                e.get_or_insert(DualRailError::SimulationDiverged);
            }
            return fail_all(errors);
        }

        let mut v_to_s = [0.0f64; LANES];
        for lane in 0..lanes {
            if errors[lane].is_some() {
                continue;
            }
            if let Err(e) = cycle::check_spacer(self.circuit, |net| self.sim.value(net, lane)) {
                errors[lane] = Some(e);
                continue;
            }
            v_to_s[lane] = self
                .latest_watched_change(&self.observed, lane)
                .unwrap_or(0.0);
            if let Err(e) = self.check_monotonic_lane(lane) {
                errors[lane] = Some(e);
            }
        }

        // Reset-phase verification, last as in the scalar driver: one
        // full-word pass in the common all-clean case, per-lane
        // attribution only when something actually mismatched.
        let mut healthy = 0u64;
        for (l, e) in errors.iter().enumerate() {
            if e.is_none() {
                healthy |= 1u64 << l;
            }
        }
        if self
            .sim
            .lane_state_mismatch(&self.snapshot, healthy)
            .is_some()
        {
            for (lane, err) in errors.iter_mut().enumerate() {
                if err.is_some() {
                    continue;
                }
                if let Some((_, net, expected, got)) =
                    self.sim.lane_state_mismatch(&self.snapshot, 1u64 << lane)
                {
                    *err = Some(cycle::spacer_state_mismatch(net, got, expected));
                }
            }
        }
        // Lanes outside `run` were only driven to their spacer levels,
        // so when every lane started at the snapshot and every live lane
        // passed, the whole word is back at it.
        let passed = errors.iter().all(Option::is_none);
        self.at_snapshot = (was_at_snapshot && passed)
            || self.sim.lane_state_mismatch(&self.snapshot, FULL).is_none();

        (0..lanes)
            .map(|lane| match errors[lane].take() {
                Some(error) => Err(error),
                None => {
                    let (outputs, one_of_n) = decoded[lane].take().expect("decoded on success");
                    // The reset-phase contract is mandatory for word
                    // drivers; reaching here means this lane passed its
                    // spacer-state verification.
                    cycle::record_cycle(self.metrics.as_deref(), s_to_v[lane], v_to_s[lane], true);
                    Ok(OperandResult {
                        outputs,
                        one_of_n,
                        s_to_v_latency_ps: s_to_v[lane],
                        done_latency_ps: done_latency[lane],
                        v_to_s_latency_ps: v_to_s[lane],
                        cycle_time_ps: t1[lane] + self.sim.lane_now_ps(lane),
                        probes: probes[lane].take().expect("probes on success"),
                    })
                }
            })
            .collect()
    }
}

/// Whether operands `a` and `b` agree on every input outside the
/// ascending positions `varying`.
fn held_inputs_agree(varying: &[usize], a: &[bool], b: &[bool]) -> bool {
    let mut from = 0;
    varying.iter().chain([&a.len()]).all(|&to| {
        let agree = a[from..to] == b[from..to];
        from = to + 1;
        agree
    })
}

/// Builds the streamed scalar reference for the sliced driver: a
/// contract-mode [`ProtocolDriver`] with phase rebasing enabled, whose
/// per-operand results are **bit-identical** to [`SlicedProtocolDriver`]
/// lane results.
///
/// # Errors
///
/// Propagates [`ProtocolDriver::from_simulator`] initialisation errors.
pub fn rebased_reference_driver<'a>(
    circuit: &'a DualRailNetlist,
    sim: gatesim::Simulator<'a>,
    snapshot: Arc<[Logic]>,
) -> Result<ProtocolDriver<'a>, DualRailError> {
    let mut driver = ProtocolDriver::from_simulator(circuit, sim)?;
    driver.enable_reset_contract(snapshot);
    driver.enable_phase_rebase();
    Ok(driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelProtocolDriver, ReducedCompletion};
    use celllib::Library;
    use gatesim::EngineProgram;

    fn and_or_circuit() -> DualRailNetlist {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let c = dr.add_dual_input("c");
        let ab = dr.and2("ab", a, b).unwrap();
        let y = dr.or2("y", ab, c).unwrap();
        dr.add_dual_output("y", y);
        ReducedCompletion::insert(&mut dr).unwrap();
        dr
    }

    fn workload(width: usize, operands: usize) -> Vec<Vec<bool>> {
        (0..operands as u32)
            .map(|p| (0..width).map(|i| p & (1 << i) != 0).collect())
            .collect()
    }

    /// Streamed scalar reference in the sliced driver's own timebase:
    /// contract mode with phase rebasing.
    fn rebased_streamed(dr: &DualRailNetlist, operands: &[Vec<bool>]) -> Vec<OperandResult> {
        let lib = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(dr.netlist(), &lib));
        let reference = ProtocolDriver::from_program(dr, Arc::clone(&program)).unwrap();
        let snapshot = reference.quiescent_snapshot();
        drop(reference);
        let mut driver =
            rebased_reference_driver(dr, gatesim::Simulator::from_program(program), snapshot)
                .unwrap();
        operands
            .iter()
            .map(|operand| driver.apply_operand(operand).unwrap())
            .collect()
    }

    fn word_driver<'a>(dr: &'a DualRailNetlist, lib: &Library) -> SlicedProtocolDriver<'a> {
        let program = Arc::new(EngineProgram::new(dr.netlist(), lib));
        let reference = ProtocolDriver::from_program(dr, Arc::clone(&program)).unwrap();
        let snapshot = reference.quiescent_snapshot();
        drop(reference);
        SlicedProtocolDriver::from_sliced_simulator(
            dr,
            SlicedSimulator::from_program(program),
            snapshot,
            true,
        )
        .unwrap()
    }

    /// The headline equivalence: every lane of a full word reproduces
    /// the phase-rebased streamed scalar driver bit for bit — decoded
    /// outputs, probes, both latencies, `done` and the cycle time.
    #[test]
    fn full_word_lanes_match_the_rebased_streamed_driver_exactly() {
        let dr = and_or_circuit();
        let operands = workload(3, 8);
        let expected = rebased_streamed(&dr, &operands);
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let got: Vec<OperandResult> = driver
            .apply_word(&operands)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, expected);
        for r in &got {
            assert!(r.s_to_v_latency_ps > 0.0);
            assert!(r.v_to_s_latency_ps > 0.0);
            assert!(r.done_latency_ps.unwrap() >= r.s_to_v_latency_ps);
            assert!(r.cycle_time_ps > r.s_to_v_latency_ps + r.v_to_s_latency_ps - 1e-9);
        }
    }

    /// Words are reusable: one driver instance runs many words with no
    /// operand-history effects (the verified reset-phase contract).
    #[test]
    fn words_replay_identically_on_one_instance() {
        let dr = and_or_circuit();
        let operands = workload(3, 5);
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let first: Vec<_> = driver
            .apply_word(&operands)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let again: Vec<_> = driver
            .apply_word(&operands)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(first, again);
    }

    /// A lane with a wrong-width operand fails with exactly that lane's
    /// error while every other lane of the word still succeeds with
    /// measurements identical to a clean word.
    #[test]
    fn width_mismatch_is_per_lane_and_leaves_other_lanes_untouched() {
        let dr = and_or_circuit();
        let clean = workload(3, 6);
        let expected = rebased_streamed(&dr, &clean);
        let mut operands = clean.clone();
        operands[2] = vec![true];
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let results = driver.apply_word(&operands);
        for (lane, result) in results.into_iter().enumerate() {
            if lane == 2 {
                assert!(matches!(
                    result,
                    Err(DualRailError::OperandWidthMismatch {
                        expected: 3,
                        got: 1
                    })
                ));
            } else {
                assert_eq!(result.unwrap(), expected[lane], "lane {lane}");
            }
        }
    }

    /// The empty word is a no-op.
    #[test]
    fn empty_word_returns_no_results() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        assert!(driver.apply_word(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "a word holds at most")]
    fn oversized_word_panics() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let operands = workload(3, LANES + 1);
        let _ = driver.apply_word(&operands);
    }

    /// Partial-word regression at the tail widths the sharded runner
    /// produces: width-1 and width-63 words match the streamed
    /// reference and leave the instance reusable.
    #[test]
    fn partial_word_tails_match_the_streamed_reference() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        for count in [1usize, 63] {
            let operands = workload(3, count);
            let expected = rebased_streamed(&dr, &operands);
            let got: Vec<_> = driver
                .apply_word(&operands)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, expected, "word of {count}");
        }
    }

    /// A word that oscillates past the event limit reports every lane
    /// diverged (lanes share one event budget), and the instance stays
    /// in the diverged state for subsequent words — the scalar contract
    /// driver's behaviour, word-wide.
    #[test]
    fn divergence_is_word_global_and_sticky() {
        let mut dr = DualRailNetlist::new("osc");
        let a = dr.add_dual_input("a");
        dr.add_dual_output("y", a);
        // Two detached rings, as in the scalar sticky-divergence
        // regression: when the limit cuts the run short, the other
        // ring's popped-but-unapplied follow-up stays in the queue.
        let nl = dr.netlist_mut();
        for ring in 0..2 {
            let fb = nl.add_net_named(format!("fb{ring}")).unwrap();
            let osc = nl
                .add_cell(
                    format!("nand{ring}"),
                    netlist::CellKind::Nand2,
                    &[a.positive, fb],
                )
                .unwrap();
            nl.add_cell_with_output(format!("fbuf{ring}"), netlist::CellKind::Buf, &[osc], fb)
                .unwrap();
        }

        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        driver.set_event_limit(200);
        // Only lane 1 releases the ring, but the whole word diverges.
        let results = driver.apply_word(&[vec![false], vec![true], vec![false]]);
        assert_eq!(results.len(), 3);
        for result in &results {
            assert!(matches!(result, Err(DualRailError::SimulationDiverged)));
        }
        let after = driver.apply_word(&[vec![false]]);
        assert!(matches!(after[0], Err(DualRailError::SimulationDiverged)));
    }

    /// The sharded sliced entry point: bit-identical to itself across
    /// thread counts and to the rebased streamed reference.
    #[test]
    fn run_workload_sliced_matches_references_at_several_thread_counts() {
        let dr = and_or_circuit();
        let operands = workload(3, 14);
        let expected = rebased_streamed(&dr, &operands);
        let lib = Library::umc_ll();
        for threads in [1, 2, 7] {
            let driver = ParallelProtocolDriver::new(&dr, &lib, threads).unwrap();
            let run = driver.run_workload_sliced(&operands).unwrap();
            assert_eq!(run.results, expected, "threads = {threads}");
            assert_eq!(
                run,
                crate::ParallelProtocolRun::from_results(expected.clone()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn run_workload_sliced_propagates_the_first_error_in_operand_order() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        let mut operands = workload(3, 6);
        operands[3] = vec![true];
        assert!(matches!(
            driver.run_workload_sliced(&operands),
            Err(DualRailError::OperandWidthMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn run_workload_sliced_handles_the_empty_workload() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 3).unwrap();
        let run = driver.run_workload_sliced(&[]).unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.latency.count(), 0);
        assert_eq!(run.done_latency(), Some(gatesim::LatencyReport::default()));
    }

    /// Runs `word` and reports whether the event kernel served it.  An
    /// event-kernel cycle pops events on every live lane and drives
    /// every input on all 64 lanes (the lanes already at their level
    /// count as suppressed schedules); an arrival pass leaves the
    /// simulator and both counters untouched.
    fn served_by_events(
        driver: &mut SlicedProtocolDriver<'_>,
        word: &[Vec<bool>],
    ) -> (Vec<Result<OperandResult, DualRailError>>, bool) {
        let counters =
            |d: &SlicedProtocolDriver<'_>| (d.sim.lane_events(0), d.sim.suppressed_lane_events());
        let before = counters(driver);
        let results = driver.apply_word(word);
        (results, counters(driver) != before)
    }

    fn unwrap_all(results: Vec<Result<OperandResult, DualRailError>>) -> Vec<OperandResult> {
        results.into_iter().map(Result::unwrap).collect()
    }

    /// A healthy word of at most the crossover's live lanes runs on the
    /// arrival kernel; one more live lane moves it to the event kernel.
    /// Both reproduce the scalar reference bit for bit.
    #[test]
    fn healthy_words_up_to_the_crossover_run_the_arrival_kernel() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let operands = workload(3, ARRIVAL_MAX_LANES + 1);
        let expected = rebased_streamed(&dr, &operands);
        let mut driver = word_driver(&dr, &lib);
        for lanes in [1, 2, ARRIVAL_MAX_LANES] {
            let (results, events) = served_by_events(&mut driver, &operands[..lanes]);
            assert!(!events, "{lanes} live lanes run on the arrival kernel");
            assert_eq!(unwrap_all(results), expected[..lanes], "{lanes} lanes");
        }
        let (results, events) = served_by_events(&mut driver, &operands);
        assert!(
            events,
            "more live lanes than the crossover run on the event kernel"
        );
        assert_eq!(unwrap_all(results), expected);
        // The event word returned every lane to the snapshot, so the
        // arrival kernel serves again, and width errors keep their lane.
        let mut mixed = operands[..3].to_vec();
        mixed[1] = vec![true];
        let (results, events) = served_by_events(&mut driver, &mixed);
        assert!(!events);
        assert_eq!(results[0].as_ref().unwrap(), &expected[0]);
        assert!(matches!(
            results[1],
            Err(DualRailError::OperandWidthMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert_eq!(results[2].as_ref().unwrap(), &expected[2]);
        // A word with no live lane leaves the simulator alone, so the
        // next healthy word still runs on the arrival kernel.
        assert!(driver.apply_word(&[vec![true]])[0].is_err());
        let (results, events) = served_by_events(&mut driver, &operands[..1]);
        assert!(!events);
        assert_eq!(unwrap_all(results), expected[..1]);
    }

    /// A circuit that declares its varying inputs serves a word whose
    /// live lanes agree on every held input on a program specialised to
    /// their levels, and any other word on the general one; both match
    /// the scalar reference bit for bit.
    #[test]
    fn words_that_share_their_held_inputs_take_a_specialised_program() {
        let mut dr = and_or_circuit();
        dr.declare_varying_inputs(&["a"]).unwrap();
        let lib = Library::umc_ll();
        let operands = workload(3, 8);
        let expected = rebased_streamed(&dr, &operands);
        // Lane `p` carries `a = p & 1`, `b = p & 2`, `c = p & 4`.
        let same_bc = [4, 5];
        let mixed_bc = [0, 1, 2, 3];
        let mut driver = word_driver(&dr, &lib);
        let mut lane = driver.arrival.take().unwrap();
        let word = |picks: &[usize]| -> Vec<Vec<bool>> {
            picks.iter().map(|&p| operands[p].clone()).collect()
        };
        let specialised = driver.specialised(&mut lane, &word(&same_bc));
        assert!(specialised.is_some());
        assert!(specialised.unwrap().settled_cells() < lane.program.settled_cells());
        assert!(driver.specialised(&mut lane, &word(&mixed_bc)).is_none());
        let mut padded = word(&same_bc);
        padded.insert(0, vec![true]);
        assert!(
            driver.specialised(&mut lane, &padded).is_some(),
            "a lane of the wrong width holds nothing"
        );
        driver.arrival = Some(lane);
        for picks in [&same_bc[..], &mixed_bc, &[6], &[2], &same_bc] {
            let (results, events) = served_by_events(&mut driver, &word(picks));
            assert!(!events, "lanes {picks:?} run on the arrival kernel");
            let expected: Vec<_> = picks.iter().map(|&p| expected[p].clone()).collect();
            assert_eq!(unwrap_all(results), expected, "lanes {picks:?}");
        }
        let (results, _) = served_by_events(&mut driver, &padded);
        assert!(results[0].is_err());
        assert_eq!(results[2].as_ref().unwrap(), &expected[5]);

        // Without the declaration every word takes the general program.
        let plain = and_or_circuit();
        let mut driver = word_driver(&plain, &lib);
        let mut lane = driver.arrival.take().unwrap();
        assert!(driver.specialised(&mut lane, &word(&same_bc)).is_none());
    }

    /// Every event-kernel condition runs the event kernel, with the
    /// same results as the arrival kernel.
    #[test]
    fn instruments_faults_limits_and_horizons_keep_the_event_kernel() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let operands = workload(3, 5);
        let expected = rebased_streamed(&dr, &operands);
        type Install = fn(&mut SlicedProtocolDriver<'_>);
        let conditions: [(&str, Install); 5] = [
            ("an empty fault plan", |d| {
                d.set_fault_plan(&gatesim::FaultPlan::new()).unwrap();
            }),
            ("a wave probe", |d| {
                d.attach_wave_probe(tm_obs::WaveProbe::new(), 0)
            }),
            ("driver metrics", |d| {
                d.attach_metrics(&tm_obs::MetricsRegistry::new(), "t");
            }),
            ("protocol metrics only", |d| {
                let registry = tm_obs::MetricsRegistry::new();
                d.attach_protocol_metrics(tm_obs::ProtocolMetrics::register(&registry, "t"));
            }),
            ("a non-default event limit", |d| {
                d.set_event_limit(1_000_000)
            }),
        ];
        for (name, install) in conditions {
            let mut driver = word_driver(&dr, &lib);
            install(&mut driver);
            let (results, events) = served_by_events(&mut driver, &operands);
            assert!(events, "{name} keeps the event kernel");
            assert_eq!(unwrap_all(results), expected, "{name}");
        }

        // Engine metrics attached to the instance before the driver.
        let program = Arc::new(EngineProgram::new(dr.netlist(), &lib));
        let snapshot = ProtocolDriver::from_program(&dr, Arc::clone(&program))
            .unwrap()
            .quiescent_snapshot();
        let mut sim = SlicedSimulator::from_program(program);
        sim.attach_metrics_deferred(tm_obs::SimMetrics::register(
            &tm_obs::MetricsRegistry::new(),
            "t",
        ));
        let mut driver =
            SlicedProtocolDriver::from_sliced_simulator(&dr, sim, snapshot, true).unwrap();
        let (results, events) = served_by_events(&mut driver, &operands);
        assert!(events, "engine metrics keep the event kernel");
        assert_eq!(unwrap_all(results), expected);

        // A horizon past every pop leaves the arrival kernel in place; one
        // before the last pop of the cycle sends the word to the event
        // kernel, which reports the watchdog.
        let longest = expected
            .iter()
            .map(|r| r.cycle_time_ps - r.v_to_s_latency_ps)
            .fold(0.0, f64::max);
        let mut driver = word_driver(&dr, &lib);
        driver.set_time_horizon_ps(1.0e6);
        let (results, events) = served_by_events(&mut driver, &operands);
        assert!(!events, "a distant horizon keeps the arrival kernel");
        assert_eq!(unwrap_all(results), expected);
        let mut driver = word_driver(&dr, &lib);
        driver.set_time_horizon_ps(longest / 2.0);
        let (results, events) = served_by_events(&mut driver, &operands);
        assert!(events, "a pop past the horizon runs the event kernel");
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(DualRailError::SimulationDiverged))));
    }

    /// A lane that fails a check sends its whole word to the event
    /// kernel, which reports the typed error; the next healthy word is
    /// back on the arrival kernel.
    #[test]
    fn a_lane_failing_a_check_reruns_the_word_on_the_event_kernel() {
        // `y` copies `a` on its positive rail but ties its negative rail
        // low, so `a = 0` leaves `y` at the spacer: a protocol violation.
        let mut dr = DualRailNetlist::new("half");
        let a = dr.add_dual_input("a");
        let low = dr
            .netlist_mut()
            .add_cell("low", netlist::CellKind::Tie0, &[])
            .unwrap();
        let y = crate::DualRailSignal::new(a.positive, low, crate::SpacerPolarity::AllZero);
        dr.add_dual_output("y", y);
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let mut reference = word_driver(&dr, &lib);
        reference.set_event_limit(1_000_000);

        let (results, events) = served_by_events(&mut driver, &[vec![true], vec![false]]);
        assert!(events, "a failing lane reruns the word on the event kernel");
        assert!(matches!(
            results[1],
            Err(DualRailError::ProtocolViolation { .. })
        ));
        assert_eq!(results, reference.apply_word(&[vec![true], vec![false]]));
        let (results, events) = served_by_events(&mut driver, &[vec![true]]);
        assert!(!events, "healthy words return to the arrival kernel");
        assert_eq!(results, reference.apply_word(&[vec![true]]));
    }

    /// A circuit the arrival compile rejects stays on the event kernel.
    #[test]
    fn a_circuit_without_an_arrival_program_keeps_the_event_kernel() {
        let mut dr = DualRailNetlist::new("xor");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let x = dr.xor2("x", a, b).unwrap();
        dr.add_dual_output("x", x);
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        assert!(driver
            .sim
            .program()
            .arrival_program(&driver.snapshot)
            .is_ok());
        // Mixing a rail through an XOR makes the netlist non-monotone.
        let mut bad = DualRailNetlist::new("bad");
        let a = bad.add_dual_input("a");
        let b = bad.add_dual_input("b");
        let p = bad
            .netlist_mut()
            .add_cell("x", netlist::CellKind::Xor2, &[a.positive, b.positive])
            .unwrap();
        let n = bad
            .netlist_mut()
            .add_cell("n", netlist::CellKind::And2, &[a.negative, b.negative])
            .unwrap();
        bad.add_dual_output(
            "y",
            crate::DualRailSignal::new(p, n, crate::SpacerPolarity::AllZero),
        );
        let mut bad_driver = word_driver(&bad, &lib);
        assert!(matches!(
            bad_driver
                .sim
                .program()
                .arrival_program(&bad_driver.snapshot),
            Err(gatesim::ArrivalCompileError::NonMonotone { .. })
        ));
        let (_, events) = served_by_events(&mut bad_driver, &[vec![true, false]]);
        assert!(events);
        let (results, events) = served_by_events(&mut driver, &workload(2, 4));
        assert!(!events);
        assert_eq!(unwrap_all(results), rebased_streamed(&dr, &workload(2, 4)));
    }

    /// The tie the arrival pass cannot order: `z = a | b` moves one OR
    /// delay after the inputs, exactly when `y = a | z` pops the move
    /// `a` scheduled (both ORs drive one load, so their delays are the
    /// same `f64`).  The word falls back and matches the event kernel
    /// bit for bit, `cycle_time_ps` included.
    #[test]
    fn an_input_arriving_as_its_output_event_pops_falls_back() {
        let mut dr = DualRailNetlist::new("tie");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let z = dr.or2("z", a, b).unwrap();
        let y = dr.or2("y", a, z).unwrap();
        dr.add_dual_output("y", y);
        let lib = Library::umc_ll();
        let mut driver = word_driver(&dr, &lib);
        let arrival = driver
            .sim
            .program()
            .arrival_program(&driver.snapshot)
            .unwrap();
        let mut run = arrival.new_run();
        assert_eq!(
            arrival.run_cycle(&[a.positive, b.positive], &mut run),
            Err(gatesim::ArrivalTie { net: y.positive })
        );
        let operands = vec![vec![true, true], vec![false, true], vec![true, false]];
        let mut reference = word_driver(&dr, &lib);
        reference.attach_metrics(&tm_obs::MetricsRegistry::new(), "t");
        let expected = reference.apply_word(&operands);
        let (results, events) = served_by_events(&mut driver, &operands);
        assert!(events, "a tied word runs on the event kernel");
        assert_eq!(results, expected);
        assert_eq!(unwrap_all(results), rebased_streamed(&dr, &operands));
        // With `a` low and `b` high, `y` waits for `z` and nothing ties
        // (with both low, the negative rails tie on the way back): the
        // word stays on the arrival kernel.
        let untied = vec![vec![false, true]];
        let (results, events) = served_by_events(&mut driver, &untied);
        assert!(!events);
        assert_eq!(unwrap_all(results), rebased_streamed(&dr, &untied));
    }

    /// The robustness story's core claim, 64-wide driver: a stuck-at on
    /// the completion tree is detected in *every lane* as a typed error
    /// — `done` stuck low breaks the word's rising handshake, and a
    /// forged output rail raises an illegal codeword in the lanes whose
    /// operand makes the forbidden both-rails-high state reachable.
    /// Never a hang, never a silently wrong answer.
    #[test]
    fn stuck_at_on_the_completion_tree_is_detected_in_every_lane() {
        let dr = and_or_circuit();
        let done = dr.done().expect("completion inserted");
        let lib = Library::umc_ll();

        let mut driver = word_driver(&dr, &lib);
        driver.set_time_horizon_ps(1.0e6);
        driver
            .set_fault_plan(&gatesim::FaultPlan::new().stuck_at(done, false))
            .unwrap();
        let results = driver.apply_word(&workload(3, 5));
        assert_eq!(results.len(), 5);
        for (lane, result) in results.iter().enumerate() {
            assert!(
                matches!(
                    result,
                    Err(DualRailError::ProtocolViolation { .. }
                        | DualRailError::IllegalCodeword { .. }
                        | DualRailError::SimulationDiverged)
                ),
                "lane {lane}: stuck-at-0 on done must be detected, got {result:?}"
            );
        }

        // A forged observed rail: lanes computing y = 1 see the
        // forbidden codeword; every other lane still fails the spacer
        // phase (the stuck rail never returns to zero).
        let negative_rail = dr.dual_outputs()[0].1.negative;
        let mut driver = word_driver(&dr, &lib);
        driver.set_time_horizon_ps(1.0e6);
        driver
            .set_fault_plan(&gatesim::FaultPlan::new().stuck_at(negative_rail, true))
            .unwrap();
        // Operand 3 = [t, t, f] computes y = 1; operand 0 computes 0.
        let results = driver.apply_word(&workload(3, 4));
        assert!(
            matches!(&results[3], Err(DualRailError::IllegalCodeword { output, .. }) if output == "y"),
            "forged rail with y = 1 must decode as illegal, got {:?}",
            results[3]
        );
        for (lane, result) in results.iter().enumerate() {
            assert!(
                result.is_err(),
                "lane {lane}: the forged rail must never pass silently, got {result:?}"
            );
        }
    }
}
