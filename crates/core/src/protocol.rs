//! The four-phase dual-rail handshake environment.
//!
//! [`ProtocolDriver`] wraps the event-driven simulator and exercises a
//! [`DualRailNetlist`] exactly the way the paper's testbench does:
//!
//! 1. with all inputs at spacer, apply a valid codeword to every input
//!    (Requirement 1: monotonic switching at the primary inputs);
//! 2. wait for every observed output (and `done`, if present) to become
//!    valid, recording the **spacer→valid latency** — the paper's
//!    headline latency metric;
//! 3. return all inputs to spacer (Requirement 6 is honoured because the
//!    outputs were seen valid first);
//! 4. wait for every output to return to spacer, recording the
//!    **valid→spacer reset time**; internal nets are given their grace
//!    period simply by waiting for simulation quiescence (Requirement 4).
//!
//! The driver additionally checks protocol invariants along the way:
//! outputs must never enter the forbidden state, and during each phase
//! every observed rail may switch at most once (monotonic switching,
//! Requirement 2/3).
//!
//! # The reset-phase sharding contract
//!
//! Four-phase circuits are sequential (C-element latches, completion
//! trees), but the protocol itself restores history independence: every
//! cycle ends in the all-spacer quiescent state, where each C-element
//! has seen all-zero inputs and reset.  A driver switched into
//! **contract mode** ([`ProtocolDriver::enable_reset_contract`]) turns
//! that argument into a checked invariant — each operand cycle is
//! rebased to time zero with per-operand activity counters, and after
//! every return-to-zero phase [`ProtocolDriver::verify_spacer_state`]
//! compares the settled state of *every* net against the canonical
//! quiescent snapshot, failing loudly on the first mismatch.  Under the
//! verified contract, per-operand results are a pure function of the
//! operand, which is what lets [`crate::ParallelProtocolDriver`] shard
//! an operand stream across replicated drivers with results
//! bit-identical to streaming.

use std::sync::Arc;

use celllib::Library;
use gatesim::{EngineProgram, FaultPlan, Logic, Simulator};
use netlist::NetId;
use sta::GracePeriod;

use crate::{DualRailError, DualRailNetlist, DualRailValue, OneOfNValue};

/// Decoded primary outputs of one protocol cycle: the dual-rail output
/// bits in declaration order, plus each 1-of-n group's name and active
/// index.
pub(crate) type DecodedOutputs = (Vec<bool>, Vec<(String, usize)>);

/// Rounds a picosecond duration to the whole-ps integer the histogram
/// instruments record (phase durations are non-negative by protocol).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn whole_ps(ps: f64) -> u64 {
    ps.round().max(0.0) as u64
}

/// Measurements and decoded results for one operand (one full
/// valid/spacer cycle).
#[derive(Clone, Debug, PartialEq)]
pub struct OperandResult {
    /// Decoded dual-rail outputs, in declaration order.
    pub outputs: Vec<bool>,
    /// Decoded 1-of-n outputs (name, selected index), in declaration
    /// order.
    pub one_of_n: Vec<(String, usize)>,
    /// Time from applying the valid codeword until the last observed
    /// output became valid, in picoseconds.
    pub s_to_v_latency_ps: f64,
    /// Time from the valid codeword until `done` rose (if completion
    /// detection is present).
    pub done_latency_ps: Option<f64>,
    /// Time from applying the spacer until the last observed output
    /// returned to spacer, in picoseconds.
    pub v_to_s_latency_ps: f64,
    /// Total wall-clock time of the full valid + spacer cycle.
    pub cycle_time_ps: f64,
    /// Probe signals ([`DualRailNetlist::declare_probe`]) decoded at the
    /// end of the valid phase, in declaration order.  Probes carry no
    /// protocol obligations, so a probe may read as a spacer or even the
    /// forbidden state without failing the cycle.
    pub probes: Vec<(String, DualRailValue)>,
}

/// Drives a dual-rail netlist through four-phase cycles on the
/// event-driven simulator.  See the [crate-level example](crate).
#[derive(Debug)]
pub struct ProtocolDriver<'a> {
    circuit: &'a DualRailNetlist,
    sim: Simulator<'a>,
    grace: Option<GracePeriod>,
    check_monotonic: bool,
    /// Canonical quiescent snapshot of every net; `Some` switches the
    /// driver into the reset-phase sharding contract (per-operand time
    /// rebasing + per-cycle spacer-state verification).
    reset_contract: Option<Arc<[Logic]>>,
    /// Rebase the clock again between the valid and the spacer phase,
    /// so phase-2 event timestamps are computed in a zero-based frame
    /// (see [`ProtocolDriver::enable_phase_rebase`]).
    phase_rebase: bool,
    /// Protocol-level instrument set; `None` (the default) keeps the
    /// cycle loop free of metrics work.
    metrics: Option<Box<tm_obs::ProtocolMetrics>>,
}

impl<'a> ProtocolDriver<'a> {
    /// Creates a driver, computes the static grace period for the
    /// circuit and initialises all inputs to the spacer state.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the circuit fails
    /// to settle during initialisation; timing analysis failures are
    /// tolerated (the grace period is then unavailable).
    pub fn new(circuit: &'a DualRailNetlist, library: &Library) -> Result<Self, DualRailError> {
        let observed = circuit.observed_output_nets();
        let grace = GracePeriod::compute(circuit.netlist(), library, &observed).ok();
        let mut driver = Self::from_simulator(circuit, Simulator::new(circuit.netlist(), library))?;
        driver.grace = grace;
        Ok(driver)
    }

    /// Creates a driver over a shared engine compilation
    /// ([`gatesim::EngineProgram`]), allocating only this driver's
    /// mutable simulator state — the replication primitive behind
    /// [`crate::ParallelProtocolDriver`].  No timing analysis is run
    /// (the program carries no library), so
    /// [`ProtocolDriver::grace_period`] is unavailable; use
    /// [`ProtocolDriver::new`] when the grace period matters.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the circuit
    /// fails to settle during initialisation.
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from this circuit's netlist.
    pub fn from_program(
        circuit: &'a DualRailNetlist,
        program: Arc<EngineProgram<'a>>,
    ) -> Result<Self, DualRailError> {
        Self::from_simulator(circuit, Simulator::from_program(program))
    }

    /// Creates a driver around an existing simulator instance (fresh or
    /// replicated from a shared program) and initialises all inputs to
    /// the spacer state.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the circuit
    /// fails to settle during initialisation, or
    /// [`DualRailError::StaticVerification`] if an installed pre-flight
    /// verifier ([`crate::preflight`]) rejects the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `sim` does not simulate this circuit's netlist.
    pub fn from_simulator(
        circuit: &'a DualRailNetlist,
        sim: Simulator<'a>,
    ) -> Result<Self, DualRailError> {
        assert!(
            std::ptr::eq(sim.netlist(), circuit.netlist()),
            "the simulator must run this circuit's netlist"
        );
        crate::preflight::run(circuit)?;
        let mut driver = Self {
            circuit,
            sim,
            grace: None,
            check_monotonic: true,
            reset_contract: None,
            phase_rebase: false,
            metrics: None,
        };
        driver.drive_spacer();
        if !driver.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        Ok(driver)
    }

    /// Snapshot of every settled net value — the canonical quiescent
    /// state a reset-phase contract verifies against.  Meaningful right
    /// after construction or after any fully settled spacer phase.
    #[must_use]
    pub fn quiescent_snapshot(&self) -> Arc<[Logic]> {
        Arc::from(self.sim.net_values())
    }

    /// Switches the driver into the **reset-phase sharding contract**
    /// (see the [module documentation](self)): every operand cycle is
    /// rebased to time zero with per-operand activity counters, and
    /// after each return-to-zero phase the settled state of every net is
    /// verified against `snapshot`
    /// ([`ProtocolDriver::verify_spacer_state`]).
    ///
    /// In contract mode [`ProtocolDriver::total_transitions`],
    /// [`ProtocolDriver::now_ps`] and
    /// [`ProtocolDriver::activity_profile`] cover the **current operand
    /// only** — per-operand figures are the point of the contract: they
    /// make every measurement independent of where an operand sits in
    /// the stream.
    pub fn enable_reset_contract(&mut self, snapshot: Arc<[Logic]>) {
        self.reset_contract = Some(snapshot);
    }

    /// Rebases the simulator clock a second time **between the valid
    /// and the spacer phase**, so the return-to-zero phase also runs in
    /// a zero-based time frame.
    ///
    /// This is a refinement of the reset-phase sharding contract: with
    /// both phases rebased, every event timestamp the driver ever reads
    /// is a small phase-relative number, which is exactly the timebase
    /// the bit-sliced word driver ([`crate::SlicedProtocolDriver`])
    /// uses — lanes of one word share a queue and therefore a clock, so
    /// each phase must start from zero for per-lane settle times to be
    /// comparable across drivers.  Enable it on a streamed scalar driver
    /// when its measurements must be **bit-identical** to the sliced
    /// engine's.
    ///
    /// Decoded outputs, probes, `s_to_v_latency_ps` and
    /// `done_latency_ps` are unaffected (phase 1 already starts at time
    /// zero in contract mode).  `v_to_s_latency_ps` and `cycle_time_ps`
    /// are mathematically unchanged — the spacer-phase offset is
    /// subtracted before instead of after the event-time maximum — but
    /// floating-point addition is not associative, so they may differ
    /// from the plain contract driver's figures in the last ULPs.
    pub fn enable_phase_rebase(&mut self) {
        self.phase_rebase = true;
    }

    /// Verifies the current settled state against the contract's
    /// quiescent snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SpacerStateMismatch`] naming the first
    /// diverging net.  Does nothing (trivially `Ok`) when no contract is
    /// enabled.
    ///
    /// # Panics
    ///
    /// Panics if the contract snapshot does not have one value per net
    /// (a snapshot taken from another circuit: a caller bug).
    pub fn verify_spacer_state(&self) -> Result<(), DualRailError> {
        let Some(snapshot) = &self.reset_contract else {
            return Ok(());
        };
        let current = self.sim.net_values();
        assert_eq!(
            snapshot.len(),
            current.len(),
            "snapshot covers {} nets but the netlist has {}",
            snapshot.len(),
            current.len()
        );
        match current
            .iter()
            .zip(snapshot.iter())
            .position(|(c, s)| c != s)
        {
            None => Ok(()),
            Some(i) => Err(DualRailError::SpacerStateMismatch {
                description: format!(
                    "net {} settled to {:?} after the return-to-zero phase but the \
                     quiescent snapshot holds {:?}; the post-cycle state depends \
                     on operand history, so this circuit cannot be sharded",
                    NetId::from_index(i),
                    current[i],
                    snapshot[i]
                ),
            }),
        }
    }

    /// Disables the per-phase monotonicity check (useful for ablation
    /// experiments that intentionally violate the methodology).
    pub fn set_monotonicity_check(&mut self, enabled: bool) {
        self.check_monotonic = enabled;
    }

    /// Caps the events processed per settle phase, bounding how long
    /// divergence (oscillation) takes to surface as
    /// [`DualRailError::SimulationDiverged`]; see
    /// [`gatesim::Simulator::set_event_limit`].
    pub fn set_event_limit(&mut self, limit: u64) {
        self.sim.set_event_limit(limit);
    }

    /// Bounds each settle phase by **simulated time** as well: events
    /// past `horizon_ps` (per rebased time frame) are left unprocessed
    /// and the phase reports divergence — the watchdog that keeps a
    /// faulted handshake from spinning the event loop until the (much
    /// larger) event limit.  See
    /// [`gatesim::Simulator::set_time_horizon_ps`].
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        self.sim.set_time_horizon_ps(horizon_ps);
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Attaches the full dual-rail instrument set, registering
    /// `"<prefix>.protocol.*"` (cycles, phase-duration histograms,
    /// spacer verifications) and `"<prefix>.sim.*"` (the underlying
    /// event engine's [`tm_obs::SimMetrics`]) in `registry`.
    ///
    /// Registration is idempotent: replicated shard drivers attach to
    /// the **same** registry under the **same** prefix and their
    /// commutative counter adds reduce to bit-identical snapshots at
    /// any thread count.
    pub fn attach_metrics(&mut self, registry: &tm_obs::MetricsRegistry, prefix: &str) {
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
    /// The driver reverts to the zero-overhead disabled mode.
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
        self.sim.detach_metrics();
    }

    /// Whether an instrument set is currently attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.metrics.is_some()
    }

    /// The attached protocol instrument set, if any (the pipelined
    /// driver records stall slices through it).
    pub(crate) fn protocol_metrics(&self) -> Option<&tm_obs::ProtocolMetrics> {
        self.metrics.as_deref()
    }

    /// Attaches **only** the protocol-level handles — the sharded
    /// runner's worker path, where the engine-level instruments are
    /// already attached by the parallel harness at simulator
    /// construction.
    pub(crate) fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics) {
        self.metrics = Some(Box::new(handles));
    }

    /// Installs a [`tm_obs::WaveProbe`] on the underlying simulator;
    /// every transition of a watched net is recorded in simulated
    /// picoseconds.  Contract-mode time rebasing is handled for you —
    /// the probe's timeline stays monotonic across operand cycles.
    pub fn attach_wave_probe(&mut self, probe: tm_obs::WaveProbe) {
        self.sim.attach_wave_probe(probe);
    }

    /// Removes and returns the installed wave probe, if any.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.sim.take_wave_probe()
    }

    /// Builds a [`tm_obs::WaveProbe`] pre-wired to this circuit's
    /// protocol surface: every dual-rail primary output as a 2-bit
    /// codeword vector (`b00` spacer, `b10` → 1, `b01` → 0), every
    /// 1-of-n group rail as a scalar wire, and the completion `done`
    /// net when present.  Pass the result to
    /// [`ProtocolDriver::attach_wave_probe`].
    #[must_use]
    pub fn output_wave_probe(&self) -> tm_obs::WaveProbe {
        let mut probe = tm_obs::WaveProbe::new();
        for (name, signal) in self.circuit.dual_outputs() {
            probe.watch_pair(name, signal.positive.index(), signal.negative.index());
        }
        for (name, wires) in self.circuit.one_of_n_outputs() {
            for (i, wire) in wires.iter().enumerate() {
                probe.watch_bit(&format!("{name}_{i}"), wire.index());
            }
        }
        if let Some(done) = self.circuit.done() {
            probe.watch_bit("done", done.index());
        }
        probe
    }

    /// Installs a gate-level [`FaultPlan`] (stuck-at, SEU, delay
    /// perturbation) on this driver's private simulator instance — the
    /// shared engine compilation is untouched — and re-settles the
    /// circuit so the faulted quiescent state is established before the
    /// next operand.
    ///
    /// If the reset-phase contract is enabled, its quiescent snapshot
    /// is re-captured from the *faulted* settled state: a stuck-at
    /// fault legitimately changes the quiescent state, and verifying
    /// against the pre-fault snapshot would misreport every cycle as a
    /// contract violation instead of letting the protocol checks
    /// classify the fault.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot reach quiescence within the watchdog bounds.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), DualRailError> {
        self.sim.set_fault_plan(plan);
        if !self.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        if self.reset_contract.is_some() {
            self.reset_contract = Some(self.quiescent_snapshot());
        }
        Ok(())
    }

    /// The statically computed grace period, if timing analysis
    /// succeeded.
    #[must_use]
    pub fn grace_period(&self) -> Option<&GracePeriod> {
        self.grace.as_ref()
    }

    /// Total cell output transitions recorded so far (for power
    /// accounting).
    #[must_use]
    pub fn total_transitions(&self) -> u64 {
        self.sim.total_cell_transitions()
    }

    /// Current simulation time in picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> f64 {
        self.sim.now_ps()
    }

    /// Builds an activity profile over the elapsed simulated time.
    ///
    /// # Panics
    ///
    /// Panics if no simulated time has elapsed yet.
    #[must_use]
    pub fn activity_profile(&self) -> celllib::ActivityProfile {
        self.sim.activity_profile(self.sim.now_ps())
    }

    /// The circuit this driver exercises (for sibling drivers in this
    /// crate that layer a different schedule over the same helpers).
    pub(crate) fn circuit(&self) -> &'a DualRailNetlist {
        self.circuit
    }

    /// Shared read access to the underlying simulator instance.
    pub(crate) fn sim(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Mutable access to the underlying simulator instance — the
    /// wavefront-pipelined driver steps it slice by slice instead of
    /// settling whole phases.
    pub(crate) fn sim_mut(&mut self) -> &mut Simulator<'a> {
        &mut self.sim
    }

    /// Whether the per-phase monotonicity check is enabled.
    pub(crate) fn monotonicity_check(&self) -> bool {
        self.check_monotonic
    }

    /// The optional request input: circuits with C-element input latches
    /// expose a primary input named `req` which the environment asserts
    /// together with valid data and deasserts together with the spacer.
    pub(crate) fn request_input(&self) -> Option<NetId> {
        self.circuit
            .netlist()
            .find_net("req")
            .filter(|&n| self.circuit.netlist().is_primary_input(n))
    }

    pub(crate) fn drive_spacer(&mut self) {
        if let Some(req) = self.request_input() {
            self.sim.set_input(req, Logic::Zero);
        }
        for (_, signal) in self.circuit.dual_inputs() {
            let (p, n) = DualRailValue::encode_spacer(signal.polarity);
            self.sim.set_input(signal.positive, Logic::from(p));
            self.sim.set_input(signal.negative, Logic::from(n));
        }
    }

    pub(crate) fn drive_valid(&mut self, bits: &[bool]) {
        if let Some(req) = self.request_input() {
            self.sim.set_input(req, Logic::One);
        }
        for ((_, signal), &bit) in self.circuit.dual_inputs().iter().zip(bits) {
            let (p, n) = DualRailValue::encode_valid(bit, signal.polarity);
            self.sim.set_input(signal.positive, Logic::from(p));
            self.sim.set_input(signal.negative, Logic::from(n));
        }
    }

    pub(crate) fn decode_outputs(&self) -> Result<DecodedOutputs, DualRailError> {
        let mut outputs = Vec::new();
        for (name, signal) in self.circuit.dual_outputs() {
            let value = DualRailValue::decode(
                self.sim.value(signal.positive),
                self.sim.value(signal.negative),
                signal.polarity,
            );
            match value {
                DualRailValue::Valid(bit) => outputs.push(bit),
                DualRailValue::Forbidden => {
                    return Err(DualRailError::IllegalCodeword {
                        output: name.clone(),
                        description: "both rails are active when a valid codeword was expected"
                            .to_string(),
                    })
                }
                other => {
                    return Err(DualRailError::ProtocolViolation {
                        description: format!(
                            "output {name:?} is {other:?} when a valid codeword was expected"
                        ),
                    })
                }
            }
        }
        let mut groups = Vec::new();
        for (name, wires) in self.circuit.one_of_n_outputs() {
            let values: Vec<Logic> = wires.iter().map(|&w| self.sim.value(w)).collect();
            match OneOfNValue::decode(&values) {
                OneOfNValue::Valid(index) => groups.push((name.clone(), index)),
                OneOfNValue::Forbidden => {
                    return Err(DualRailError::IllegalCodeword {
                        output: name.clone(),
                        description:
                            "more than one 1-of-n wire is active when a valid codeword was expected"
                                .to_string(),
                    })
                }
                other => {
                    return Err(DualRailError::ProtocolViolation {
                        description: format!(
                            "1-of-n output {name:?} is {other:?} when a valid codeword was expected"
                        ),
                    })
                }
            }
        }
        Ok((outputs, groups))
    }

    pub(crate) fn check_outputs_at_spacer(&self) -> Result<(), DualRailError> {
        for (name, signal) in self.circuit.dual_outputs() {
            let value = DualRailValue::decode(
                self.sim.value(signal.positive),
                self.sim.value(signal.negative),
                signal.polarity,
            );
            if value == DualRailValue::Forbidden {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description: "both rails are active after the spacer phase".to_string(),
                });
            }
            if value != DualRailValue::Spacer {
                return Err(DualRailError::ProtocolViolation {
                    description: format!("output {name:?} is {value:?} after the spacer phase"),
                });
            }
        }
        for (name, wires) in self.circuit.one_of_n_outputs() {
            let values: Vec<Logic> = wires.iter().map(|&w| self.sim.value(w)).collect();
            if OneOfNValue::decode(&values) != OneOfNValue::Spacer {
                return Err(DualRailError::ProtocolViolation {
                    description: format!("1-of-n output {name:?} did not return to spacer"),
                });
            }
        }
        Ok(())
    }

    /// Elapsed time from `since_ps` to the latest change any of `nets`
    /// made at or after `since_ps`, or `None` if none of them moved.
    /// Changes recorded before `since_ps` — e.g. a net that last
    /// switched in a *previous* cycle — never count: reporting a stale
    /// timestamp as this phase's latency was exactly the
    /// `done_latency_ps` staleness bug.
    pub(crate) fn latest_change_since(&self, nets: &[NetId], since_ps: f64) -> Option<f64> {
        nets.iter()
            .filter_map(|&n| self.sim.last_change_ps(n))
            .filter(|&t| t >= since_ps)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |best| best.max(t)))
            })
            .map(|t| t - since_ps)
    }

    fn check_monotonic_phase(
        &self,
        nets: &[NetId],
        transitions_before: &[u64],
    ) -> Result<(), DualRailError> {
        if !self.check_monotonic {
            return Ok(());
        }
        for (i, &net) in nets.iter().enumerate() {
            // Saturate rather than subtract: if the transition counters
            // are ever rebased between the snapshot and this check
            // (contract mode clears them per operand), a plain
            // subtraction would underflow and panic in debug builds.
            let delta = self
                .sim
                .net_transitions(net)
                .saturating_sub(transitions_before[i]);
            if delta > 1 {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {net} switched {delta} times in one phase (non-monotonic)"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Runs one full four-phase cycle with the given operand bits (one
    /// bit per dual-rail input, in declaration order) and returns the
    /// decoded outputs and latency measurements.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::OperandWidthMismatch`] for a wrong-sized
    /// operand, [`DualRailError::SimulationDiverged`] if the circuit
    /// oscillates, and [`DualRailError::ProtocolViolation`] if an output
    /// misbehaves (forbidden codeword, missing valid/spacer phase,
    /// non-monotonic switching).
    pub fn apply_operand(&mut self, bits: &[bool]) -> Result<OperandResult, DualRailError> {
        let expected = self.circuit.input_count();
        if bits.len() != expected {
            return Err(DualRailError::OperandWidthMismatch {
                expected,
                got: bits.len(),
            });
        }

        // Contract mode: rebase the cycle to time zero and start the
        // activity counters fresh *before* any snapshot is taken, so
        // every measurement below is a pure function of the operand —
        // identical no matter which driver instance runs it or how many
        // operands that instance has already processed.
        if self.reset_contract.is_some() {
            // A previous cycle that diverged (event limit) leaves its
            // unprocessed tail in the queue; rebasing the clock under it
            // would panic.  Report the instance as diverged instead —
            // it no longer sits in any quiescent state.
            if self.sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            self.sim.clear_activity();
            self.sim.reset_time();
        }

        let observed = self.circuit.observed_output_nets();
        let transitions_before: Vec<u64> = observed
            .iter()
            .map(|&n| self.sim.net_transitions(n))
            .collect();

        // Phase 1: spacer -> valid.
        let t0 = self.sim.now_ps();
        self.drive_valid(bits);
        if !self.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        let (outputs, one_of_n) = self.decode_outputs()?;
        let probes = self.decode_probes();
        let s_to_v_latency_ps = self.latest_change_since(&observed, t0).unwrap_or(0.0);
        // `done` must have *moved* this cycle to count: a `done` net
        // that was already high before `t0` (stale from an earlier
        // cycle) used to report `last_change - t0` — a bogus
        // non-positive latency.
        let done_latency_ps = self
            .circuit
            .done()
            .filter(|&done| self.sim.value(done).is_one())
            .and_then(|done| self.latest_change_since(&[done], t0));
        if let Some(done) = self.circuit.done() {
            if !self.sim.value(done).is_one() {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to rise after a valid codeword".to_string(),
                });
            }
        }
        self.check_monotonic_phase(&observed, &transitions_before)?;

        // Phase 2: valid -> spacer (return-to-zero).
        let transitions_mid: Vec<u64> = observed
            .iter()
            .map(|&n| self.sim.net_transitions(n))
            .collect();
        let t1 = self.sim.now_ps();
        // Phase rebase: restart the clock so the spacer phase runs in a
        // zero-based frame, matching the sliced word driver's timebase.
        // Timestamps a net kept from phase 1 shift to <= 0, so the
        // `since 0.0` filter below admits at most a stale exactly-0.0
        // entry, which contributes a harmless 0.0 to the maximum — the
        // same `unwrap_or(0.0)` floor the plain path applies.
        let spacer_since = if self.phase_rebase {
            self.sim.reset_time();
            0.0
        } else {
            t1
        };
        self.drive_spacer();
        if !self.sim.run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        self.check_outputs_at_spacer()?;
        if let Some(done) = self.circuit.done() {
            if !self.sim.value(done).is_zero() {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to fall after the spacer phase".to_string(),
                });
            }
        }
        let v_to_s_latency_ps = self
            .latest_change_since(&observed, spacer_since)
            .unwrap_or(0.0);
        self.check_monotonic_phase(&observed, &transitions_mid)?;
        // Contract mode: the cycle must have returned every net to the
        // canonical quiescent state, or sharding would change results.
        self.verify_spacer_state()?;

        let cycle_time_ps = if self.phase_rebase {
            (t1 - t0) + self.sim.now_ps()
        } else {
            self.sim.now_ps() - t0
        };
        if let Some(metrics) = self.metrics.as_deref() {
            metrics.cycles.inc();
            metrics
                .spacer_to_valid_ps
                .record(whole_ps(s_to_v_latency_ps));
            metrics
                .valid_to_spacer_ps
                .record(whole_ps(v_to_s_latency_ps));
            if self.reset_contract.is_some() {
                metrics.spacer_verify_passes.inc();
            }
        }
        Ok(OperandResult {
            outputs,
            one_of_n,
            s_to_v_latency_ps,
            done_latency_ps,
            v_to_s_latency_ps,
            cycle_time_ps,
            probes,
        })
    }

    /// Decodes every declared probe signal at the current (settled
    /// valid) state.  Probes carry no protocol obligations, so any
    /// codeword — including spacer and forbidden — is recorded as-is.
    pub(crate) fn decode_probes(&self) -> Vec<(String, DualRailValue)> {
        self.circuit
            .probes()
            .iter()
            .map(|(name, signal)| {
                let value = DualRailValue::decode(
                    self.sim.value(signal.positive),
                    self.sim.value(signal.negative),
                    signal.polarity,
                );
                (name.clone(), value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReducedCompletion;

    fn and_or_circuit() -> DualRailNetlist {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let c = dr.add_dual_input("c");
        let ab = dr.and2("ab", a, b).unwrap();
        let y = dr.or2("y", ab, c).unwrap();
        dr.add_dual_output("y", y);
        dr
    }

    #[test]
    fn operand_cycle_produces_correct_output_and_latencies() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        for (bits, expected) in [
            (vec![true, true, false], true),
            (vec![true, false, false], false),
            (vec![false, false, true], true),
            (vec![false, false, false], false),
        ] {
            let result = driver.apply_operand(&bits).unwrap();
            assert_eq!(result.outputs, vec![expected], "bits {bits:?}");
            assert!(result.s_to_v_latency_ps > 0.0);
            assert!(result.v_to_s_latency_ps > 0.0);
            assert!(result.cycle_time_ps >= result.s_to_v_latency_ps + result.v_to_s_latency_ps);
        }
    }

    #[test]
    fn early_propagation_gives_operand_dependent_latency() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        // c=1 resolves the OR directly: one gate of latency.
        let fast = driver.apply_operand(&[false, false, true]).unwrap();
        // a=b=1, c=0 must wait for the AND then the OR: two gates.
        let slow = driver.apply_operand(&[true, true, false]).unwrap();
        assert!(
            slow.s_to_v_latency_ps > fast.s_to_v_latency_ps,
            "expected operand-dependent latency (early propagation)"
        );
    }

    #[test]
    fn done_signal_rises_and_falls_with_completion_detection() {
        let mut dr = and_or_circuit();
        ReducedCompletion::insert(&mut dr).unwrap();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        let result = driver.apply_operand(&[true, true, true]).unwrap();
        let done_latency = result.done_latency_ps.expect("done present");
        assert!(done_latency >= result.s_to_v_latency_ps);
    }

    #[test]
    fn wrong_operand_width_is_rejected() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        assert!(matches!(
            driver.apply_operand(&[true]),
            Err(DualRailError::OperandWidthMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    /// Regression (done-latency staleness): a `done` net that was
    /// already high before this cycle's `t0` — its last change predates
    /// the cycle — must report `None`, not the bogus non-positive
    /// latency `last_change - t0` the old fallback produced.
    #[test]
    fn stale_done_reports_none_not_a_negative_latency() {
        let mut dr = and_or_circuit();
        let tie = dr
            .netlist_mut()
            .add_cell("tie", netlist::CellKind::Tie1, &[])
            .unwrap();
        dr.set_done(tie);
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();

        // After initialisation `done` is high, but its only change (the
        // tie cell firing) happened before any operand was applied.
        let t0 = driver.sim.now_ps();
        assert!(driver.sim.value(tie).is_one());
        let stale = driver.sim.last_change_ps(tie).unwrap();
        assert!(stale < t0, "the tie fired strictly before the cycle");
        assert_eq!(
            driver.latest_change_since(&[tie], t0),
            None,
            "a net that did not move since t0 must not report a latency"
        );

        // The full cycle still fails loudly — a done that never falls is
        // a protocol violation — rather than fabricating a measurement.
        assert!(matches!(
            driver.apply_operand(&[true, true, false]),
            Err(DualRailError::ProtocolViolation { .. })
        ));
    }

    /// Regression (monotonic-check underflow): rebasing the transition
    /// counters between a phase snapshot and the phase check used to
    /// underflow `net_transitions - transitions_before` and panic in
    /// debug builds; the saturating subtraction keeps the check sound.
    #[test]
    fn monotonic_check_survives_rebased_transition_counters() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        let observed = dr.observed_output_nets();
        driver.apply_operand(&[true, true, true]).unwrap();

        // Snapshot with history, then rebase: every counter drops below
        // its snapshot.  Without `saturating_sub` this panics in debug.
        let before: Vec<u64> = observed
            .iter()
            .map(|&n| driver.sim.net_transitions(n))
            .collect();
        assert!(before.iter().any(|&c| c > 0));
        driver.sim.clear_activity();
        driver
            .check_monotonic_phase(&observed, &before)
            .expect("rebased counters saturate to zero deltas");
    }

    /// The reset-phase contract pins per-operand rebase semantics: in
    /// contract mode every cycle starts at time zero with fresh
    /// activity counters, so repeating one operand yields identical
    /// measurements (and `total_transitions` covers one operand), while
    /// the default mode accumulates across the stream.
    #[test]
    fn reset_contract_makes_measurements_per_operand() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let operand = [true, true, false];

        let mut contract = ProtocolDriver::new(&dr, &lib).unwrap();
        let snapshot = contract.quiescent_snapshot();
        contract.enable_reset_contract(snapshot);
        let first = contract.apply_operand(&operand).unwrap();
        let first_transitions = contract.total_transitions();
        let first_now = contract.now_ps();
        for _ in 0..3 {
            let again = contract.apply_operand(&operand).unwrap();
            assert_eq!(again, first, "contract cycles are pure in the operand");
            assert_eq!(contract.total_transitions(), first_transitions);
            assert_eq!(contract.now_ps(), first_now, "every cycle starts at zero");
        }

        let mut default_mode = ProtocolDriver::new(&dr, &lib).unwrap();
        default_mode.apply_operand(&operand).unwrap();
        let after_one = default_mode.total_transitions();
        default_mode.apply_operand(&operand).unwrap();
        assert!(
            default_mode.total_transitions() > after_one,
            "the default driver keeps accumulating activity"
        );
    }

    /// Regression: a contract-mode cycle that diverges leaves its
    /// unprocessed event tail in the queue; the *next* `apply_operand`
    /// must report the instance as diverged, not panic inside
    /// `reset_time` ("cannot reset time with N events pending").
    #[test]
    fn contract_mode_survives_a_diverged_cycle_without_panicking() {
        let mut dr = DualRailNetlist::new("osc");
        let a = dr.add_dual_input("a");
        dr.add_dual_output("y", a);
        // Two detached oscillators kicked by the positive rail: the
        // spacer holds each NAND at 1 (controlling zero input), the
        // valid-1 codeword releases both rings.  Two rings keep at
        // least one event in the queue when the limit cuts the run
        // short (the popped-but-unapplied event of the other ring).
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
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        let snapshot = driver.quiescent_snapshot();
        driver.enable_reset_contract(snapshot);
        driver.set_event_limit(200);
        assert!(matches!(
            driver.apply_operand(&[true]),
            Err(DualRailError::SimulationDiverged)
        ));
        // The queue still holds the oscillation tail; the follow-up call
        // must fail cleanly rather than trip the reset_time assertion.
        assert!(matches!(
            driver.apply_operand(&[false]),
            Err(DualRailError::SimulationDiverged)
        ));
    }

    /// A circuit whose state survives the return-to-zero phase breaks
    /// the sharding contract; `verify_spacer_state` fails loudly instead
    /// of letting shard-dependent results escape.
    #[test]
    fn reset_contract_violations_are_detected() {
        let mut dr = and_or_circuit();
        // A sticky internal C-element: gated by a tie-high net, it
        // latches the first valid codeword and never resets.  No output
        // or `done` check can see it — only the full-state verification.
        let a_p = dr.dual_input("a").unwrap().positive;
        let tie = dr
            .netlist_mut()
            .add_cell("tie", netlist::CellKind::Tie1, &[])
            .unwrap();
        dr.netlist_mut()
            .add_cell("sticky", netlist::CellKind::CElement2, &[a_p, tie])
            .unwrap();

        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        let snapshot = driver.quiescent_snapshot();
        driver.enable_reset_contract(snapshot);
        let result = driver.apply_operand(&[true, true, false]);
        assert!(
            matches!(result, Err(DualRailError::SpacerStateMismatch { .. })),
            "got {result:?}"
        );
    }

    /// Phase rebase pins the sliced-engine timebase onto the scalar
    /// driver: decoded results, phase-1 latencies and `done` are
    /// bit-identical to the plain contract driver, while the phase-2
    /// figures agree up to floating-point association (the spacer
    /// offset is subtracted before instead of after the maximum).
    #[test]
    fn phase_rebase_preserves_contract_measurements() {
        let mut dr = and_or_circuit();
        ReducedCompletion::insert(&mut dr).unwrap();
        let lib = Library::umc_ll();
        let workload: Vec<Vec<bool>> = (0..8u32)
            .map(|p| (0..3).map(|i| p & (1 << i) != 0).collect())
            .collect();

        let mut plain = ProtocolDriver::new(&dr, &lib).unwrap();
        plain.enable_reset_contract(plain.quiescent_snapshot());
        let mut rebased = ProtocolDriver::new(&dr, &lib).unwrap();
        rebased.enable_reset_contract(rebased.quiescent_snapshot());
        rebased.enable_phase_rebase();

        for operand in &workload {
            let p = plain.apply_operand(operand).unwrap();
            let r = rebased.apply_operand(operand).unwrap();
            assert_eq!(r.outputs, p.outputs);
            assert_eq!(r.one_of_n, p.one_of_n);
            assert_eq!(r.probes, p.probes);
            assert_eq!(r.s_to_v_latency_ps, p.s_to_v_latency_ps);
            assert_eq!(r.done_latency_ps, p.done_latency_ps);
            assert!((r.v_to_s_latency_ps - p.v_to_s_latency_ps).abs() < 1e-6);
            assert!((r.cycle_time_ps - p.cycle_time_ps).abs() < 1e-6);
            assert!(r.v_to_s_latency_ps > 0.0);
            // After the cycle the rebased clock reads the spacer phase's
            // own settle time, a strict part of the full cycle.
            assert!(rebased.now_ps() > 0.0 && rebased.now_ps() < r.cycle_time_ps);
        }

        // Rebased cycles stay pure in the operand.
        let first = rebased.apply_operand(&workload[3]).unwrap();
        let again = rebased.apply_operand(&workload[3]).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn grace_period_is_available() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ProtocolDriver::new(&dr, &lib).unwrap();
        let grace = driver.grace_period().expect("grace period computed");
        assert!(grace.t_io_ps() > 0.0);
    }

    /// The robustness story's core claim, scalar driver: a stuck-at on
    /// the completion tree is *detected by design*.  `done` stuck low
    /// breaks the rising handshake, `done` stuck high breaks the
    /// return-to-zero — both surface as typed protocol violations, never
    /// a hang or a silently wrong answer.
    #[test]
    fn stuck_at_on_the_completion_tree_is_detected_not_silent() {
        let mut dr = and_or_circuit();
        ReducedCompletion::insert(&mut dr).unwrap();
        let done = dr.done().expect("completion inserted");
        let lib = Library::umc_ll();

        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        driver.set_time_horizon_ps(1.0e6);
        driver
            .set_fault_plan(&FaultPlan::new().stuck_at(done, false))
            .unwrap();
        match driver.apply_operand(&[true, true, true]) {
            Err(DualRailError::ProtocolViolation { description }) => {
                assert!(description.contains("done failed to rise"), "{description}");
            }
            other => panic!("stuck-at-0 on done must be detected, got {other:?}"),
        }

        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        driver.set_time_horizon_ps(1.0e6);
        driver
            .set_fault_plan(&FaultPlan::new().stuck_at(done, true))
            .unwrap();
        match driver.apply_operand(&[true, true, true]) {
            Err(DualRailError::ProtocolViolation { description }) => {
                assert!(description.contains("done failed to fall"), "{description}");
            }
            other => panic!("stuck-at-1 on done must be detected, got {other:?}"),
        }
    }

    /// A stuck-at-1 on one completion-tree *input* — an output rail the
    /// reduced scheme observes — forges the forbidden both-rails-high
    /// codeword: the typed [`DualRailError::IllegalCodeword`] detection.
    #[test]
    fn stuck_at_on_an_observed_rail_raises_illegal_codeword() {
        let mut dr = and_or_circuit();
        ReducedCompletion::insert(&mut dr).unwrap();
        let negative_rail = dr.dual_outputs()[0].1.negative;
        let lib = Library::umc_ll();

        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        driver.set_time_horizon_ps(1.0e6);
        driver
            .set_fault_plan(&FaultPlan::new().stuck_at(negative_rail, true))
            .unwrap();
        // y computes 1, so the positive rail joins the stuck negative
        // rail: both high, the forbidden codeword.
        match driver.apply_operand(&[true, true, true]) {
            Err(DualRailError::IllegalCodeword { output, .. }) => assert_eq!(output, "y"),
            other => panic!("a forged codeword must be detected, got {other:?}"),
        }
    }

    /// The watchdog contract: a horizon too tight for even one phase
    /// turns a would-be spin into a typed
    /// [`DualRailError::SimulationDiverged`] — apply_operand always
    /// returns.
    #[test]
    fn watchdog_horizon_bounds_a_faulted_settle() {
        let mut dr = and_or_circuit();
        ReducedCompletion::insert(&mut dr).unwrap();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(&dr, &lib).unwrap();
        // The construction settle already ran; every post-horizon event
        // of the next cycle now trips the watchdog.
        driver.set_time_horizon_ps(driver.now_ps().max(0.5));
        assert!(matches!(
            driver.apply_operand(&[true, true, true]),
            Err(DualRailError::SimulationDiverged)
        ));
    }

    #[test]
    fn voltage_scaling_slows_the_same_circuit_down() {
        let dr = and_or_circuit();
        let lib = celllib::Library::full_diffusion();
        let mut nominal = ProtocolDriver::new(&dr, &lib).unwrap();
        let low_lib = lib.with_supply_voltage(0.3).unwrap();
        let mut low = ProtocolDriver::new(&dr, &low_lib).unwrap();
        let operand = vec![true, true, false];
        let fast = nominal.apply_operand(&operand).unwrap();
        let slow = low.apply_operand(&operand).unwrap();
        assert_eq!(
            fast.outputs, slow.outputs,
            "functional correctness preserved"
        );
        assert!(slow.s_to_v_latency_ps > 20.0 * fast.s_to_v_latency_ps);
    }
}
