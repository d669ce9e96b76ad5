//! The wavefront-pipelined four-phase protocol driver: the spacer wave
//! of operand `k` chases its data wave through the combinational cloud,
//! and operand `k+1` is injected as soon as the measured separation
//! gaps and the input-stage acknowledge allow — instead of waiting for
//! the global `done` round-trip.
//!
//! # Why the serial driver leaves throughput on the table
//!
//! The unpipelined [`ProtocolDriver`] serialises completely: inject a
//! valid codeword, wait for `done` to rise, drive the spacer, wait for
//! `done` to fall, repeat.  Its cycle time is two full traversals of
//! the datapath **plus** two traversals of the completion tree.  But
//! four-phase dual-rail signalling only requires that consecutive phase
//! *wavefronts* never interact on any one cell — the cloud itself can
//! hold several wavefronts at different depths concurrently, which is
//! the classic wavefront-pipelining observation.  The injection
//! interval then shrinks from a full round-trip to the sum of two
//! *local* separation gaps.
//!
//! # Profile-guided scheduling
//!
//! Static separation bounds must pair the *latest* possible activity
//! of one token against the *earliest* possible activity of the next,
//! over all operand pairs.  On datapaths whose final decision gates
//! have a wide arrival spread (a majority-vote comparator does), that
//! pessimism eats most of the pipelining headroom.
//! [`PipelinedProtocolDriver`] therefore schedules from measured
//! per-token cost, and runs every train twice:
//!
//! 1. **Profile pass** — each token runs the exact contract-mode
//!    serial cycle while the driver records every net's measured rise
//!    time (relative to the injection edge) and fall time (relative to
//!    the spacer edge).  This pass *is* the serial protocol: it fixes
//!    the decoded outcomes and the serial latency figures, and fails
//!    with the serial driver's own typed errors.
//! 2. **Wavefront replay** — from the measured profiles the driver
//!    computes, per consecutive token pair, the smallest separation
//!    gaps such that at *every cell* the spacer wave of token `k`
//!    arrives only after the cell's token-`k` rise activity ended
//!    (`g₁ₖ`) and token `k+1`'s data wave arrives only after the
//!    latest pending fall activity drained (`g₂ₖ`, tracked per cell
//!    across tokens).  Token `k` is injected at `A_k`, its spacer
//!    driven at `B_k = A_k + g₁ₖ`, and the next token injected at
//!    `A_{k+1} = B_k + g₂ₖ` (each gap widened by the configured margin
//!    plus a fixed slice-separation pad).  The train then replays
//!    overlapped at that schedule.
//!
//! Because the gaps guarantee strict per-cell wave ordering, the
//! replayed trajectory is the *superposition of the profiled serial
//! trajectories*, each shifted to its schedule slot — and the driver
//! **checks** that claim: every watched net's replayed transition
//! stream is matched event-by-event (time and level) against the
//! schedule-shifted profile.  A missing edge, a surplus edge, or an
//! edge at the wrong time or level is a typed
//! [`DualRailError::ProtocolViolation`] — a wavefront hazard can abort
//! a train but never silently alter a decoded outcome, because decoded
//! outcomes come from the serial profile and the replay only
//! corroborates it.  Since the profile constraints cover the
//! completion network too, `done` pulses exactly once per token at
//! every occupancy and per-token `done` latency is always reported.
//! The schedule is a pure function of the train's operands, keeping
//! sharded runs bit-identical at any thread count.  Injection is
//! additionally gated on the dynamic input-stage acknowledge (instant
//! when fault-free; under faults the train parks there until the
//! watchdog trips).  A train-level transition-count audit (each
//! observed rail switches exactly twice per token that activated it)
//! cross-checks the decode against the simulator's own activity
//! counters.
//!
//! # Measured occupancy
//!
//! Token `k` is in flight from its injection `A_k` until its spacer
//! wave has drained, at `B_k + drain_k`, where `drain_k` is its
//! profiled spacer-phase settle time.  The depth a train reaches is
//! the most tokens in flight at any of its injections
//! ([`PipelinedProtocolDriver::peak_in_flight`]): [`Occupancy`] caps
//! it, but the operands decide it.

use std::sync::Arc;

use celllib::Library;
use gatesim::{Logic, Simulator, StepOutcome};
use netlist::{CellKind, NetId};

use crate::protocol::ProtocolDriver;
use crate::{cycle, DualRailError, DualRailNetlist, DualRailValue, OperandResult};

/// Slack allowed between a replayed transition time and its
/// schedule-shifted profile time: the replay accumulates delays on one
/// absolute clock and the profile on a per-token rebased one, so the
/// two sums associate differently.
const REPLAY_EPS_PS: f64 = 1e-6;

/// Fixed pad added to every measured separation gap so two wavefronts
/// never share a simulator time slice at any cell: a merged slice would
/// re-associate transitions (a falling and a rising edge meeting at one
/// gate cancel instead of toggling twice) and break the serial-identity
/// argument even when the measured gap is exactly zero.
const GAP_PAD_PS: f64 = 1.0;

/// How many tokens the driver may keep in flight.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Occupancy {
    /// Serial operation: each token runs a complete four-phase cycle
    /// before the next is injected.  The driver delegates to the
    /// contract-mode [`ProtocolDriver::apply_operand`] path, so results
    /// are bit-identical to the unpipelined engines by construction.
    One,
    /// At most two tokens in flight: a data wave and its predecessor's
    /// return-to-zero wave overlap, but each next injection waits for
    /// the token before last to drain completely, as measured by its
    /// profile.
    #[default]
    Two,
    /// As deep as the separation constraints allow: the driver injects
    /// at the measured per-token-pair gaps.  They cover every cell,
    /// the completion network included, so `done` stays token-resolved
    /// even here.  How many tokens that puts in flight depends on the
    /// operands; [`PipelinedProtocolDriver::peak_in_flight`] reports
    /// it.
    Max,
}

/// Tuning knobs for the wavefront-pipelined driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Tokens the driver may keep in flight (see [`Occupancy`]).
    pub occupancy: Occupancy,
    /// Tokens per train.  A train shares in-flight circuit state, so it
    /// is the unit of sharding and of the transition-count audit.
    pub train_length: usize,
    /// Fractional safety margin applied to both measured separation
    /// gaps, on top of a fixed 1 ps slice-separation pad.
    pub separation_margin: f64,
    /// **Test hook.** When `false`, the driver never drives the spacer
    /// phase and injects each next token directly on top of the
    /// previous data wave — the premature-injection hazard the
    /// injection gating exists to prevent.  The stale rails then hold,
    /// producing forbidden codewords and missing transitions that
    /// surface as typed errors, never as a wrong decoded outcome.
    pub gate_injection: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            occupancy: Occupancy::Two,
            train_length: 16,
            separation_margin: 0.10,
            gate_injection: true,
        }
    }
}

/// The level a watched net holds while activated — the complement of
/// its quiescent spacer level.
fn active_level(quiet: Logic) -> Logic {
    match quiet {
        Logic::Zero => Logic::One,
        Logic::One => Logic::Zero,
        Logic::Unknown => Logic::Unknown,
    }
}

/// One token's measured wave profile from the serial profiling pass:
/// per-net first-change times for the data wave (relative to the
/// injection edge) and for the return-to-zero wave (relative to the
/// spacer edge).  `INFINITY` marks a net the token never moved.
struct TokenProfile {
    rise_rel_ps: Vec<f64>,
    fall_rel_ps: Vec<f64>,
    /// Spacer-phase settle time (the maximum fall): when the token has
    /// fully drained from the circuit.
    drain_rel_ps: f64,
}

impl TokenProfile {
    /// When `net` left its spacer level (relative to the injection
    /// edge) and when it returned (relative to the spacer edge), or
    /// `None` if the token never moved it.
    fn activation(&self, net: NetId) -> Option<(f64, f64)> {
        let rise = self.rise_rel_ps[net.index()];
        rise.is_finite()
            .then(|| (rise, self.fall_rel_ps[net.index()]))
    }
}

/// Per-slice transition recorder over the watched nets (observed
/// outputs, probes and `done`): the replay's record, matched after the
/// drain against the schedule-shifted profiles.  Nets whose quiescent
/// level is unknown are unobservable and stay out of the log, mirroring
/// the serial driver reading their settled `X` directly.
struct TransitionLog {
    nets: Vec<(NetId, Logic)>,
    values: Vec<Logic>,
    events: Vec<Vec<(f64, Logic)>>,
}

impl TransitionLog {
    fn new(watched: &[NetId], snapshot: &[Logic], sim: &Simulator<'_>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let mut nets = Vec::new();
        let mut values = Vec::new();
        for &net in watched {
            let quiet = snapshot[net.index()];
            if quiet == Logic::Unknown || !seen.insert(net) {
                continue;
            }
            nets.push((net, quiet));
            values.push(sim.value(net));
        }
        let events = vec![Vec::new(); nets.len()];
        Self {
            nets,
            values,
            events,
        }
    }

    fn sample(&mut self, sim: &Simulator<'_>) {
        let now = sim.now_ps();
        for (i, &(net, _)) in self.nets.iter().enumerate() {
            let v = sim.value(net);
            if v != self.values[i] {
                self.values[i] = v;
                self.events[i].push((now, v));
            }
        }
    }
}

/// Advances `sim` to `time_ps` if it is not already there.
fn catch_up(sim: &mut Simulator<'_>, time_ps: f64) {
    if time_ps > sim.now_ps() {
        sim.advance_to(time_ps);
    }
}

/// Processes every event up to and including `until_ps`, sampling the
/// log after each consistent time slice, then parks the clock at
/// `until_ps`.
fn run_slices_until(
    sim: &mut Simulator<'_>,
    log: &mut TransitionLog,
    until_ps: f64,
    budget: &mut u64,
) -> Result<(), DualRailError> {
    while let Some(next) = sim.next_event_time_ps() {
        if next > until_ps {
            break;
        }
        match sim.step_time_slice(budget) {
            StepOutcome::Advanced { .. } => log.sample(sim),
            StepOutcome::Idle => break,
            StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
        }
    }
    catch_up(sim, until_ps);
    Ok(())
}

/// Decodes one token from its serial profile under the serial driver's
/// end-of-valid check and latency definitions; the pipelined
/// `cycle_time_ps` comes from the schedule.
fn assemble_token(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    observed: &[NetId],
    profile: &TokenProfile,
    cycle_time_ps: f64,
) -> Result<OperandResult, DualRailError> {
    let level = |net: NetId| -> Logic {
        let quiet = snapshot[net.index()];
        if quiet == Logic::Unknown {
            return Logic::Unknown;
        }
        if profile.activation(net).is_some() {
            active_level(quiet)
        } else {
            quiet
        }
    };

    let (outputs, one_of_n) = cycle::check_valid(circuit, level)?;
    let probes = cycle::decode_probes(circuit, level);

    let mut s_to_v = 0.0f64;
    let mut v_to_s = 0.0f64;
    for &net in observed {
        if let Some((rise, fall)) = profile.activation(net) {
            s_to_v = s_to_v.max(rise);
            v_to_s = v_to_s.max(fall);
        }
    }
    let done_latency_ps = circuit
        .done()
        .and_then(|done| profile.activation(done))
        .map(|(rise, _)| rise);

    Ok(OperandResult {
        outputs,
        one_of_n,
        s_to_v_latency_ps: s_to_v,
        done_latency_ps,
        v_to_s_latency_ps: v_to_s,
        cycle_time_ps,
        probes,
    })
}

/// Train-level transition-count audit: every observed rail must have
/// switched exactly twice per token that activated it, across the whole
/// drained train.
fn audit_transition_counts(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    tokens: &[OperandResult],
    transitions: impl Fn(NetId) -> u64,
) -> Result<(), DualRailError> {
    let n = tokens.len();
    for (index, (name, signal)) in circuit.dual_outputs().iter().enumerate() {
        for (rail, net) in [("positive", signal.positive), ("negative", signal.negative)] {
            let quiet = snapshot[net.index()];
            if quiet == Logic::Unknown {
                continue;
            }
            let expected: u64 = tokens
                .iter()
                .map(|t| {
                    let (p, ng) = DualRailValue::encode_valid(t.outputs[index], signal.polarity);
                    let level = if net == signal.positive { p } else { ng };
                    u64::from(Logic::from(level) != quiet) * 2
                })
                .sum();
            let got = transitions(net);
            if got != expected {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "output {name:?} {rail} rail switched {got} times across a train of \
                         {n} tokens (expected {expected}) — a wavefront hazard corrupted the \
                         handshake"
                    ),
                });
            }
        }
    }
    for (group, (name, wires)) in circuit.one_of_n_outputs().iter().enumerate() {
        for (w, &wire) in wires.iter().enumerate() {
            let expected: u64 = tokens
                .iter()
                .map(|t| u64::from(t.one_of_n[group].1 == w) * 2)
                .sum();
            let got = transitions(wire);
            if got != expected {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "1-of-n output {name:?} wire {w} switched {got} times across a train \
                         of {n} tokens (expected {expected}) — a wavefront hazard corrupted \
                         the handshake"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The nets the replay log watches: decoded outputs, probes and
/// `done`.
fn watched_nets(circuit: &DualRailNetlist) -> Vec<NetId> {
    let mut watched = circuit.observed_output_nets();
    for (_, signal) in circuit.probes() {
        watched.push(signal.positive);
        watched.push(signal.negative);
    }
    watched.extend(circuit.done());
    watched
}

/// Outputs of the input-stage cells — cells all of whose inputs are
/// primary inputs, the C-element latch layer on latched circuits —
/// whose return to the quiescent state is the dynamic injection
/// acknowledge.
fn input_stage_nets(circuit: &DualRailNetlist) -> Vec<NetId> {
    let nl = circuit.netlist();
    nl.cells()
        .filter(|(_, c)| {
            !c.inputs().is_empty() && c.inputs().iter().all(|&n| nl.is_primary_input(n))
        })
        .map(|(_, c)| c.output())
        .collect()
}

/// The most tokens in flight at any injection of a train: token `j` is
/// in flight from its injection until its spacer wave has drained at
/// `drained_at[j]`.
fn peak_in_flight(inject_at: &[f64], drained_at: &[f64]) -> usize {
    inject_at
        .iter()
        .enumerate()
        .map(|(k, &a_k)| drained_at[..=k].iter().filter(|&&d| d > a_k).count())
        .max()
        .unwrap_or(0)
}

/// The wavefront-pipelined four-phase protocol driver: tokens flow
/// through the datapath separated by the measured per-token-pair gaps
/// and the dynamic input-stage acknowledge instead of the global `done`
/// round-trip.
///
/// See the [module documentation](self) for the schedule and the
/// checking model, and
/// [`crate::ParallelProtocolDriver::run_workload_pipelined`] for the
/// sharded entry point.
#[derive(Debug)]
pub struct PipelinedProtocolDriver<'a> {
    inner: ProtocolDriver<'a>,
    config: PipelineConfig,
    snapshot: Arc<[Logic]>,
    /// Outputs of the input-stage cells (see `input_stage_nets`).
    stage_nets: Vec<NetId>,
    horizon_ps: Option<f64>,
    /// Peak tokens in flight of the last completed train.
    peak_in_flight: usize,
}

impl<'a> PipelinedProtocolDriver<'a> {
    /// Creates a pipelined driver over a fresh simulator at `library`'s
    /// delays.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::new`] initialisation errors.
    pub fn new(
        circuit: &'a DualRailNetlist,
        library: &Library,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        Ok(Self::from_driver(
            ProtocolDriver::new(circuit, library)?,
            config,
        ))
    }

    /// Creates a pipelined driver around an existing simulator instance
    /// — the worker-side constructor for
    /// [`crate::ParallelProtocolDriver::run_workload_pipelined`], whose
    /// train runner hands each worker a fresh replicated simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::from_simulator`] initialisation
    /// errors.
    pub fn from_simulator(
        circuit: &'a DualRailNetlist,
        sim: Simulator<'a>,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        Ok(Self::from_driver(
            ProtocolDriver::from_simulator(circuit, sim)?,
            config,
        ))
    }

    fn from_driver(mut inner: ProtocolDriver<'a>, config: PipelineConfig) -> Self {
        let snapshot = inner.quiescent_snapshot();
        inner.enable_reset_contract(Arc::clone(&snapshot));
        let stage_nets = input_stage_nets(inner.circuit());
        Self {
            inner,
            config,
            snapshot,
            stage_nets,
            horizon_ps: None,
            peak_in_flight: 0,
        }
    }

    /// The configuration this driver runs under.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The most tokens in flight at any injection of the last train
    /// [`PipelinedProtocolDriver::run_train`] completed, read off its
    /// measured schedule: token `k` is in flight from its injection
    /// until its spacer wave has drained.  1 at [`Occupancy::One`]; 0
    /// before the first train and after an empty or failed one.
    #[must_use]
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Caps the events processed per token (see
    /// [`ProtocolDriver::set_event_limit`]); the budget reseeds at
    /// every injection, so a runaway token cannot starve its train.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.inner.set_event_limit(limit);
    }

    /// Bounds each token by simulated time: the pipelined schedule
    /// slides the absolute horizon to `A_k + horizon_ps` at every
    /// injection, so a faulted token trips the watchdog at the same
    /// per-token bound the serial driver enforces.  The horizon must
    /// exceed the injection interval plus a token's settle time, or
    /// fault-free trains will trip it.
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        self.horizon_ps = Some(horizon_ps);
        self.inner.set_time_horizon_ps(horizon_ps);
    }

    /// Attaches the dual-rail instrument set (see
    /// [`ProtocolDriver::attach_metrics`]); the pipelined schedule
    /// additionally counts injection-gate stall slices under
    /// `"<prefix>.protocol.stall_slices"`.
    pub fn attach_metrics(&mut self, registry: &tm_obs::MetricsRegistry, prefix: &str) {
        self.inner.attach_metrics(registry, prefix);
    }

    /// Detaches all instruments after flushing pending engine deltas.
    pub fn detach_metrics(&mut self) {
        self.inner.detach_metrics();
    }

    /// Whether an instrument set is currently attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.inner.metrics_attached()
    }

    /// Attaches only the protocol-level handles (the sharded runner's
    /// worker path; see [`ProtocolDriver::attach_protocol_metrics`]).
    pub(crate) fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics) {
        self.inner.attach_protocol_metrics(handles);
    }

    /// Installs a [`tm_obs::WaveProbe`] on the underlying simulator
    /// (see [`ProtocolDriver::attach_wave_probe`]).
    pub fn attach_wave_probe(&mut self, probe: tm_obs::WaveProbe) {
        self.inner.attach_wave_probe(probe);
    }

    /// Removes and returns the installed wave probe, if any.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.inner.take_wave_probe()
    }

    /// Installs a gate-level fault plan on this driver's private
    /// simulator and re-settles (see
    /// [`ProtocolDriver::set_fault_plan`]).  SEU pulse times are
    /// frame-relative: the clock rebases per profiled token and once
    /// per replayed train, and pulses re-arm at each rebase, so a
    /// pulse can fire in several frames — any divergence between the
    /// profile and the replay surfaces as a typed violation, never as
    /// a silently altered outcome.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot settle.
    pub fn set_fault_plan(&mut self, plan: &gatesim::FaultPlan) -> Result<(), DualRailError> {
        self.inner.set_fault_plan(plan)?;
        self.snapshot = self.inner.quiescent_snapshot();
        Ok(())
    }

    /// Runs one **train** of operands through the wavefront schedule
    /// and returns the per-token results in operand order.
    ///
    /// A train shares in-flight circuit state, so it is the sharding
    /// unit: the clock and activity counters rebase per profiled token
    /// and again at the replay boundary, making every train a pure
    /// function of its own operands.  At [`Occupancy::One`] each token
    /// instead runs the contract-mode serial cycle, bit-identical to
    /// [`ProtocolDriver::apply_operand`].
    ///
    /// # Errors
    ///
    /// The first failing check aborts the train: decode errors
    /// ([`DualRailError::IllegalCodeword`]), protocol violations
    /// (missing `done` edges, replayed transitions that miss or exceed
    /// the profiled ones, an input stage that never acknowledges),
    /// watchdog trips ([`DualRailError::SimulationDiverged`]) and
    /// reset-contract breaks ([`DualRailError::SpacerStateMismatch`]).
    pub fn run_train(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        self.peak_in_flight = 0;
        if self.config.occupancy == Occupancy::One {
            let results = operands
                .iter()
                .map(|operand| self.inner.apply_operand(operand))
                .collect::<Result<Vec<_>, _>>()?;
            self.peak_in_flight = usize::from(!results.is_empty());
            return Ok(results);
        }
        self.run_train_wavefront(operands)
    }

    #[allow(clippy::too_many_lines)]
    fn run_train_wavefront(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        let expected = self.inner.circuit().input_count();
        for operand in operands {
            if operand.len() != expected {
                return Err(DualRailError::OperandWidthMismatch {
                    expected,
                    got: operand.len(),
                });
            }
        }
        if operands.is_empty() {
            return Ok(Vec::new());
        }
        // Pass 1: serial profiling.  This pass *is* the serial
        // protocol, so it also fixes the decoded outcomes and the
        // serial latencies this train will report.
        let mut profiles = Vec::with_capacity(operands.len());
        for operand in operands {
            profiles.push(self.profile_token(operand)?);
        }
        let (inject_at, spacer_at) = self.wavefront_schedule(&profiles);

        let circuit = self.inner.circuit();
        let observed = circuit.observed_output_nets();
        let watched = watched_nets(circuit);
        let stage: Vec<(NetId, Logic)> = self
            .stage_nets
            .iter()
            .map(|&n| (n, self.snapshot[n.index()]))
            .collect();

        // Pass 2: wavefront replay at the profiled schedule.
        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_activity();
            sim.reset_time();
        }
        let mut log = TransitionLog::new(&watched, &self.snapshot, self.inner.sim());
        let mut budget = self.inner.sim().event_limit();
        for (k, operand) in operands.iter().enumerate() {
            if let Some(horizon) = self.horizon_ps {
                self.inner
                    .sim_mut()
                    .set_time_horizon_ps(inject_at[k] + horizon);
            }
            budget = self.inner.sim().event_limit();
            run_slices_until(self.inner.sim_mut(), &mut log, inject_at[k], &mut budget)?;
            if self.config.gate_injection && k > 0 {
                // Dynamic acknowledge: the input stage must have
                // drained before the next injection.  Fault-free, the
                // profiled schedule already guarantees this; under
                // faults the train parks here until the watchdog trips.
                loop {
                    if stage
                        .iter()
                        .all(|&(net, quiet)| self.inner.sim().value(net) == quiet)
                    {
                        break;
                    }
                    let sim = self.inner.sim_mut();
                    match sim.step_time_slice(&mut budget) {
                        StepOutcome::Advanced { .. } => {
                            if let Some(metrics) = self.inner.protocol_metrics() {
                                metrics.stall_slices.inc();
                            }
                            log.sample(self.inner.sim());
                        }
                        StepOutcome::Idle => {
                            return Err(DualRailError::ProtocolViolation {
                                description: "input stage failed to acknowledge the spacer \
                                              before the next injection"
                                    .to_string(),
                            })
                        }
                        StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
                    }
                }
            }
            self.inner.drive_valid(operand);
            let until = spacer_at[k].max(self.inner.sim().now_ps());
            run_slices_until(self.inner.sim_mut(), &mut log, until, &mut budget)?;
            if self.config.gate_injection {
                self.inner.drive_spacer();
            }
        }

        // Drain the final wavefronts to quiescence.
        loop {
            let sim = self.inner.sim_mut();
            match sim.step_time_slice(&mut budget) {
                StepOutcome::Advanced { .. } => log.sample(self.inner.sim()),
                StepOutcome::Idle => break,
                StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
            }
        }
        let drain_end = self.inner.sim().now_ps();

        // The replay must reproduce the serial trajectories exactly:
        // every watched net's transition stream is matched
        // event-by-event against the schedule-shifted profile times.
        // Anything else — a missing edge, a surplus edge, an edge at
        // the wrong time or to the wrong level — is a wavefront hazard
        // and surfaces as a typed error, never as a decoded outcome.
        for (i, &(net, quiet)) in log.nets.iter().enumerate() {
            let active = active_level(quiet);
            let mut expected: Vec<(f64, Logic)> = Vec::new();
            for (k, profile) in profiles.iter().enumerate() {
                if let Some((rise, fall)) = profile.activation(net) {
                    expected.push((inject_at[k] + rise, active));
                    expected.push((spacer_at[k] + fall, quiet));
                }
            }
            let got = &log.events[i];
            if got.len() != expected.len() {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {net} switched {} times during a pipelined train but the \
                         serial profile expects {} transitions — a wavefront hazard \
                         corrupted the handshake",
                        got.len(),
                        expected.len()
                    ),
                });
            }
            for (&(t, v), &(te, ve)) in got.iter().zip(&expected) {
                if v != ve || (t - te).abs() > REPLAY_EPS_PS {
                    return Err(DualRailError::ProtocolViolation {
                        description: format!(
                            "net {net} switched to {v:?} at {t:.3} ps but the serial \
                             profile expects {ve:?} at {te:.3} ps — a wavefront hazard \
                             corrupted the handshake"
                        ),
                    });
                }
            }
        }

        // Train-end state audit: the circuit must be back in the
        // canonical spacer state with `done` low.
        cycle::check_spacer(circuit, |net| self.inner.sim().value(net))?;
        self.inner.verify_spacer_state()?;

        // Decode from the verified profiles.  Phase-relative activation
        // times (injection and spacer edges at zero) keep every latency
        // figure bit-identical to the serial pass.  The pipelined cycle
        // time is the injection-to-injection interval (the throughput
        // figure); the last token closes on the train drain.
        let results = profiles
            .iter()
            .enumerate()
            .map(|(k, profile)| {
                let next = inject_at.get(k + 1).copied().unwrap_or(drain_end);
                assemble_token(
                    circuit,
                    &self.snapshot,
                    &observed,
                    profile,
                    next - inject_at[k],
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        audit_transition_counts(circuit, &self.snapshot, &results, |net| {
            self.inner.sim().net_transitions(net)
        })?;
        let drained_at: Vec<f64> = spacer_at
            .iter()
            .zip(&profiles)
            .map(|(b_k, profile)| b_k + profile.drain_rel_ps)
            .collect();
        self.peak_in_flight = peak_in_flight(&inject_at, &drained_at);

        // Slice stepping bypasses the per-settle metrics flush; ship
        // the train's engine deltas (and count its completed cycles)
        // before handing results back.
        if let Some(metrics) = self.inner.protocol_metrics() {
            metrics.cycles.add(results.len() as u64);
        }
        self.inner.sim_mut().flush_metrics();
        Ok(results)
    }

    /// Serial profiling pass, one token: runs the exact contract-mode
    /// four-phase cycle (rebased to time zero, like
    /// [`ProtocolDriver::apply_operand`] in contract mode) and records
    /// every net's measured rise and fall time.  The pass *is* the
    /// serial protocol — its checks fail with the serial driver's own
    /// typed errors in the serial driver's order.
    fn profile_token(&mut self, operand: &[bool]) -> Result<TokenProfile, DualRailError> {
        let circuit = self.inner.circuit();
        let net_count = circuit.netlist().net_count();
        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_activity();
            sim.reset_time();
            // The replay pass slides the horizon along its absolute
            // schedule; restore the per-token frame bound here.
            if let Some(horizon) = self.horizon_ps {
                sim.set_time_horizon_ps(horizon);
            }
        }

        // Phase 1: spacer -> valid.
        self.inner.drive_valid(operand);
        if !self.inner.sim_mut().run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        cycle::check_valid(circuit, |net| self.inner.sim().value(net))?;
        // Every net must switch monotonically, not just the observed
        // ones: a glitching net has no rise and fall to schedule against.
        let mut rise_rel_ps = vec![f64::INFINITY; net_count];
        let mut counts = vec![0u64; net_count];
        {
            let sim = self.inner.sim();
            for (i, (rise, count)) in rise_rel_ps.iter_mut().zip(&mut counts).enumerate() {
                let net = NetId::from_index(i);
                *count = sim.net_transitions(net);
                match *count {
                    0 => {}
                    1 => *rise = sim.last_change_ps(net).unwrap_or(f64::INFINITY),
                    delta => return Err(cycle::non_monotonic(net, delta)),
                }
            }
        }

        // Phase 2: valid -> spacer (return-to-zero).
        let t1 = self.inner.sim().now_ps();
        self.inner.drive_spacer();
        if !self.inner.sim_mut().run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        cycle::check_spacer(circuit, |net| self.inner.sim().value(net))?;
        let mut fall_rel_ps = vec![f64::INFINITY; net_count];
        let mut drain_rel_ps = 0.0f64;
        {
            let sim = self.inner.sim();
            for (i, (fall, &count)) in fall_rel_ps.iter_mut().zip(&counts).enumerate() {
                let net = NetId::from_index(i);
                match sim.net_transitions(net) - count {
                    0 => {}
                    1 => {
                        let t = sim.last_change_ps(net).unwrap_or(t1) - t1;
                        *fall = t;
                        drain_rel_ps = drain_rel_ps.max(t);
                    }
                    delta => return Err(cycle::non_monotonic(net, delta)),
                }
            }
        }
        self.inner.verify_spacer_state()?;
        Ok(TokenProfile {
            rise_rel_ps,
            fall_rel_ps,
            drain_rel_ps,
        })
    }

    /// Computes the wavefront injection schedule from the measured
    /// profiles.  Per cell and consecutive token pair:
    ///
    /// * the spacer wave of token `k` may first touch a cell only after
    ///   the cell's token-`k` rise activity (output *and* inputs — a
    ///   cell whose output never switches still constrains its input
    ///   pair) has ended, giving the valid→spacer offset `g₁ₖ`;
    /// * token `k+1`'s data wave may first touch a cell only after the
    ///   latest *pending* fall activity there has drained, giving the
    ///   injection gap `g₂ₖ`.  Pending falls are tracked per cell
    ///   across tokens, so a wave also clears falls left by earlier
    ///   tokens at cells the intervening tokens never exercised.
    ///
    /// Each gap gets the configured multiplicative safety margin plus
    /// the fixed [`GAP_PAD_PS`] slice-separation pad.  At
    /// [`Occupancy::Two`] the next injection additionally waits for
    /// token `k-1` to drain completely, capping the train at two tokens
    /// in flight.
    fn wavefront_schedule(&self, profiles: &[TokenProfile]) -> (Vec<f64>, Vec<f64>) {
        let nl = self.inner.circuit().netlist();
        let margin = self.config.separation_margin;
        let widen = |raw: f64| raw.max(0.0).mul_add(1.0 + margin, GAP_PAD_PS);
        let mut pending = vec![f64::NEG_INFINITY; nl.cell_count()];
        let mut inject_at = Vec::with_capacity(profiles.len());
        let mut spacer_at = Vec::with_capacity(profiles.len());
        let mut a_k = 0.0f64;
        for (k, profile) in profiles.iter().enumerate() {
            inject_at.push(a_k);
            let mut g1 = 0.0f64;
            for (_, cell) in nl.cells() {
                if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                    continue;
                }
                let first_fall = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.fall_rel_ps[n.index()])
                    .fold(f64::INFINITY, f64::min);
                if !first_fall.is_finite() {
                    continue;
                }
                let late_rise = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.rise_rel_ps[n.index()])
                    .chain([profile.rise_rel_ps[cell.output().index()]])
                    .filter(|t| t.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
                g1 = g1.max(late_rise - first_fall);
            }
            let b_k = a_k + widen(g1);
            spacer_at.push(b_k);

            let Some(next_profile) = profiles.get(k + 1) else {
                break;
            };
            let mut required = f64::NEG_INFINITY;
            for (cid, cell) in nl.cells() {
                if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                    continue;
                }
                let late_fall = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.fall_rel_ps[n.index()])
                    .chain([profile.fall_rel_ps[cell.output().index()]])
                    .filter(|t| t.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
                if late_fall.is_finite() {
                    pending[cid.index()] = b_k + late_fall;
                }
                let clear_at = pending[cid.index()];
                if clear_at == f64::NEG_INFINITY {
                    continue;
                }
                let first_rise = cell
                    .inputs()
                    .iter()
                    .map(|&n| next_profile.rise_rel_ps[n.index()])
                    .fold(f64::INFINITY, f64::min);
                if first_rise.is_finite() {
                    required = required.max(clear_at - first_rise);
                }
            }
            let g2 = if required.is_finite() {
                required - b_k
            } else {
                0.0
            };
            a_k = b_k + widen(g2);
            if self.config.occupancy == Occupancy::Two && k >= 1 {
                a_k = a_k.max(spacer_at[k - 1] + profiles[k - 1].drain_rel_ps + GAP_PAD_PS);
            }
        }
        (inject_at, spacer_at)
    }
}
