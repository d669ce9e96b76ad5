//! The event-driven simulation engine.

use std::sync::Arc;

use celllib::{ActivityProfile, Library};
use netlist::{CellId, NetId, Netlist};

use crate::event::{Event, EventQueue};
use crate::fault::{FaultOverlay, FaultPlan, NO_STUCK};
use crate::program::{EngineProgram, NO_DRIVER};
use crate::Logic;
use netlist::CellKind;

/// Outcome of [`Simulator::run_until_quiescent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All scheduled activity has been processed.
    Quiescent {
        /// Number of events processed during this run.
        events: u64,
    },
    /// The event limit was reached before the circuit settled (usually a
    /// sign of oscillation).
    LimitReached,
}

impl RunOutcome {
    /// Whether the circuit settled.
    #[must_use]
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// Outcome of one bounded stepping increment
/// ([`Simulator::step_time_slice`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// One time slice was processed: every pending event sharing the
    /// earliest pending timestamp has been applied.
    Advanced {
        /// Number of events applied in this slice.
        events: u64,
    },
    /// The queue is empty — the circuit is quiescent.
    Idle,
    /// The watchdog tripped: either the caller-held event budget ran out
    /// or the next event lies beyond the time horizon (the event is
    /// pushed back so the aborted tail stays visible as pending work).
    LimitReached,
}

/// Event-driven gate-level simulator over a netlist and a library.
///
/// The simulator uses transport-delay semantics with per-cell delays
/// derived from the library at its configured supply voltage and process
/// corner.  See the [crate-level documentation](crate) for an example.
///
/// The event kernel is allocation-free in steady state: the netlist's
/// net→load and cell→input relations are flattened into CSR-style arrays
/// at construction, every kind's three-valued function is precomputed
/// into a truth table, and schedules that provably cannot change their
/// net — no event in flight for the net and the value equal to the one
/// it already holds — are suppressed before they reach the queue,
/// whether they come from gate re-evaluation, flip-flop capture or
/// fresh stimulus.  Pending events sit in a two-level queue
/// ([`EventQueue`]) whose drain tier serves same-timestamp cascades
/// without heap traffic.
///
/// All of the immutable construction products live in an `Arc`-shared
/// [`EngineProgram`], so additional instances over the same netlist
/// ([`Simulator::from_program`]) cost only their mutable state — the
/// replication primitive behind [`crate::ParallelEventSim`].
#[derive(Debug)]
pub struct Simulator<'a> {
    /// The shared immutable compilation (CSR arrays, truth tables,
    /// delays); everything below is this instance's private state.
    program: Arc<EngineProgram<'a>>,
    values: Vec<Logic>,
    queue: EventQueue,
    now_ps: f64,
    cell_transitions: Vec<u64>,
    net_transitions: Vec<u64>,
    last_change_ps: Vec<f64>,
    dff_last_clk: Vec<Logic>,
    event_limit: u64,
    total_events: u64,
    /// Number of scheduled-but-unapplied events per net.  A schedule
    /// (gate re-evaluation, flip-flop capture or stimulus drive) is
    /// dropped only when its net has no event in flight and already
    /// holds the scheduled value (the apply would be a pure no-op),
    /// cutting queue traffic on wide fan-in cones and stable registers.
    pending_events: Vec<u32>,
    suppressed_events: u64,
    /// Installed fault overlay, or `None` for a healthy instance (the
    /// hot paths pay one branch on the discriminant, nothing more).
    faults: Option<Box<FaultOverlay>>,
    /// Watchdog time horizon: events beyond this timestamp abort the
    /// settle with [`RunOutcome::LimitReached`] instead of being
    /// applied.  `INFINITY` (the default) disables the bound.
    horizon_ps: f64,
    /// Attached metric handles plus flush baselines, or `None` for an
    /// uninstrumented instance (the settle epilogue pays one branch on
    /// the discriminant, the event loop pays nothing).
    metrics: Option<Box<MetricsState>>,
    /// Attached waveform probe, or `None` (one branch per *effective*
    /// value change when absent, no allocation).
    wave: Option<Box<tm_obs::WaveProbe>>,
}

/// Metric handles with the baselines the flush diffs against (the
/// engine's own counters are cumulative; the registry receives
/// deltas so detach/re-attach never double-counts).
///
/// `armed` scopes what the registry sees: deltas accumulated while
/// disarmed (instance construction, the history-dependent spacer
/// phase of a return-to-zero cycle) are discarded at the next
/// re-baseline instead of shipped, so the recorded counters are a
/// pure function of the measured operands — the property that makes
/// sharded snapshots thread-count invariant.
#[derive(Debug)]
struct MetricsState {
    handles: tm_obs::SimMetrics,
    armed: bool,
    popped: u64,
    suppressed: u64,
    drain: u64,
    bucket: u64,
    overflow: u64,
}

/// The probe-facing view of a [`Logic`] level.
fn wire_of(value: Logic) -> tm_obs::Wire {
    match value {
        Logic::Zero => tm_obs::Wire::V0,
        Logic::One => tm_obs::Wire::V1,
        Logic::Unknown => tm_obs::Wire::X,
    }
}

impl<'a> Simulator<'a> {
    /// Default maximum number of events per [`Simulator::run_until_quiescent`] call.
    pub const DEFAULT_EVENT_LIMIT: u64 = 50_000_000;

    /// Creates a simulator for `netlist` with delays taken from `library`
    /// (at the library's current supply voltage and corner).
    ///
    /// All nets start at X; constant cells (`TIE0`/`TIE1`) are scheduled
    /// at time zero.
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &Library) -> Self {
        Self::from_program(Arc::new(EngineProgram::new(netlist, library)))
    }

    /// Like [`Simulator::new`] with an explicit event-queue granularity
    /// (see [`EventQueue::with_granularity`]) instead of the automatic
    /// sizing from the largest cell delay.  Pop order — and therefore
    /// every simulation result — is identical at any granularity
    /// (property-tested); this is a performance and testing knob.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width_ps` is not finite and positive or if
    /// `bucket_count` is zero.
    #[must_use]
    pub fn new_with_queue_granularity(
        netlist: &'a Netlist,
        library: &Library,
        bucket_width_ps: f64,
        bucket_count: usize,
    ) -> Self {
        Self::from_program(Arc::new(EngineProgram::with_queue_granularity(
            netlist,
            library,
            bucket_width_ps,
            bucket_count,
        )))
    }

    /// Creates a fresh simulator instance over an existing (possibly
    /// shared) [`EngineProgram`], allocating only this instance's mutable
    /// state.  All nets start at X; constant cells are scheduled at time
    /// zero, exactly as in [`Simulator::new`].
    #[must_use]
    pub fn from_program(program: Arc<EngineProgram<'a>>) -> Self {
        let net_count = program.netlist.net_count();
        let cell_count = program.netlist.cell_count();
        let queue = EventQueue::with_granularity(program.bucket_width_ps, program.bucket_count);
        let mut sim = Self {
            program,
            values: vec![Logic::Unknown; net_count],
            queue,
            now_ps: 0.0,
            cell_transitions: vec![0; cell_count],
            net_transitions: vec![0; net_count],
            last_change_ps: vec![f64::NAN; net_count],
            dff_last_clk: vec![Logic::Unknown; cell_count],
            event_limit: Self::DEFAULT_EVENT_LIMIT,
            total_events: 0,
            pending_events: vec![0; net_count],
            suppressed_events: 0,
            faults: None,
            horizon_ps: f64::INFINITY,
            metrics: None,
            wave: None,
        };
        sim.schedule_constants();
        sim
    }

    /// The shared immutable program this instance evaluates.
    #[must_use]
    pub fn program(&self) -> &Arc<EngineProgram<'a>> {
        &self.program
    }

    /// Schedules `value` on `net` at `time_ps`, tracking the in-flight
    /// event count used by the no-op suppression check.
    fn schedule(&mut self, net: NetId, value: Logic, time_ps: f64) {
        self.pending_events[net.index()] += 1;
        self.queue.push(Event {
            time_ps,
            net,
            value,
        });
    }

    /// Schedules `value` on `net` unless doing so is a provable no-op:
    /// with no event in flight for the net and the net already at
    /// `value`, the eventual apply would return before touching any load
    /// (state-holding or not), so the event can be dropped outright.
    /// Any in-flight event forces a schedule, because the net's value
    /// will change before this event applies.
    fn schedule_if_effective(&mut self, net: NetId, value: Logic, time_ps: f64) {
        if self.pending_events[net.index()] == 0 && self.values[net.index()] == value {
            self.suppressed_events += 1;
            return;
        }
        self.schedule(net, value, time_ps);
    }

    /// Pops the earliest event, keeping the in-flight counters in sync.
    fn pop_event(&mut self) -> Option<Event> {
        let event = self.queue.pop()?;
        self.pending_events[event.net.index()] -= 1;
        Some(event)
    }

    fn schedule_constants(&mut self) {
        for i in 0..self.program.constants.len() {
            let (net, value, delay_ps) = self.program.constants[i];
            let time_ps = self.now_ps + delay_ps;
            self.schedule(net, value, time_ps);
        }
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.program.netlist
    }

    /// Current simulation time in picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> f64 {
        self.now_ps
    }

    /// Whether scheduled events are still waiting to be applied.  True
    /// after a [`RunOutcome::LimitReached`] run (the queue still holds
    /// the unprocessed tail), which is how replayed-operand protocols
    /// detect an aborted cycle instead of tripping the
    /// [`Simulator::reset_time`] assertion.
    #[must_use]
    pub fn has_pending_events(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Changes the event limit used to detect runaway oscillation.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Bounds the watchdog time horizon: a
    /// [`Simulator::run_until_quiescent`] call that reaches an event
    /// beyond `horizon_ps` aborts with [`RunOutcome::LimitReached`]
    /// (leaving the tail pending, so [`Simulator::has_pending_events`]
    /// reports the aborted settle).  `f64::INFINITY` (the default)
    /// disables the bound.
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

    /// Installs `plan` as this instance's fault overlay, replacing any
    /// previous plan (an empty plan clears the overlay).  The shared
    /// [`EngineProgram`] is untouched: stuck values, perturbed delays
    /// and pulse schedules live entirely in this instance.  Stuck nets
    /// are forced to their stuck value at the current time; SEU pulses
    /// fire inside subsequent [`Simulator::run_until_quiescent`] calls
    /// and re-arm on every [`Simulator::reset_time`].
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
            self.schedule(net, Logic::from(value), self.now_ps);
        }
        self.faults = Some(Box::new(overlay));
    }

    /// Current value of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Values of all primary outputs, in port declaration order.
    #[must_use]
    pub fn output_values(&self) -> Vec<Logic> {
        self.program
            .netlist
            .primary_outputs()
            .iter()
            .map(|&n| self.value(n))
            .collect()
    }

    /// Current value of every net, indexed by [`NetId::index`].
    ///
    /// This is the full state of a settled combinational netlist (and,
    /// together with C-element outputs, of a settled sequential one) —
    /// the snapshot that the dual-rail drivers' reset-phase contract
    /// compares against.
    #[must_use]
    pub fn net_values(&self) -> &[Logic] {
        &self.values
    }

    /// Time of the most recent value change of `net`, or `None` if it has
    /// never changed.
    #[must_use]
    pub fn last_change_ps(&self, net: NetId) -> Option<f64> {
        let t = self.last_change_ps[net.index()];
        if t.is_nan() {
            None
        } else {
            Some(t)
        }
    }

    /// Number of value changes observed on `net`.
    #[must_use]
    pub fn net_transitions(&self, net: NetId) -> u64 {
        self.net_transitions[net.index()]
    }

    /// Number of output transitions of `cell`.
    #[must_use]
    pub fn cell_transitions(&self, cell: CellId) -> u64 {
        self.cell_transitions[cell.index()]
    }

    /// Total transitions across all cells since construction (or the last
    /// [`Simulator::clear_activity`]).
    #[must_use]
    pub fn total_cell_transitions(&self) -> u64 {
        self.cell_transitions.iter().sum()
    }

    /// Resets the transition counters without touching net values or time
    /// (used to exclude a warm-up phase from power accounting).
    pub fn clear_activity(&mut self) {
        self.cell_transitions.iter_mut().for_each(|c| *c = 0);
        self.net_transitions.iter_mut().for_each(|c| *c = 0);
    }

    /// Builds a [`celllib::ActivityProfile`] from the recorded activity
    /// over `duration_ps` picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration_ps` is not positive.
    #[must_use]
    pub fn activity_profile(&self, duration_ps: f64) -> ActivityProfile {
        let mut profile = ActivityProfile::new(duration_ps);
        for (id, _) in self.program.netlist.cells() {
            let count = self.cell_transitions[id.index()];
            if count > 0 {
                profile.record(id, count);
            }
        }
        profile
    }

    // ------------------------------------------------------------------
    // Stimulus
    // ------------------------------------------------------------------

    /// Drives a primary input to a value at the current simulation time.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: Logic) {
        assert!(
            self.program.netlist.is_primary_input(net),
            "net {net} is not a primary input"
        );
        self.schedule_if_effective(net, value, self.now_ps);
    }

    /// Drives a primary input with a boolean value.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input_bool(&mut self, net: NetId, value: bool) {
        self.set_input(net, Logic::from(value));
    }

    /// Forces an arbitrary net to a value (bypassing its driver) at the
    /// current time.  Useful to initialise flip-flop outputs.
    pub fn force_net(&mut self, net: NetId, value: Logic) {
        self.schedule_if_effective(net, value, self.now_ps);
    }

    /// Advances the simulation clock to `time_ps` without processing
    /// events (the time must not be in the past).
    ///
    /// # Panics
    ///
    /// Panics if `time_ps` is earlier than the current time.
    pub fn advance_to(&mut self, time_ps: f64) {
        assert!(
            time_ps >= self.now_ps,
            "cannot move time backwards ({} < {})",
            time_ps,
            self.now_ps
        );
        self.now_ps = time_ps;
    }

    /// Rebases the simulation clock to zero.  Net values, transition
    /// counters and suppression state are untouched; only the notion of
    /// "now" changes, and recorded change timestamps shift with it:
    /// every [`Simulator::last_change_ps`] entry moves into the new
    /// frame (becoming zero or negative — "before this frame started"),
    /// so "did this net move since `t`?" queries keep working across
    /// rebased cycles instead of reporting stale previous-frame times as
    /// future changes.
    ///
    /// Used by replayed-operand protocols ([`crate::run_return_to_zero`],
    /// the `dualrail` protocol drivers) so every operand's events carry
    /// identical absolute timestamps regardless of how many operands
    /// this instance has already processed — which makes per-operand
    /// latencies bit-identical across instances and thread counts, with
    /// no floating-point drift from accumulated offsets.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending (their timestamps would end up
    /// in this instance's future *and* past at once).
    pub fn reset_time(&mut self) {
        assert!(
            self.queue.is_empty(),
            "cannot reset time with {} events pending",
            self.queue.len()
        );
        if self.now_ps != 0.0 {
            for t in &mut self.last_change_ps {
                // NaN marks "never changed" and must stay NaN (it does:
                // NaN - x is NaN), so no branch is needed.
                *t -= self.now_ps;
            }
            if let Some(probe) = self.wave.as_deref_mut() {
                // The engine clock rewinds to zero; the probe keeps
                // absolute (monotonic) time by accumulating the offset.
                probe.rebase(self.now_ps);
            }
        }
        self.now_ps = 0.0;
        if let Some(faults) = &mut self.faults {
            faults.rearm_pulses();
        }
        // Measured work starts here: what follows the rebase is a pure
        // function of the next operand, so the metric deltas re-anchor
        // (discarding paused spacer/priming activity) and counting
        // resumes.
        if self.metrics.is_some() {
            self.rearm_metrics();
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Processes events until no activity remains or the watchdog trips
    /// (the event limit, or the time horizon set by
    /// [`Simulator::set_time_horizon_ps`]).  SEU pulses of an installed
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
                self.schedule(event.net, event.value, event.time_ps);
                self.flush_metrics();
                return RunOutcome::LimitReached;
            }
            processed += 1;
            self.total_events += 1;
            if processed > self.event_limit {
                self.flush_metrics();
                return RunOutcome::LimitReached;
            }
            self.apply_event(event);
        }
    }

    /// Processes exactly one **time slice**: every pending event sharing
    /// the earliest pending timestamp (SEU pulses of an installed
    /// [`FaultPlan`] fire first, in time order, exactly as in
    /// [`Simulator::run_until_quiescent`]).
    ///
    /// This is the observation primitive behind wavefront-pipelined
    /// protocol drivers: between slices the net values form a consistent
    /// snapshot of the circuit at one instant, so a caller can watch
    /// intermediate handshake states (a spacer wavefront draining while
    /// the next data wavefront rises) that
    /// [`Simulator::run_until_quiescent`] would run straight through.
    ///
    /// `budget` is a caller-held event allowance spanning a whole wait
    /// (typically initialised from [`Simulator::event_limit`]); it is
    /// decremented per applied event so a sliced wait enforces the same
    /// two-sided watchdog as a monolithic settle.  The time horizon is
    /// honoured identically: an over-horizon event is pushed back and
    /// the slice reports [`StepOutcome::LimitReached`].
    pub fn step_time_slice(&mut self, budget: &mut u64) -> StepOutcome {
        if self.faults.is_some() {
            self.fire_due_pulses();
        }
        let Some(first) = self.pop_event() else {
            return StepOutcome::Idle;
        };
        if first.time_ps > self.horizon_ps {
            self.schedule(first.net, first.value, first.time_ps);
            return StepOutcome::LimitReached;
        }
        let slice_ps = first.time_ps;
        let mut event = first;
        let mut processed = 0u64;
        loop {
            if processed >= *budget {
                // Push the unapplied event back before aborting so the
                // tail stays visible, mirroring the horizon path.
                self.schedule(event.net, event.value, event.time_ps);
                *budget = 0;
                return StepOutcome::LimitReached;
            }
            processed += 1;
            self.total_events += 1;
            self.apply_event(event);
            // A pulse due within the slice interleaves here, exactly as
            // the monolithic loop fires it before every pop.
            if self.faults.is_some() {
                self.fire_due_pulses();
            }
            match self.queue.next_time_ps() {
                Some(next) if next <= slice_ps => {
                    event = self.pop_event().expect("peeked event vanished");
                }
                _ => break,
            }
        }
        *budget -= processed;
        StepOutcome::Advanced { events: processed }
    }

    /// The configured per-settle event allowance (see
    /// [`Simulator::set_event_limit`]); callers stepping with
    /// [`Simulator::step_time_slice`] seed their budget from this.
    #[must_use]
    pub fn event_limit(&self) -> u64 {
        self.event_limit
    }

    /// Timestamp of the earliest queued event, if any. Wavefront
    /// controllers peek this between [`Simulator::step_time_slice`]
    /// calls to decide whether the next scheduled injection happens
    /// before or after the circuit's next intrinsic transition.
    #[must_use]
    pub fn next_event_time_ps(&self) -> Option<f64> {
        self.queue.next_time_ps()
    }

    /// Fires every armed SEU pulse that is due before the next queued
    /// event (or due at all, if the queue is empty): the net flips at
    /// the pulse start and its pre-pulse value is rescheduled one pulse
    /// width later.
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
            let old = self.values[pulse.net.index()];
            let flipped = match old {
                Logic::Zero => Logic::One,
                Logic::One => Logic::Zero,
                Logic::Unknown => Logic::Unknown,
            };
            // The restore is scheduled before the flip applies, so it
            // carries the pre-pulse value even if the driver reacts.
            self.schedule(pulse.net, old, at + pulse.duration_ps);
            self.apply_event(Event {
                time_ps: at,
                net: pulse.net,
                value: flipped,
            });
        }
    }

    /// Processes events with timestamps up to and including `time_ps`,
    /// leaving later events pending.  Returns the number of events
    /// processed.  Used by the synchronous testbench to advance one clock
    /// phase at a time.
    pub fn run_until(&mut self, time_ps: f64) -> u64 {
        let mut processed = 0u64;
        while let Some(next) = self.queue.next_time_ps() {
            if next > time_ps {
                break;
            }
            // The pop mirrors the peek that just matched, so it cannot
            // come back empty; the `let else` keeps the loop panic-free
            // regardless.
            let Some(event) = self.pop_event() else {
                break;
            };
            processed += 1;
            self.total_events += 1;
            self.apply_event(event);
        }
        self.now_ps = self.now_ps.max(time_ps);
        processed
    }

    /// Number of schedules dropped as provable no-ops: the target net
    /// had no event in flight and already held the scheduled value, so
    /// the apply would have returned before touching any load.  The rule
    /// covers gate re-evaluations, flip-flop captures and stimulus
    /// drives alike; schedules are never deduplicated against in-flight
    /// events (even identical ones) — the net's value will change before
    /// the new event applies, and state-holding loads are sensitive to
    /// the exact sequence of applied changes.
    #[must_use]
    pub fn suppressed_events(&self) -> u64 {
        self.suppressed_events
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Attaches a [`tm_obs::SimMetrics`] handle set: from now on every
    /// completed settle flushes the engine's internal counters (events
    /// popped/suppressed, queue tier traffic, watchdog headroom) into
    /// the registry the handles came from.  Flushing happens **per
    /// settle**, never per event, and ships deltas since the previous
    /// flush, so attaching mid-life or re-attaching never
    /// double-counts.  Attachment changes no simulation outcome
    /// (property-tested bit-identity with instrumentation on and off).
    ///
    /// Counting starts immediately (armed).  [`Simulator::reset_time`]
    /// re-baselines the deltas, and the return-to-zero runners pause
    /// counting over the history-dependent spacer phase, so per-operand
    /// recordings stay a pure function of the operand.
    pub fn attach_metrics(&mut self, handles: tm_obs::SimMetrics) {
        self.install_metrics(handles, true);
    }

    /// Like [`Simulator::attach_metrics`], but counting stays paused
    /// until the first [`Simulator::reset_time`] call — the attachment
    /// mode for replicated shard instances, whose construction and
    /// priming activity scales with the thread count and must not
    /// reach the shared registry.
    pub fn attach_metrics_deferred(&mut self, handles: tm_obs::SimMetrics) {
        self.install_metrics(handles, false);
    }

    fn install_metrics(&mut self, handles: tm_obs::SimMetrics, armed: bool) {
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        self.metrics = Some(Box::new(MetricsState {
            handles,
            armed,
            popped: self.total_events,
            suppressed: self.suppressed_events,
            drain,
            bucket,
            overflow,
        }));
    }

    /// Pauses metric counting: deltas accumulated from here until the
    /// next [`Simulator::reset_time`] are discarded, not shipped.  The
    /// return-to-zero runners bracket the spacer phase with this —
    /// spacer work depends on the previous operand (or on instance
    /// construction), so counting it would make recorded totals
    /// depend on sharding.
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

    /// Flushes counter deltas accumulated since the last flush into
    /// the attached registry (no-op when nothing is attached; while
    /// paused the deltas are discarded — baselines advance without
    /// shipping).  [`Simulator::run_until_quiescent`] calls this
    /// automatically; protocols driving the engine through
    /// [`Simulator::step_time_slice`] call it at their own cycle
    /// boundaries.
    pub fn flush_metrics(&mut self) {
        let (total_events, suppressed_events) = (self.total_events, self.suppressed_events);
        let Some(state) = self.metrics.as_deref_mut() else {
            return;
        };
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        if state.armed {
            state.handles.events_popped.add(total_events - state.popped);
            state
                .handles
                .events_suppressed
                .add(suppressed_events - state.suppressed);
            state.handles.queue_drain.add(drain - state.drain);
            state.handles.queue_bucket.add(bucket - state.bucket);
            state.handles.queue_overflow.add(overflow - state.overflow);
        }
        state.popped = total_events;
        state.suppressed = suppressed_events;
        state.drain = drain;
        state.bucket = bucket;
        state.overflow = overflow;
    }

    /// Re-baselines the metric deltas and resumes counting.  Called by
    /// [`Simulator::reset_time`] — the canonical "measured work starts
    /// now" point of every operand protocol.
    fn rearm_metrics(&mut self) {
        let (total_events, suppressed_events) = (self.total_events, self.suppressed_events);
        let Some(state) = self.metrics.as_deref_mut() else {
            return;
        };
        let (drain, bucket, overflow) = self.queue.tier_pushes();
        state.armed = true;
        state.popped = total_events;
        state.suppressed = suppressed_events;
        state.drain = drain;
        state.bucket = bucket;
        state.overflow = overflow;
    }

    /// Settle epilogue: flush deltas and record the per-settle
    /// watchdog headroom (budget left when quiescence was reached).
    /// Paused settles (spacer phases, instance priming) record
    /// nothing.
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

    /// Attaches a waveform probe.  The probe's watched nets are seeded
    /// with their current values (the VCD `$dumpvars` section), then
    /// every effective value change of a watched net is recorded at
    /// its event timestamp.  [`Simulator::reset_time`] rebases the
    /// probe clock along with the engine clock, so captures spanning
    /// replayed-operand protocols stay monotonic.
    pub fn attach_wave_probe(&mut self, mut probe: tm_obs::WaveProbe) {
        for net in probe.watched_nets() {
            let value = self
                .values
                .get(net)
                .copied()
                .map_or(tm_obs::Wire::X, wire_of);
            probe.set_initial(net, value);
        }
        self.wave = Some(Box::new(probe));
    }

    /// Detaches and returns the waveform probe, if one is attached.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.wave.take().map(|probe| *probe)
    }

    fn apply_event(&mut self, mut event: Event) {
        if let Some(faults) = &self.faults {
            // A stuck net clamps every applied value: the driver keeps
            // scheduling, but the net can never move again.
            let stuck = faults.stuck[event.net.index()];
            if stuck != NO_STUCK {
                event.value = Logic::from(stuck == 1);
            }
        }
        self.now_ps = self.now_ps.max(event.time_ps);
        let old = self.values[event.net.index()];
        if old == event.value {
            return;
        }
        self.values[event.net.index()] = event.value;
        self.last_change_ps[event.net.index()] = event.time_ps;
        self.net_transitions[event.net.index()] += 1;
        if let Some(probe) = self.wave.as_deref_mut() {
            probe.on_change(event.net.index(), event.time_ps, wire_of(event.value));
        }
        let driver = self.program.driver_of[event.net.index()];
        if driver != NO_DRIVER {
            self.cell_transitions[driver as usize] += 1;
        }

        // Propagate to every cell reading this net, iterating the
        // flattened CSR fanout range in place (no clone of the load
        // list).
        let start = self.program.fanout_offsets[event.net.index()] as usize;
        let end = self.program.fanout_offsets[event.net.index() + 1] as usize;
        for i in start..end {
            let (cell_id, pin) = self.program.fanout_loads[i];
            self.evaluate_cell(cell_id, usize::from(pin), event.time_ps);
        }
    }

    fn evaluate_cell(&mut self, cell_id: CellId, changed_pin: usize, time_ps: f64) {
        // All per-cell data comes from the shared program's flattened
        // arrays; the `Netlist` itself is never touched here.
        let program = &self.program;
        let index = cell_id.index();
        let kind = program.cell_kind[index];
        let delay = match &self.faults {
            Some(faults) => faults.cell_delay_ps[index],
            None => program.cell_delay_ps[index],
        };
        let start = program.cell_input_offsets[index] as usize;
        let end = program.cell_input_offsets[index + 1] as usize;
        let input_nets = &program.cell_input_nets[start..end];
        let out = program.cell_output[index] as usize;

        if kind == CellKind::Dff {
            // Pin 1 is the clock; capture D on a 0 -> 1 edge.
            if changed_pin == 1 {
                let clk = self.values[input_nets[1] as usize];
                let previous_clk = self.dff_last_clk[index];
                if previous_clk == Logic::Zero && clk == Logic::One {
                    let d = self.values[input_nets[0] as usize];
                    self.schedule_if_effective(NetId::from_index(out), d, time_ps + delay);
                }
                self.dff_last_clk[index] = clk;
            }
            return;
        }

        // One three-valued table load replaces the functional evaluation.
        let new_value = program.lut_output(index, &self.values);

        self.schedule_if_effective(NetId::from_index(out), new_value, time_ps + delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::CellKind;

    fn lib() -> Library {
        Library::umc_ll()
    }

    #[test]
    fn propagates_through_combinational_logic() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
        let y = nl.add_cell("or", CellKind::Or2, &[ab, c]).unwrap();
        nl.add_output("y", y);

        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(a, true);
        sim.set_input_bool(b, true);
        sim.set_input_bool(c, false);
        let outcome = sim.run_until_quiescent();
        assert!(outcome.is_quiescent());
        assert_eq!(sim.value(y), Logic::One);
        // Two gate delays must have elapsed.
        assert!(sim.now_ps() >= 2.0 * library.cell_delay(CellKind::And2, 1));
    }

    #[test]
    fn latency_matches_sum_of_gate_delays_along_path() {
        let mut nl = Netlist::new("chain");
        let mut net = nl.add_input("a");
        for i in 0..5 {
            net = nl
                .add_cell(format!("buf{i}"), CellKind::Buf, &[net])
                .unwrap();
        }
        nl.add_output("y", net);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(nl.find_net("a").unwrap(), true);
        sim.run_until_quiescent();
        let expected = 5.0 * library.cell_delay(CellKind::Buf, 1);
        let got = sim.last_change_ps(net).unwrap();
        assert!(
            (got - expected).abs() < 1e-6,
            "expected {expected}, got {got}"
        );
    }

    #[test]
    fn x_propagates_until_inputs_are_driven() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        assert_eq!(sim.value(y), Logic::Unknown);
        // Driving only one input with a non-controlling value keeps X.
        sim.set_input_bool(a, true);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Unknown);
        // A controlling 0 resolves the output even with the other input X.
        sim.set_input_bool(a, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn c_element_behaviour_in_simulation() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("c", CellKind::CElement2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);

        sim.set_input_bool(a, false);
        sim.set_input_bool(b, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero);

        sim.set_input_bool(a, true);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero, "holds until both inputs high");

        sim.set_input_bool(b, true);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::One);

        sim.set_input_bool(a, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::One, "holds until both inputs low");

        sim.set_input_bool(b, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let mut nl = Netlist::new("reg");
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_cell("ff", CellKind::Dff, &[d, clk]).unwrap();
        nl.add_output("q", q);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);

        sim.set_input_bool(clk, false);
        sim.set_input_bool(d, true);
        sim.run_until_quiescent();
        assert_eq!(sim.value(q), Logic::Unknown, "no edge yet");

        sim.set_input_bool(clk, true);
        sim.run_until_quiescent();
        assert_eq!(sim.value(q), Logic::One, "captured on rising edge");

        sim.set_input_bool(d, false);
        sim.run_until_quiescent();
        assert_eq!(
            sim.value(q),
            Logic::One,
            "data change alone does not propagate"
        );

        sim.set_input_bool(clk, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(q), Logic::One, "falling edge does not capture");

        sim.set_input_bool(clk, true);
        sim.run_until_quiescent();
        assert_eq!(
            sim.value(q),
            Logic::Zero,
            "next rising edge captures new data"
        );
    }

    #[test]
    fn tie_cells_drive_constants_at_time_zero() {
        let mut nl = Netlist::new("t");
        let one = nl.add_cell("tie1", CellKind::Tie1, &[]).unwrap();
        let zero = nl.add_cell("tie0", CellKind::Tie0, &[]).unwrap();
        let y = nl.add_cell("and", CellKind::And2, &[one, zero]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.run_until_quiescent();
        assert_eq!(sim.value(one), Logic::One);
        assert_eq!(sim.value(zero), Logic::Zero);
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn transition_counting_and_activity_profile() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        for i in 0..10 {
            sim.set_input_bool(a, i % 2 == 0);
            sim.run_until_quiescent();
        }
        let cell = nl.driver_cell(y).unwrap();
        assert_eq!(sim.cell_transitions(cell), 10);
        assert_eq!(sim.net_transitions(y), 10);
        let profile = sim.activity_profile(1000.0);
        assert_eq!(profile.total_transitions(), 10);
        sim.clear_activity();
        assert_eq!(sim.total_cell_transitions(), 0);
    }

    #[test]
    fn oscillator_hits_event_limit() {
        // A ring oscillator: three inverters in a loop (built via explicit nets).
        let mut nl = Netlist::new("ring");
        let fb = nl.add_net_named("fb").unwrap();
        let x = nl.add_cell("inv1", CellKind::Inv, &[fb]).unwrap();
        let y = nl.add_cell("inv2", CellKind::Inv, &[x]).unwrap();
        nl.add_cell_with_output("inv3", CellKind::Inv, &[y], fb)
            .unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_event_limit(1000);
        sim.force_net(fb, Logic::Zero);
        let outcome = sim.run_until_quiescent();
        assert_eq!(outcome, RunOutcome::LimitReached);
    }

    #[test]
    fn run_until_stops_at_requested_time() {
        let mut nl = Netlist::new("chain");
        let mut net = nl.add_input("a");
        for i in 0..10 {
            net = nl
                .add_cell(format!("buf{i}"), CellKind::Buf, &[net])
                .unwrap();
        }
        nl.add_output("y", net);
        let library = lib();
        let buf_delay = library.cell_delay(CellKind::Buf, 1);
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(nl.find_net("a").unwrap(), true);
        // Run for only three gate delays: the output must still be X.
        sim.run_until(3.5 * buf_delay);
        assert_eq!(sim.value(net), Logic::Unknown);
        sim.run_until_quiescent();
        assert_eq!(sim.value(net), Logic::One);
    }

    #[test]
    fn zero_allocation_kernel_matches_functional_evaluator() {
        // The CSR fanout walk, stack input gather and no-op suppression
        // must leave simulation results unchanged: settle a mixed
        // combinational/sequential netlist on every input pattern and
        // compare each settled output with the golden Evaluator.
        use netlist::Evaluator;
        use std::collections::HashMap;

        let mut nl = Netlist::new("mixed");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
        let bc = nl.add_cell("nor", CellKind::Nor2, &[b, c]).unwrap();
        let aoi = nl.add_cell("aoi", CellKind::Aoi21, &[ab, bc, c]).unwrap();
        let maj = nl.add_cell("maj", CellKind::Maj3, &[ab, bc, aoi]).unwrap();
        let cel = nl
            .add_cell("cel", CellKind::CElement2, &[aoi, maj])
            .unwrap();
        nl.add_output("aoi", aoi);
        nl.add_output("cel", cel);

        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        let eval = Evaluator::new(&nl).unwrap();
        let mut state = netlist::EvalState::new();

        for pattern in 0..16u32 {
            // Revisit patterns 0..8 twice so C-element state is exercised.
            let bits = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
            sim.set_input_bool(a, bits[0]);
            sim.set_input_bool(b, bits[1]);
            sim.set_input_bool(c, bits[2]);
            assert!(sim.run_until_quiescent().is_quiescent());

            let map = HashMap::from([(a, bits[0]), (b, bits[1]), (c, bits[2])]);
            let golden = eval.eval_with_state(&map, &mut state);
            for net in [aoi, cel] {
                assert_eq!(
                    sim.value(net),
                    Logic::from(golden[net.index()]),
                    "net {net} diverged at pattern {pattern:#b}"
                );
            }
        }
    }

    #[test]
    fn force_net_with_pending_driver_event_does_not_wedge() {
        // Forcing a net while a driver event for it is still pending must
        // not leave the suppression tracker pointing at a value the net
        // does not hold (the forced event applies first, the pending
        // driver event overwrites it).
        let mut nl = Netlist::new("force");
        let a = nl.add_input("a");
        let y = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);

        sim.set_input_bool(a, true);
        // Process only the input event: the buffer's y:=1 stays pending.
        sim.run_until(0.0);
        sim.force_net(y, Logic::Zero);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::One, "pending driver event wins");

        // The driver now computes 0; the re-evaluation must not be
        // suppressed against the stale forced value.
        sim.set_input_bool(a, false);
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero, "net wedged at stale value");
    }

    #[test]
    fn no_op_reevaluations_are_suppressed() {
        // A wide fan-in AND cone held at 0 by one controlling input:
        // toggling the other inputs re-evaluates the gates but must not
        // flood the queue with identical-value events.
        let mut nl = Netlist::new("cone");
        let hold = nl.add_input("hold");
        let toggles: Vec<_> = (0..3).map(|i| nl.add_input(format!("t{i}"))).collect();
        let y = nl
            .add_cell(
                "and",
                CellKind::And4,
                &[hold, toggles[0], toggles[1], toggles[2]],
            )
            .unwrap();
        nl.add_output("y", y);

        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(hold, false);
        for &t in &toggles {
            sim.set_input_bool(t, false);
        }
        sim.run_until_quiescent();
        assert_eq!(sim.value(y), Logic::Zero);

        let before = sim.suppressed_events();
        for round in 0..4 {
            for &t in &toggles {
                sim.set_input_bool(t, round % 2 == 0);
                sim.run_until_quiescent();
            }
        }
        assert_eq!(sim.value(y), Logic::Zero, "output must stay at 0");
        assert_eq!(sim.net_transitions(y), 1, "only the initial X->0 change");
        assert!(
            sim.suppressed_events() > before,
            "re-evaluations of the held gate should be suppressed"
        );
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_internal_net_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(y, true);
    }

    #[test]
    fn shared_program_instances_are_independent() {
        // Two instances over one Arc'd program must not observe each
        // other's state, and a fresh instance must behave exactly like a
        // fresh `Simulator::new`.
        let mut nl = Netlist::new("shared");
        let a = nl.add_input("a");
        let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let program = Arc::new(EngineProgram::new(&nl, &library));

        let mut first = Simulator::from_program(Arc::clone(&program));
        first.set_input_bool(a, true);
        first.run_until_quiescent();
        assert_eq!(first.value(y), Logic::Zero);

        let mut second = Simulator::from_program(Arc::clone(&program));
        assert_eq!(
            second.value(y),
            Logic::Unknown,
            "fresh instance starts at X"
        );
        second.set_input_bool(a, false);
        second.run_until_quiescent();
        assert_eq!(second.value(y), Logic::One);
        assert_eq!(first.value(y), Logic::Zero, "first instance untouched");

        let mut reference = Simulator::new(&nl, &library);
        reference.set_input_bool(a, false);
        reference.run_until_quiescent();
        assert_eq!(reference.now_ps(), second.now_ps());
        assert_eq!(reference.value(y), second.value(y));
    }

    #[test]
    fn reset_time_rebases_the_clock() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(a, true);
        sim.run_until_quiescent();
        let first_settle = sim.now_ps();
        assert!(first_settle > 0.0);

        sim.reset_time();
        assert_eq!(sim.now_ps(), 0.0);
        sim.set_input_bool(a, false);
        sim.run_until_quiescent();
        // The same single-buffer path now yields the same absolute time.
        assert_eq!(sim.now_ps(), first_settle);
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn reset_time_shifts_change_timestamps_into_the_past_frame() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(a, true);
        sim.run_until_quiescent();
        let settle = sim.now_ps();
        assert_eq!(sim.last_change_ps(y), Some(settle));

        // After the rebase the previous frame's changes are at or before
        // zero — never in the new frame's future.
        sim.reset_time();
        assert_eq!(sim.last_change_ps(y), Some(0.0));
        assert_eq!(sim.last_change_ps(a), Some(-settle));

        // A net that never changed stays "never changed".
        let mut fresh = Simulator::new(&nl, &library);
        fresh.run_until_quiescent();
        fresh.reset_time();
        assert_eq!(fresh.last_change_ps(y), None);
    }

    #[test]
    #[should_panic(expected = "cannot reset time")]
    fn reset_time_with_pending_events_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let mut sim = Simulator::new(&nl, &library);
        sim.set_input_bool(a, true);
        sim.reset_time();
    }
}
