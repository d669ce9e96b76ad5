//! Gate-level fault injection and watchdog-typed settle errors.
//!
//! The engines normally assume a fault-free netlist, which makes the
//! paper's *self-checking* claim untestable: a stuck-at fault on a
//! completion-tree net would spin the event loop until the event limit,
//! and nothing classifies whether a fault was caught by the dual-rail
//! encoding, corrupted an answer silently, or simply hung the
//! handshake.  This module supplies the two missing pieces:
//!
//! * **[`FaultPlan`]** — a declarative overlay of gate-level faults
//!   (stuck-at-0/1 nets, transient SEU pulses, per-cell delay
//!   perturbations) installed on a [`crate::Simulator`] or
//!   [`crate::SlicedSimulator`] *instance*.  The shared
//!   [`crate::EngineProgram`] is never touched, so one compilation can
//!   back healthy and faulted instances side by side, and an empty plan
//!   is bit-identical to no plan at all (property-tested).
//! * **[`SettleError`]** — the typed non-settle failure returned by the
//!   checked return-to-zero runners ([`crate::try_run_return_to_zero`],
//!   [`crate::try_run_word_return_to_zero`]): a faulted circuit that
//!   oscillates or stalls trips the **watchdog** (event limit and/or
//!   time horizon) and returns [`SettleError::Watchdog`] instead of
//!   hanging or panicking, so fault campaigns always terminate.
//!
//! # Fault semantics
//!
//! * **Stuck-at** — every value applied to the net is clamped to the
//!   stuck value from the moment the plan is installed (the net is also
//!   forced to the stuck value at install time).  Drivers keep
//!   evaluating, but their schedules can never move the net again.
//! * **SEU pulse** — at `at_ps` (in the current time frame) the net's
//!   value is flipped (0↔1; X stays X) and the pre-pulse value is
//!   rescheduled `duration_ps` later, modelling a transient upset that
//!   the driver may or may not overwrite first.  Pulses re-arm when the
//!   clock is rebased ([`crate::Simulator::reset_time`]), i.e. once per
//!   injection phase of a return-to-zero cycle, and fire only inside
//!   `run_until_quiescent` (the bounded-horizon run loops).
//! * **Delay perturbation** — the cell's transport delay is scaled by a
//!   per-cell factor, modelling a marginal gate that breaks the timing
//!   assumptions the bundled-data alternative would rely on.

use std::fmt;

use netlist::{CellId, NetId};

use crate::program::EngineProgram;

/// Sentinel in the per-net stuck table: the net is healthy.
pub(crate) const NO_STUCK: u8 = u8::MAX;

/// A transient single-event upset: `net` is flipped at `at_ps` and its
/// pre-pulse value is rescheduled `duration_ps` later.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeuPulse {
    /// The struck net.
    pub net: NetId,
    /// Pulse start in picoseconds, relative to the time frame in which
    /// the simulator runs (pulses re-arm when the clock is rebased).
    pub at_ps: f64,
    /// Pulse width in picoseconds (the pre-pulse value is rescheduled
    /// this long after the flip).
    pub duration_ps: f64,
}

/// A declarative set of gate-level faults, installed on a simulator
/// instance via [`crate::Simulator::set_fault_plan`] or
/// [`crate::SlicedSimulator::set_fault_plan`] without recompiling the
/// shared [`EngineProgram`].
///
/// Plans are built fluently:
///
/// ```
/// use netlist::{Netlist, CellKind};
/// use gatesim::FaultPlan;
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let y = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
/// let cell = nl.driver_cell(y).unwrap();
/// let plan = FaultPlan::new()
///     .stuck_at(y, true)
///     .seu(a, 100.0, 25.0)
///     .scale_delay(cell, 10.0);
/// assert!(!plan.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    stuck: Vec<(NetId, bool)>,
    pulses: Vec<SeuPulse>,
    delay_scales: Vec<(CellId, f64)>,
}

impl FaultPlan {
    /// An empty plan (no faults).  Installing an empty plan is
    /// bit-identical to never installing one.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan contains no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stuck.is_empty() && self.pulses.is_empty() && self.delay_scales.is_empty()
    }

    /// Adds a stuck-at fault: `net` is clamped to `value` for the rest
    /// of the simulation.
    #[must_use]
    pub fn stuck_at(mut self, net: NetId, value: bool) -> Self {
        self.stuck.push((net, value));
        self
    }

    /// Adds a transient SEU pulse on `net` starting at `at_ps` and
    /// lasting `duration_ps` (see [`SeuPulse`]).
    ///
    /// # Panics
    ///
    /// Panics if `at_ps` is negative or `duration_ps` is not finite and
    /// positive.
    #[must_use]
    pub fn seu(mut self, net: NetId, at_ps: f64, duration_ps: f64) -> Self {
        assert!(
            at_ps >= 0.0 && at_ps.is_finite(),
            "SEU start must be finite and non-negative, got {at_ps}"
        );
        assert!(
            duration_ps > 0.0 && duration_ps.is_finite(),
            "SEU duration must be finite and positive, got {duration_ps}"
        );
        self.pulses.push(SeuPulse {
            net,
            at_ps,
            duration_ps,
        });
        self
    }

    /// Adds a delay perturbation: `cell`'s transport delay is scaled by
    /// `factor` (e.g. `10.0` models a marginal gate an order of
    /// magnitude slower than characterised).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn scale_delay(mut self, cell: CellId, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "delay scale factor must be finite and positive, got {factor}"
        );
        self.delay_scales.push((cell, factor));
        self
    }

    /// The stuck-at faults of this plan, in insertion order.
    #[must_use]
    pub fn stuck_faults(&self) -> &[(NetId, bool)] {
        &self.stuck
    }

    /// The SEU pulses of this plan, in insertion order.
    #[must_use]
    pub fn pulses(&self) -> &[SeuPulse] {
        &self.pulses
    }

    /// The delay perturbations of this plan, in insertion order.
    #[must_use]
    pub fn delay_scales(&self) -> &[(CellId, f64)] {
        &self.delay_scales
    }
}

/// Which phase of a return-to-zero cycle failed to settle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettlePhase {
    /// The all-zero spacer phase.
    Spacer,
    /// The operand-injection phase.
    Injection,
}

impl fmt::Display for SettlePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SettlePhase::Spacer => write!(f, "spacer"),
            SettlePhase::Injection => write!(f, "injection"),
        }
    }
}

/// Typed non-settle failure from the checked return-to-zero runners
/// ([`crate::try_run_return_to_zero`],
/// [`crate::try_run_word_return_to_zero`]).  Fault campaigns classify
/// these as *timeout* instead of crashing the process as the panicking
/// runners do.
#[derive(Clone, Debug, PartialEq)]
pub enum SettleError {
    /// The watchdog tripped — the event limit or time horizon was
    /// reached before the phase settled (oscillation, or a fault that
    /// stalls the handshake).
    Watchdog {
        /// Which phase was running when the watchdog tripped.
        phase: SettlePhase,
    },
}

impl fmt::Display for SettleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SettleError::Watchdog { phase } => write!(
                f,
                "{phase} phase failed to settle \
                 (watchdog: event limit or time horizon reached before quiescence)"
            ),
        }
    }
}

impl std::error::Error for SettleError {}

/// The per-instance mutable state a [`FaultPlan`] compiles into: dense
/// per-net/per-cell overlays the hot paths index directly, plus the
/// pulse schedule.  Boxed behind an `Option` on each simulator so the
/// healthy path pays one branch, nothing more.
#[derive(Clone, Debug)]
pub(crate) struct FaultOverlay {
    /// Per net: `0`/`1` for stuck-at, [`NO_STUCK`] for healthy.
    pub(crate) stuck: Vec<u8>,
    /// Per cell: the effective transport delay (library delay times any
    /// perturbation) — a private copy, the shared program's delays are
    /// untouched.
    pub(crate) cell_delay_ps: Vec<f64>,
    /// SEU pulses sorted by start time.
    pub(crate) pulses: Vec<SeuPulse>,
    /// Per pulse: fired in the current time frame (re-armed on clock
    /// rebase).
    pub(crate) fired: Vec<bool>,
}

impl FaultOverlay {
    /// Compiles `plan` against `program`'s netlist dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a net or cell outside the netlist.
    pub(crate) fn new(plan: &FaultPlan, program: &EngineProgram<'_>) -> Self {
        let net_count = program.netlist.net_count();
        let cell_count = program.netlist.cell_count();
        let mut stuck = vec![NO_STUCK; net_count];
        for &(net, value) in &plan.stuck {
            assert!(
                net.index() < net_count,
                "stuck-at fault on net {net} outside the netlist ({net_count} nets)"
            );
            stuck[net.index()] = u8::from(value);
        }
        let mut cell_delay_ps = program.cell_delay_ps.clone();
        for &(cell, factor) in &plan.delay_scales {
            assert!(
                cell.index() < cell_count,
                "delay fault on cell {cell} outside the netlist ({cell_count} cells)"
            );
            cell_delay_ps[cell.index()] *= factor;
        }
        let mut pulses = plan.pulses.clone();
        for pulse in &pulses {
            assert!(
                pulse.net.index() < net_count,
                "SEU fault on net {} outside the netlist ({net_count} nets)",
                pulse.net
            );
        }
        pulses.sort_by(|a, b| a.at_ps.total_cmp(&b.at_ps));
        let fired = vec![false; pulses.len()];
        Self {
            stuck,
            cell_delay_ps,
            pulses,
            fired,
        }
    }

    /// Re-arms every pulse for a new time frame (called on clock
    /// rebase, i.e. once per return-to-zero injection phase).
    pub(crate) fn rearm_pulses(&mut self) {
        self.fired.iter_mut().for_each(|f| *f = false);
    }

    /// Index of the earliest unfired pulse due before `next_queue_ps`
    /// (or due at all, if the queue is empty).  The caller marks it
    /// fired and applies it.
    pub(crate) fn due_pulse(&self, next_queue_ps: Option<f64>) -> Option<usize> {
        let i = self.fired.iter().position(|&fired| !fired)?;
        match next_queue_ps {
            Some(next) if self.pulses[i].at_ps > next => None,
            _ => Some(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new(), FaultPlan::default());
    }

    #[test]
    fn builder_accumulates_faults() {
        let net = NetId::from_index(0);
        let cell = CellId::from_index(0);
        let plan = FaultPlan::new()
            .stuck_at(net, true)
            .seu(net, 5.0, 1.0)
            .scale_delay(cell, 2.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.stuck_faults(), &[(net, true)]);
        assert_eq!(plan.pulses().len(), 1);
        assert_eq!(plan.delay_scales(), &[(cell, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "SEU duration must be finite and positive")]
    fn zero_duration_seu_is_rejected() {
        let _ = FaultPlan::new().seu(NetId::from_index(0), 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "delay scale factor must be finite and positive")]
    fn non_positive_delay_scale_is_rejected() {
        let _ = FaultPlan::new().scale_delay(CellId::from_index(0), 0.0);
    }

    #[test]
    fn settle_error_messages_name_the_phase() {
        let spacer = SettleError::Watchdog {
            phase: SettlePhase::Spacer,
        };
        assert!(spacer.to_string().contains("spacer phase failed to settle"));
        let injection = SettleError::Watchdog {
            phase: SettlePhase::Injection,
        };
        assert!(injection
            .to_string()
            .contains("injection phase failed to settle"));
    }
}
