//! Seeded netlist mutations for exercising the verifier.
//!
//! Each [`MutationKind`] builds a small dual-rail circuit with exactly
//! one deliberate defect and names the diagnostic code the verifier
//! must raise for it.  The unmutated [`base_circuit`] is clean by
//! construction, so the property the test suite checks is sharp:
//! *mutant ⇒ expected code present, base ⇒ empty report*.

use dualrail::{DualRailNetlist, DualRailSignal, ReducedCompletion, SpacerPolarity};
use netlist::CellKind;

use crate::report::DiagCode;

/// The deliberate defects the suite can inject, covering all three
/// analysis families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// A named net with no driver and no loads (`S002`).
    OrphanNet,
    /// A cell reading a net nothing drives (`S001`).
    UndrivenInput,
    /// A two-cell cone whose output reaches nothing (`S003`).
    DeadCone,
    /// A buffer loop with no state-holding cell on it (`S004`).
    CombinationalLoop,
    /// An output signal whose rails alias one net (`D101`).
    RailAlias,
    /// No completion network at all (`D102`).
    MissingDone,
    /// A completion tree that observes only one of two outputs
    /// (`D102`).
    DropCompletionInput,
    /// A probe's validity detector wired into the C-element tree
    /// (`D103`) — the stale-probe case.
    ProbeIntoCompletion,
    /// An output rail behind a level inverter, so it idles at 1
    /// (`D104`).
    InvertedRail,
    /// An XOR on the rails (`T201`, Requirement 2).
    NonUnateGate,
    /// A join of one rising and one falling input (`T202`).
    DirectionConflict,
    /// An output tied to constants, so completion never fires and the
    /// wavefront separation interval is undefined (`T203`).
    ConstantOutput,
}

impl MutationKind {
    /// Every mutation kind.
    pub const ALL: [MutationKind; 12] = [
        MutationKind::OrphanNet,
        MutationKind::UndrivenInput,
        MutationKind::DeadCone,
        MutationKind::CombinationalLoop,
        MutationKind::RailAlias,
        MutationKind::MissingDone,
        MutationKind::DropCompletionInput,
        MutationKind::ProbeIntoCompletion,
        MutationKind::InvertedRail,
        MutationKind::NonUnateGate,
        MutationKind::DirectionConflict,
        MutationKind::ConstantOutput,
    ];

    /// The diagnostic code the verifier must raise for this mutation.
    #[must_use]
    pub fn expected_code(self) -> DiagCode {
        match self {
            MutationKind::OrphanNet => DiagCode::FloatingNet,
            MutationKind::UndrivenInput => DiagCode::UndrivenNet,
            MutationKind::DeadCone => DiagCode::UnreachableCell,
            MutationKind::CombinationalLoop => DiagCode::CombinationalLoop,
            MutationKind::RailAlias => DiagCode::RailPairing,
            MutationKind::MissingDone | MutationKind::DropCompletionInput => {
                DiagCode::CompletionCoverage
            }
            MutationKind::ProbeIntoCompletion => DiagCode::ProbeInCompletion,
            MutationKind::InvertedRail => DiagCode::SpacerUnreachable,
            MutationKind::NonUnateGate => DiagCode::NonUnateCell,
            MutationKind::DirectionConflict => DiagCode::DirectionConflict,
            MutationKind::ConstantOutput => DiagCode::SeparationHazard,
        }
    }

    /// Stable name used in smoke output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MutationKind::OrphanNet => "orphan_net",
            MutationKind::UndrivenInput => "undriven_input",
            MutationKind::DeadCone => "dead_cone",
            MutationKind::CombinationalLoop => "combinational_loop",
            MutationKind::RailAlias => "rail_alias",
            MutationKind::MissingDone => "missing_done",
            MutationKind::DropCompletionInput => "drop_completion_input",
            MutationKind::ProbeIntoCompletion => "probe_into_completion",
            MutationKind::InvertedRail => "inverted_rail",
            MutationKind::NonUnateGate => "non_unate_gate",
            MutationKind::DirectionConflict => "direction_conflict",
            MutationKind::ConstantOutput => "constant_output",
        }
    }
}

/// Builds the half-finished base: three dual-rail inputs, a probed
/// intermediate product and two outputs, **without** completion (so
/// mutations can build broken completion networks).
fn open_base(name: String, seed: u64) -> (DualRailNetlist, Parts) {
    let mut dr = DualRailNetlist::new(name);
    let a = dr.add_dual_input("a");
    let b = dr.add_dual_input("b");
    let c = dr.add_dual_input("c");
    let t = dr.and2("t", a, b).expect("base and2");
    dr.declare_probe("t", t);
    let y0 = dr.or2("y0", t, c).expect("base or2");
    let y1 = dr.and2("y1", a, c).expect("base and2");
    dr.add_dual_output("y0", y0);
    dr.add_dual_output("y1", y1);
    let inputs = [a, b, c];
    let picked = inputs[(seed % 3) as usize];
    (dr, Parts { picked, t, y0, y1 })
}

/// Signals of the base circuit a mutation may target.
struct Parts {
    /// Seed-selected dual-rail input.
    picked: DualRailSignal,
    /// The probed intermediate.
    t: DualRailSignal,
    /// First output.
    y0: DualRailSignal,
    /// Second output.
    y1: DualRailSignal,
}

/// The clean reference circuit for `seed` (completion inserted).
///
/// # Panics
///
/// Panics only on netlist-construction bugs in this module.
#[must_use]
pub fn base_circuit(seed: u64) -> DualRailNetlist {
    let (mut dr, _) = open_base(format!("lint_base_{seed}"), seed);
    ReducedCompletion::insert(&mut dr).expect("completion over two outputs");
    dr
}

/// Builds the mutant for `kind` and `seed`.
///
/// # Panics
///
/// Panics only on netlist-construction bugs in this module.
#[must_use]
pub fn mutant(kind: MutationKind, seed: u64) -> DualRailNetlist {
    let name = format!("lint_mutant_{}_{seed}", kind.as_str());
    let (mut dr, parts) = open_base(name, seed);
    match kind {
        MutationKind::OrphanNet => {
            ReducedCompletion::insert(&mut dr).expect("completion");
            dr.netlist_mut()
                .add_net_named(format!("orphan_{seed}"))
                .expect("fresh net name");
        }
        MutationKind::UndrivenInput => {
            ReducedCompletion::insert(&mut dr).expect("completion");
            let nl = dr.netlist_mut();
            let src = nl
                .add_net_named(format!("undriven_src_{seed}"))
                .expect("fresh net name");
            nl.add_cell(format!("ghost_{seed}"), CellKind::Buf, &[src])
                .expect("ghost cell");
        }
        MutationKind::DeadCone => {
            ReducedCompletion::insert(&mut dr).expect("completion");
            let rail = parts.picked.positive;
            let nl = dr.netlist_mut();
            let mid = nl
                .add_cell(format!("dead1_{seed}"), CellKind::Buf, &[rail])
                .expect("dead cell 1");
            nl.add_cell(format!("dead2_{seed}"), CellKind::Buf, &[mid])
                .expect("dead cell 2");
        }
        MutationKind::CombinationalLoop => {
            ReducedCompletion::insert(&mut dr).expect("completion");
            let nl = dr.netlist_mut();
            let back = nl
                .add_net_named(format!("loop_back_{seed}"))
                .expect("fresh net name");
            let fwd = nl
                .add_cell(format!("loop_fwd_{seed}"), CellKind::Buf, &[back])
                .expect("loop cell");
            nl.add_cell_with_output(format!("loop_close_{seed}"), CellKind::Buf, &[fwd], back)
                .expect("loop closes");
        }
        MutationKind::RailAlias => {
            let alias = DualRailSignal::new(
                parts.y0.positive,
                parts.y0.positive,
                SpacerPolarity::AllZero,
            );
            dr.add_dual_output("alias", alias);
            ReducedCompletion::insert(&mut dr).expect("completion");
        }
        MutationKind::MissingDone => {}
        MutationKind::DropCompletionInput => {
            // Observe y0 only; y1 settles unacknowledged.
            let done = dr
                .netlist_mut()
                .add_cell(
                    "cd_valid_y0",
                    CellKind::Or2,
                    &[parts.y0.positive, parts.y0.negative],
                )
                .expect("validity detector");
            dr.set_done(done);
        }
        MutationKind::ProbeIntoCompletion => {
            // A full hand-built tree — with the probe's validity
            // detector as a third completion input (the stale-probe
            // case: `done` re-times on a signal that is not an output).
            let pairs = [("y0", parts.y0), ("y1", parts.y1), ("probe_t", parts.t)];
            let mut validity = Vec::new();
            for (tag, signal) in pairs {
                let v = dr
                    .netlist_mut()
                    .add_cell(
                        format!("cd_valid_{tag}"),
                        CellKind::Or2,
                        &[signal.positive, signal.negative],
                    )
                    .expect("validity detector");
                validity.push(v);
            }
            let done = dr
                .netlist_mut()
                .add_c_element_tree("cd_done", &validity)
                .expect("C-element tree");
            dr.set_done(done);
        }
        MutationKind::InvertedRail => {
            let inv = dr
                .netlist_mut()
                .add_cell(
                    format!("rail_inv_{seed}"),
                    CellKind::Inv,
                    &[parts.y1.positive],
                )
                .expect("rail inverter");
            let broken = DualRailSignal::new(inv, parts.y1.negative, SpacerPolarity::AllZero);
            dr.add_dual_output("y1_inv", broken);
            ReducedCompletion::insert(&mut dr).expect("completion");
        }
        MutationKind::NonUnateGate => {
            let (p, n) = {
                let nl = dr.netlist_mut();
                let p = nl
                    .add_cell(
                        format!("bad_xor_{seed}"),
                        CellKind::Xor2,
                        &[parts.picked.positive, parts.t.positive],
                    )
                    .expect("xor cell");
                let n = nl
                    .add_cell(
                        format!("bad_xor_n_{seed}"),
                        CellKind::Or2,
                        &[parts.picked.negative, parts.t.negative],
                    )
                    .expect("companion rail");
                (p, n)
            };
            dr.add_dual_output("yx", DualRailSignal::new(p, n, SpacerPolarity::AllZero));
            ReducedCompletion::insert(&mut dr).expect("completion");
        }
        MutationKind::DirectionConflict => {
            let (p, n) = {
                let nl = dr.netlist_mut();
                let inv = nl
                    .add_cell(
                        format!("dc_inv_{seed}"),
                        CellKind::Inv,
                        &[parts.picked.positive],
                    )
                    .expect("inverter");
                let p = nl
                    .add_cell(
                        format!("dc_join_{seed}"),
                        CellKind::And2,
                        &[parts.t.positive, inv],
                    )
                    .expect("conflicting join");
                let n = nl
                    .add_cell(
                        format!("dc_n_{seed}"),
                        CellKind::Or2,
                        &[parts.t.negative, parts.picked.negative],
                    )
                    .expect("companion rail");
                (p, n)
            };
            dr.add_dual_output("dc", DualRailSignal::new(p, n, SpacerPolarity::AllZero));
            ReducedCompletion::insert(&mut dr).expect("completion");
        }
        MutationKind::ConstantOutput => {
            let (p, n) = {
                let nl = dr.netlist_mut();
                let p = nl
                    .add_cell(format!("tie_p_{seed}"), CellKind::Tie0, &[])
                    .expect("tie cell");
                let n = nl
                    .add_cell(format!("tie_n_{seed}"), CellKind::Tie0, &[])
                    .expect("tie cell");
                (p, n)
            };
            dr.add_dual_output("konst", DualRailSignal::new(p, n, SpacerPolarity::AllZero));
            ReducedCompletion::insert(&mut dr).expect("completion");
        }
    }
    dr
}
