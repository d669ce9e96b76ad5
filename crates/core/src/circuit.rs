//! The [`DualRailNetlist`] container: a structural netlist whose ports
//! are grouped into dual-rail signals (and optional 1-of-n groups), with
//! spacer-polarity bookkeeping and an optional `done` output.

use netlist::{NetId, Netlist};

use crate::{DualRailError, SpacerPolarity};

/// One dual-rail signal: a pair of nets plus the spacer polarity it
/// currently uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DualRailSignal {
    /// The positive rail (active for logical 1).
    pub positive: NetId,
    /// The negative rail (active for logical 0).
    pub negative: NetId,
    /// Which state encodes the spacer on this signal.
    pub polarity: SpacerPolarity,
}

impl DualRailSignal {
    /// Creates a signal description.
    #[must_use]
    pub fn new(positive: NetId, negative: NetId, polarity: SpacerPolarity) -> Self {
        Self {
            positive,
            negative,
            polarity,
        }
    }

    /// The same wires viewed as the logical complement (rails swapped).
    ///
    /// This is the zero-cost dual-rail inverter: no gates are needed, and
    /// the spacer polarity is unchanged.
    #[must_use]
    pub fn complement(self) -> Self {
        Self {
            positive: self.negative,
            negative: self.positive,
            polarity: self.polarity,
        }
    }
}

/// A netlist whose environment-facing interface is organised as
/// dual-rail signals, 1-of-n groups and an optional completion (`done`)
/// output.
///
/// The underlying flat [`Netlist`] is always accessible — analysis
/// passes (STA, simulation, area accounting) operate on it directly.
#[derive(Clone, Debug)]
pub struct DualRailNetlist {
    netlist: Netlist,
    inputs: Vec<(String, DualRailSignal)>,
    outputs: Vec<(String, DualRailSignal)>,
    one_of_n_outputs: Vec<(String, Vec<NetId>)>,
    probes: Vec<(String, DualRailSignal)>,
    done: Option<NetId>,
    /// Positions in `inputs` of the dual inputs that change from one
    /// operand to the next, ascending; `None` until declared.
    varying: Option<Vec<usize>>,
}

impl DualRailNetlist {
    /// Creates an empty dual-rail netlist with the given module name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            netlist: Netlist::new(name),
            inputs: Vec::new(),
            outputs: Vec::new(),
            one_of_n_outputs: Vec::new(),
            probes: Vec::new(),
            done: None,
            varying: None,
        }
    }

    /// Wraps an existing netlist (used by the automatic expansion).
    #[must_use]
    pub fn from_netlist(netlist: Netlist) -> Self {
        Self {
            netlist,
            inputs: Vec::new(),
            outputs: Vec::new(),
            one_of_n_outputs: Vec::new(),
            probes: Vec::new(),
            done: None,
            varying: None,
        }
    }

    /// The underlying flat netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the underlying netlist (used by generators).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Declares a dual-rail primary input named `name` (creates ports
    /// `<name>_p` and `<name>_n`) with the all-zero spacer convention.
    pub fn add_dual_input(&mut self, name: impl Into<String>) -> DualRailSignal {
        let name = name.into();
        let positive = self.netlist.add_input(format!("{name}_p"));
        let negative = self.netlist.add_input(format!("{name}_n"));
        let signal = DualRailSignal::new(positive, negative, SpacerPolarity::AllZero);
        self.inputs.push((name, signal));
        signal
    }

    /// Declares an existing signal as a dual-rail primary output named
    /// `name` (creates ports `<name>_p` and `<name>_n`).
    pub fn add_dual_output(&mut self, name: impl Into<String>, signal: DualRailSignal) {
        let name = name.into();
        self.netlist
            .add_output(format!("{name}_p"), signal.positive);
        self.netlist
            .add_output(format!("{name}_n"), signal.negative);
        self.outputs.push((name, signal));
    }

    /// Declares a group of nets as a 1-of-n coded primary output.
    pub fn add_one_of_n_output(&mut self, name: impl Into<String>, wires: Vec<NetId>) {
        let name = name.into();
        for (i, &wire) in wires.iter().enumerate() {
            self.netlist.add_output(format!("{name}_{i}"), wire);
        }
        self.one_of_n_outputs.push((name, wires));
    }

    /// Declares an internal dual-rail signal as a named **probe**:
    /// an observation point the protocol environment decodes during the
    /// valid phase of every cycle without making it a primary output.
    ///
    /// Probes never join the handshake — they are not observed by
    /// completion detection and impose no protocol obligations (a probe
    /// may legitimately read as a constant or a spacer), which is
    /// exactly why they exist: exporting an internal bus as real
    /// outputs would change the completion network, while a probe
    /// leaves the circuit untouched.  Datapath generators use probes to
    /// expose internal vote counts to the inference decoders.
    pub fn declare_probe(&mut self, name: impl Into<String>, signal: DualRailSignal) {
        self.probes.push((name.into(), signal));
    }

    /// Declared probe signals in declaration order.
    #[must_use]
    pub fn probes(&self) -> &[(String, DualRailSignal)] {
        &self.probes
    }

    /// Registers the completion (`done`) output net.
    pub fn set_done(&mut self, done: NetId) {
        self.netlist.add_output("done", done);
        self.done = Some(done);
    }

    /// The completion output, if completion detection has been inserted.
    #[must_use]
    pub fn done(&self) -> Option<NetId> {
        self.done
    }

    /// Dual-rail inputs in declaration order.
    #[must_use]
    pub fn dual_inputs(&self) -> &[(String, DualRailSignal)] {
        &self.inputs
    }

    /// Declares that of the dual inputs only those named in `names`
    /// change from one operand to the next, while every other one, also
    /// any declared later, holds its level across a stream of operands
    /// (a trained model's exclude masks, say).  A later declaration
    /// replaces this one.  The word driver then settles a word whose
    /// live lanes agree on every held input on an arrival program
    /// specialised to those levels (see
    /// [`crate::SlicedProtocolDriver::apply_word`]); results are the
    /// same either way.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::UnknownSignal`] for a name no dual input
    /// has, and leaves any earlier declaration in place.
    pub fn declare_varying_inputs<S: AsRef<str>>(
        &mut self,
        names: &[S],
    ) -> Result<(), DualRailError> {
        let mut varying = names
            .iter()
            .map(|name| {
                let name = name.as_ref();
                self.inputs
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| DualRailError::UnknownSignal(name.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        varying.sort_unstable();
        varying.dedup();
        self.varying = Some(varying);
        Ok(())
    }

    /// Positions in [`DualRailNetlist::dual_inputs`] of the inputs that
    /// change from one operand to the next, ascending, or `None` when
    /// the circuit declares none (see
    /// [`DualRailNetlist::declare_varying_inputs`]).
    #[must_use]
    pub fn varying_inputs(&self) -> Option<&[usize]> {
        self.varying.as_deref()
    }

    /// Dual-rail outputs in declaration order.
    #[must_use]
    pub fn dual_outputs(&self) -> &[(String, DualRailSignal)] {
        &self.outputs
    }

    /// 1-of-n outputs in declaration order.
    #[must_use]
    pub fn one_of_n_outputs(&self) -> &[(String, Vec<NetId>)] {
        &self.one_of_n_outputs
    }

    /// Finds a dual-rail input by name.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::UnknownSignal`] if no input has the name.
    pub fn dual_input(&self, name: &str) -> Result<DualRailSignal, DualRailError> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or_else(|| DualRailError::UnknownSignal(name.to_string()))
    }

    /// Finds a dual-rail output by name.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::UnknownSignal`] if no output has the name.
    pub fn dual_output(&self, name: &str) -> Result<DualRailSignal, DualRailError> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or_else(|| DualRailError::UnknownSignal(name.to_string()))
    }

    /// All nets observed by the environment as data (the rails of every
    /// dual-rail output plus every 1-of-n wire), excluding `done`.
    #[must_use]
    pub fn observed_output_nets(&self) -> Vec<NetId> {
        let mut nets = Vec::new();
        for (_, signal) in &self.outputs {
            nets.push(signal.positive);
            nets.push(signal.negative);
        }
        for (_, wires) in &self.one_of_n_outputs {
            nets.extend(wires.iter().copied());
        }
        nets
    }

    /// Number of dual-rail inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of dual-rail outputs (1-of-n groups not included).
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Consumes the wrapper and returns the underlying netlist.
    #[must_use]
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }
}

#[cfg(test)]
impl DualRailNetlist {
    /// Declares a dual-rail primary input with the given spacer
    /// polarity ([`DualRailNetlist::add_dual_input`] always uses the
    /// all-zero spacer), for tests of polarity-dependent drives.
    pub(crate) fn add_dual_input_with_polarity(
        &mut self,
        name: &str,
        polarity: SpacerPolarity,
    ) -> DualRailSignal {
        let signal = DualRailSignal {
            polarity,
            ..self.add_dual_input(name)
        };
        self.inputs.last_mut().expect("an input was just added").1 = signal;
        signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_ports_create_rail_pairs() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        assert_eq!(dr.netlist().primary_inputs().len(), 2);
        assert!(dr.netlist().find_net("a_p").is_some());
        assert!(dr.netlist().find_net("a_n").is_some());
        assert_eq!(a.polarity, SpacerPolarity::AllZero);

        dr.add_dual_output("y", a);
        assert_eq!(dr.netlist().primary_outputs().len(), 2);
        assert_eq!(dr.output_count(), 1);
        assert_eq!(dr.input_count(), 1);
    }

    #[test]
    fn complement_swaps_rails_without_gates() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        let not_a = a.complement();
        assert_eq!(not_a.positive, a.negative);
        assert_eq!(not_a.negative, a.positive);
        assert_eq!(not_a.polarity, a.polarity);
        assert_eq!(dr.netlist().cell_count(), 0);
        assert_eq!(not_a.complement(), a);
    }

    #[test]
    fn signal_lookup_by_name() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        dr.add_dual_output("y", a);
        assert_eq!(dr.dual_input("a").unwrap(), a);
        assert_eq!(dr.dual_output("y").unwrap(), a);
        assert!(matches!(
            dr.dual_input("zzz"),
            Err(DualRailError::UnknownSignal(_))
        ));
    }

    #[test]
    fn observed_outputs_include_one_of_n_groups() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        dr.add_dual_output("y", a);
        let w0 = dr.netlist_mut().add_input("w0");
        let w1 = dr.netlist_mut().add_input("w1");
        let w2 = dr.netlist_mut().add_input("w2");
        dr.add_one_of_n_output("cmp", vec![w0, w1, w2]);
        let observed = dr.observed_output_nets();
        assert_eq!(observed.len(), 5);
        assert_eq!(dr.one_of_n_outputs().len(), 1);
    }

    #[test]
    fn probes_are_recorded_without_becoming_ports() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        // The probe target is *not* an output, so every check below
        // really exercises the probe path.
        let b = dr.add_dual_input("b");
        dr.add_dual_output("y", a);
        let ports_before = dr.netlist().primary_outputs().len();
        dr.declare_probe("watch_b", b);
        assert_eq!(dr.probes(), &[("watch_b".to_string(), b)]);
        assert_eq!(
            dr.netlist().primary_outputs().len(),
            ports_before,
            "a probe must not add primary outputs"
        );
        let observed = dr.observed_output_nets();
        assert!(
            !observed.contains(&b.positive) && !observed.contains(&b.negative),
            "probes must not join the observed output set"
        );
    }

    #[test]
    fn done_is_registered_as_port() {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        dr.add_dual_output("y", a);
        assert_eq!(dr.done(), None);
        let done_net = dr.netlist_mut().add_input("done_src");
        dr.set_done(done_net);
        assert_eq!(dr.done(), Some(done_net));
        assert!(dr.netlist().find_net("done_src").is_some());
    }

    #[test]
    fn varying_inputs_are_declared_by_name_in_declaration_order() {
        let mut circuit = DualRailNetlist::new("t");
        for name in ["a", "b", "c"] {
            circuit.add_dual_input(name);
        }
        assert_eq!(circuit.varying_inputs(), None);
        circuit.declare_varying_inputs(&["c", "a", "c"]).unwrap();
        assert_eq!(circuit.varying_inputs(), Some(&[0, 2][..]));
        assert_eq!(
            circuit.declare_varying_inputs(&["b", "d"]),
            Err(DualRailError::UnknownSignal("d".to_string()))
        );
        assert_eq!(circuit.varying_inputs(), Some(&[0, 2][..]));
        circuit.declare_varying_inputs::<&str>(&[]).unwrap();
        assert_eq!(circuit.varying_inputs(), Some(&[][..]));
    }
}
