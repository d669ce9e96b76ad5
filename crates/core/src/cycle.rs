//! The four-phase cycle's port rules, shared by every protocol driver.
//!
//! The environment applies a valid codeword and waits for valid outputs
//! and `done`, then returns the inputs to spacer and waits for the
//! outputs and `done` to reset.  This module decides what each step
//! must look like at the circuit's ports: the spacer and valid drives,
//! the end-of-phase checks with their typed errors, probe decoding and
//! the per-cycle instrument record.  The drivers differ only in how
//! they step the simulator and measure time, so each rule takes one
//! lane's view of a settled net, `value: impl Fn(NetId) -> Logic`.

use gatesim::Logic;
use netlist::NetId;

use crate::{DualRailError, DualRailNetlist, DualRailSignal, DualRailValue, OneOfNValue};

/// One cycle's decoded outputs: the dual output bits, then each 1-of-n
/// group's name and selected index, in declaration order.
pub(crate) type DecodedOutputs = (Vec<bool>, Vec<(String, usize)>);

/// The optional request input: circuits with C-element input latches
/// expose a primary input named `req`, which the environment asserts
/// together with valid data and deasserts together with the spacer.
pub(crate) fn request_input(circuit: &DualRailNetlist) -> Option<NetId> {
    let netlist = circuit.netlist();
    netlist
        .find_net("req")
        .filter(|&n| netlist.is_primary_input(n))
}

/// The spacer drive as `(input, level)`: `req` low, then the positive
/// and negative rail of every dual input at its spacer level, in
/// declaration order.  The scalar simulator schedules events in drive
/// order, so this order is part of every measured latency.
pub(crate) fn spacer_drive(
    circuit: &DualRailNetlist,
    req: Option<NetId>,
) -> impl Iterator<Item = (NetId, bool)> + '_ {
    let inputs = circuit.dual_inputs().iter().flat_map(|(_, signal)| {
        let (p, n) = DualRailValue::encode_spacer(signal.polarity);
        [(signal.positive, p), (signal.negative, n)]
    });
    req.map(|req| (req, false)).into_iter().chain(inputs)
}

/// The valid drive of `bits` (one per dual input, in declaration order)
/// as `(input, level)`, in the order of [`spacer_drive`] with `req`
/// high.
pub(crate) fn valid_drive<'c>(
    circuit: &'c DualRailNetlist,
    req: Option<NetId>,
    bits: &'c [bool],
) -> impl Iterator<Item = (NetId, bool)> + 'c {
    let inputs = circuit
        .dual_inputs()
        .iter()
        .zip(bits)
        .flat_map(|((_, signal), &bit)| valid_rails(signal, bit));
    req.map(|req| (req, true)).into_iter().chain(inputs)
}

/// One dual input's share of the valid drive: its positive, then its
/// negative rail, with the levels that encode `bit`.
pub(crate) fn valid_rails(signal: &DualRailSignal, bit: bool) -> [(NetId, bool); 2] {
    let (p, n) = DualRailValue::encode_valid(bit, signal.polarity);
    [(signal.positive, p), (signal.negative, n)]
}

/// The end-of-valid-phase check: every dual output holds a valid
/// codeword, then every 1-of-n group selects exactly one wire, then
/// `done` (when present) has risen.  Returns the decoded outputs.
pub(crate) fn check_valid(
    circuit: &DualRailNetlist,
    value: impl Fn(NetId) -> Logic,
) -> Result<DecodedOutputs, DualRailError> {
    let mut outputs = Vec::new();
    for (name, signal) in circuit.dual_outputs() {
        match DualRailValue::decode(
            value(signal.positive),
            value(signal.negative),
            signal.polarity,
        ) {
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
    for (name, wires) in circuit.one_of_n_outputs() {
        let values: Vec<Logic> = wires.iter().map(|&w| value(w)).collect();
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
    if circuit.done().is_some_and(|done| !value(done).is_one()) {
        return Err(DualRailError::ProtocolViolation {
            description: "done failed to rise after a valid codeword".to_string(),
        });
    }
    Ok((outputs, groups))
}

/// The end-of-spacer-phase check: every dual output is back at its
/// spacer, then every 1-of-n group, then `done` (when present) has
/// fallen.
pub(crate) fn check_spacer(
    circuit: &DualRailNetlist,
    value: impl Fn(NetId) -> Logic,
) -> Result<(), DualRailError> {
    for (name, signal) in circuit.dual_outputs() {
        match DualRailValue::decode(
            value(signal.positive),
            value(signal.negative),
            signal.polarity,
        ) {
            DualRailValue::Spacer => {}
            DualRailValue::Forbidden => {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description: "both rails are active after the spacer phase".to_string(),
                })
            }
            other => {
                return Err(DualRailError::ProtocolViolation {
                    description: format!("output {name:?} is {other:?} after the spacer phase"),
                })
            }
        }
    }
    for (name, wires) in circuit.one_of_n_outputs() {
        let values: Vec<Logic> = wires.iter().map(|&w| value(w)).collect();
        if OneOfNValue::decode(&values) != OneOfNValue::Spacer {
            return Err(DualRailError::ProtocolViolation {
                description: format!("1-of-n output {name:?} did not return to spacer"),
            });
        }
    }
    if circuit.done().is_some_and(|done| !value(done).is_zero()) {
        return Err(DualRailError::ProtocolViolation {
            description: "done failed to fall after the spacer phase".to_string(),
        });
    }
    Ok(())
}

/// Every declared probe decoded under `value`, in declaration order.
/// Probes carry no protocol obligations, so any codeword, spacer and
/// forbidden included, is recorded as it is.
pub(crate) fn decode_probes(
    circuit: &DualRailNetlist,
    value: impl Fn(NetId) -> Logic,
) -> Vec<(String, DualRailValue)> {
    circuit
        .probes()
        .iter()
        .map(|(name, signal)| {
            let decoded = DualRailValue::decode(
                value(signal.positive),
                value(signal.negative),
                signal.polarity,
            );
            (name.clone(), decoded)
        })
        .collect()
}

/// The violation of monotonic switching (Requirement 2): `net` switched
/// `delta` times within one phase.
pub(crate) fn non_monotonic(net: NetId, delta: u64) -> DualRailError {
    DualRailError::ProtocolViolation {
        description: format!("net {net} switched {delta} times in one phase (non-monotonic)"),
    }
}

/// The break of the reset-phase contract: `net` settled to `got` after
/// a return-to-zero phase where the quiescent snapshot holds
/// `expected`.
pub(crate) fn spacer_state_mismatch(net: NetId, got: Logic, expected: Logic) -> DualRailError {
    DualRailError::SpacerStateMismatch {
        description: format!(
            "net {net} settled to {got:?} after the return-to-zero phase but the quiescent \
             snapshot holds {expected:?}; the post-cycle state depends on operand history, so \
             this circuit cannot be sharded"
        ),
    }
}

/// Records one completed cycle on the attached instruments, if any:
/// the cycle count, both phase durations and, when the cycle's spacer
/// state was `verified` against the snapshot, a verification pass.
pub(crate) fn record_cycle(
    metrics: Option<&tm_obs::ProtocolMetrics>,
    s_to_v_ps: f64,
    v_to_s_ps: f64,
    verified: bool,
) {
    if let Some(metrics) = metrics {
        metrics.cycles.inc();
        metrics.spacer_to_valid_ps.record(whole_ps(s_to_v_ps));
        metrics.valid_to_spacer_ps.record(whole_ps(v_to_s_ps));
        if verified {
            metrics.spacer_verify_passes.inc();
        }
    }
}

/// Rounds a picosecond duration to the whole-ps integer the histogram
/// instruments record (phase durations are non-negative by protocol).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn whole_ps(ps: f64) -> u64 {
    ps.round().max(0.0) as u64
}

/// The latest of `times`, or `None` when there are none.
pub(crate) fn latest(times: impl IntoIterator<Item = f64>) -> Option<f64> {
    times.into_iter().fold(None, |acc: Option<f64>, t| {
        Some(acc.map_or(t, |best| best.max(t)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DualRailSignal, SpacerPolarity};

    const X: Logic = Logic::Unknown;
    const L: Logic = Logic::Zero;
    const H: Logic = Logic::One;

    /// The ports of a small circuit: a dual output `y`, a 1-of-3 group
    /// `cmp`, a probe `p` and `done`.  The rules read only the ports,
    /// so no cell drives them.
    struct Ports {
        circuit: DualRailNetlist,
        y: DualRailSignal,
        cmp: [NetId; 3],
        probe: DualRailSignal,
        done: NetId,
    }

    fn ports() -> Ports {
        let mut circuit = DualRailNetlist::new("ports");
        let mut net = |name: &str| circuit.netlist_mut().add_net_named(name).unwrap();
        let y = DualRailSignal::new(net("y_p"), net("y_n"), SpacerPolarity::AllZero);
        let cmp = [net("cmp0"), net("cmp1"), net("cmp2")];
        let probe = DualRailSignal::new(net("p_p"), net("p_n"), SpacerPolarity::AllZero);
        let done = net("done");
        circuit.add_dual_output("y", y);
        circuit.add_one_of_n_output("cmp", cmp.to_vec());
        circuit.declare_probe("p", probe);
        circuit.set_done(done);
        Ports {
            circuit,
            y,
            cmp,
            probe,
            done,
        }
    }

    impl Ports {
        /// One lane's view of a settled valid phase: `y` carries 1,
        /// `cmp` selects wire 1, the probe carries 0 and `done` is high.
        fn valid(&self) -> Vec<(NetId, Logic)> {
            vec![
                (self.y.positive, H),
                (self.y.negative, L),
                (self.cmp[0], L),
                (self.cmp[1], H),
                (self.cmp[2], L),
                (self.probe.positive, L),
                (self.probe.negative, H),
                (self.done, H),
            ]
        }

        /// One lane's view of a settled spacer phase: every port low.
        fn spacer(&self) -> Vec<(NetId, Logic)> {
            self.valid().into_iter().map(|(net, _)| (net, L)).collect()
        }
    }

    /// `levels` with `changes` applied, as a per-net view.
    fn view(levels: &[(NetId, Logic)], changes: &[(NetId, Logic)]) -> impl Fn(NetId) -> Logic {
        let mut levels = levels.to_vec();
        for &(net, level) in changes {
            levels.iter_mut().find(|(n, _)| *n == net).unwrap().1 = level;
        }
        move |net| levels.iter().find(|(n, _)| *n == net).unwrap().1
    }

    fn violation(description: &str) -> DualRailError {
        DualRailError::ProtocolViolation {
            description: description.to_string(),
        }
    }

    fn illegal(output: &str, description: &str) -> DualRailError {
        DualRailError::IllegalCodeword {
            output: output.to_string(),
            description: description.to_string(),
        }
    }

    #[test]
    fn a_settled_valid_phase_decodes_every_output() {
        let p = ports();
        assert_eq!(
            check_valid(&p.circuit, view(&p.valid(), &[])),
            Ok((vec![true], vec![("cmp".to_string(), 1)]))
        );
    }

    #[test]
    fn the_valid_check_rejects_a_forbidden_dual_output() {
        let p = ports();
        let value = view(&p.valid(), &[(p.y.negative, H)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(illegal(
                "y",
                "both rails are active when a valid codeword was expected"
            ))
        );
    }

    #[test]
    fn the_valid_check_rejects_a_dual_output_still_at_spacer() {
        let p = ports();
        let value = view(&p.valid(), &[(p.y.positive, L)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(violation(
                "output \"y\" is Spacer when a valid codeword was expected"
            ))
        );
        let value = view(&p.valid(), &[(p.y.positive, X)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(violation(
                "output \"y\" is Unknown when a valid codeword was expected"
            ))
        );
    }

    #[test]
    fn the_valid_check_rejects_a_forbidden_one_of_n_group() {
        let p = ports();
        let value = view(&p.valid(), &[(p.cmp[2], H)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(illegal(
                "cmp",
                "more than one 1-of-n wire is active when a valid codeword was expected"
            ))
        );
    }

    #[test]
    fn the_valid_check_rejects_a_one_of_n_group_still_at_spacer() {
        let p = ports();
        let value = view(&p.valid(), &[(p.cmp[1], L)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(violation(
                "1-of-n output \"cmp\" is Spacer when a valid codeword was expected"
            ))
        );
    }

    /// `done` is checked last: valid outputs with `done` low fail it,
    /// while a bad output wins over a low `done`.
    #[test]
    fn the_valid_check_requires_done_to_rise() {
        let p = ports();
        let value = view(&p.valid(), &[(p.done, L)]);
        assert_eq!(
            check_valid(&p.circuit, value),
            Err(violation("done failed to rise after a valid codeword"))
        );
        let value = view(&p.valid(), &[(p.done, L), (p.y.negative, H)]);
        assert!(matches!(
            check_valid(&p.circuit, value),
            Err(DualRailError::IllegalCodeword { .. })
        ));
    }

    #[test]
    fn a_settled_spacer_phase_passes() {
        let p = ports();
        assert_eq!(check_spacer(&p.circuit, view(&p.spacer(), &[])), Ok(()));
        // Probes carry no obligations, so a probe left valid passes.
        let value = view(&p.spacer(), &[(p.probe.positive, H)]);
        assert_eq!(check_spacer(&p.circuit, value), Ok(()));
    }

    #[test]
    fn the_spacer_check_rejects_a_forbidden_dual_output() {
        let p = ports();
        let value = view(&p.spacer(), &[(p.y.positive, H), (p.y.negative, H)]);
        assert_eq!(
            check_spacer(&p.circuit, value),
            Err(illegal("y", "both rails are active after the spacer phase"))
        );
    }

    #[test]
    fn the_spacer_check_rejects_a_dual_output_still_valid() {
        let p = ports();
        let value = view(&p.spacer(), &[(p.y.positive, H)]);
        assert_eq!(
            check_spacer(&p.circuit, value),
            Err(violation(
                "output \"y\" is Valid(true) after the spacer phase"
            ))
        );
    }

    #[test]
    fn the_spacer_check_rejects_a_one_of_n_wire_still_high() {
        let p = ports();
        let value = view(&p.spacer(), &[(p.cmp[0], H)]);
        assert_eq!(
            check_spacer(&p.circuit, value),
            Err(violation("1-of-n output \"cmp\" did not return to spacer"))
        );
    }

    #[test]
    fn the_spacer_check_requires_done_to_fall() {
        let p = ports();
        let value = view(&p.spacer(), &[(p.done, H)]);
        assert_eq!(
            check_spacer(&p.circuit, value),
            Err(violation("done failed to fall after the spacer phase"))
        );
    }

    #[test]
    fn probes_decode_whatever_they_hold() {
        let p = ports();
        let decoded =
            |changes: &[(NetId, Logic)]| decode_probes(&p.circuit, view(&p.valid(), changes));
        assert_eq!(
            decoded(&[]),
            vec![("p".to_string(), DualRailValue::Valid(false))]
        );
        assert_eq!(
            decoded(&[(p.probe.negative, L)]),
            vec![("p".to_string(), DualRailValue::Spacer)]
        );
        assert_eq!(
            decoded(&[(p.probe.positive, H)]),
            vec![("p".to_string(), DualRailValue::Forbidden)]
        );
    }

    /// The drives list `req` first, then each dual input's positive and
    /// negative rail in declaration order, under each input's polarity.
    #[test]
    fn drives_follow_req_then_rails_in_declaration_order() {
        let mut circuit = DualRailNetlist::new("drives");
        let a = circuit.add_dual_input_with_polarity("a", SpacerPolarity::AllZero);
        let b = circuit.add_dual_input_with_polarity("b", SpacerPolarity::AllOne);
        assert_eq!(request_input(&circuit), None);
        let collect = |drive: &mut dyn Iterator<Item = (NetId, bool)>| drive.collect::<Vec<_>>();
        let spacer = [
            (a.positive, false),
            (a.negative, false),
            (b.positive, true),
            (b.negative, true),
        ];
        let valid = [
            (a.positive, true),
            (a.negative, false),
            (b.positive, false),
            (b.negative, true),
        ];
        assert_eq!(collect(&mut spacer_drive(&circuit, None)), spacer);
        let bits = [true, false];
        assert_eq!(collect(&mut valid_drive(&circuit, None, &bits)), valid);

        let req = circuit.netlist_mut().add_input("req");
        assert_eq!(request_input(&circuit), Some(req));
        let with_req = |level, rails: &[(NetId, bool)]| {
            let mut drive = vec![(req, level)];
            drive.extend_from_slice(rails);
            drive
        };
        assert_eq!(
            collect(&mut spacer_drive(&circuit, Some(req))),
            with_req(false, &spacer)
        );
        assert_eq!(
            collect(&mut valid_drive(&circuit, Some(req), &bits)),
            with_req(true, &valid)
        );
    }

    /// Only a primary input named `req` is the request input.
    #[test]
    fn an_internal_net_named_req_is_not_the_request_input() {
        let mut circuit = DualRailNetlist::new("internal");
        circuit.netlist_mut().add_net_named("req").unwrap();
        assert_eq!(request_input(&circuit), None);
    }

    #[test]
    fn violation_texts_name_the_net_and_the_counts() {
        let net = NetId::from_index(984);
        assert_eq!(
            non_monotonic(net, 2),
            violation("net n984 switched 2 times in one phase (non-monotonic)")
        );
        assert_eq!(
            spacer_state_mismatch(net, H, L),
            DualRailError::SpacerStateMismatch {
                description: "net n984 settled to One after the return-to-zero phase but the \
                              quiescent snapshot holds Zero; the post-cycle state depends on \
                              operand history, so this circuit cannot be sharded"
                    .to_string(),
            }
        );
    }

    #[test]
    fn a_recorded_cycle_rounds_both_phases_to_whole_picoseconds() {
        let registry = tm_obs::MetricsRegistry::new();
        let metrics = tm_obs::ProtocolMetrics::register(&registry, "t");
        record_cycle(Some(&metrics), 12.4, 7.6, true);
        record_cycle(Some(&metrics), 0.5, 3.0, false);
        record_cycle(None, 100.0, 100.0, true);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("t.cycles"), 2);
        assert_eq!(snapshot.counter("t.spacer_verify_passes"), 1);
        let sum = |name: &str| match snapshot.get(name) {
            Some(tm_obs::MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            other => panic!("{name} is not a histogram: {other:?}"),
        };
        assert_eq!(sum("t.spacer_to_valid_ps"), (2, 12 + 1));
        assert_eq!(sum("t.valid_to_spacer_ps"), (2, 8 + 3));
    }

    #[test]
    fn latest_is_the_maximum_or_none() {
        assert_eq!(latest([]), None);
        assert_eq!(latest([3.0, 7.5, -1.0]), Some(7.5));
    }
}
