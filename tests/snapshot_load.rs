//! Sliced dual-rail word drivers start every lane from the canonical
//! quiescent snapshot (`SlicedSimulator::load_settled_state`) instead of
//! settling each fresh instance from X.  These tests keep the settle
//! that the load replaced as the oracle, on the shipped datapaths (both
//! completion schemes, two `DatapathConfig` shapes):
//!
//! - a fresh instance settled from X reaches the snapshot on all 64
//!   lanes;
//! - a driver built through the load pops no event in its construction
//!   settle, and returns word results and a metrics snapshot
//!   bit-identical to a driver built on the instance settled from X;
//! - a snapshot of the wrong length, or one that is not a fixed point
//!   of the circuit, is a typed error: never a panic, never a start
//!   from an unstable state.

use std::sync::Arc;

use tm_async::celllib::Library;
use tm_async::datapath::{
    CompletionScheme, DatapathConfig, DatapathOptions, DualRailDatapath, InferenceWorkload,
};
use tm_async::dualrail::{
    DualRailError, DualRailNetlist, DualRailValue, ProtocolDriver, SlicedProtocolDriver,
};
use tm_async::gatesim::{EngineProgram, Logic, SlicedSimulator};
use tm_async::netlist::{CellKind, NetId};
use tm_async::obs::{MetricsRegistry, SimMetrics};

const ALL_LANES: u64 = !0;

/// Both completion schemes at two shapes.
fn shipped() -> Vec<(String, DatapathConfig, DualRailDatapath)> {
    let mut datapaths = Vec::new();
    for (features, clauses) in [(3, 2), (5, 4)] {
        for completion in [CompletionScheme::Reduced, CompletionScheme::Full] {
            let config = DatapathConfig::new(features, clauses).expect("valid shape");
            let options = DatapathOptions {
                completion,
                ..DatapathOptions::paper_defaults()
            };
            let datapath = DualRailDatapath::generate_with(&config, options).expect("generation");
            datapaths.push((
                format!("{features}x{clauses} {completion:?}"),
                config,
                datapath,
            ));
        }
    }
    datapaths
}

/// The canonical snapshot, settled once by a scalar reference driver.
fn canonical_snapshot(circuit: &DualRailNetlist, program: &Arc<EngineProgram<'_>>) -> Arc<[Logic]> {
    ProtocolDriver::from_program(circuit, Arc::clone(program))
        .expect("the reference driver settles")
        .quiescent_snapshot()
}

/// The settle the load replaced: a fresh instance with the spacer
/// driven on every lane, settled from X, counting into `registry`
/// under `"prime.*"`.
fn settled_from_x<'a>(
    circuit: &'a DualRailNetlist,
    program: &Arc<EngineProgram<'a>>,
    registry: &MetricsRegistry,
) -> SlicedSimulator<'a> {
    let mut sim = SlicedSimulator::from_program(Arc::clone(program));
    sim.attach_metrics(SimMetrics::register(registry, "prime"));
    let netlist = circuit.netlist();
    if let Some(req) = netlist
        .find_net("req")
        .filter(|&n| netlist.is_primary_input(n))
    {
        sim.set_input_planes(req, 0, 0, ALL_LANES);
    }
    let plane = |bit: bool| if bit { ALL_LANES } else { 0 };
    for (_, signal) in circuit.dual_inputs() {
        let (p, n) = DualRailValue::encode_spacer(signal.polarity);
        sim.set_input_planes(signal.positive, plane(p), 0, ALL_LANES);
        sim.set_input_planes(signal.negative, plane(n), 0, ALL_LANES);
    }
    assert!(sim.run_until_quiescent().is_quiescent());
    sim
}

#[test]
fn a_fresh_instance_settled_from_x_reaches_the_snapshot_on_every_lane() {
    let library = Library::umc_ll();
    for (name, _, datapath) in shipped() {
        let circuit = datapath.circuit();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), &library));
        let snapshot = canonical_snapshot(circuit, &program);
        let registry = MetricsRegistry::new();
        let sim = settled_from_x(circuit, &program, &registry);
        assert_eq!(
            sim.lane_state_mismatch(&snapshot, ALL_LANES),
            None,
            "{name}: the settle from X must end in the canonical snapshot"
        );
        assert!(
            registry.snapshot().counter("prime.events_popped") > 0,
            "{name}: the settle from X does real work"
        );
    }
}

#[test]
fn a_loaded_driver_skips_the_settle_and_matches_one_settled_from_x() {
    let library = Library::umc_ll();
    for (name, config, datapath) in shipped() {
        let circuit = datapath.circuit();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), &library));
        let snapshot = canonical_snapshot(circuit, &program);

        let construction = MetricsRegistry::new();
        let mut fresh = SlicedSimulator::from_program(Arc::clone(&program));
        fresh.attach_metrics(SimMetrics::register(&construction, "build"));
        let mut loaded = SlicedProtocolDriver::from_sliced_simulator(
            circuit,
            fresh,
            Arc::clone(&snapshot),
            true,
        )
        .expect("the canonical snapshot loads");
        let built = construction.snapshot();
        assert_eq!(built.counter("build.settles"), 1, "{name}");
        assert_eq!(
            built.counter("build.events_popped"),
            0,
            "{name}: the construction settle after a load pops no event"
        );

        let priming = MetricsRegistry::new();
        let mut settled = SlicedProtocolDriver::from_sliced_simulator(
            circuit,
            settled_from_x(circuit, &program, &priming),
            Arc::clone(&snapshot),
            true,
        )
        .expect("the settled instance matches the snapshot");

        let (loaded_registry, settled_registry) = (MetricsRegistry::new(), MetricsRegistry::new());
        loaded.attach_metrics(&loaded_registry, "dualrail.sliced");
        settled.attach_metrics(&settled_registry, "dualrail.sliced");
        // A full word, then a partial one.
        let workload = InferenceWorkload::random(&config, 70, 0.7, 2021).expect("workload");
        let operands = workload.dual_rail_operands(&datapath).expect("widths");
        for word in operands.chunks(64) {
            let got = loaded.apply_word(word);
            assert!(got.iter().all(Result::is_ok), "{name}: {got:?}");
            assert_eq!(got, settled.apply_word(word), "{name}");
        }
        let metrics = loaded_registry.snapshot();
        assert!(metrics.counter("dualrail.sliced.sim.events_popped") > 0);
        assert_eq!(metrics.counter("dualrail.sliced.protocol.cycles"), 70);
        assert_eq!(metrics, settled_registry.snapshot(), "{name}");
    }
}

/// First net, in net order, that is neither a port nor driven by a
/// flip-flop or C-element and holds a known value: flipping it breaks
/// the fixed point whatever its inputs hold.
fn combinational_internal_net(datapath: &DualRailDatapath, snapshot: &[Logic]) -> NetId {
    let netlist = datapath.circuit().netlist();
    let outputs = netlist.primary_outputs();
    netlist
        .nets()
        .map(|(id, _)| id)
        .find(|&net| {
            let combinational = netlist.driver_cell(net).is_some_and(|cell| {
                !matches!(
                    netlist.cell(cell).kind(),
                    CellKind::Dff | CellKind::CElement2 | CellKind::CElement3
                )
            });
            combinational && !outputs.contains(&net) && snapshot[net.index()] != Logic::Unknown
        })
        .expect("the datapath has combinational internal nets")
}

#[test]
fn bad_snapshots_are_typed_errors() {
    let library = Library::umc_ll();
    for (name, _, datapath) in shipped() {
        let circuit = datapath.circuit();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), &library));
        let snapshot = canonical_snapshot(circuit, &program);
        let build = |snapshot: Vec<Logic>| {
            SlicedProtocolDriver::from_sliced_simulator(
                circuit,
                SlicedSimulator::from_program(Arc::clone(&program)),
                Arc::from(snapshot),
                true,
            )
        };

        for len in [snapshot.len() - 1, snapshot.len() + 1] {
            let mut wrong = snapshot.to_vec();
            wrong.resize(len, Logic::Zero);
            let error = build(wrong).expect_err("a wrong-length snapshot is rejected");
            assert!(
                matches!(error, DualRailError::SpacerStateMismatch { .. }),
                "{name}, {len} nets: {error}"
            );
        }

        let net = combinational_internal_net(&datapath, &snapshot);
        let mut flipped = snapshot.to_vec();
        flipped[net.index()] = if flipped[net.index()].is_one() {
            Logic::Zero
        } else {
            Logic::One
        };
        // The load check rejects it, before any settle could move it.
        match build(flipped) {
            Err(DualRailError::SpacerStateMismatch { description }) => assert!(
                description.contains("not a settled state"),
                "{name}, net {net} flipped: {description}"
            ),
            other => panic!("{name}: net {net} flipped must be rejected, got {other:?}"),
        }
    }
}
