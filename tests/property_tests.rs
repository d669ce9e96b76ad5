//! Property-based tests on the core invariants of the reproduction:
//! dual-rail expansion preserves function, the arithmetic blocks match
//! their integer semantics, codeword encoding round-trips, and the
//! protocol driver agrees with the golden model for arbitrary operands.

use std::collections::HashMap;

use proptest::prelude::*;

use tm_async::celllib::Library;
use tm_async::datapath::{reference, DatapathConfig, DualRailDatapath};
use tm_async::dualrail::{
    expand_to_dual_rail, DualRailNetlist, DualRailSignal, DualRailValue, ExpansionStyle,
    ProtocolDriver, SpacerPolarity,
};
use tm_async::netlist::{CellKind, Evaluator, NetId, Netlist};
use tm_async::tsetlin::ExcludeMasks;

/// Evaluates a dual-rail netlist functionally for the supplied logical
/// bits and decodes one signal.
fn eval_dual(
    dr: &DualRailNetlist,
    inputs: &[(DualRailSignal, bool)],
    signal: DualRailSignal,
) -> DualRailValue {
    let eval = Evaluator::new(dr.netlist()).expect("acyclic");
    let mut map = HashMap::new();
    for (sig, bit) in inputs {
        let (p, n) = DualRailValue::encode_valid(*bit, sig.polarity);
        map.insert(sig.positive, p);
        map.insert(sig.negative, n);
    }
    let values = eval.eval(&map);
    DualRailValue::decode(
        values[signal.positive.index()].into(),
        values[signal.negative.index()].into(),
        signal.polarity,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dual-rail codeword encoding round-trips under both polarities.
    #[test]
    fn encoding_round_trips(bit: bool, all_one: bool) {
        let polarity = if all_one { SpacerPolarity::AllOne } else { SpacerPolarity::AllZero };
        let (p, n) = DualRailValue::encode_valid(bit, polarity);
        let decoded = DualRailValue::decode(p.into(), n.into(), polarity);
        prop_assert_eq!(decoded, DualRailValue::Valid(bit));
        let (sp, sn) = DualRailValue::encode_spacer(polarity);
        prop_assert_eq!(
            DualRailValue::decode(sp.into(), sn.into(), polarity),
            DualRailValue::Spacer
        );
    }

    /// The dual-rail half and full adders implement binary addition for
    /// every operand combination.
    #[test]
    fn adders_match_integer_addition(a: bool, b: bool, c: bool) {
        let mut dr = DualRailNetlist::new("adders");
        let ia = dr.add_dual_input("a");
        let ib = dr.add_dual_input("b");
        let ic = dr.add_dual_input("c");
        let (hsum, hcarry) = dr.half_adder("ha", ia, ib).expect("half adder");
        let (fsum, fcarry) = dr.full_adder("fa", ia, ib, ic).expect("full adder");

        let inputs = [(ia, a), (ib, b), (ic, c)];
        let ha_total = u32::from(a) + u32::from(b);
        prop_assert_eq!(eval_dual(&dr, &inputs, hsum), DualRailValue::Valid(ha_total % 2 == 1));
        prop_assert_eq!(eval_dual(&dr, &inputs, hcarry), DualRailValue::Valid(ha_total >= 2));
        let fa_total = ha_total + u32::from(c);
        prop_assert_eq!(eval_dual(&dr, &inputs, fsum), DualRailValue::Valid(fa_total % 2 == 1));
        prop_assert_eq!(eval_dual(&dr, &inputs, fcarry), DualRailValue::Valid(fa_total >= 2));
    }

    /// Automatic dual-rail expansion preserves the function of arbitrary
    /// three-level unate netlists, in both expansion styles.
    #[test]
    fn expansion_preserves_function(
        kinds in proptest::collection::vec(0usize..6, 3),
        pattern in 0u32..16,
        inverting: bool,
    ) {
        let gate = |k: usize| match k {
            0 => CellKind::And2,
            1 => CellKind::Or2,
            2 => CellKind::Nand2,
            3 => CellKind::Nor2,
            4 => CellKind::And3,
            _ => CellKind::Or3,
        };
        // Build a small random netlist: four inputs, three gates chained.
        let mut nl = Netlist::new("random");
        let inputs: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let g0_kind = gate(kinds[0] % 4); // two-input kinds only for the first gate
        let g0 = nl.add_cell("g0", g0_kind, &[inputs[0], inputs[1]]).expect("g0");
        let g1_kind = gate(kinds[1]);
        let g1_inputs: Vec<NetId> = match g1_kind.input_count() {
            2 => vec![g0, inputs[2]],
            _ => vec![g0, inputs[2], inputs[3]],
        };
        let g1 = nl.add_cell("g1", g1_kind, &g1_inputs).expect("g1");
        let g2_kind = gate(kinds[2] % 4);
        let g2 = nl.add_cell("g2", g2_kind, &[g1, inputs[0]]).expect("g2");
        nl.add_output("y", g2);

        let style = if inverting {
            ExpansionStyle::InvertingPairs
        } else {
            ExpansionStyle::NonInverting
        };
        let dr = expand_to_dual_rail(&nl, style).expect("expansion");

        let bits: Vec<bool> = (0..4).map(|i| pattern & (1 << i) != 0).collect();
        let single_eval = Evaluator::new(&nl).expect("acyclic");
        let expected = single_eval.eval_vector(&bits)[0];

        let dr_inputs: Vec<(DualRailSignal, bool)> = dr
            .dual_inputs()
            .iter()
            .map(|(_, s)| *s)
            .zip(bits.iter().copied())
            .collect();
        let output = dr.dual_output("y").expect("output exists");
        prop_assert_eq!(eval_dual(&dr, &dr_inputs, output), DualRailValue::Valid(expected));
    }

    /// The software reference model obeys the defining equations of the
    /// Tsetlin machine vote for random masks and inputs.
    #[test]
    fn reference_votes_are_bounded_and_consistent(
        seed in 0u64..1_000,
        pattern in 0u32..256,
    ) {
        let config = DatapathConfig::new(8, 8).expect("valid");
        let workload = tm_async::datapath::InferenceWorkload::random(&config, 1, 0.7, seed)
            .expect("workload");
        let features: Vec<bool> = (0..8).map(|i| pattern & (1 << i) != 0).collect();
        let outcome = reference::infer(workload.masks(), &features);
        prop_assert!(outcome.positive_votes <= 8);
        prop_assert!(outcome.negative_votes <= 8);
        let expected_in_class = outcome.positive_votes >= outcome.negative_votes;
        prop_assert_eq!(outcome.in_class, expected_in_class);
    }
}

proptest! {
    // The full hardware round trip is expensive (event-driven simulation
    // of a few thousand cells), so run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary masks and feature vectors, the dual-rail hardware
    /// decision equals the software golden model, and the latency figures
    /// are internally consistent.
    #[test]
    fn hardware_matches_golden_model(
        mask_bits in proptest::collection::vec(any::<bool>(), 4 * 2 * 3),
        feature_bits in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let config = DatapathConfig::new(3, 2).expect("valid");
        let positive: Vec<Vec<bool>> = mask_bits[0..12].chunks(6).map(<[bool]>::to_vec).collect();
        let negative: Vec<Vec<bool>> = mask_bits[12..24].chunks(6).map(<[bool]>::to_vec).collect();
        let masks = ExcludeMasks::from_raw(positive, negative, 3);
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let mut driver = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");

        let operand = datapath.operand_bits(&feature_bits, &masks).expect("widths");
        let result = driver.apply_operand(&operand).expect("protocol cycle");
        let golden = reference::infer(&masks, &feature_bits);
        prop_assert_eq!(datapath.decode_decision(&result).expect("decode"), golden.decision);
        prop_assert!(result.s_to_v_latency_ps > 0.0);
        prop_assert!(result.cycle_time_ps >= result.s_to_v_latency_ps + result.v_to_s_latency_ps);
    }
}

// ---------------------------------------------------------------------
// Bit-parallel batch evaluation: BatchEvaluator ≡ scalar Evaluator
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 64-wide batch evaluator is bit-identical, lane for lane, to
    /// the scalar evaluator on randomized layered netlists, including
    /// sequential (C-element and DFF) state carried across passes.
    #[test]
    fn batch_evaluator_matches_scalar_on_random_netlists(
        kinds in proptest::collection::vec(0usize..8, 12),
        stimulus_words in proptest::collection::vec(any::<u64>(), 3 * 4),
    ) {
        use tm_async::netlist::{BatchEvaluator, EvalState};
        use std::collections::HashMap;

        let gate = |k: usize| match k {
            0 => CellKind::And2,
            1 => CellKind::Or2,
            2 => CellKind::Nand2,
            3 => CellKind::Nor2,
            4 => CellKind::Xor2,
            5 => CellKind::Aoi21,
            6 => CellKind::CElement2,
            _ => CellKind::Dff,
        };

        // Four primary inputs, then twelve cells; each cell draws its
        // inputs from the most recent nets so depth grows with index.
        let mut nl = Netlist::new("random_batch");
        let mut pool: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (idx, &k) in kinds.iter().enumerate() {
            let kind = gate(k);
            let n = pool.len();
            let ins: Vec<NetId> = (0..kind.input_count())
                .map(|p| pool[(idx + p * 3) % n])
                .collect();
            let out = nl.add_cell(format!("g{idx}"), kind, &ins).expect("cell");
            pool.push(out);
        }
        let last = *pool.last().expect("nonempty");
        nl.add_output("y", last);

        let scalar = Evaluator::new(&nl).expect("acyclic by construction");
        let batch = BatchEvaluator::new(&nl).expect("acyclic by construction");
        let pis = nl.primary_inputs();

        let mut batch_state = batch.new_state();
        let mut values = Vec::new();
        let mut scalar_states: Vec<EvalState> = (0..8).map(|_| EvalState::new()).collect();

        // Four passes of fresh stimulus; sequential state must stay in
        // sync between the scalar and batch models on every pass.
        for pass in 0..4 {
            let words: Vec<u64> = (0..4)
                .map(|i| stimulus_words[(pass * 3 + i) % stimulus_words.len()])
                .collect();
            let outs = batch.eval_words(&words, &mut batch_state, &mut values);

            // Spot-check 8 of the 64 lanes (scalar evaluation is the
            // slow part; the lanes are independent by construction).
            for (lane, scalar_state) in scalar_states.iter_mut().enumerate() {
                let map: HashMap<NetId, bool> = pis
                    .iter()
                    .zip(&words)
                    .map(|(&net, &w)| (net, (w >> lane) & 1 == 1))
                    .collect();
                let expected = scalar.eval_with_state(&map, scalar_state);
                prop_assert_eq!(
                    (outs[0] >> lane) & 1 == 1,
                    expected[last.index()],
                    "pass {} lane {} diverged",
                    pass,
                    lane
                );
            }
        }
    }

    /// Packing samples into lanes and back is lossless.
    #[test]
    fn lane_packing_round_trips(
        samples in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 9), 17),
    ) {
        use tm_async::netlist::{pack_lanes, unpack_lane};
        let words = pack_lanes(&samples);
        prop_assert_eq!(words.len(), 9);
        for (lane, sample) in samples.iter().enumerate() {
            prop_assert_eq!(&unpack_lane(&words, lane), sample);
        }
    }
}

proptest! {
    // Full-workload equivalence is heavier (netlist generation + training
    // -free random masks), so run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched golden model agrees with the software reference (and
    /// therefore with the scalar netlist evaluator, which the datapath
    /// unit tests pin to the same reference) on arbitrary workloads.
    #[test]
    fn batch_inference_matches_reference_on_random_workloads(
        seed in 0u64..10_000,
        operands in 1usize..130,
    ) {
        use tm_async::datapath::{BatchGoldenModel, BatchInference, InferenceWorkload};

        let config = DatapathConfig::new(6, 4).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let mut batch = BatchInference::new(&model).expect("flattening");
        let outcomes = batch.run_workload(&workload).expect("batched run");
        prop_assert_eq!(outcomes.as_slice(), workload.expected());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The multi-threaded workload runtime agrees with the
    /// single-threaded batch path and the software reference on
    /// arbitrary workloads, at thread counts {1, 2, 7}.
    #[test]
    fn parallel_workload_matches_single_thread_and_reference(
        seed in 0u64..10_000,
        operands in 1usize..200,
    ) {
        use tm_async::datapath::{
            BatchGoldenModel, BatchInference, InferenceWorkload, ParallelBatchInference,
        };

        let config = DatapathConfig::new(6, 4).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let mut single = BatchInference::new(&model).expect("flattening");
        let expected = single.run_workload(&workload).expect("single-thread run");
        prop_assert_eq!(expected.as_slice(), workload.expected());

        for threads in [1usize, 2, 7] {
            let parallel = ParallelBatchInference::new(&model, threads).expect("flattening");
            let outcomes = parallel.run_workload(&workload).expect("parallel run");
            prop_assert_eq!(&outcomes, &expected, "threads {}", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded event-driven simulation: ParallelEventSim's word runner ≡ one
// streamed Simulator instance at every thread count, outputs and
// latencies alike
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replaying independent return-to-zero operand cycles in 64-lane
    /// words on replicated engine instances changes nothing: outputs,
    /// injection latencies and event counts are bit-identical to
    /// streaming the same operands through a single scalar simulator,
    /// at thread counts {1, 2, 7}, on random combinational netlists.
    #[test]
    fn parallel_event_sim_matches_streamed_instance(
        kinds in proptest::collection::vec(0usize..6, 10),
        patterns in proptest::collection::vec(0u32..16, 12),
    ) {
        use tm_async::gatesim::{run_return_to_zero, LatencyReport, ParallelEventSim, Simulator};

        let gate = |k: usize| match k {
            0 => CellKind::And2,
            1 => CellKind::Or2,
            2 => CellKind::Nand2,
            3 => CellKind::Nor2,
            4 => CellKind::Xor2,
            _ => CellKind::Aoi21,
        };
        // Four primary inputs, then a layered cone of combinational
        // cells (no C-elements/flip-flops: sharding requires a
        // history-independent spacer state).
        let mut nl = Netlist::new("random_event");
        let mut pool: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (idx, &k) in kinds.iter().enumerate() {
            let kind = gate(k);
            let n = pool.len();
            let ins: Vec<NetId> = (0..kind.input_count())
                .map(|p| pool[(idx + p * 3) % n])
                .collect();
            let out = nl.add_cell(format!("g{idx}"), kind, &ins).expect("cell");
            pool.push(out);
        }
        nl.add_output("y", *pool.last().expect("nonempty"));

        let operands: Vec<Vec<bool>> = patterns
            .iter()
            .map(|&p| (0..4).map(|b| p & (1 << b) != 0).collect())
            .collect();

        // Streamed single-instance reference: the same protocol, one
        // simulator, operand after operand.
        let library = Library::umc_ll();
        let mut streamed = Simulator::new(&nl, &library);
        let expected: Vec<_> = operands
            .iter()
            .map(|operand| run_return_to_zero(&mut streamed, operand))
            .collect();
        let expected_report = LatencyReport::from_runs(&expected);

        for threads in [1usize, 2, 7] {
            let sim = ParallelEventSim::new(&nl, &library, threads);
            let runs = sim.run_operands_sliced(&operands);
            prop_assert_eq!(&runs, &expected, "threads {}", threads);
            prop_assert_eq!(
                &LatencyReport::from_runs(&runs),
                &expected_report,
                "threads {}",
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded event-driven inference path, fed a borrowed
    /// micro-batch through `run_features_sliced` as a serving backend
    /// feeds it, agrees with the software golden model on arbitrary
    /// workloads and produces bit-identical outcomes *and* latency
    /// reports at thread counts {1, 2, 7}.
    #[test]
    fn event_driven_inference_matches_golden_and_thread_count_is_invisible(
        seed in 0u64..10_000,
        operands in 1usize..24,
    ) {
        use tm_async::datapath::{BatchGoldenModel, EventDrivenInference, InferenceWorkload};

        let config = DatapathConfig::new(4, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let batch: Vec<&[bool]> = workload.feature_vectors().iter().map(Vec::as_slice).collect();

        let reference = EventDrivenInference::new(&model, &library, 1)
            .run_features_sliced(workload.masks(), &batch)
            .expect("event-driven run");
        prop_assert_eq!(reference.outcomes.as_slice(), workload.expected());
        prop_assert_eq!(reference.latency.count(), workload.len());

        for threads in [2usize, 7] {
            let run = EventDrivenInference::new(&model, &library, threads)
                .run_features_sliced(workload.masks(), &batch)
                .expect("event-driven run");
            prop_assert_eq!(&run, &reference, "threads {}", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded dual-rail protocol driving: ParallelProtocolDriver's word
// runner ≡ one streamed contract-mode ProtocolDriver at every thread
// count — decoded outputs, s→v latencies and done latencies alike
// ---------------------------------------------------------------------

proptest! {
    // Each case simulates a full dual-rail datapath through four-phase
    // cycles on two streamed drivers and three sharded runs, so run few
    // cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharding a dual-rail operand stream in 64-lane words under the
    /// verified reset-phase contract changes nothing a plain streamed
    /// contract-mode driver measures in the valid phase: decoded
    /// outputs, probe values, spacer→valid and done latencies are
    /// bit-identical at thread counts {1, 2, 7}, for arbitrary masks
    /// and features.  The whole per-operand result, valid→spacer and
    /// cycle times included, equals the same streamed driver in the
    /// phase-rebased frame (`rebased_reference_driver`).
    #[test]
    fn sharded_dual_rail_driver_matches_streamed_contract_driver(
        seed in 0u64..10_000,
        operands in 1usize..14,
    ) {
        use tm_async::datapath::InferenceWorkload;
        use tm_async::dualrail::{rebased_reference_driver, ParallelProtocolDriver};
        use tm_async::gatesim::{LatencyReport, Simulator};

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

        // Streamed single-driver references in contract mode: the plain
        // timebase, and the phase-rebased one the word runner reports in.
        let mut contract = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
        let snapshot = contract.quiescent_snapshot();
        contract.enable_reset_contract(snapshot.clone());
        let plain: Vec<_> = operand_bits
            .iter()
            .map(|operand| contract.apply_operand(operand).expect("protocol cycle"))
            .collect();
        let mut rebased = rebased_reference_driver(
            datapath.circuit(),
            Simulator::new(datapath.circuit().netlist(), &library),
            snapshot,
            true,
        )
        .expect("driver");
        let expected: Vec<_> = operand_bits
            .iter()
            .map(|operand| rebased.apply_operand(operand).expect("protocol cycle"))
            .collect();
        let expected_latency =
            LatencyReport::from_latencies(plain.iter().map(|r| r.s_to_v_latency_ps).collect());
        let expected_done: Option<Vec<f64>> = plain.iter().map(|r| r.done_latency_ps).collect();
        let expected_done = expected_done.expect("completion detection present");

        for threads in [1usize, 2, 7] {
            let driver = ParallelProtocolDriver::new(datapath.circuit(), &library, threads)
                .expect("driver");
            let run = driver.run_workload_sliced(&operand_bits).expect("sharded run");
            prop_assert_eq!(&run.results, &expected, "threads {}", threads);
            prop_assert_eq!(&run.latency, &expected_latency, "threads {}", threads);
            let done = run.done_latency().expect("done present on every operand");
            prop_assert_eq!(done.latencies_ps(), expected_done.as_slice(), "threads {}", threads);
            for (k, (got, want)) in run.results.iter().zip(&plain).enumerate() {
                prop_assert_eq!(&got.outputs, &want.outputs, "threads {} operand {}", threads, k);
                prop_assert_eq!(&got.one_of_n, &want.one_of_n, "threads {} operand {}", threads, k);
                prop_assert_eq!(&got.probes, &want.probes, "threads {} operand {}", threads, k);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Two-level event queue: same-timestamp FIFO order is exactly the
// insertion order, under arbitrary interleaved push/pop traffic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved pushes and pops at equal `time_ps` pop in sequence
    /// order — the invariant the two-level drain tier relies on.  Times
    /// are drawn from a tiny set so most events collide; `ops` drives
    /// the push/pop interleaving.
    #[test]
    fn event_queue_equal_times_pop_in_sequence_order(
        ops in proptest::collection::vec(0u8..12, 150),
    ) {
        use tm_async::gatesim::{Event, EventQueue, Logic};
        use tm_async::netlist::NetId;

        let mut queue = EventQueue::new();
        // (time, insertion id) pairs still pending, in push order.
        let mut pending: Vec<(f64, usize)> = Vec::new();
        let mut next_id = 0usize;
        for op in ops {
            let (kind, time_code) = (op % 4, op / 4);
            if kind < 3 {
                let time_ps = f64::from(time_code) * 10.0;
                queue.push(Event {
                    time_ps,
                    net: NetId::from_index(next_id),
                    value: Logic::One,
                });
                pending.push((time_ps, next_id));
                next_id += 1;
            } else if let Some(event) = queue.pop() {
                // The expected pop: earliest time, then earliest insertion.
                let best = pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(i, _)| i)
                    .expect("queue and model agree on emptiness");
                let (time_ps, id) = pending.remove(best);
                prop_assert_eq!(event.time_ps, time_ps);
                prop_assert_eq!(event.net.index(), id);
            } else {
                prop_assert!(pending.is_empty());
            }
        }
        // Drain the rest: must come out in exact (time, sequence) order.
        while let Some(event) = queue.pop() {
            let best = pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(i, _)| i)
                .expect("model non-empty");
            let (time_ps, id) = pending.remove(best);
            prop_assert_eq!(event.time_ps, time_ps);
            prop_assert_eq!(event.net.index(), id);
        }
        prop_assert!(pending.is_empty());
    }

    /// C-element transient regression: the two-level queue's tier
    /// layout is a pure performance choice.  Two simulators with
    /// radically different bucket granularities (one forcing almost all
    /// traffic through the overflow heap) must process random stimulus
    /// into identical settled values, transition counts and timestamps —
    /// including state-holding C-elements, which are sensitive to the
    /// exact order of applied transients.
    #[test]
    fn c_element_transients_are_invariant_to_queue_granularity(
        patterns in proptest::collection::vec(0u32..8, 10),
    ) {
        use tm_async::celllib::Library;
        use tm_async::gatesim::Simulator;

        // Mixed combinational/C-element netlist: the C-elements see
        // glitchy internal nets, so transient ordering matters.
        let mut nl = Netlist::new("celem_transients");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_cell("and", CellKind::And2, &[a, b]).expect("cell");
        let bc = nl.add_cell("nor", CellKind::Nor2, &[b, c]).expect("cell");
        let cel1 = nl.add_cell("cel1", CellKind::CElement2, &[ab, bc]).expect("cell");
        let cel2 = nl.add_cell("cel2", CellKind::CElement2, &[cel1, c]).expect("cell");
        nl.add_output("cel1", cel1);
        nl.add_output("cel2", cel2);

        let library = Library::umc_ll();
        // Default granularity vs. a pathological one (nearly everything
        // spills to the overflow heap).
        let mut reference = Simulator::new(&nl, &library);
        let mut stressed = Simulator::new_with_queue_granularity(&nl, &library, 0.125, 1);

        for pattern in patterns {
            let bits = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
            for sim in [&mut reference, &mut stressed] {
                sim.set_input_bool(a, bits[0]);
                sim.set_input_bool(b, bits[1]);
                sim.set_input_bool(c, bits[2]);
                prop_assert!(sim.run_until_quiescent().is_quiescent());
            }
            prop_assert_eq!(reference.now_ps(), stressed.now_ps());
            for (net, _) in nl.nets() {
                prop_assert_eq!(
                    reference.value(net),
                    stressed.value(net),
                    "net {} diverged at pattern {:#b}",
                    net,
                    pattern
                );
                prop_assert_eq!(reference.net_transitions(net), stressed.net_transitions(net));
                prop_assert_eq!(reference.last_change_ps(net), stressed.last_change_ps(net));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serving layer: served outcomes ≡ offline golden outcomes for every
// backend, and the whole report is thread-count-invariant under a fixed
// service model
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Micro-batched serving of the lane backends (batch and parallel
    /// batch) delivers exactly the workload's golden outcomes for every
    /// served request, under arbitrary traffic and either admission
    /// policy — and with a fixed service model the *entire report*
    /// (shed set, batch composition, every latency figure) is
    /// bit-identical at backend thread counts {1, 2, 7}.
    #[test]
    fn served_lane_backends_match_golden_and_threads_are_invisible(
        seed in 0u64..10_000,
        requests in 1usize..160,
        qps_exp in 0u32..4,
        capacity in 0usize..100,
        block in any::<bool>(),
    ) {
        use tm_async::datapath::{BatchGoldenModel, InferenceWorkload};
        use tm_async::serve::{
            AdmissionPolicy, BatchBackend, ParallelBatchBackend, ServeConfig, Server,
            ServiceModel, Trace,
        };

        let config = DatapathConfig::new(5, 4).expect("valid");
        let workload = InferenceWorkload::random(&config, 24, 0.7, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        // Offered load sweeps 0.1x .. 100x around the fixed service rate.
        let trace = Trace::poisson(requests, 1e5 * 10f64.powi(qps_exp as i32), seed ^ 77);
        let serve_config = ServeConfig {
            queue_capacity: capacity,
            policy: if block { AdmissionPolicy::Block } else { AdmissionPolicy::Shed },
            max_batch: 64,
            max_wait_ns: 2_000,
            service_model: ServiceModel::Fixed { batch_ns: 400, per_request_ns: 25 },
            deadline_ns: None,
        };

        let backend = BatchBackend::new(&model, workload.masks().clone()).expect("backend");
        let reference = Server::new(backend, &workload, serve_config)
            .expect("server")
            .run(&trace)
            .expect("serve run");
        prop_assert_eq!(reference.served_count() + reference.shed_count(), requests);
        if block {
            prop_assert_eq!(reference.shed_count(), 0, "block policy never sheds");
        }
        // Every served outcome is the golden outcome of its sample (the
        // server also verifies this internally before returning).
        for record in &reference.served {
            prop_assert_eq!(&record.outcome, workload.sample(record.sample).expected);
        }

        // The parallel-batch backend at several thread counts: the full
        // report — not just outcomes — must be bit-identical.
        for threads in [1usize, 2, 7] {
            let backend =
                ParallelBatchBackend::new(&model, workload.masks().clone(), threads)
                    .expect("backend");
            let report = Server::new(backend, &workload, serve_config)
                .expect("server")
                .run(&trace)
                .expect("serve run");
            prop_assert_eq!(&report, &reference, "threads {}", threads);
        }
    }
}

proptest! {
    // Event-driven and dual-rail backends simulate every request at
    // gate level across three thread counts each — keep the case count
    // and request counts small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Serving through the bit-sliced event-driven and dual-rail
    /// simulation backends also reproduces the golden outcomes exactly,
    /// with thread-count-invariant reports under a fixed service model
    /// — the serving layer composes with the reset-phase sharding
    /// contract unchanged.
    #[test]
    fn served_simulation_backends_match_golden_and_threads_are_invisible(
        seed in 0u64..10_000,
        requests in 1usize..12,
    ) {
        use tm_async::datapath::{BatchGoldenModel, InferenceWorkload};
        use tm_async::serve::{
            Backend, DualRailSlicedBackend, EventSlicedBackend, ServeConfig, Server, ServeReport,
            ServiceModel, Trace,
        };

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, 8, 0.6, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let trace = Trace::bursty(requests, 3, 1e6, seed ^ 3);
        let serve_config = ServeConfig {
            max_wait_ns: 1_500,
            service_model: ServiceModel::Fixed { batch_ns: 900, per_request_ns: 120 },
            ..ServeConfig::default()
        };

        let run = |backend: Box<dyn Backend + Send>| -> ServeReport {
            let mut server = Server::new(backend, &workload, serve_config).expect("server");
            server.run(&trace).expect("serve run")
        };

        for backend_kind in ["event_sliced", "dualrail_sliced"] {
            let mut reference: Option<ServeReport> = None;
            for threads in [1usize, 2, 7] {
                let masks = workload.masks().clone();
                let backend: Box<dyn Backend + Send> = match backend_kind {
                    "event_sliced" => Box::new(
                        EventSlicedBackend::new(&model, &library, masks, threads)
                            .expect("backend"),
                    ),
                    _ => Box::new(
                        DualRailSlicedBackend::new(&datapath, &library, masks, threads)
                            .expect("backend"),
                    ),
                };
                let report = run(backend);
                for record in &report.served {
                    prop_assert_eq!(
                        &record.outcome,
                        workload.sample(record.sample).expected,
                        "{} backend served a non-golden outcome",
                        backend_kind
                    );
                }
                match &reference {
                    None => reference = Some(report),
                    Some(expected) => prop_assert_eq!(
                        &report, expected, "{} threads {}", backend_kind, threads
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 64-wide bit-sliced three-valued event simulation: every lane of a
// sliced word ≡ the streamed scalar engine, end to end
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each lane of the bit-sliced kernel reproduces the streamed
    /// scalar simulator bit for bit on random combinational netlists:
    /// settled outputs, injection→settle latencies and per-lane event
    /// counts.  The lane count is drawn from the full 1..=64 range, so
    /// partial final words (width 1 and width 63 included) are
    /// exercised, and every word starts from the all-X reset (a fresh
    /// sliced instance holds every lane Unknown until the first spacer
    /// settles it).
    #[test]
    fn sliced_lanes_match_the_streamed_scalar_simulator(
        kinds in proptest::collection::vec(0usize..6, 10),
        stimulus_words in proptest::collection::vec(any::<u64>(), 4),
        lanes in 1usize..=64,
    ) {
        use tm_async::gatesim::{
            run_return_to_zero, run_word_return_to_zero, Simulator, SlicedSimulator,
        };

        let gate = |k: usize| match k {
            0 => CellKind::And2,
            1 => CellKind::Or2,
            2 => CellKind::Nand2,
            3 => CellKind::Nor2,
            4 => CellKind::Xor2,
            _ => CellKind::Aoi21,
        };
        let mut nl = Netlist::new("random_sliced");
        let mut pool: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (idx, &k) in kinds.iter().enumerate() {
            let kind = gate(k);
            let n = pool.len();
            let ins: Vec<NetId> = (0..kind.input_count())
                .map(|p| pool[(idx + p * 3) % n])
                .collect();
            let out = nl.add_cell(format!("g{idx}"), kind, &ins).expect("cell");
            pool.push(out);
        }
        nl.add_output("y", *pool.last().expect("nonempty"));

        // Operand `lane` takes input bit i from stimulus word i.
        let operands: Vec<Vec<bool>> = (0..lanes)
            .map(|lane| stimulus_words.iter().map(|w| w >> lane & 1 != 0).collect())
            .collect();

        let library = Library::umc_ll();
        let mut scalar = Simulator::new(&nl, &library);
        let expected: Vec<_> = operands
            .iter()
            .map(|operand| run_return_to_zero(&mut scalar, operand))
            .collect();

        let mut sliced = SlicedSimulator::new(&nl, &library);
        let runs = run_word_return_to_zero(&mut sliced, &operands);
        prop_assert_eq!(&runs, &expected, "lanes {}", lanes);
    }
}

proptest! {
    // The engines below simulate at gate level, so keep case and
    // operand counts small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The bit-sliced event-driven inference engine agrees with the
    /// software golden model and is bit-identical to the streamed scalar
    /// engine on arbitrary workloads — the whole run (outcomes and every
    /// per-operand latency), not just outcomes — at thread counts
    /// {1, 2, 7}.  The oracle is one scalar `Simulator` driven operand
    /// by operand through `run_return_to_zero` and decoded with
    /// `decode_operand_run`: it shares no executor, chunking or merge
    /// code with the sharded word runner.  Operand counts above 64
    /// exercise multi-word sharding with a partial final word.
    #[test]
    fn sliced_event_engine_matches_scalar_on_random_workloads(
        seed in 0u64..10_000,
        operands in 1usize..100,
    ) {
        use tm_async::datapath::{
            decode_operand_run, operand_bit_vectors, BatchGoldenModel, EventDrivenInference,
            EventDrivenRun, InferenceWorkload,
        };
        use tm_async::gatesim::{run_return_to_zero, LatencyReport, Simulator};

        let config = DatapathConfig::new(4, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let library = Library::umc_ll();

        let operand_bits =
            operand_bit_vectors(&config, workload.masks(), workload.feature_vectors());
        let mut streamed = Simulator::new(model.netlist(), &library);
        let runs: Vec<_> = operand_bits
            .iter()
            .map(|operand| run_return_to_zero(&mut streamed, operand))
            .collect();
        let outcomes = runs
            .iter()
            .enumerate()
            .map(|(k, run)| decode_operand_run(run, k))
            .collect::<Result<Vec<_>, _>>()
            .expect("streamed decode");
        let reference = EventDrivenRun { outcomes, latency: LatencyReport::from_runs(&runs) };
        prop_assert_eq!(reference.outcomes.as_slice(), workload.expected());

        for threads in [1usize, 2, 7] {
            let engine = EventDrivenInference::new(&model, &library, threads);
            let run = engine
                .run_workload_sliced(&workload)
                .expect("sliced event-driven run");
            prop_assert_eq!(&run, &reference, "threads {}", threads);
        }
    }

    /// The bit-sliced dual-rail driver reproduces the streamed
    /// phase-rebased contract driver (`rebased_reference_driver`) on
    /// arbitrary workloads: every per-operand `OperandResult` — decoded
    /// outputs, probes, spacer→valid, valid→spacer, `done` and cycle
    /// times — is bit-identical at thread counts {1, 2, 7}, and the
    /// decoded outcomes match the software golden model.  The oracle
    /// streams one scalar driver; it shares no executor, chunking or
    /// merge code with the sharded word runner.
    #[test]
    fn sliced_dual_rail_matches_the_streamed_contract_driver(
        seed in 0u64..10_000,
        operands in 1usize..14,
    ) {
        use std::sync::Arc;

        use tm_async::datapath::{DualRailInference, InferenceWorkload};
        use tm_async::dualrail::rebased_reference_driver;
        use tm_async::gatesim::{EngineProgram, LatencyReport, Simulator};

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.6, seed).expect("workload");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

        let program = Arc::new(EngineProgram::new(datapath.circuit().netlist(), &library));
        let snapshot = ProtocolDriver::from_program(datapath.circuit(), Arc::clone(&program))
            .expect("driver")
            .quiescent_snapshot();
        let mut streamed = rebased_reference_driver(
            datapath.circuit(),
            Simulator::from_program(program),
            snapshot,
            true,
        )
        .expect("driver");
        let expected: Vec<_> = operand_bits
            .iter()
            .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
            .collect();
        let expected_latency = LatencyReport::from_latencies(
            expected.iter().map(|r| r.s_to_v_latency_ps).collect(),
        );
        let expected_done = expected
            .iter()
            .map(|r| r.done_latency_ps)
            .collect::<Option<Vec<f64>>>()
            .map(LatencyReport::from_latencies);
        prop_assert!(expected_done.is_some(), "completion detection present");

        for threads in [1usize, 2, 7] {
            let engine = DualRailInference::new(&datapath, &library, threads).expect("driver");
            let run = engine
                .run_workload_sliced(&workload)
                .expect("sliced dual-rail run");
            prop_assert_eq!(run.outcomes.as_slice(), workload.expected(), "threads {}", threads);
            prop_assert_eq!(&run.results, &expected, "threads {}", threads);
            prop_assert_eq!(&run.latency, &expected_latency, "threads {}", threads);
            prop_assert_eq!(&run.done_latency, &expected_done, "threads {}", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Fault overlay: an *empty* FaultPlan is invisible — every engine's runs
// are bit-identical to a healthy instance
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Installing an empty [`FaultPlan`] changes nothing: the streamed
    /// scalar simulator, the 64-wide bit-sliced simulator and the
    /// sharded word fault entry point (at thread counts {1, 2, 7})
    /// produce runs bit-identical — outputs, latencies and event
    /// counts — to the same engine with no plan installed, on random
    /// combinational netlists.  This is the contract that lets
    /// the fault campaign share one code path for healthy and faulted
    /// sweeps.
    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan(
        kinds in proptest::collection::vec(0usize..6, 8),
        patterns in proptest::collection::vec(0u32..16, 10),
    ) {
        use tm_async::gatesim::{
            run_return_to_zero, run_word_return_to_zero, try_run_return_to_zero, FaultPlan,
            ParallelEventSim, Simulator, SlicedSimulator,
        };

        let gate = |k: usize| match k {
            0 => CellKind::And2,
            1 => CellKind::Or2,
            2 => CellKind::Nand2,
            3 => CellKind::Nor2,
            4 => CellKind::Xor2,
            _ => CellKind::Aoi21,
        };
        let mut nl = Netlist::new("random_faultfree");
        let mut pool: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (idx, &k) in kinds.iter().enumerate() {
            let kind = gate(k);
            let n = pool.len();
            let ins: Vec<NetId> = (0..kind.input_count())
                .map(|p| pool[(idx + p * 3) % n])
                .collect();
            let out = nl.add_cell(format!("g{idx}"), kind, &ins).expect("cell");
            pool.push(out);
        }
        nl.add_output("y", *pool.last().expect("nonempty"));

        let operands: Vec<Vec<bool>> = patterns
            .iter()
            .map(|&p| (0..4).map(|b| p & (1 << b) != 0).collect())
            .collect();
        let empty = FaultPlan::new();
        prop_assert!(empty.is_empty());
        let library = Library::umc_ll();

        // Scalar engine: healthy stream vs empty-plan stream, through
        // the fallible entry point the fault campaign streams.
        let mut healthy = Simulator::new(&nl, &library);
        let expected: Vec<_> = operands
            .iter()
            .map(|operand| run_return_to_zero(&mut healthy, operand))
            .collect();
        let mut overlaid = Simulator::new(&nl, &library);
        overlaid.set_fault_plan(&empty);
        let got: Vec<_> = operands
            .iter()
            .map(|operand| try_run_return_to_zero(&mut overlaid, operand))
            .collect::<Result<_, _>>()
            .expect("an empty plan cannot trip the watchdog");
        prop_assert_eq!(&got, &expected, "scalar");

        // Bit-sliced engine: one word carrying every operand.
        let mut healthy_sliced = SlicedSimulator::new(&nl, &library);
        let expected_sliced = run_word_return_to_zero(&mut healthy_sliced, &operands);
        let mut overlaid_sliced = SlicedSimulator::new(&nl, &library);
        overlaid_sliced.set_fault_plan(&empty);
        let got_sliced = run_word_return_to_zero(&mut overlaid_sliced, &operands);
        prop_assert_eq!(&got_sliced, &expected_sliced, "sliced");

        // Sharded word runner: the faulted entry point with an empty
        // plan and no horizon must match the plain one at every thread
        // count.
        for threads in [1usize, 2, 7] {
            let sim = ParallelEventSim::new(&nl, &library, threads);
            let sliced_baseline = sim.run_operands_sliced(&operands);
            let sliced_faulted: Vec<_> = sim
                .run_operands_sliced_faulted(&operands, &empty, None)
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("an empty plan cannot trip the watchdog");
            prop_assert_eq!(
                &sliced_faulted,
                &sliced_baseline,
                "parallel sliced, threads {}",
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Wavefront-pipelined four-phase driving: overlapped trains decode to
// the serial driver's exact tokens, sharding is thread-invariant, and
// every hazard path is a typed error, never a wrong vote
// ---------------------------------------------------------------------

proptest! {
    // Each case profiles and replays full dual-rail trains at three
    // occupancy levels, so run few cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A wavefront-pipelined train decodes to the streamed contract
    /// driver's exact tokens at every occupancy: decoded outputs,
    /// one-of-n votes, probes and all three latency figures are
    /// bit-identical (the decode comes from the serial profile pass, so
    /// this is equality, not tolerance), occupancy 1 delegates to the
    /// serial cycle outright (full `OperandResult` equality, cycle
    /// times included), and overlapping at occupancy >= 2 strictly
    /// shrinks the train makespan below the serial cycle total.
    #[test]
    fn pipelined_train_matches_serial_at_every_occupancy(
        seed in 0u64..10_000,
        operands in 2usize..12,
    ) {
        use tm_async::datapath::InferenceWorkload;
        use tm_async::dualrail::{Occupancy, PipelineConfig, PipelinedProtocolDriver};

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

        let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
        let snapshot = streamed.quiescent_snapshot();
        streamed.enable_reset_contract(snapshot);
        let expected: Vec<_> = operand_bits
            .iter()
            .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
            .collect();
        let serial_total: f64 = expected.iter().map(|r| r.cycle_time_ps).sum();

        for occupancy in [Occupancy::One, Occupancy::Two, Occupancy::Max] {
            let mut pipelined = PipelinedProtocolDriver::new(
                datapath.circuit(),
                &library,
                PipelineConfig { occupancy, ..PipelineConfig::default() },
            )
            .expect("pipelined driver");
            let got = pipelined.run_train(&operand_bits).expect("pipelined train");
            if occupancy == Occupancy::One {
                prop_assert_eq!(&got, &expected, "occupancy 1 must delegate to the serial cycle");
                continue;
            }
            prop_assert_eq!(got.len(), expected.len());
            for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
                // Everything but the cycle time is bit-identical; the
                // pipelined cycle time is the injection-to-injection
                // interval, not the serial round trip.
                let mut patched = g.clone();
                patched.cycle_time_ps = e.cycle_time_ps;
                prop_assert_eq!(&patched, e, "{:?} token {}", occupancy, k);
            }
            let pipelined_total: f64 = got.iter().map(|r| r.cycle_time_ps).sum();
            prop_assert!(
                pipelined_total < serial_total,
                "{:?} makespan {} ps must beat the serial total {} ps",
                occupancy,
                pipelined_total,
                serial_total
            );
        }
    }

    /// Sharding pipelined trains changes nothing: at thread counts
    /// {1, 2, 7}, the pipelined workload runner reproduces its
    /// occupancy-1 runs bit-identically against a streamed contract-mode
    /// driver, the overlapped runs decode to that serial reference, and
    /// every run — results and whole report, measured occupancy
    /// included — is bit-identical across thread counts (trains are
    /// position-chunked pure functions of their own operands).
    #[test]
    fn sharded_pipelined_runs_are_thread_invariant_and_serial(
        seed in 0u64..10_000,
        operands in 2usize..12,
    ) {
        use tm_async::datapath::InferenceWorkload;
        use tm_async::dualrail::{Occupancy, ParallelProtocolDriver, PipelineConfig};

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

        // The serial reference: one streamed contract-mode driver.
        let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
        let snapshot = streamed.quiescent_snapshot();
        streamed.enable_reset_contract(snapshot);
        let serial: Vec<_> = operand_bits
            .iter()
            .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
            .collect();

        // Single-threaded pipelined references for the cross-thread
        // comparison; train_length 4 forces multiple trains per run for
        // most cases.
        let reference =
            ParallelProtocolDriver::new(datapath.circuit(), &library, 1).expect("driver");
        let configs = [Occupancy::One, Occupancy::Two, Occupancy::Max].map(|occupancy| {
            PipelineConfig {
                occupancy,
                train_length: 4,
                ..PipelineConfig::default()
            }
        });
        let references = configs.map(|cfg| {
            reference
                .run_workload_pipelined(&operand_bits, cfg)
                .expect("pipelined run")
        });
        // Occupancy 1: fully bit-identical to the streamed serial
        // driver, cycle times included.
        let (run1, report1) = &references[0];
        prop_assert_eq!(&run1.results, &serial);
        prop_assert_eq!(report1.occupancy, 1);
        for (cfg, (run, report)) in configs.iter().zip(&references).skip(1) {
            for (k, (g, e)) in run.results.iter().zip(&serial).enumerate() {
                let mut patched = g.clone();
                patched.cycle_time_ps = e.cycle_time_ps;
                prop_assert_eq!(&patched, e, "{:?} token {}", cfg.occupancy, k);
            }
            prop_assert!(report.occupancy >= 2, "{:?}", cfg.occupancy);
            // A measured peak cannot exceed the tokens one train holds.
            prop_assert!(
                report.occupancy <= cfg.train_length.min(operand_bits.len()),
                "{}",
                report
            );
            if cfg.occupancy == Occupancy::Two {
                prop_assert!(report.occupancy <= 2, "{}", report);
            }
            prop_assert_eq!(report.tokens, operand_bits.len());
        }

        for threads in [1usize, 2, 7] {
            let driver = ParallelProtocolDriver::new(datapath.circuit(), &library, threads)
                .expect("driver");
            for (cfg, expected) in configs.iter().zip(&references) {
                let got = driver
                    .run_workload_pipelined(&operand_bits, *cfg)
                    .expect("pipelined run");
                prop_assert_eq!(&got, expected, "{:?} threads {}", cfg.occupancy, threads);
            }
        }
    }

    /// A stuck-at fault never silently corrupts a neighbouring in-flight
    /// token: the faulted pipelined train either errors with a typed
    /// violation (detected / timed out) or returns exactly the faulted
    /// serial driver's tokens — it never decodes a vote the serial
    /// faulted driver would not have produced.  The fault site ranges
    /// over input rails of both polarities and both stuck values, which
    /// covers spacer-starved handshakes, forged codewords and silently
    /// flipped-but-valid inputs.
    #[test]
    fn faulted_pipelined_train_never_silently_corrupts_a_neighbour(
        seed in 0u64..10_000,
        operands in 2usize..8,
        input_index in 0usize..6,
        negative_rail: bool,
        stuck_value: bool,
    ) {
        use tm_async::datapath::InferenceWorkload;
        use tm_async::dualrail::{Occupancy, PipelineConfig, PipelinedProtocolDriver};
        use tm_async::gatesim::FaultPlan;

        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

        let inputs = datapath.circuit().dual_inputs();
        let signal = inputs[input_index % inputs.len()].1;
        let net = if negative_rail { signal.negative } else { signal.positive };
        let plan = FaultPlan::new().stuck_at(net, stuck_value);
        const HORIZON_PS: f64 = 1.0e6;

        // Faulted serial reference: one streamed contract driver with
        // the same plan, one Result per operand.
        let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
        let snapshot = streamed.quiescent_snapshot();
        streamed.enable_reset_contract(snapshot);
        streamed.set_time_horizon_ps(HORIZON_PS);
        if streamed.set_fault_plan(&plan).is_err() {
            // The faulted circuit cannot even settle; the pipelined
            // driver must refuse identically.
            let mut pipelined = PipelinedProtocolDriver::new(
                datapath.circuit(),
                &library,
                PipelineConfig::default(),
            )
            .expect("pipelined driver");
            pipelined.set_time_horizon_ps(HORIZON_PS);
            prop_assert!(pipelined.set_fault_plan(&plan).is_err());
        } else {
            let serial: Vec<_> = operand_bits
                .iter()
                .map(|operand| streamed.apply_operand(operand))
                .collect();

            for occupancy in [Occupancy::Two, Occupancy::Max] {
                let mut pipelined = PipelinedProtocolDriver::new(
                    datapath.circuit(),
                    &library,
                    PipelineConfig { occupancy, ..PipelineConfig::default() },
                )
                .expect("pipelined driver");
                pipelined.set_time_horizon_ps(HORIZON_PS);
                pipelined
                    .set_fault_plan(&plan)
                    .expect("the serial driver settled under this plan");
                match pipelined.run_train(&operand_bits) {
                    // Detected or timed out: a typed error is always an
                    // acceptable fault response.
                    Err(_) => {}
                    // Completed: every token must match the faulted
                    // serial driver bit-for-bit — in particular the
                    // train cannot complete at all if the serial driver
                    // rejected any token.
                    Ok(got) => {
                        for (k, (g, e)) in got.iter().zip(&serial).enumerate() {
                            let e = e.as_ref().unwrap_or_else(|error| {
                                panic!(
                                    "{occupancy:?} token {k} decoded under a fault the \
                                     serial driver rejects with {error:?}"
                                )
                            });
                            let mut patched = g.clone();
                            patched.cycle_time_ps = e.cycle_time_ps;
                            prop_assert_eq!(&patched, e, "{:?} faulted token {}", occupancy, k);
                        }
                    }
                }
            }
        }
    }
}

/// Premature injection is a typed hazard, never a wrong vote: with the
/// `gate_injection` test hook off, the replay pass injects each operand
/// without waiting for the input stage to acknowledge the predecessor's
/// spacer — and without ever driving the spacer — so the wavefront
/// tramples in-flight state.  The driver must reject the train with
/// [`DualRailError::ProtocolViolation`] instead of decoding anything.
#[test]
fn premature_injection_is_a_typed_protocol_violation() {
    use tm_async::datapath::InferenceWorkload;
    use tm_async::dualrail::{
        DualRailError, Occupancy, ParallelProtocolDriver, PipelineConfig, PipelinedProtocolDriver,
    };

    let config = DatapathConfig::new(3, 2).expect("valid");
    let workload = InferenceWorkload::random(&config, 4, 0.7, 2021).expect("workload");
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let library = Library::umc_ll();
    let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");
    let ungated = PipelineConfig {
        occupancy: Occupancy::Two,
        gate_injection: false,
        ..PipelineConfig::default()
    };

    let mut pipelined =
        PipelinedProtocolDriver::new(datapath.circuit(), &library, ungated).expect("driver");
    match pipelined.run_train(&operand_bits) {
        Err(DualRailError::ProtocolViolation { description }) => {
            assert!(
                description.contains("hazard"),
                "the violation must name the wavefront hazard: {description}"
            );
        }
        other => panic!("ungated injection must be a typed violation, got {other:?}"),
    }

    // The sharded entry point surfaces the same typed error.
    let driver = ParallelProtocolDriver::new(datapath.circuit(), &library, 2).expect("driver");
    assert!(matches!(
        driver.run_workload_pipelined(&operand_bits, ungated),
        Err(DualRailError::ProtocolViolation { .. })
    ));
}

/// The reported occupancy is the peak the run's own schedule reached,
/// not a static estimate: two operands cannot put more than two tokens
/// in flight, even uncapped at [`Occupancy::Max`], and the overlapped
/// schedule puts exactly two there.
#[test]
fn two_operands_report_two_tokens_in_flight_at_max_occupancy() {
    use tm_async::datapath::{DualRailInference, InferenceWorkload};
    use tm_async::dualrail::{Occupancy, PipelineConfig};

    let config = DatapathConfig::new(3, 2).expect("valid");
    let workload = InferenceWorkload::random(&config, 2, 0.7, 2021).expect("workload");
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let library = Library::umc_ll();
    let engine = DualRailInference::new(&datapath, &library, 1).expect("engine");
    let max = PipelineConfig {
        occupancy: Occupancy::Max,
        ..PipelineConfig::default()
    };
    let (run, report) = engine
        .run_workload_pipelined(&workload, max)
        .expect("pipelined run");
    assert_eq!(run.outcomes.as_slice(), workload.expected());
    assert_eq!(report.occupancy, 2, "{report}");
}

/// The watchdog contract carries over to pipelined trains: a horizon
/// generous enough for every healthy token turns a delay-faulted train
/// into a typed [`DualRailError::SimulationDiverged`] instead of an
/// unbounded settle — `run_train` always returns.
#[test]
fn watchdog_horizon_bounds_a_faulted_pipelined_settle() {
    use tm_async::datapath::InferenceWorkload;
    use tm_async::dualrail::{DualRailError, Occupancy, PipelineConfig, PipelinedProtocolDriver};
    use tm_async::gatesim::FaultPlan;

    let config = DatapathConfig::new(3, 2).expect("valid");
    let workload = InferenceWorkload::random(&config, 3, 0.7, 7).expect("workload");
    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let library = Library::umc_ll();
    let operand_bits = workload.dual_rail_operands(&datapath).expect("widths");

    // Healthy cycle time, to pick a horizon that passes fault-free.
    let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
    let snapshot = streamed.quiescent_snapshot();
    streamed.enable_reset_contract(snapshot);
    let healthy_cycle_ps = streamed
        .apply_operand(&operand_bits[0])
        .expect("healthy cycle")
        .cycle_time_ps;
    let horizon_ps = 4.0 * healthy_cycle_ps;

    let pipeline_config = PipelineConfig {
        occupancy: Occupancy::Two,
        ..PipelineConfig::default()
    };
    let mut healthy = PipelinedProtocolDriver::new(datapath.circuit(), &library, pipeline_config)
        .expect("driver");
    healthy.set_time_horizon_ps(horizon_ps);
    healthy
        .run_train(&operand_bits)
        .expect("the horizon must admit every healthy token");

    // Slow every gate 100x: each token now needs far more than the
    // horizon to settle, so the watchdog must trip with a typed error.
    let plan = datapath
        .circuit()
        .netlist()
        .cells()
        .fold(FaultPlan::new(), |plan, (cell, _)| {
            plan.scale_delay(cell, 100.0)
        });
    let mut faulted = PipelinedProtocolDriver::new(datapath.circuit(), &library, pipeline_config)
        .expect("driver");
    faulted.set_time_horizon_ps(horizon_ps);
    faulted
        .set_fault_plan(&plan)
        .expect("a quiescent circuit settles under pure delay faults");
    assert!(matches!(
        faulted.run_train(&operand_bits),
        Err(DualRailError::SimulationDiverged)
    ));
}
