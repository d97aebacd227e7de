"""Tests for the trace verifier — real traces pass, corrupted ones fail."""

import dataclasses

import pytest

from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from
from repro.sim.trace import ExecutionTrace, RoundRecord
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from tests.test_engine_vector_step import CHANNELS, FACTORIES, N, SEEDS
from tests.trace_rules import verify_trace


def _run(channel, seed=3, p=0.2):
    nodes = FixedProbabilityProtocol(p=p).build(channel.n)
    return Simulation(
        channel, nodes, rng=generator_from(seed), max_rounds=5_000
    ).run()


class TestValidTraces:
    def test_real_execution_passes_all_rules(self, small_channel):
        trace = _run(small_channel)
        assert verify_trace(trace, small_channel) == []

    def test_many_seeds_pass(self, small_channel):
        for seed in range(8):
            trace = _run(small_channel, seed=seed)
            violations = verify_trace(trace, small_channel)
            assert violations == [], [str(v) for v in violations]

    def test_fading_channel_skips_replay_but_passes_rest(self, small_positions):
        channel = SINRChannel(small_positions, gain_model=RayleighFading())
        trace = _run(channel, seed=5)
        assert verify_trace(trace, channel) == []

    def test_empty_trace_passes(self):
        trace = ExecutionTrace(n=3, protocol_name="x")
        assert verify_trace(trace) == []

    def test_verification_without_channel_skips_r3(self, small_channel):
        trace = _run(small_channel)
        assert verify_trace(trace, channel=None) == []


class TestVectorStepTraces:
    """The engine's vector steps (oblivious schedules and BEB) obey R1-R5."""

    @pytest.mark.parametrize(
        "protocol,channel",
        [
            (protocol, channel)
            for protocol in FACTORIES
            for channel in CHANNELS
            # The engine rejects the CD tournament off a CD channel.
            if protocol != "cd_tournament" or channel == "radio_cd"
        ],
    )
    def test_real_execution_passes_all_rules(self, protocol, channel):
        for seed in SEEDS:
            ch = CHANNELS[channel]()
            simulation = Simulation(
                ch, FACTORIES[protocol], rng=generator_from(seed), max_rounds=3_000
            )
            trace = simulation.run()
            assert simulation.nodes is None  # the vector step ran
            assert verify_trace(trace, ch) == []


def _corrupt(trace, index, **changes):
    """Replace record ``index`` with a modified copy."""
    trace.records[index] = dataclasses.replace(trace.records[index], **changes)
    return trace


class TestCorruptedTraces:
    def test_zombie_transmitter_detected(self, small_channel):
        trace = _run(small_channel)
        dead = None
        dead_round = None
        for record in trace.records:
            if record.knocked_out:
                dead = record.knocked_out[0]
                dead_round = record.index
                break
        if dead is None:
            pytest.skip("execution had no knockouts")
        # Make the dead node transmit in a later round.
        later = dead_round + 1
        if later >= len(trace.records):
            pytest.skip("no later round to corrupt")
        record = trace.records[later]
        _corrupt(
            trace,
            later,
            transmitters=tuple(sorted(set(record.transmitters) | {dead})),
            active_before=tuple(sorted(set(record.active_before) | {dead})),
        )
        rules = {v.rule for v in verify_trace(trace)}
        assert "R1-knockout-permanence" in rules

    def test_vanishing_node_detected(self, small_channel):
        trace = _run(small_channel)
        if len(trace.records) < 2:
            pytest.skip("execution too short")
        record = trace.records[1]
        reduced = tuple(record.active_before[1:])  # drop one without knockout
        _corrupt(trace, 1, active_before=reduced)
        rules = {v.rule for v in verify_trace(trace)}
        assert "R2-activity-bookkeeping" in rules or "R1-knockout-permanence" in rules

    def test_fabricated_reception_detected(self, small_channel):
        trace = _run(small_channel)
        record = trace.records[0]
        listeners = [
            node
            for node in record.active_before
            if node not in record.transmitters
        ]
        if not listeners or not record.transmitters:
            pytest.skip("round 0 unsuitable")
        fake = dict(record.receptions)
        # Claim every listener decoded the first transmitter — overwhelmingly
        # inconsistent with the SINR replay under interference, and at
        # minimum different from the recorded set if we add a new pair.
        changed = False
        for listener in listeners:
            if listener not in fake:
                fake[listener] = record.transmitters[0]
                changed = True
        if not changed:
            pytest.skip("all listeners already received")
        _corrupt(trace, 0, receptions=fake)
        rules = {v.rule for v in verify_trace(trace, small_channel)}
        assert "R3-reception-validity" in rules

    def test_transmitting_receiver_detected(self, small_channel):
        trace = _run(small_channel)
        record = trace.records[0]
        if not record.transmitters:
            pytest.skip("round 0 had no transmitters")
        tx = record.transmitters[0]
        fake = dict(record.receptions)
        fake[tx] = tx
        _corrupt(trace, 0, receptions=fake)
        rules = {v.rule for v in verify_trace(trace)}
        assert "R5-transmitter-sanity" in rules

    def test_false_solved_claim_detected(self, small_channel):
        trace = _run(small_channel)
        final = trace.records[-1]
        if len(final.transmitters) != 1:
            pytest.skip("no solo final round")
        _corrupt(
            trace,
            len(trace.records) - 1,
            transmitters=(final.transmitters[0], final.transmitters[0] + 1)
            if final.transmitters[0] + 1 < trace.n
            else (0, final.transmitters[0]),
        )
        rules = {v.rule for v in verify_trace(trace)}
        assert "R4-termination" in rules or "R5-transmitter-sanity" in rules

    def test_violation_str_is_informative(self):
        from tests.trace_rules import TraceViolation

        violation = TraceViolation("R1-knockout-permanence", 3, "node 2 undead")
        assert "R1" in str(violation)
        assert "round 3" in str(violation)
