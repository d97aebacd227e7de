"""Unit tests for trace dataclasses."""

from repro.sim.trace import ExecutionTrace, RoundRecord


def _record(index, transmitters, active, knocked=()):
    return RoundRecord(
        index=index,
        transmitters=tuple(transmitters),
        receptions={},
        active_before=tuple(active),
        knocked_out=tuple(knocked),
    )


class TestRoundRecord:
    def test_is_solo(self):
        assert _record(0, [3], [1, 2, 3]).is_solo
        assert not _record(0, [], [1, 2]).is_solo
        assert not _record(0, [1, 2], [1, 2]).is_solo

    def test_num_active_before(self):
        assert _record(0, [], [4, 5, 6]).num_active_before == 3


class TestExecutionTrace:
    def test_unsolved_defaults(self):
        trace = ExecutionTrace(n=5, protocol_name="x")
        assert not trace.solved
        assert trace.rounds_to_solve is None
        assert sum(trace.knockouts_per_round()) == 0

    def test_rounds_to_solve_is_one_based(self):
        trace = ExecutionTrace(n=5, protocol_name="x", solved_round=0)
        assert trace.rounds_to_solve == 1

    def test_active_counts_and_knockouts(self):
        trace = ExecutionTrace(n=4, protocol_name="x")
        trace.records = [
            _record(0, [0, 1], [0, 1, 2, 3], knocked=[2, 3]),
            _record(1, [0], [0, 1], knocked=[1]),
        ]
        assert trace.active_counts() == [4, 2]
        assert trace.knockouts_per_round() == [2, 1]
        assert sum(trace.knockouts_per_round()) == 3

    def test_repr_mentions_status(self):
        solved = ExecutionTrace(n=2, protocol_name="p", solved_round=3)
        unsolved = ExecutionTrace(n=2, protocol_name="p")
        assert "solved@3" in repr(solved)
        assert "unsolved" in repr(unsolved)
