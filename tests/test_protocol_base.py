"""Unit tests for the protocol base interface."""

import pytest

from repro.protocols.base import Action, Feedback, NodeProtocol, ProtocolFactory


class _MinimalNode(NodeProtocol):
    def decide(self, round_index, rng):
        return Action.LISTEN


class _MinimalFactory(ProtocolFactory):
    name = "minimal"

    def node_spec(self, n):
        return _MinimalNode, ()


class TestFeedback:
    def test_defaults(self):
        feedback = Feedback(transmitted=False)
        assert feedback.received is None
        assert feedback.observation is None
        assert feedback.energy is None

    def test_immutability(self):
        feedback = Feedback(transmitted=True)
        with pytest.raises(AttributeError):
            feedback.received = 3


class TestNodeProtocol:
    def test_starts_active(self):
        assert _MinimalNode(0).active

    def test_default_feedback_is_noop(self):
        node = _MinimalNode(0)
        node.on_feedback(0, Feedback(transmitted=False, received=5))
        assert node.active

    def test_default_capability_flags(self):
        assert _MinimalNode.requires_collision_detection is False
        assert _MinimalNode.requires_energy_sensing is False

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            NodeProtocol(0)

    def test_repr_contains_id_and_state(self):
        node = _MinimalNode(3)
        assert "3" in repr(node)


class TestProtocolFactory:
    def test_default_flags(self):
        assert _MinimalFactory.knows_network_size is False
        assert _MinimalFactory.requires_collision_detection is False
        assert _MinimalFactory.requires_energy_sensing is False

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            ProtocolFactory()

    def test_repr_mentions_name(self):
        assert "minimal" in repr(_MinimalFactory())

    def test_build_produces_sequential_ids(self):
        nodes = _MinimalFactory().build(4)
        assert [n.node_id for n in nodes] == [0, 1, 2, 3]

    def test_template_is_a_fresh_node_zero(self):
        factory = _MinimalFactory()
        template = factory.template(4)
        assert type(template) is _MinimalNode and template.node_id == 0
        assert vars(template) == vars(factory.build(4)[0])
        assert factory.template(4) is not template

    @pytest.mark.parametrize("n", [0, -3])
    def test_build_and_template_reject_non_positive_sizes(self, n):
        for make in (_MinimalFactory().build, _MinimalFactory().template):
            with pytest.raises(ValueError, match="n must be positive"):
                make(n)


class TestActionEnum:
    def test_two_actions(self):
        assert {a.value for a in Action} == {"transmit", "listen"}
