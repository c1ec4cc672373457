"""Unit tests for the operation model."""

import pytest

from repro.core.ops import COMPUTE, Op, OpKind, R, ValueSource, W, transfer_ops


class TestConstructors:
    def test_read_defaults(self):
        op = R("A")
        assert op.kind is OpKind.READ
        assert op.message == "A"
        assert op.register is None
        assert op.is_transfer

    def test_read_into_register(self):
        op = R("A", into="x")
        assert op.register == "x"

    def test_write_defaults(self):
        op = W("A")
        assert op.kind is OpKind.WRITE
        assert op.source is None

    def test_write_constant(self):
        op = W("A", constant=3.5)
        assert op.source is not None
        assert op.source.resolve({}) == 3.5

    def test_write_register_source(self):
        op = W("A", from_register="x")
        assert op.source.resolve({"x": 7.0}) == 7.0

    def test_write_register_source_missing_register(self):
        op = W("A", from_register="x")
        assert op.source.resolve({}) is None

    def test_compute(self):
        op = COMPUTE("y", lambda a, b: a + b, ["a", "b"], cycles=2)
        assert op.kind is OpKind.COMPUTE
        assert op.operands == ("a", "b")
        assert op.cycles == 2
        assert not op.is_transfer

    def test_compute_default_cycle(self):
        assert COMPUTE("y", lambda: 0.0, []).cycles == 1


class TestValidation:
    def test_read_requires_message(self):
        with pytest.raises(ValueError):
            Op(OpKind.READ)

    def test_write_requires_message(self):
        with pytest.raises(ValueError):
            Op(OpKind.WRITE)

    def test_compute_rejects_message(self):
        with pytest.raises(ValueError):
            Op(OpKind.COMPUTE, message="A")

    def test_value_source_exclusive(self):
        with pytest.raises(ValueError):
            ValueSource(register="x", constant=1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Op(OpKind.WRITE, "X", cycles=-1),
            lambda: W("X", constant=1.0, cycles=-1),
            lambda: W("X", cycles=-5),
            lambda: R("X", cycles=-1),
            lambda: COMPUTE("y", lambda: 0.0, [], cycles=-1),
        ],
        ids=["op", "write-constant", "write", "read", "compute"],
    )
    def test_rejects_negative_cycles(self, make):
        # Every op's cycles become a scheduling delay in the simulator,
        # where a negative one has no meaning.
        with pytest.raises(ValueError, match="cycles must be >= 0"):
            make()

    def test_builder_delay_rejects_negative_cycles(self):
        from repro.lang.builder import ProgramBuilder

        builder = ProgramBuilder("neg", cells=["C1", "C2"])
        with pytest.raises(ValueError, match="cycles must be >= 0"):
            builder.cell("C1").delay(-1)

    def test_zero_cycles_accepted(self):
        assert W("X", cycles=0).cycles == 0
        assert COMPUTE("y", lambda: 0.0, [], cycles=0).cycles == 0


class TestViews:
    def test_str_forms(self):
        assert str(R("A")) == "R(A)"
        assert str(W("B")) == "W(B)"
        assert str(COMPUTE("y", lambda: 0.0, [])) == "C(y)"

    def test_transfer_ops_filters_compute(self):
        ops = [R("A"), COMPUTE("y", lambda: 0.0, []), W("B")]
        assert [str(o) for o in transfer_ops(ops)] == ["R(A)", "W(B)"]

    def test_opkind_str(self):
        assert str(OpKind.READ) == "R"
        assert str(OpKind.WRITE) == "W"
