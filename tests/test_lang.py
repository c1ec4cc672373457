"""DSL tests: builder, parser, printer, round-trips."""

import pickle

import pytest

from repro.algorithms.figures import all_figures, fig2_fir
from repro.arch.config import ArrayConfig
from repro.core.program import ArrayProgram
from repro.errors import ParseError, ProgramError
from repro.lang import ProgramBuilder, parse_program, print_program, side_by_side
from repro.sweep import SimJob, summarize_result
from repro.workloads import WorkloadSpec, random_program


class TestBuilder:
    def test_simple_exchange(self):
        b = ProgramBuilder("demo", ["C1", "C2"])
        b.cell("C1").send("A", times=2)
        b.cell("C2").recv("A", times=2)
        prog = b.build()
        assert prog.message("A").length == 2
        assert prog.message("A").endpoints == ("C1", "C2")

    def test_chaining(self):
        b = ProgramBuilder("demo", ["C1", "C2"])
        b.cell("C1").send("A").recv("B").send("A")
        b.cell("C2").recv("A", times=2).send("B")
        prog = b.build()
        assert prog.total_transfer_ops == 6

    def test_compute_and_delay(self):
        b = ProgramBuilder("demo", ["C1", "C2"])
        b.cell("C1").compute("x", lambda: 1.0, []).send("A", from_register="x")
        b.cell("C2").delay(3).recv("A", into="y")
        prog = b.build()
        assert len(prog.cell_programs["C1"]) == 2
        assert prog.transfers("C1")[0].source.register == "x"

    def test_unknown_cell_rejected(self):
        b = ProgramBuilder("demo", ["C1"])
        with pytest.raises(ProgramError):
            b.cell("CX")

    def test_two_writers_rejected(self):
        b = ProgramBuilder("demo", ["C1", "C2", "C3"])
        b.cell("C1").send("A")
        with pytest.raises(ProgramError):
            b.cell("C2").send("A")

    def test_two_readers_rejected(self):
        b = ProgramBuilder("demo", ["C1", "C2", "C3"])
        b.cell("C1").send("A", times=2)
        b.cell("C2").recv("A")
        with pytest.raises(ProgramError):
            b.cell("C3").recv("A")

    def test_unbalanced_counts_rejected(self):
        b = ProgramBuilder("demo", ["C1", "C2"])
        b.cell("C1").send("A", times=3)
        b.cell("C2").recv("A", times=2)
        with pytest.raises(ProgramError):
            b.build()

    def test_never_read_rejected(self):
        b = ProgramBuilder("demo", ["C1", "C2"])
        b.cell("C1").send("A")
        with pytest.raises(ProgramError):
            b.build()


class TestParser:
    SOURCE = """
    program demo
    cells C1 C2

    message A C1 -> C2 length 2

    cell C1:
        W(A) <- 1.5    # constant source
        W(A) <- x      # register source

    cell C2:
        R(A) -> y
        delay 2
        R(A)
    """

    def test_parse_valid(self):
        prog = parse_program(self.SOURCE)
        assert prog.name == "demo"
        assert prog.message("A").length == 2
        ops = prog.cell_programs["C1"].ops
        assert ops[0].source.constant == 1.5
        assert ops[1].source.register == "x"
        assert prog.cell_programs["C2"].ops[0].register == "y"

    def test_missing_cells_line(self):
        with pytest.raises(ParseError):
            parse_program("program x\ncell C1:\n    W(A)")

    def test_statement_outside_cell(self):
        with pytest.raises(ParseError):
            parse_program("program x\ncells C1 C2\nW(A)")

    def test_unparseable_statement(self):
        with pytest.raises(ParseError):
            parse_program("cells C1 C2\ncell C1:\n    FROB(A)")

    def test_declared_message_mismatch(self):
        src = (
            "cells C1 C2\n"
            "message A C1 -> C2 length 5\n"
            "cell C1:\n    W(A)\n"
            "cell C2:\n    R(A)\n"
        )
        with pytest.raises(ParseError):
            parse_program(src)

    def test_declared_message_unused(self):
        src = (
            "cells C1 C2\n"
            "message Z C1 -> C2 length 1\n"
            "cell C1:\n    W(A)\n"
            "cell C2:\n    R(A)\n"
        )
        with pytest.raises(ParseError):
            parse_program(src)

    def test_message_lines_fix_declaration_order(self):
        names = [f"M{i}" for i in range(9, -1, -1)]
        src = "cells C1 C2\n"
        src += "".join(f"message {name} C1 -> C2 length 1\n" for name in names)
        src += "cell C1:\n" + "".join(f"    W({name})\n" for name in sorted(names))
        src += "cell C2:\n" + "".join(f"    R({name})\n" for name in sorted(names))
        assert list(parse_program(src).messages) == names

    def test_unlisted_messages_follow_in_sorted_order(self):
        src = (
            "cells C1 C2\n"
            "message B C1 -> C2 length 1\n"
            "cell C1:\n    W(C)\n    W(A)\n    W(B)\n"
            "cell C2:\n    R(C)\n    R(A)\n    R(B)\n"
        )
        assert list(parse_program(src).messages) == ["B", "A", "C"]

    def test_message_declared_twice_rejected(self):
        src = (
            "cells C1 C2\n"
            "message A C1 -> C2 length 1\n"
            "message A C1 -> C2 length 1\n"
            "cell C1:\n    W(A)\n"
            "cell C2:\n    R(A)\n"
        )
        with pytest.raises(ParseError, match="declared twice"):
            parse_program(src)

    def test_duplicate_cells_line(self):
        with pytest.raises(ParseError):
            parse_program("cells C1\ncells C2")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_program("# nothing here")


class TestRoundTrip:
    @pytest.mark.parametrize("key", sorted(all_figures()))
    def test_figures_round_trip(self, key):
        original = all_figures()[key]
        parsed = parse_program(print_program(original))
        assert parsed.messages == original.messages
        for cell in original.cells:
            assert [str(o) for o in parsed.transfers(cell)] == [
                str(o) for o in original.transfers(cell)
            ]


#: A program whose FCFS run at one queue per link deadlocks as declared
#: and completes with its messages declared in reverse order.
ORDER_SENSITIVE = WorkloadSpec(cells=8, messages=12, max_length=3, seed=68)


def _reversed(program: ArrayProgram) -> ArrayProgram:
    return ArrayProgram(
        program.cells,
        [program.messages[name] for name in reversed(program.messages)],
        {cell: program.cell_programs[cell].ops for cell in program.cells},
        name=program.name,
    )


class TestDeclarationOrderRoundTrip:
    """The text format keeps declaration order, which FCFS runs read."""

    @pytest.mark.parametrize("reverse", (False, True), ids=("declared", "reversed"))
    def test_round_trip_keeps_fingerprint_and_fcfs_row(self, reverse):
        program = random_program(ORDER_SENSITIVE)
        if reverse:
            program = _reversed(program)
        parsed = parse_program(print_program(program))
        assert list(parsed.messages) == list(program.messages)
        assert parsed.fingerprint == program.fingerprint
        rows = [
            summarize_result(0, job, job.run())
            for job in (
                SimJob(p, config=ArrayConfig(queues_per_link=1), policy="fcfs")
                for p in (program, parsed)
            )
        ]
        assert rows[0] == rows[1]
        assert rows[0].outcome == ("completed" if reverse else "deadlock")


class TestDelayPickles:
    def test_parsed_program_with_delays_pickles(self):
        text = print_program(fig2_fir())
        assert "delay" in text
        program = parse_program(text)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.fingerprint == program.fingerprint
        assert SimJob(clone).run() == SimJob(program).run()


class TestPrinter:
    def test_side_by_side_columns(self, fig6):
        text = side_by_side(fig6)
        lines = text.splitlines()
        assert lines[0].split() == list(fig6.cells)
        assert "W(A)" in text and "R(D)" in text
