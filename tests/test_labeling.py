"""Labeling tests: the Section 6 scheme, the constraint scheme, consistency."""

from fractions import Fraction

import pytest

from repro.core.consistency import check_consistency, is_consistent
from repro.core.labeling import (
    Labeling,
    constraint_labeling,
    label_messages,
    labels_as_str,
    trivial_labeling,
)
from repro.core.crossing import uniform_lookahead
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import DeadlockedProgramError, LabelingError
from repro.workloads import WorkloadSpec, random_program


class TestPaperSchemeOnFigures:
    def test_fig7_labels_1_3_2(self, fig7):
        labeling = label_messages(fig7)
        assert labels_as_str(labeling) == "A=1 B=3 C=2"

    def test_fig8_equal_labels(self, fig8):
        labeling = label_messages(fig8)
        assert labeling.same_label("A", "B")

    def test_fig9_equal_labels(self, fig9):
        labeling = label_messages(fig9)
        assert labeling.same_label("A", "B")

    def test_fig2_single_class(self, fig2):
        labeling = label_messages(fig2)
        assert len(labeling.groups()) == 1

    def test_fig6_increasing_chain(self, fig6):
        labeling = label_messages(fig6)
        norm = labeling.normalized()
        assert norm == {"A": 1, "B": 2, "C": 3, "D": 4}

    def test_deadlocked_program_rejected(self, p1):
        with pytest.raises(DeadlockedProgramError):
            label_messages(p1)

    def test_lookahead_step_1d_shares_labels(self, p1):
        labeling = label_messages(p1, lookahead=uniform_lookahead(p1, 2))
        assert labeling.same_label("A", "B")

    def test_consistency_of_all_figure_labelings(self, fig2, fig6, fig7, fig8, fig9):
        for prog in (fig2, fig6, fig7, fig8, fig9):
            assert is_consistent(prog, label_messages(prog))

    def test_no_pick_parameter(self, fig7):
        # The tie-break is fixed: the lowest message name crosses first.
        with pytest.raises(TypeError):
            label_messages(fig7, pick=lambda pairs: pairs[-1])


class TestPaperSchemeFractionCase:
    def test_step_1b_places_between_labels(self):
        # Z is crossed after A (label 1) and after B inherited label 2 by
        # relation to E at cell C5; C1 last accessed A and will access B,
        # so Z needs a value strictly inside (1, 2) — the paper's "real
        # number between two consecutive integers".
        prog = ArrayProgram(
            ("C1", "C2", "C3", "C4", "C5"),
            [
                Message("A", "C1", "C2", 1),
                Message("B", "C1", "C5", 2),
                Message("E", "C4", "C5", 2),
                Message("Z", "C1", "C3", 1),
            ],
            {
                "C1": [W("A"), W("Z"), W("B"), W("B")],
                "C2": [R("A")],
                "C3": [R("Z")],
                "C4": [W("E"), W("E")],
                "C5": [R("E"), R("B"), R("E"), R("B")],
            },
        )
        labeling = label_messages(prog)
        assert is_consistent(prog, labeling)
        assert labeling.label("A") < labeling.label("Z") < labeling.label("B")
        assert labeling.label("Z").denominator > 1  # genuinely fractional
        assert labeling.same_label("B", "E")  # via step 1c propagation


class TestPaperSchemeOrderSensitivity:
    """The finding documented in DESIGN.md section 7."""

    def test_paper_scheme_order_sensitivity(self):
        prog = random_program(WorkloadSpec(seed=1))
        with pytest.raises(LabelingError):
            label_messages(prog)
        # Yet a consistent labeling exists, and the constraint scheme finds it.
        labeling = constraint_labeling(prog)
        assert is_consistent(prog, labeling)


class TestConstraintScheme:
    def test_matches_paper_on_fig7(self, fig7):
        assert labels_as_str(constraint_labeling(fig7)) == "A=1 B=3 C=2"

    def test_matches_paper_on_fig8(self, fig8):
        assert constraint_labeling(fig8).same_label("A", "B")

    def test_matches_paper_on_fig9(self, fig9):
        assert constraint_labeling(fig9).same_label("A", "B")

    def test_always_consistent_on_random_programs(self):
        for seed in range(40):
            prog = random_program(WorkloadSpec(seed=seed))
            assert is_consistent(prog, constraint_labeling(prog))

    def test_finest_on_fig6(self, fig6):
        # No interleavings: four singleton classes, in chain order.
        labeling = constraint_labeling(fig6)
        assert labeling.normalized() == {"A": 1, "B": 2, "C": 3, "D": 4}

    def test_lookahead_equalities(self, p1):
        labeling = constraint_labeling(p1, lookahead=uniform_lookahead(p1, 2))
        assert labeling.same_label("A", "B")

    def test_lookahead_on_deadlocked_program_rejected(self, p3):
        with pytest.raises(DeadlockedProgramError):
            constraint_labeling(p3, lookahead=uniform_lookahead(p3, 2))

    def test_without_lookahead_works_even_on_deadlocked(self, p3):
        # The static constraints exist regardless of deadlock-freedom.
        labeling = constraint_labeling(p3)
        assert set(labeling.labels) == {"A", "B"}


class TestLabelingObject:
    def test_groups_sorted(self):
        labeling = Labeling(
            {"A": Fraction(2), "B": Fraction(1), "C": Fraction(2)}
        )
        groups = labeling.groups()
        assert groups[0] == (Fraction(1), ("B",))
        assert groups[1] == (Fraction(2), ("A", "C"))

    def test_normalized_dense_ranks(self):
        labeling = Labeling(
            {"A": Fraction(7), "B": Fraction(3, 2), "C": Fraction(7)}
        )
        assert labeling.normalized() == {"A": 2, "B": 1, "C": 2}

    def test_unknown_message(self):
        with pytest.raises(LabelingError):
            Labeling({}).label("Z")

    def test_trivial_labeling_consistent_everywhere(self, fig2, fig7, fig8):
        for prog in (fig2, fig7, fig8):
            assert is_consistent(prog, trivial_labeling(prog))

    def test_len(self, fig7):
        assert len(label_messages(fig7)) == 3


class TestConsistencyChecker:
    def test_violation_details(self, fig7):
        bad = Labeling(
            {"A": Fraction(1), "B": Fraction(1), "C": Fraction(2)}
        )
        # C4 reads C (2) then B (1): decreasing.
        violations = check_consistency(fig7, bad)
        assert violations
        v = violations[0]
        assert v.cell == "C4"
        assert v.previous_message == "C"
        assert v.message == "B"
        assert "C4" in str(v)

    def test_consistent_has_no_violations(self, fig7):
        assert check_consistency(fig7, label_messages(fig7)) == []
