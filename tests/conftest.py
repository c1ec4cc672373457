"""Shared fixtures: the paper's figure programs and common configs."""

from __future__ import annotations

import pytest

from repro import ArrayConfig
from repro.algorithms.figures import (
    fig2_fir,
    fig5_p1,
    fig5_p2,
    fig5_p3,
    fig6_cycle,
    fig7_program,
    fig8_program,
    fig9_program,
)


@pytest.fixture
def fig2():
    return fig2_fir()


@pytest.fixture
def p1():
    return fig5_p1()


@pytest.fixture
def p2():
    return fig5_p2()


@pytest.fixture
def p3():
    return fig5_p3()


@pytest.fixture
def fig6():
    return fig6_cycle()


@pytest.fixture
def fig7():
    return fig7_program()


@pytest.fixture
def fig8():
    return fig8_program()


@pytest.fixture
def fig9():
    return fig9_program()


@pytest.fixture
def unbuffered():
    """Sections 3-7 hardware: one capacity-0 queue per directed link."""
    return ArrayConfig(queues_per_link=1, queue_capacity=0)


@pytest.fixture
def buffered2():
    """Section 8 hardware for Fig. 10: two queues of capacity 2 per link."""
    return ArrayConfig(queues_per_link=2, queue_capacity=2)
