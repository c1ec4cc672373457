"""Analysis-cache tests: keying, sharing, equivalence, bounds."""

import pytest

from repro import ArrayConfig, Simulator, simulate
from repro.perf import (
    AnalysisCache,
    GLOBAL_ANALYSIS_CACHE,
    analysis_cache_stats,
    clear_analysis_cache,
    topology_fingerprint,
)
from repro.algorithms.figures import (
    fig2_expected_outputs,
    fig2_fir,
    fig2_registers,
    fig7_program,
)
from repro.algorithms.fir import fir_program, fir_registers
from repro.core.program import ArrayProgram
from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear, LinearArray, Mesh2D
from repro.workloads import WorkloadSpec, random_program


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


class TestFingerprints:
    def test_identical_programs_share_fingerprint(self):
        a = fir_program(4, 8)
        b = fir_program(4, 8)
        assert a is not b
        assert a.fingerprint == b.fingerprint

    def test_different_structure_differs(self):
        assert fir_program(4, 8).fingerprint != fir_program(4, 9).fingerprint

    def test_fingerprint_memoized_on_instance(self):
        program = fir_program(4, 8)
        first = program.fingerprint
        assert program.fingerprint is first

    def test_topology_fingerprint_separates_shapes(self):
        cells = ("C1", "C2", "C3", "C4")
        linear = ExplicitLinear(cells)
        assert topology_fingerprint(linear) != topology_fingerprint(
            Mesh2D(2, 2)
        )
        assert topology_fingerprint(Mesh2D(2, 2)) != topology_fingerprint(
            Mesh2D(1, 4)
        )


class TestCacheBehaviour:
    def test_repeat_simulation_hits_cache(self):
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        simulate(program, registers=registers)
        stats = analysis_cache_stats()
        assert stats["misses"] == 1
        simulate(program, registers=registers)
        stats = analysis_cache_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] == 1

    def test_structurally_equal_program_object_hits(self):
        registers = fir_registers((1.0,) * 4)
        simulate(fir_program(4, 8), registers=registers)
        simulate(fir_program(4, 8), registers=registers)
        assert analysis_cache_stats()["misses"] == 1

    def test_config_bits_key_the_entry(self):
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        simulate(program, registers=registers)
        simulate(
            program, config=ArrayConfig(queue_capacity=2), registers=registers
        )
        assert analysis_cache_stats()["misses"] == 2
        # queues_per_link does not affect the analyses -> same entry.
        simulate(
            program,
            config=ArrayConfig(queues_per_link=3),
            registers=registers,
        )
        assert analysis_cache_stats()["misses"] == 2

    def test_reuse_analysis_false_bypasses_cache(self):
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        result = Simulator(
            program, registers=registers, reuse_analysis=False
        ).run()
        assert result.completed
        assert analysis_cache_stats()["misses"] == 0

    def test_clear_resets_counters(self):
        simulate(fir_program(4, 8), registers=fir_registers((1.0,) * 4))
        clear_analysis_cache()
        stats = analysis_cache_stats()
        assert stats == {"size": 0, "hits": 0, "misses": 0}

    def test_lru_bound_respected(self):
        cache = AnalysisCache(maxsize=2)
        config = ArrayConfig()
        for outputs in (4, 5, 6):
            program = fir_program(2, outputs)
            topo = ExplicitLinear(tuple(program.cells))
            from repro.arch.routing import default_router

            cache.lookup(program, topo, default_router(topo), config)
        assert len(cache) == 2


class TestDefaultArray:
    """Default builds share one topology and router per cell tuple."""

    def test_default_builds_share_topology_and_router(self):
        program = fig7_program()
        sim1 = Simulator(program, policy="fcfs")
        sim2 = Simulator(fig7_program(), policy="ordered")
        assert sim1.topology is sim2.topology
        assert sim1.router is sim2.router
        assert sim1.topology.cells == tuple(program.cells)

    def test_warm_default_build_renders_no_fingerprint(self, monkeypatch):
        import repro.perf.analysis_cache as analysis_cache

        program = fig7_program()
        Simulator(program)  # warm: the array and the entry exist
        calls = []
        original = analysis_cache.topology_fingerprint

        def counted(topology):
            calls.append(topology)
            return original(topology)

        monkeypatch.setattr(analysis_cache, "topology_fingerprint", counted)
        Simulator(program, config=ArrayConfig(queues_per_link=2))
        analysis_cache.default_entry(program)
        assert calls == []
        # A topology the cache did not make still renders its own.
        topology = ExplicitLinear(tuple(program.cells))
        Simulator(program, topology=topology)
        assert calls == [topology]

    def test_clear_drops_the_shared_array(self):
        program = fig7_program()
        before = Simulator(program)
        clear_analysis_cache()
        after = Simulator(program)
        assert after.topology is not before.topology
        assert after.router is not before.router
        assert after.topology.cells == before.topology.cells

    def test_arrays_are_bounded_like_entries(self):
        cache = AnalysisCache(maxsize=2)
        arrays = [cache.default_array((f"A{i}", f"B{i}")) for i in range(3)]
        assert cache.default_array(("A2", "B2")) is arrays[2]
        assert cache.default_array(("A0", "B0")) is not arrays[0]

    def test_uncached_and_custom_builds_keep_their_own_array(self):
        program = fig7_program()
        shared = Simulator(program)
        private = Simulator(program, reuse_analysis=False)
        assert private.topology is not shared.topology
        assert private.router is not shared.router
        topology = ExplicitLinear(tuple(program.cells))
        custom = Simulator(program, topology=topology)
        assert custom.topology is topology
        assert custom.router is not shared.router
        # Equal content still shares the analysis entry.
        assert custom._analysis is shared._analysis
        assert private.run() == shared.run() == custom.run()

    def test_list_built_topology_builds_and_runs(self):
        program = fig7_program()
        shared = Simulator(program)  # the tuple's default array exists
        topology = ExplicitLinear(list(program.cells))
        sim = Simulator(program, topology=topology)
        assert sim.topology is topology
        assert sim.run() == Simulator(program).run()
        entry = GLOBAL_ANALYSIS_CACHE.lookup(
            program, topology, default_router(topology), ArrayConfig()
        )
        assert entry is not None
        assert shared.topology.cells == tuple(topology.cells)


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("capacity", [0, 2])
    def test_identical_results(self, seed, capacity):
        spec = WorkloadSpec(cells=6, messages=10, max_length=3, seed=seed)
        program = random_program(spec)
        config = ArrayConfig(queues_per_link=8, queue_capacity=capacity)
        fresh = Simulator(program, config=config, reuse_analysis=False).run()
        cold = Simulator(program, config=config).run()  # fills the cache
        warm = Simulator(program, config=config).run()  # reads the cache
        for result in (cold, warm):
            assert result.received == fresh.received
            assert result.registers == fresh.registers
            assert result.assignment_trace == fresh.assignment_trace
            assert result.time == fresh.time
            assert result.events == fresh.events

    def test_custom_labeling_not_cached_across_runs(self):
        from repro.core.labeling import trivial_labeling

        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        config = ArrayConfig(queues_per_link=4)
        auto = simulate(program, config=config, registers=registers)
        custom = Simulator(
            program,
            config=config,
            registers=registers,
            labeling=trivial_labeling(program),
        ).run()
        assert auto.completed and custom.completed
        assert auto.received == custom.received

    def test_global_cache_is_shared_across_simulators(self):
        program = fir_program(4, 8)
        sim1 = Simulator(program, registers=fir_registers((1.0,) * 4))
        sim2 = Simulator(program, registers=fir_registers((1.0,) * 4))
        assert sim1.labeling is sim2.labeling
        assert GLOBAL_ANALYSIS_CACHE.stats()["size"] == 1


class TestBuildPlan:
    """The entry's build plan holds structure only, and is the one path."""

    def test_fingerprint_equal_programs_share_the_plan_not_the_values(self):
        inputs = ((1.0, 2.0, 3.0, 4.0), (5.0, -1.0, 0.5, 8.0))
        sims = []
        for xs in inputs:
            sim = Simulator(fig2_fir(xs), registers=fig2_registers())
            result = sim.run()
            assert result.received["YA"] == list(fig2_expected_outputs(xs))
            sims.append(sim)
        first, second = sims
        assert first.program.fingerprint == second.program.fingerprint
        assert first._analysis is second._analysis
        assert first._analysis.plan is second._analysis.plan
        assert analysis_cache_stats()["size"] == 1

    @pytest.mark.parametrize("policy", ["ordered", "static", "fcfs"])
    @pytest.mark.parametrize("name", ["fig2", "fig7"])
    def test_uncached_build_equals_cached_in_the_full_result(self, name, policy):
        if name == "fig2":
            program, registers = fig2_fir(), fig2_registers()
        else:
            program, registers = fig7_program(), None
        config = ArrayConfig(queues_per_link=2, queue_capacity=1)

        def run(reuse):
            return Simulator(
                program,
                config=config,
                policy=policy,
                registers=registers,
                reuse_analysis=reuse,
            ).run()

        fresh = run(False)
        assert run(True) == fresh  # fills the cache
        assert run(True) == fresh  # reads the cache
        assert fresh.queue_stats and fresh.assignment_trace

    def test_declaration_order_is_planned_per_program(self):
        # The simulator issues same-cycle requests in declaration order,
        # so the fingerprint covers it: a program that declares the same
        # messages in another order gets its own fingerprint, entry and
        # plan, and its flows and forwarders follow its own order.
        base = fig7_program()
        names = list(base.messages)
        fingerprints = set()
        for order in (names, names[::-1]):
            program = ArrayProgram(
                base.cells,
                [base.messages[name] for name in order],
                {cell: base.cell_programs[cell].ops for cell in base.cells},
            )
            fingerprints.add(program.fingerprint)
            sim = Simulator(program, policy="fcfs", config=ArrayConfig())
            assert list(sim.flows) == order
            assert sim._analysis.plan.messages == tuple(order)
            fresh = Simulator(
                program, policy="fcfs", config=ArrayConfig(), reuse_analysis=False
            ).run()
            assert sim.run() == fresh
        assert base.fingerprint in fingerprints
        assert len(fingerprints) == 2
        assert analysis_cache_stats()["size"] == 2


class TestCustomSubclassSafety:
    def test_custom_router_is_uncacheable_without_token(self):
        from repro.arch.routing import LinearRouter
        from repro.perf import router_fingerprint

        class ParamRouter(LinearRouter):
            def __init__(self, topology, reverse=False):
                super().__init__(topology)
                self.reverse = reverse

        program = fir_program(4, 8)
        topo = ExplicitLinear(tuple(program.cells))
        router = ParamRouter(topo)
        assert router_fingerprint(router) is None
        result = Simulator(
            program, router=router, registers=fir_registers((1.0,) * 4)
        ).run()
        assert result.completed
        assert analysis_cache_stats()["size"] == 0  # nothing was cached

    def test_custom_router_with_token_is_cacheable(self):
        from repro.arch.routing import LinearRouter
        from repro.perf import router_fingerprint

        class TokenRouter(LinearRouter):
            def __init__(self, topology, flavor):
                super().__init__(topology)
                self.flavor = flavor
                self.analysis_fingerprint = f"flavor={flavor}"

        program = fir_program(4, 8)
        topo = ExplicitLinear(tuple(program.cells))
        fp_a = router_fingerprint(TokenRouter(topo, "a"))
        fp_b = router_fingerprint(TokenRouter(topo, "b"))
        assert fp_a is not None and fp_a != fp_b

    def test_custom_topology_is_uncacheable_without_token(self):
        from repro.perf import topology_fingerprint

        class WeirdTopology(ExplicitLinear):
            pass

        assert topology_fingerprint(WeirdTopology(("C1", "C2"))) is None

    def test_custom_topology_with_token_is_cacheable(self):
        from repro.perf import topology_fingerprint

        class TokenTopology(ExplicitLinear):
            def __init__(self, cells, flavor):
                super().__init__(cells)
                self.analysis_fingerprint = f"flavor={flavor}"

        fp_a = topology_fingerprint(TokenTopology(("C1", "C2"), "a"))
        fp_b = topology_fingerprint(TokenTopology(("C1", "C2"), "b"))
        assert fp_a is not None and fp_b is not None and fp_a != fp_b


class TestBackendIndependence:
    """The content key deliberately excludes the crossing backend.

    The interned and columnar engines are pinned bit-identical
    (tests/test_crossing_equivalence.py), so switching backends
    mid-process must keep sharing the same cache entry — no second
    miss, no recomputed labeling.
    """

    def test_backend_switch_shares_cache_entry(self):
        from repro.core.crossing import configure_crossing_backend

        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        previous = configure_crossing_backend("interned")
        try:
            first = simulate(program, registers=registers)
            assert analysis_cache_stats()["misses"] == 1
            configure_crossing_backend("auto")
            second = simulate(program, registers=registers)
        finally:
            configure_crossing_backend(previous)
        stats = analysis_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        assert second.completed == first.completed
        assert second.time == first.time


class TestFailedLabeling:
    """A deadlocked program's labeling failure is computed once per entry."""

    QUEUES = (1, 2, 4, 8, 16, 32)
    CAPACITIES = (0, 2, 8)

    def test_ordered_grid_runs_the_labeling_once_per_entry(self, monkeypatch):
        from repro.errors import DeadlockedProgramError, ReproError
        from repro.perf import analysis_cache
        from repro.sweep import (
            BatchError,
            SweepPlan,
            SweepSession,
            summarize_result,
            sweep_jobs,
        )
        from repro.workloads import inject_read_cycle

        program = inject_read_cycle(
            random_program(WorkloadSpec(cells=8, messages=12, seed=11)), seed=11
        )
        jobs = sweep_jobs(
            program,
            policies=("ordered",),
            queues=self.QUEUES,
            capacities=self.CAPACITIES,
        )
        assert len(jobs) == 18
        expected = []
        for index, job in enumerate(jobs):
            try:
                result = Simulator(
                    program, config=job.config, reuse_analysis=False
                ).run()
            except ReproError as exc:
                result = BatchError(kind=type(exc).__name__, error=str(exc))
            expected.append(summarize_result(index, job, result))
        # Without lookahead the labeling exists; with it (capacity > 0)
        # the read cycle makes it undefined.
        failed = [row for row in expected if row.capacity > 0]
        assert len(failed) == 12
        assert {row.error_kind for row in failed} == {
            DeadlockedProgramError.__name__
        }

        calls = []
        labeling = analysis_cache.constraint_labeling

        def counted(*args, **kwargs):
            calls.append(kwargs.get("lookahead"))
            return labeling(*args, **kwargs)

        monkeypatch.setattr(analysis_cache, "constraint_labeling", counted)
        rows = list(SweepSession(SweepPlan(jobs=jobs)).stream())
        assert rows == expected
        # One labeling per analysis entry (program x capacity), failed
        # or not: 3 for the 18 jobs, where each of the 12 failing jobs
        # used to cross off again.
        assert len(calls) == len(self.CAPACITIES)

    def test_failure_is_raised_fresh_and_never_exported(self):
        from repro.arch.routing import default_router
        from repro.errors import DeadlockedProgramError
        from repro.workloads import inject_read_cycle

        program = inject_read_cycle(random_program(WorkloadSpec(seed=3)), seed=3)
        topology = ExplicitLinear(tuple(program.cells))
        entry = GLOBAL_ANALYSIS_CACHE.lookup(
            program,
            topology,
            default_router(topology),
            ArrayConfig(queue_capacity=2),
        )
        with pytest.raises(DeadlockedProgramError) as first:
            entry.labeling
        with pytest.raises(DeadlockedProgramError) as second:
            entry.labeling
        assert second.value is not first.value
        assert str(second.value) == str(first.value)
        assert entry._labeling is None


class TestForkedWorkersInherit:
    """Forked pool workers start with the parent's in-memory analyses.

    This is why the cache needs no tier between memory and disk: a
    parent that analyzed a program before the sweep hands every worker
    that analysis through fork, so the workers recompute nothing.
    """

    @staticmethod
    def grid():
        from repro.algorithms.figures import (
            fig2_fir,
            fig2_registers,
            fig7_program,
        )
        from repro.sweep import sweep_jobs

        axes = dict(
            policies=("ordered", "static", "fcfs"),
            queues=(1, 2),
            capacities=(0, 2),
        )
        return sweep_jobs(fig7_program(), **axes) + sweep_jobs(
            fig2_fir(), registers=fig2_registers(), **axes
        )

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_warm_parent_leaves_workers_nothing_to_analyze(
        self, monkeypatch, warm
    ):
        import multiprocessing
        import os

        from repro.perf import analysis_cache
        from repro.sweep import SweepPlan, SweepSession

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the parent's memory only under fork")
        jobs = self.grid()
        serial = list(SweepSession(SweepPlan(jobs=jobs)).stream())
        if not warm:
            clear_analysis_cache()

        # Counts analyses run in any process but this one; forked
        # workers inherit both the wrappers and the shared counter.
        parent = os.getpid()
        in_workers = multiprocessing.Value("q", 0)

        def counted(analysis):
            def wrapper(*args, **kwargs):
                if os.getpid() != parent:
                    with in_workers.get_lock():
                        in_workers.value += 1
                return analysis(*args, **kwargs)

            return wrapper

        for name in ("competing_messages", "constraint_labeling"):
            monkeypatch.setattr(
                analysis_cache, name, counted(getattr(analysis_cache, name))
            )
        plan = SweepPlan(jobs=jobs, backend="pool", workers=2)
        rows = list(SweepSession(plan).stream())

        assert rows == serial
        if warm:
            assert in_workers.value == 0
        else:
            assert in_workers.value > 0
