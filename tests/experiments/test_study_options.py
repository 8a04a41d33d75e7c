"""The engine decides how every study runs; the studies take no options.

Each study function (figures, tables, Section 7, sweeps, the adaptive
and allocation studies) builds its batch and hands it to
:mod:`repro.experiments.parallel`, which alone resolves the worker
count, the result cache, progress and the sanitizer.  These tests hold
that split: no study signature accepts an engine option, and the
sanitizer option reaches the specs a study builds outside
``run_configs`` too.
"""

import inspect
from types import SimpleNamespace

import pytest

from repro.core.config import SMTConfig
from repro.experiments import (
    adaptive,
    allocation,
    bottlenecks,
    figures,
    parallel,
    runner,
    sensitivity,
    tables,
)
from repro.experiments.runner import RunBudget

ENGINE_OPTIONS = {"jobs", "use_cache", "progress", "check_invariants"}
STUDY_MODULES = (figures, tables, bottlenecks, sensitivity, adaptive,
                 allocation)

TINY = RunBudget(warmup_cycles=100, measure_cycles=600,
                 functional_warmup_instructions=3000, rotations=2)


def _study_functions():
    found = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}": fn
        for module in STUDY_MODULES
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    }
    found["runner.run_configs"] = runner.run_configs
    return found


def test_no_study_function_takes_an_engine_option():
    functions = _study_functions()
    # The scan reaches every kind of study.
    assert {"figures.figure3", "tables.table5", "bottlenecks.print_report",
            "sensitivity.mshr_sweep", "adaptive.adaptive_study",
            "allocation.allocation_study"} <= set(functions)
    taking = {
        name: sorted(ENGINE_OPTIONS & set(inspect.signature(fn).parameters))
        for name, fn in functions.items()
    }
    assert {name: opts for name, opts in taking.items() if opts} == {}


@pytest.fixture
def sanitizer_on():
    parallel.configure(check_invariants=True)
    yield
    parallel.configure(check_invariants=None)


def test_run_spec_reads_the_sanitizer_option_when_made(sanitizer_on):
    spec = parallel.RunSpec(config=SMTConfig(n_threads=1), rotation=0,
                            budget=TINY)
    assert spec.check_invariants
    parallel.configure(check_invariants=False)
    assert spec.check_invariants  # read once, when the spec was made
    assert not parallel.RunSpec(config=SMTConfig(n_threads=1), rotation=0,
                                budget=TINY).check_invariants


def test_allocation_cells_take_the_sanitizer_option(sanitizer_on):
    cells = allocation.study_specs(TINY)
    assert len(cells) > 1
    assert {spec.check_invariants for _, spec in cells} == {True}


def test_mshr_sweep_hands_the_engine_checked_specs(sanitizer_on,
                                                   monkeypatch):
    handed = []

    def capture(specs, **_options):
        handed.extend(specs)
        return [SimpleNamespace(ipc=1.0) for _ in specs]

    monkeypatch.setattr(sensitivity, "execute_runs", capture)
    sweep = sensitivity.mshr_sweep(budget=TINY, counts=(1, 16), n_threads=2)
    assert [(count, point.ipc) for count, point in sweep] \
        == [(1, 1.0), (16, 1.0)]
    assert [spec.dcache_mshrs for spec in handed] == [1, 1, 16, 16]
    assert all(spec.check_invariants for spec in handed)
