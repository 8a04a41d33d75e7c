"""Repository-level checks: public API surface, examples, docs."""

import ast
import importlib
import inspect
import os
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro
        assert repro.__version__

    def test_subpackages_import(self):
        for module in (
            "repro.isa", "repro.workloads", "repro.branch", "repro.memory",
            "repro.core", "repro.experiments", "repro.cli",
            "repro.core.trace", "repro.core.histograms",
            "repro.experiments.export", "repro.experiments.sensitivity",
        ):
            importlib.import_module(module)

    def test_experiment_modules_import_on_first_access(self):
        """``repro.experiments`` imports a study module only when it is
        first named, and every name in its ``__all__`` still resolves."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.experiments import parallel\n"
            "import repro.experiments as e\n"
            "studies = ('adaptive', 'bottlenecks', 'figures',"
            " 'sensitivity', 'supervise', 'tables')\n"
            "assert not [m for m in studies"
            " if 'repro.experiments.' + m in sys.modules]\n"
            "assert e.figures.__name__ == 'repro.experiments.figures'\n"
            "from repro.experiments import tables\n"
            "assert all(getattr(e, m).__name__.endswith(m) for m in e.__all__)\n"
            "try:\n"
            "    e.no_such_module\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_quickstart_docstring_snippet_runs(self):
        """The README/package-docstring quickstart must stay valid."""
        from repro import SMTConfig, Simulator, standard_mix
        config = SMTConfig(n_threads=2, fetch_policy="ICOUNT",
                           fetch_threads=2, fetch_per_thread=8)
        sim = Simulator(config, standard_mix(2))
        result = sim.run(warmup_cycles=50, measure_cycles=300,
                         functional_warmup_instructions=2000)
        assert "IPC" in result.summary()


class TestExamples:
    @pytest.mark.parametrize("script", sorted(
        p.name for p in (REPO / "examples").glob("*.py")
    ))
    def test_examples_parse_and_have_main(self, script):
        source = (REPO / "examples" / script).read_text()
        tree = ast.parse(source)
        names = {n.name for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)}
        assert "main" in names, f"{script} lacks a main()"
        assert '__main__' in source

    def test_at_least_four_examples(self):
        assert len(list((REPO / "examples").glob("*.py"))) >= 4

    @pytest.mark.parametrize("script", sorted(
        f"{p.parent.name}/{p.name}"
        for folder in ("examples", "scripts")
        for p in (REPO / folder).glob("*.py")
    ))
    def test_repro_names_resolve(self, script):
        """CI never runs the examples, and runs the scripts only in
        some jobs: every ``from repro... import NAME`` and every
        ``ALIAS.NAME`` read on an imported repro module must resolve,
        so an API change cannot strand them."""
        modules, missing = {}, []

        def lookup(module, name):
            if hasattr(module, name):
                return getattr(module, name)
            try:
                return importlib.import_module(f"{module.__name__}.{name}")
            except ImportError:
                missing.append(f"{module.__name__}.{name}")
                return None

        tree = ast.parse((REPO / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = lookup(module, alias.name)
                    if inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            modules[alias.asname] = module
                        else:
                            modules["repro"] = importlib.import_module(
                                "repro")

        def resolve(node):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Attribute):
                module = resolve(node.value)
                if inspect.ismodule(module):
                    return lookup(module, node.attr)
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node)
        assert not missing, sorted(set(missing))


class TestDocs:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
    ])
    def test_required_docs_exist(self, name):
        path = REPO / name
        assert path.exists()
        assert len(path.read_text()) > 1000

    def test_design_lists_every_figure_and_table(self):
        text = (REPO / "DESIGN.md").read_text()
        for item in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                     "Table 3", "Table 4", "Table 5"):
            assert item in text, item

    def test_experiments_records_measurements(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for item in ("Figure 3", "Figure 7", "Table 5", "Section 7"):
            assert item in text, item

    def test_benchmarks_cover_every_figure_and_table(self):
        names = {p.name for p in (REPO / "benchmarks").glob("test_*.py")}
        for required in (
            "test_bench_fig3.py", "test_bench_fig4.py", "test_bench_fig5.py",
            "test_bench_fig6.py", "test_bench_fig7.py",
            "test_bench_table3.py", "test_bench_table4.py",
            "test_bench_table5.py", "test_bench_bottlenecks.py",
        ):
            assert required in names, required

    def test_env_knob_table_matches_src(self):
        # The knob table names exactly the REPRO_* variables the code
        # reads: a new knob must be documented, a deleted one removed.
        knob = re.compile(r"REPRO_[A-Z_]+")
        in_src = {name for path in (REPO / "src" / "repro").rglob("*.py")
                  for name in knob.findall(path.read_text())}
        text = (REPO / "docs" / "performance.md").read_text()
        section = text.split("## Environment knobs", 1)[1].split("\n#", 1)[0]
        in_table = {name for line in section.splitlines()
                    if line.startswith("| `")
                    for name in knob.findall(line.split("|")[1])}
        assert in_table == in_src
