"""Start-up guards: what a fresh `geoshapley` process loads, the collector
freeze at the program entry, and the package's lazily loaded public names.

Each module check runs in a fresh interpreter, since this process has
long since loaded every module.
"""

import gc
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import geoshapley
from geoshapley import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ENGINES = ("geoshapley.hull", "geoshapley.disk", "geoshapley.axis", "geoshapley.algebra")
UNNEEDED = ("geoshapley.oracle", "numpy.random", "numpy.ma")

# The probe runs the CLI as `python -m geoshapley.cli` does, then prints
# the loaded modules.
_RUN_CLI = """
import runpy, sys
sys.argv = ["geoshapley", *sys.argv[1:]]
try:
    runpy.run_module("geoshapley.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _modules_after(code, *args):
    """The names in sys.modules of a fresh interpreter that ran ``code``."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestModulesLoaded:
    def test_import_cli(self):
        loaded = _modules_after("import geoshapley.cli")
        assert "geoshapley.cli" in loaded
        assert loaded.isdisjoint(ENGINES + UNNEEDED)

    @pytest.mark.parametrize(
        "game,engine",
        [("hull-area", "geoshapley.hull"), ("disk-area", "geoshapley.disk"), ("airport", None)],
    )
    def test_compute_loads_only_its_engine(self, tmp_path, game, engine):
        pts = np.random.default_rng(7).uniform(1.0, 50.0, (12, 2))
        inp = tmp_path / "in.csv"
        inp.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
        out = tmp_path / "out.json"
        loaded = _modules_after(_RUN_CLI, "compute", "--game", game,
                                "--input", str(inp), "--output", str(out))
        assert json.loads(out.read_text())["n"] == 12
        assert engine is None or engine in loaded
        assert loaded.isdisjoint(set(ENGINES + UNNEEDED) - {engine})


class TestCollectorFreeze:
    def test_main_in_process_does_not_freeze(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("1\n2\n4\n")
        assert gc.get_freeze_count() == 0
        rc = cli.main(["compute", "--game", "airport", "--input", str(inp),
                       "--output", str(tmp_path / "out.json")])
        assert rc == 0
        assert gc.get_freeze_count() == 0

    def test_program_entry_freezes(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("1\n2\n4\n")
        code = (
            "import gc, sys\n"
            "import geoshapley.cli as cli\n"
            "sys.argv = ['geoshapley', *sys.argv[1:]]\n"
            "assert gc.get_freeze_count() == 0\n"
            "assert cli.run() == 0\n"
            "assert gc.get_freeze_count() > 0\n"
        )
        _modules_after(code, "compute", "--game", "airport", "--input", str(inp),
                       "--output", str(tmp_path / "out.json"))

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["geoshapley"] == "geoshapley.cli:run"


# Every name the package exported when it imported its modules eagerly,
# with the module that defines it, less those in REMOVED.
PUBLIC = {
    "algebra": ["convolve"],
    "axis": ["GridArrangement", "shapley_anchored_bbox", "shapley_anchored_bbox_quadratic",
             "shapley_anchored_rects", "shapley_anchored_rects_quadratic", "shapley_bbox",
             "shapley_bbox_quadratic"],
    "disk": ["DiskBasis", "enumerate_bases", "shapley_disk"],
    "errors": ["ConsistencyError", "DomainError", "GeneralPositionError", "GeoShapleyError",
               "SizeLimitError"],
    "games": ["GAME_KINDS", "ShapleyVector", "eval_characteristic", "shapley_airport",
              "shapley_anchored_bbox_perimeter", "shapley_area_band",
              "shapley_bbox_perimeter", "shapley_interval_length"],
    "geometry": ["Disk", "convex_hull", "hull_area", "hull_perimeter", "min_enclosing_disk"],
    "hull": ["all_pair_levels", "shapley_hull_area",
             "shapley_hull_area_naive", "shapley_hull_perimeter"],
    "oracle": ["coalition_table", "shapley_by_permutations", "shapley_by_subsets"],
}

# Names the package no longer exports: the series and probability code
# that only tests used (now in tests/), hull's scalar rho and rho', and
# AxisDegeneracyError, since the rank-space games accept points on the axes.
REMOVED = ["RationalStepSeries", "direct_rational_eval", "multipoint_rational_eval",
           "TripleCounts", "prob_first_of_A_before_B_or_C",
           "prob_first_of_B_before_A_after_some_C", "prob_sandwich", "permcount",
           "rho", "rho_prime", "AxisDegeneracyError"]


class TestPublicApi:
    def test_names_resolve_in_a_fresh_process(self):
        code = (
            "import importlib, sys\n"
            "import geoshapley\n"
            "assert 'geoshapley.axis' not in sys.modules\n"
            f"public = {PUBLIC!r}\n"
            "for module, names in public.items():\n"
            "    for name in names:\n"
            "        ns = {}\n"
            "        exec(f'from geoshapley import {name}', ns)\n"
            "        want = getattr(importlib.import_module('geoshapley.' + module), name)\n"
            "        assert ns[name] is want is getattr(geoshapley, name), name\n"
            "    ns = {}\n"
            "    exec(f'from geoshapley import {module}', ns)\n"
            "    assert ns[module] is sys.modules['geoshapley.' + module], module\n"
        )
        _modules_after(code)

    def test_star_import_binds_every_name(self):
        code = (
            "import sys\n"
            "import geoshapley\n"
            f"assert sys.modules.keys().isdisjoint({ENGINES!r})\n"
            "ns = {}\n"
            "exec('from geoshapley import *', ns)\n"
            f"public = {PUBLIC!r}\n"
            "missing = [n for names in public.values() for n in names if n not in ns]\n"
            "assert not missing, missing\n"
            "assert 'importlib' not in ns\n"
        )
        _modules_after(code)

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_names_resolve(self, module):
        mod = importlib.import_module(f"geoshapley.{module}")
        assert getattr(geoshapley, module) is mod
        for name in PUBLIC[module]:
            assert getattr(geoshapley, name) is getattr(mod, name)

    def test_dir_lists_every_name(self):
        listed = set(dir(geoshapley))
        for module, names in PUBLIC.items():
            assert module in listed
            assert listed.issuperset(names)
        assert "__version__" in listed

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            geoshapley.no_such_name
        with pytest.raises(ImportError):
            exec("from geoshapley import no_such_name", {})

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_name(self, name):
        assert name not in dir(geoshapley)
        with pytest.raises(AttributeError, match=name):
            getattr(geoshapley, name)

    def test_submodule_imports(self):
        from geoshapley import cli as cli_mod
        from geoshapley import dispatch, instances, oracle, rowtext
        from geoshapley.oracle import shapley_by_subsets

        assert oracle.shapley_by_subsets is shapley_by_subsets
        assert cli_mod is cli
        for mod in (dispatch, instances, rowtext):
            assert sys.modules[mod.__name__] is mod
