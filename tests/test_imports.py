"""The package's lazy names, and what one CLI command imports.

Each child interpreter starts with nothing of fault_atlas loaded, so the
module set it reports is what its own command pulled in.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

import fault_atlas
from fault_atlas.cli import main
from conftest import package_env

# Modules a cached solve or census must not load: no counting, no search, no
# drawing, and no base-witness table when every witness comes from the store.
UNUSED_WHEN_WARM = {"fault_atlas.counting", "fault_atlas.search", "fault_atlas.render", "fault_atlas.bases"}


def child(script: str, *argv: str) -> dict:
    """Run the script in a fresh interpreter; it prints one JSON object last."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *argv], capture_output=True,
                          text=True, env=package_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# "modules" is what the command loaded: whatever `site` loaded before it does not count.
CLI = """
    import sys
    before = set(sys.modules)
    import contextlib, io, json
    from fault_atlas.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
"""


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("witnesses")
    census = ["census", "--topology", "torus", "--max", "8", "--witness-limit", "8", "--witnesses", str(cache)]
    solve = ["solve", "--topology", "cylinder", "--a", "8", "--b", "10", "--witnesses", str(cache)]
    assert main(census) == 0
    assert main(solve + ["--out", str(cache.parent / "solved.json")]) == 0
    return census, solve


def test_warm_commands_load_only_what_they_run(filled_cache):
    for argv in filled_cache:
        ran = child(CLI, *argv)
        assert ran["code"] == 0
        assert UNUSED_WHEN_WARM.isdisjoint(ran["modules"]), (argv, ran["modules"])


def test_no_command_loads_dataclasses(filled_cache, tmp_path):
    # every record is a named tuple; `dataclasses` would pull in inspect, ast, dis and tokenize
    doc = str(tmp_path / "witness.json")
    assert main(["solve", "--topology", "mobius", "--a", "5", "--b", "6", "--out", doc]) == 0
    board = ["--topology", "torus", "--a", "8", "--b", "7"]
    commands = [*filled_cache, ["classify", *board, "--explain"], ["bound", *board],
                ["solve", *board], ["solve", *board, "--format", "ascii"], ["solve", *board, "--format", "svg"],
                ["census", "--topology", "mobius", "--max", "6"], ["verify", doc],
                ["expand", doc, "--axis", "cols"], ["render", doc, "--format", "svg"]]
    for argv in commands:
        ran = child(CLI, *argv)
        assert ran["code"] == 0, argv
        assert "dataclasses" not in ran["modules"], argv


def test_bound_loads_counting():
    ran = child(CLI, "bound", "--topology", "mobius", "--a", "6", "--b", "6")
    assert ran["code"] == 0
    assert "fault_atlas.counting" in ran["modules"]
    assert "fault_atlas.search" not in ran["modules"]


def test_star_import_binds_each_name_to_its_home_object():
    namespace: dict = {}
    exec("from fault_atlas import *", namespace)
    for name in fault_atlas.__all__:
        obj = namespace[name]
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_public_name_before_any_is_read():
    listed = child("""
        import json, fault_atlas
        print(json.dumps({"dir": dir(fault_atlas), "all": fault_atlas.__all__}))
    """)
    assert set(listed["all"]) <= set(listed["dir"])


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fault_atlas, "no_such_name")


def test_classify_stays_the_function_after_every_submodule_loads():
    state = child("""
        import importlib, json, pkgutil, sys
        import fault_atlas
        for info in pkgutil.iter_modules(fault_atlas.__path__):
            importlib.import_module(f"fault_atlas.{info.name}")
        home = sys.modules["fault_atlas.classify"]
        print(json.dumps({"function": fault_atlas.classify is home.classify,
                          "missing": [n for n in fault_atlas.__all__ if not hasattr(fault_atlas, n)]}))
    """)
    assert state == {"function": True, "missing": []}
