"""The package's lazy exports and what each CLI command imports."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stratagraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENGINE = {"stratagraph.graphs", "stratagraph.chains", "stratagraph.defense", "stratagraph.game"}
CORE = {"stratagraph.canon", "stratagraph.cli", "stratagraph.config", "stratagraph.model", "stratagraph.scenario"}
CHAINS = CORE | {"stratagraph.graphs", "stratagraph.chains"}

# The stratagraph.* modules loaded in a fresh interpreter after one command.
LOADS = """
import contextlib, io, sys
from stratagraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("stratagraph.")))
"""


def fresh_python(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=True)
    return done.stdout.split()


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("validate",), CORE),
        (("graph",), CORE | {"stratagraph.graphs"}),
        (("chains",), CHAINS),
        (("potential", "--from", "BS1", "--to", "APP1"), CHAINS),
        (("defend",), CHAINS | {"stratagraph.defense"}),
        (("risk",), CHAINS | {"stratagraph.defense"}),
        (("simulate",), CORE | ENGINE),
    ],
    ids=["validate", "graph", "chains", "potential", "defend", "risk", "simulate"],
)
def test_each_command_imports_only_its_layers(fixtures_dir, argv, modules):
    code, *loaded = fresh_python("-c", LOADS, argv[0], "--scenario", str(fixtures_dir / "toy5g.scenario"), *argv[1:])
    assert code == "0"
    assert set(loaded) == modules


def test_no_module_imports_dataclasses_or_inspect():
    # Every record is a named tuple: loading the CLI and every engine pulls
    # in neither dataclasses nor what it imports (inspect, ast, dis, tokenize).
    code = (
        "import sys\n"
        "import stratagraph.cli, stratagraph.graphs, stratagraph.chains, stratagraph.defense, stratagraph.game\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)) or ['none'])"
    )
    assert fresh_python("-c", code) == ["none"]


def test_exports_load_from_their_home_modules_on_first_use():
    loaded = fresh_python("-c", "import sys, stratagraph; print(*sorted(sys.modules))")
    assert "stratagraph" in loaded
    assert not [m for m in loaded if m.startswith("stratagraph.")]

    for name in stratagraph.__all__:
        home = importlib.import_module(f"stratagraph.{stratagraph._HOME[name]}")
        assert getattr(stratagraph, name) is getattr(home, name), name
    assert set(stratagraph.__all__) <= set(dir(stratagraph))
    with pytest.raises(AttributeError, match="no_such_name"):
        stratagraph.no_such_name  # noqa: B018
    assert not hasattr(stratagraph, "_walk")
    namespace = {}
    exec("from stratagraph import *", namespace)
    assert {name: namespace[name] for name in stratagraph.__all__} == {
        name: getattr(stratagraph, name) for name in stratagraph.__all__
    }


@pytest.mark.parametrize("name", ["chains", "defense", "game", "graphs"])
def test_engines_take_the_attack_graph_alone(name):
    # The attack graph carries its base graph and the doc both were built
    # from, so no engine takes either beside it. Only the builders do.
    module = importlib.import_module(f"stratagraph.{name}")
    callables = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            callables.append((attr, value))
        elif inspect.isclass(value):
            callables += [
                (f"{attr}.{m}", f) for m, f in vars(value).items() if not m.startswith("_") and inspect.isfunction(f)
            ]
    assert callables
    takers = [
        attr
        for attr, fn in callables
        if attr not in ("build_base_graph", "build_attack_graph")
        and {"doc", "base"} & set(inspect.signature(fn).parameters)
    ]
    assert takers == []


def test_readme_library_example_runs(fixtures_dir):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n") :]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert '"net.scenario"' in code
    namespace = {}
    exec(code.replace('"net.scenario"', repr(str(fixtures_dir / "toy5g.scenario"))), namespace)
    assert namespace["graph"].doc is namespace["doc"]


def test_python_dash_m_runs_the_cli():
    # fresh_python fails unless the command exits 0.
    version = fresh_python("-m", "stratagraph", "--version")
    assert version == fresh_python("-m", "stratagraph.cli", "--version")
    assert version[:2] == ["stratagraph", stratagraph.__version__]
