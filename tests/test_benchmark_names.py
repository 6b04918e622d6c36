"""Every wattscope name the benchmark looks up must resolve.

perfbench/traced.py looks names up as fn(module, name) and
_read(span, module, name, path, ...), and records a name that is gone as
absent, which only CI's traced replay turns into a failure;
perfbench/selftest.py imports them.  The names are read from those files,
so removing one fails here, in tier-1.  (traced.py also swaps wrappers
into wattscope.cli for the names in _CLI_CALLS, but only where cli binds
them, so those are not lookups that must resolve.)
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def looked_up(path: Path) -> set[tuple[str, str]]:
    """(module, dotted name) per wattscope name the file looks up; module "" is the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wattscope":
            names |= {(node.module.partition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            at = {"fn": 0, "_read": 1}.get(func)  # where (module, name) start among the arguments
            pair = node.args[at:at + 2] if at is not None else ()
            # the helpers themselves pass (module, name) on as variables; the sites that name them use strings
            if len(pair) == 2 and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in pair):
                names.add((pair[0].value, pair[1].value))
    return names


def resolve(module: str, dotted: str):
    """What `from wattscope[.module] import name` gives, then each further attribute of a dotted name."""
    obj = import_module(f"wattscope.{module}" if module else "wattscope")
    first, *rest = dotted.split(".")
    try:
        obj = getattr(obj, first)
    except AttributeError:  # a submodule not loaded yet, as the import statement finds it
        obj = import_module(f"{obj.__name__}.{first}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", ["traced.py", "selftest.py"])
def test_every_name_the_benchmark_looks_up_resolves(name):
    names = looked_up(PERFBENCH / name)
    assert names, f"no wattscope lookup found in perfbench/{name}"
    missing = []
    for module, dotted in sorted(names):
        try:
            resolve(module, dotted)
        except (AttributeError, ImportError):
            missing.append(f"{module or 'wattscope'}: {dotted}")
    assert not missing, f"perfbench/{name} looks up names that are gone: {missing}"
