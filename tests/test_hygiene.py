"""Source hygiene: every imported name is read somewhere in its module, and
every name the benchmark traces is bound where it wraps it."""

import ast
import importlib.util
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "cloudsched").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)


def unread_imports(path: Path, skip_noqa: bool = True) -> dict[str, int]:
    """Names bound by an import and never loaded, with the line that binds
    them; `# noqa: F401` lines are skipped unless skip_noqa is false.

    A dotted `import a.b` binds `a`; reading `a.b.c` counts as reading it.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if skip_noqa and "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    unread = unread_imports(path)
    assert [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in unread.items()] == []


def traced_pairs() -> list:
    """(owner, attribute) of every function perfbench/run.py wraps. Its
    sibling modules go on sys.path for the load only and leave sys.modules
    afterwards."""
    bench = ROOT / "perfbench"
    before = set(sys.modules)
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == bench:
                del sys.modules[name]
    cs = SimpleNamespace(**{m: importlib.import_module(f"cloudsched.{m}") for m in run.MODULES})
    return [(owner, attr) for owner, attr, _, _ in run.bindings(cs)]


def test_every_traced_name_is_bound_in_its_owner():
    # perfbench/run.py wraps each traced function in its owner's __dict__, so
    # a refactor that unbinds one (say schedulers.raw_qos) would otherwise
    # fail only in a traced benchmark run.
    pairs = traced_pairs()
    assert len(pairs) == 41
    assert [f"{o.__name__}.{a}" for o, a in pairs if a not in o.__dict__] == []


def test_no_new_name_is_bound_only_for_the_tracer():
    # A traced name that its owner imports and never reads times nothing:
    # the owner never calls it. These four wait for the benchmark's tracer
    # to move to what runs; no other may join them.
    tracer_only = sorted(
        f"{owner.__name__.rpartition('.')[2]}.{attr}"
        for owner, attr in traced_pairs()
        if isinstance(owner, ModuleType) and attr in unread_imports(Path(owner.__file__), skip_noqa=False)
    )
    assert tracer_only == [
        "bench.qos_scores", "schedulers.qos_scores", "schedulers.raw_qos", "schedulers.run_simulation"
    ]
