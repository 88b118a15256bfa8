import ast
import importlib.util
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cppa").glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


JSON_IO = {"load", "loads", "dump", "dumps"}


def _json_io(tree):
    """Names of the json module's readers and writers that ``tree`` uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (alias.name for alias in node.names if alias.name in JSON_IO)
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_IO
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_netio_reads_and_writes_json(path):
    # netio owns every JSON file format: one reader, one writer
    used = sorted(set(_json_io(ast.parse(path.read_text(), filename=str(path)))))
    assert path.name == "netio.py" or not used, f"{path.name} uses json.{used}"


def test_every_benchmark_hook_is_defined():
    # benchmarks/tracing.py swaps each (owner, attr) of TARGETS for a timing
    # wrapper, reading owner.__dict__[attr]; a missing one fails every traced
    # benchmark run with a KeyError
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"benchmark hooks without a target: {missing}"


def _unread_parameters(tree):
    """(function, parameter) for every parameter of every function in
    ``tree``, nested ones and lambdas included, that its body never reads
    (a nested function reading it counts)."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        yield from ((getattr(fn, "name", "<lambda>"), p) for p in params if p not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = sorted(set(_unread_parameters(ast.parse(path.read_text(), filename=str(path)))))
    assert not unread, f"{path.name} has parameters its functions never read: {unread}"
