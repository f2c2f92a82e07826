"""Source hygiene: every name a module imports is used in that module, every
module-level private name is referenced somewhere in the package, every
module-level constant is read somewhere in the package, every function
reads each of its parameters, some caller sets each parameter
that has a default, the package or the bench looks up every method, one
call site solves every LP, no code probes an object for an attribute, and
the CLI maps every exception class the package defines to a documented exit
code."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mmslab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _module_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and constant names -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out |= dict.fromkeys(targets, node.lineno)
    return out


def _referenced(tree: ast.Module) -> set[str]:
    """Names read, attributes looked up and names imported from a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


PACKAGE_REFS = set().union(*(_referenced(ast.parse(p.read_text()))
                             for p in SRC.glob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    defs = _module_defs(ast.parse(path.read_text()))
    orphans = sorted(f"{name} (line {line})" for name, line in defs.items()
                     if name.startswith("_") and not name.startswith("__")
                     and name not in PACKAGE_REFS)
    assert not orphans, f"{path.name} defines private names nothing uses: {orphans}"


def test_no_orphaned_constants():
    # an UPPER_CASE module constant nothing reads is a limit or default that
    # no longer limits anything
    orphans = [f"{path.name} {name} (line {line})" for path in sorted(SRC.glob("*.py"))
               for name, line in _module_defs(ast.parse(path.read_text())).items()
               if name.isupper() and name not in PACKAGE_REFS]
    assert not orphans, f"module constants nothing reads: {orphans}"


def _is_abstract(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Body is ``raise NotImplementedError`` (after an optional docstring)."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    # a parameter a function never reads is a silent no-op for its callers
    unused = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if not isinstance(fn, ast.Lambda) and _is_abstract(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unused += [f"{name}({p.arg}) (line {fn.lineno})" for p in params if p.arg not in read]
    assert not unused, f"{path.name} has parameters their functions never read: {unused}"


ROOT = SRC.parents[1]
CALLER_FILES = sorted(p for d in (SRC, ROOT / "tests", ROOT / "bench") for p in d.rglob("*.py"))


def test_no_test_only_methods():
    # a method or property that only tests look up is test code kept in the
    # package; its helper belongs in tests/oracles.py
    looked_up = {node.attr for p in (*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"))
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Attribute)}
    unused = [f"{path.name} {cls.name}.{fn.name} (line {fn.lineno})"
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in looked_up]
    assert not unused, f"methods only tests look up: {unused}"


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef,
               method: bool) -> list[tuple[int | None, str]]:
    """(positional index or None, name) of each parameter with a default;
    the index counts from the first argument a caller writes."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    skip = 1 if method and not any(ast.unparse(d) == "staticmethod"
                                   for d in fn.decorator_list) else 0
    out = [(k - skip, p.arg) for k, p in enumerate(positional)
           if k >= len(positional) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _call_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_default_is_passed():
    # a default no caller ever overrides is a constant dressed as an option.
    # Calls match by simple name, a class name stands for its __init__, and a
    # call with *args or **kwargs counts as setting every parameter.
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for path in CALLER_FILES:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and (name := _call_name(call)):
                star = (any(isinstance(x, ast.Starred) for x in call.args)
                        or any(k.arg is None for k in call.keywords))
                calls.setdefault(name, []).append(
                    (len(call.args), {k.arg for k in call.keywords}, star))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = [(node, None) for node in tree.body]
        owners += [(fn, cls.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for fn in cls.body]
        for fn, cls in owners:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = cls if fn.name == "__init__" else fn.name
            sites = calls.get(name, [])
            for pos, param in _defaulted(fn, method=cls is not None):
                if not any(star or param in kws or (pos is not None and pos < npos)
                           for npos, kws, star in sites):
                    unset.append(f"{path.name}:{fn.lineno} {fn.name}({param})")
    assert not unset, f"parameters no caller sets: {unset}"


def test_one_linprog_call_site():
    # every exact transport solve goes through transport.transport_lp, so
    # its certificate covers them all
    sites = [f"{path.name}:{call.lineno}" for path in sorted(SRC.glob("*.py"))
             for call in ast.walk(ast.parse(path.read_text()))
             if isinstance(call, ast.Call) and _call_name(call) == "linprog"]
    assert len(sites) == 1, f"linprog is called at {sites}, want one call site"


def test_no_attribute_probes():
    # hasattr and getattr with a default stand in for a contract: an object
    # missing the attribute takes a silent fallback instead of failing
    probes = [f"{path.name}:{call.lineno}" for path in sorted(SRC.glob("*.py"))
              for call in ast.walk(ast.parse(path.read_text()))
              if isinstance(call, ast.Call) and (
                  _call_name(call) == "hasattr"
                  or (_call_name(call) == "getattr" and len(call.args) == 3))]
    assert not probes, f"attribute probes at {probes}"


def test_every_error_has_an_exit_code():
    # a typed error outside cli's two tuples would end a CLI run in a
    # traceback instead of exit 2 (validation) or 3 (budget)
    cli = importlib.import_module("mmslab.cli")
    mapped = cli._VALIDATION_ERRORS + cli._BUDGET_ERRORS
    unmapped = []
    for path in MODULES:
        module = importlib.import_module(f"mmslab.{path.stem}")
        unmapped += [f"{path.name} {name}" for name, obj in vars(module).items()
                     if inspect.isclass(obj) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__ and not issubclass(obj, mapped)]
    assert not unmapped, f"exception classes with no CLI exit code: {unmapped}"
