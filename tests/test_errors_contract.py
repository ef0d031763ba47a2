"""Every raise in the package raises an InputError (bad input, exit 2)
or a SolverFailure (a numerical failure, exit 1), so that the CLI's
exit code follows from the fault and not from the module that found it.

The test reads the source with ``ast``: a ``raise`` of any other
exception, such as a bare ValueError, fails it.  Bare re-raises and
cli's ``raise SystemExit(main())`` are the only exceptions.
"""

import ast
import inspect
from pathlib import Path

import pytest

import ratioscope
from ratioscope import errors

ALLOWED = (errors.InputError, errors.SolverFailure)
MODULES = sorted(Path(ratioscope.__file__).parent.glob("*.py"))


def raised_name(node: ast.Raise) -> str | None:
    """The called name in ``raise Name(...)`` or ``raise mod.Name(...)``."""
    call = node.exc
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def is_allowed_class(name: str | None) -> bool:
    cls = getattr(errors, name or "", None)
    return inspect.isclass(cls) and issubclass(cls, ALLOWED)


def returns_allowed_errors(fn: ast.FunctionDef) -> bool:
    """``fn`` is an error factory such as load_model's ``bad``: each of
    its returns builds an allowed error."""
    returns = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
    return bool(returns) and all(
        isinstance(r.value, ast.Call) and isinstance(r.value.func, ast.Name)
        and is_allowed_class(r.value.func.id)
        for r in returns
    )


def bad_raises(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    factories = {fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and returns_allowed_errors(fn)}
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise
            continue
        if path.name == "cli.py" and ast.unparse(node) == "raise SystemExit(main())":
            continue
        name = raised_name(node)
        if not (is_allowed_class(name) or name in factories):
            bad.append((node.lineno, f"{path.name}:{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(bad)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_an_input_error_or_a_solver_failure(path):
    assert bad_raises(path) == []


def test_error_classes():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {"RatioscopeError", "InputError", "SolverFailure",
                       "LineSearchFailure", "NonDecrease", "SingularSystem"}
    # callers that catch ValueError, as the CLI does, still see bad input
    assert issubclass(errors.InputError, ValueError)


def test_checker_flags_other_raises(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(x):\n"
        "    def bad(why):\n"
        "        return ValueError(why)\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise bad('y')\n"
    )
    assert bad_raises(path) == ["mod.py:5: raise ValueError('x')", "mod.py:6: raise bad('y')"]
