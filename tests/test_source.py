"""Static checks on the program source (an AST scan of src/freegeo)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "freegeo"


def _calls(attr: str):
    """(file, line, call) for every call of a ``<module>.<attr>`` under src/freegeo."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attr):
                yield path.relative_to(SRC), node.lineno, node


def test_einsum_calls_have_at_most_two_operands_or_optimize():
    # numpy runs an unoptimized einsum of three or more operands as one nested
    # loop over every index (O(m n^4) for U X U*); two matmuls are O(m n^3)
    bad = [f"{path}:{line}" for path, line, call in _calls("einsum")
           if len(call.args) - 1 > 2 and not any(k.arg == "optimize" for k in call.keywords)]
    assert not bad, f"einsum with more than two operands and no optimize=: {bad}"


def test_largest_singular_values_come_from_one_routine():
    # matcore.sigma_max is the one sigma_max routine; _project_ball's SVD needs
    # U and V as well
    ord2 = [f"{path}:{line}" for path, line, call in _calls("norm")
            if any(k.arg == "ord" for k in call.keywords) or len(call.args) > 1]
    assert not ord2, f"matrix norms outside matcore.sigma_max: {ord2}"
    svd_lines = {(str(path), line) for path, line, _ in _calls("svd")}
    tree = ast.parse((SRC / "logic.py").read_text())
    ball = next(f for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "_project_ball")
    allowed = {("logic.py", n.lineno) for n in ast.walk(ball) if isinstance(n, ast.Call)}
    assert svd_lines <= allowed, f"SVD outside logic._project_ball: {svd_lines - allowed}"


def _defaulted_parameters():
    """(file, function, parameter, position) for every parameter with a default of
    every function and method under src/freegeo.  ``position`` is the index a
    positional argument takes at a call (``self``/``cls`` not counted), None for a
    keyword-only parameter; an ``__init__`` is named after its class."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        owner[fn] = (cls.name, 0 if static else 1)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls_name, skip = owner.get(fn, (None, 0))
            name = cls_name if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield path.relative_to(SRC), name, arg.arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield path.relative_to(SRC), name, arg.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    # a setting that no call in the program, its tests or its benchmark ever
    # passes is a constant; calls are matched by the called name alone, and a
    # call with *args or **kwargs counts as passing every parameter
    calls: dict[str, list[ast.Call]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((SRC.parents[1] / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)

    def passed(call, param, position):
        return (any(k.arg in (None, param) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (position is not None and len(call.args) > position))

    unset = [f"{path}:{name}.{param}" for path, name, param, position in _defaulted_parameters()
             if not any(passed(call, param, position) for call in calls.get(name, []))]
    assert not unset, f"defaulted parameters that no call passes: {unset}"
