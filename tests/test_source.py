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
