"""Static checks on the program source (an AST scan of src/freegeo)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "freegeo"


def _trees():
    """(file, AST) for every module under src/freegeo."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text(), filename=str(path))


def _attr_calls(tree, attr: str):
    """Every call of a ``<module>.<attr>`` in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == attr]


def _calls(attr: str):
    """(file, line, call) for every call of a ``<module>.<attr>`` under src/freegeo."""
    for path, tree in _trees():
        for node in _attr_calls(tree, attr):
            yield path, node.lineno, node


def _wide_einsum_lines(calls):
    # numpy runs an unoptimized einsum of three or more operands as one nested
    # loop over every index (O(m n^4) for U X U*); two matmuls are O(m n^3)
    return [call.lineno for call in calls
            if len(call.args) - 1 > 2 and not any(k.arg == "optimize" for k in call.keywords)]


def test_einsum_calls_have_at_most_two_operands_or_optimize():
    bad = [f"{path}:{line}" for path, tree in _trees()
           for line in _wide_einsum_lines(_attr_calls(tree, "einsum"))]
    assert not bad, f"einsum with more than two operands and no optimize=: {bad}"


def test_code_is_compiled_only_by_the_trace_plan_compiler():
    # logic._emit writes each trace plan out as source and compiles it; no
    # other code runs exec, compile or eval
    tree = ast.parse((SRC / "logic.py").read_text())
    emit = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_emit")
    allowed = {("logic.py", node.lineno) for node in ast.walk(emit) if isinstance(node, ast.Name)}
    found = {(str(path), node.lineno) for path, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ("exec", "compile", "eval")}
    assert found and found <= allowed, f"exec, compile or eval outside logic._emit: {found - allowed}"


def test_emitted_trace_plans_parse_and_keep_the_einsum_rule():
    # the AST scan above sees no generated code: check the source each
    # kernel-pin plan compiled to (every read form, adjoint and in-place group)
    from test_logic import _PIN_GRAD_SLOTS, _pin_term_lists

    from freegeo import logic

    einsums = 0
    for terms in _pin_term_lists():
        for slots in _PIN_GRAD_SLOTS:
            plan = logic._trace_plan(tuple(w for _, w in terms), slots)
            tree = ast.parse(plan.source)
            assert [f.name for f in tree.body] == ["kernel", "traces"]
            calls = _attr_calls(tree, "einsum")
            einsums += len(calls)
            assert not _wide_einsum_lines(calls), plan.source
    assert einsums > 0


def test_blas_thread_default_is_set_before_any_import():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first loads it: an
    # import above the setdefault (even of a freegeo module) would come too late
    body = ast.parse((SRC / "__init__.py").read_text()).body
    setdefault = [i for i, node in enumerate(body)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func) == "os.environ.setdefault"
                  and [ast.literal_eval(a) for a in node.value.args]
                  == ["OPENBLAS_NUM_THREADS", "1"]]
    assert len(setdefault) == 1, "no os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"
    early = [ast.unparse(node) for node in body[:setdefault[0]]
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert early == ["import os"], f"imports before the BLAS thread default: {early}"


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


def test_ensemble_io_and_transport_copy_no_sample_bytes():
    # FIGE files are read into and written from the samples' own array, and
    # transport reads ensembles in place: a tobytes, astype or frombuffer there
    # would bring back a full copy of an ensemble (or a misaligned view that
    # BLAS copies); the only tobytes left keys convex's memo by value bits
    for name in ("gibbs.py", "transport.py"):
        tree = ast.parse((SRC / name).read_text())
        found = [f"{name}:{call.lineno} {call.func.attr}" for attr in ("tobytes", "astype",
                                                                      "frombuffer")
                 for call in _attr_calls(tree, attr)]
        assert not found, f"copying byte or dtype conversions: {found}"
    tree = ast.parse((SRC / "convex.py").read_text())
    key = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_point_key")
    allowed = {("convex.py", call.lineno) for call in _attr_calls(key, "tobytes")}
    found = {(str(path), line) for path, line, _ in _calls("tobytes")}
    assert allowed and found == allowed, f"tobytes outside convex._point_key: {found - allowed}"
