"""The benchmark tracer patches freegeo callables by name.

A renamed or removed callable that ``perfbench/tracing.py`` names makes every
traced benchmark run fail with a ``KeyError`` or ``AttributeError``; this test
fails first.  It loads the tracer from its file and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(modname, path):
    """The object a traced (module, attribute path) names; class attributes are
    read from the class dict, as the tracer reads them."""
    owner = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def test_tracer_installs_and_uninstalls_on_every_traced_name():
    tracing = load_tracing()
    names = [(modname, path) for modname, path, _ in tracing.SPANNED + tracing.COUNTED]
    originals = {key: binding(*key) for key in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key: binding(*key) for key in names}
    finally:
        tracer.uninstall()
    assert [key for key in names if patched[key] is originals[key]] == []
    assert all(binding(*key) is originals[key] for key in names)
