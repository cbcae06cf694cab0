"""The benchmark's tracer still binds the package, and gives it back.

`perfbench/tracing.py` wraps the package's public functions, the
jump-measure methods and `JumpAtom.chars` from outside, and `restore`
puts every original back.  A refactor that removes or renames what it
binds breaks traced benchmark runs (`--trace 1`); this test catches
that with the suite.  The tracer is compiled from its source, so no
file next to it is written.
"""
import importlib
import inspect
import sys
import types
from pathlib import Path

from mmvlab import example_model, solve_schedule

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _bindings() -> dict:
    """Every function or property the package's modules and classes bind,
    keyed by (owner, attribute)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mmvlab" or name.startswith("mmvlab.")):
            continue
        for owner in [mod, *(v for v in vars(mod).values() if inspect.isclass(v))]:
            out.update(((id(owner), attr), value) for attr, value in vars(owner).items()
                       if inspect.isfunction(value) or isinstance(value, property))
    return out


def test_tracer_installs_on_the_package_and_restores_every_original():
    tracing = _load_tracing()
    for mod in tracing.LAYERS.values():
        importlib.import_module(mod)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        assert sum(wrapped[k] is not v for k, v in before.items()) > 0
        tracer.enabled = True
        model = example_model(1)
        solve_schedule(model, "mmv")    # solved from the table: no JumpAtom view
        model.atoms[0].chars            # the one view, read through the wrapper
        tracer.enabled = False
    finally:
        tracer.restore()
    after = _bindings()
    assert [k for k, v in before.items() if after.get(k) is not v] == []
    assert tracer.counts["optimize.maximize_local_utility"] == 1     # the segment
    assert tracer.counts["model.JumpAtom.chars"] == 1
