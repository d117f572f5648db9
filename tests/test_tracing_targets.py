import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("mod, attr", [(mod, attr) for mod, attr, _, _ in load_patches()])
def test_tracer_target_resolves(mod, attr):
    # the benchmark's traced pass patches each of these library attributes;
    # removing one breaks it with an AttributeError
    owner = importlib.import_module(mod)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
