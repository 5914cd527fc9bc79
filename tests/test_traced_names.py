"""Every function the benchmark's tracer wraps still exists under the name it uses.

`perfbench/spans.py` lists them as (layer, module, attribute or
Class.method); a deletion or rename in `nochka` that removes one would
otherwise show only when a traced benchmark run fails to install.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("layer, module_name, attr", _targets(), ids=lambda x: str(x))
def test_traced_name_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        # the tracer reads a method from its class's own namespace
        cls_name, meth = attr.split(".")
        target = vars(getattr(owner, cls_name)).get(meth)
    else:
        target = getattr(owner, attr, None)
    assert callable(target), f"{layer}: {module_name}.{attr} is gone"
