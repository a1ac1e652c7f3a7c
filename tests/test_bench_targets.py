"""The benchmark's per-layer tracing looks functions up by name.

``perfbench/spans.py`` wraps each ``TARGETS`` entry where its callers find
it, and ``cli._VARIANTS`` is one of those places.  A rename or move in the
package that leaves an entry dangling fails here, instead of in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from tubings import cli, parity

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for name, module, attribute in targets:
        home = importlib.import_module("tubings." + module)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            # install() replaces the method found in the class __dict__
            assert callable(vars(getattr(home, cls_name)).get(method)), name
        else:
            assert callable(getattr(home, attribute, None)), name


def test_cli_variants_are_the_parity_functions():
    assert cli._VARIANTS == {
        "odd": parity.odd_tube_complex,
        "even": parity.even_tube_complex,
        "prime": parity.confined_odd_complex,
        "dprime": parity.saturated_odd_complex,
    }
