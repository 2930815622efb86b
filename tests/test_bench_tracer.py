"""The traced benchmark run (``bench/run.py --trace 1``) wraps gramhmm names
by module attribute.  Each must still exist, and ``uninstall`` must put
every original back."""

import importlib.util
from pathlib import Path

from gramhmm.sampling import Sampler

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_name():
    spans = load_spans()
    draw = Sampler.draw
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._originals)
        assert len(wrapped) == len(spans.WRAPPED)
        assert Sampler.draw is not draw and Sampler.draw.__wrapped__ is draw
    finally:
        tracer.uninstall()
    assert Sampler.draw is draw
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
