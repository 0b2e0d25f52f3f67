"""The benchmark's trace probes find every vexlp name they rebind.

`bench/tracing.py` wraps vexlp functions and methods by module attribute,
so a refactor that drops or renames one of them fails only in a traced
benchmark run.  Installing the tracer here catches that in the test suite.
"""

from pathlib import Path

from vexlp import fields

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_tracer_installs_every_probe_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = fields.VectorField3.__dict__["__call__"]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError on a probe whose name is gone
        assert tracer._saved
        assert fields.VectorField3.__dict__["__call__"] is not original
    finally:
        tracer.uninstall()
    assert not tracer._saved
    assert fields.VectorField3.__dict__["__call__"] is original
