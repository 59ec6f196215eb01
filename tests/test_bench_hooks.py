"""The benchmark's per-layer trace wraps ddestab functions by name; every
name it hooks must still exist, or its metrics would silently go missing."""

from pathlib import Path

import ddestab
import ddestab.cli  # noqa: F401  (imported by the benchmark as its entry)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    assert layers.Tracer(ddestab).absent == []
