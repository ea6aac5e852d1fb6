"""The spine's tracer (``benchmarks/spine/trace.py``) wraps ``src/`` entry
points by name from outside ``src/``.  Deleting or renaming one of them
breaks only ``--trace 1`` spine runs, which nothing else in this suite
starts; this test installs the tracer so such a deletion fails here."""

from pathlib import Path

from repro.distributed.store import ReplicatedStore

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_tracer_wraps_every_name_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spine.trace import _STORE_METHODS, Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        wrapped = [owner.__dict__[attr] is not original for owner, attr, original in patched]
    finally:
        tracer.uninstall()
    assert patched and all(wrapped)
    assert {attr for owner, attr, _ in patched if owner is ReplicatedStore} == set(
        _STORE_METHODS
    )
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
