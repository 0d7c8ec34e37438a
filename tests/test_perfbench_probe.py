"""The traced benchmark run wraps program attributes by name.

``perfbench/spans.LayerProbe.install`` replaces public methods and
functions of the serving layers (``apply_insert_many``,
``ReplicaStore.append``, ``LiveTableau.chase_fresh``, ...) with
span-recording wrappers, looked up by name.  A rename in the program
breaks the traced run; this test catches it in the tier-1 suite, and
checks that ``uninstall`` puts every original object back.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_probe_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import LayerProbe, Tracer

    tracer = Tracer()
    try:
        LayerProbe(tracer).install()
        wrapped = [(owner, attr, original)
                   for owner, attr, _owned, original in tracer._undo]
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
