"""Self-test of the tracer's self-time arithmetic on a synthetic nested call.

Run directly (`python3 bench/selftest.py`) or through run.py, which runs it
before every benchmark invocation and refuses to measure if it fails.
A fake clock makes every duration exact.
"""

from __future__ import annotations

import sys
import types

from tracer import Tracer


class SelfTestError(Exception):
    pass


def _expect(label: str, got, want):
    if got != want:
        raise SelfTestError(f"{label}: got {got!r}, want {want!r}")


def run() -> None:
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])
    ns = types.SimpleNamespace()

    def leaf():
        tick(2.0)

    def inner():
        tick(1.0)
        ns.leaf()
        tick(3.0)

    def outer():
        tick(5.0)
        ns.inner()
        ns.inner()
        tick(7.0)

    def failing():
        tick(4.0)
        raise ValueError("synthetic fault")

    def guarded():
        try:
            ns.failing()
        except ValueError:
            pass
        tick(1.0)

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    ns.failing, ns.guarded = failing, guarded
    # the after-hook's time must land in the caller, not in the span itself
    tracer.patch(ns, "leaf", "n.leaf", after=lambda args, kwargs, result: tick(10.0))
    tracer.patch(ns, "inner", "m.inner")
    tracer.patch(ns, "outer", "m.outer")
    tracer.patch(ns, "failing", "n.failing")
    tracer.patch(ns, "guarded", "m.guarded")
    _expect("missing attribute patched", tracer.patch(ns, "gone", "m.gone"), False)
    _expect("absent spans", tracer.absent, {"m.gone"})

    ns.outer()
    spans = tracer.spans
    _expect("leaf incl", list(spans["n.leaf"].incl), [2.0, 2.0])
    _expect("leaf self", list(spans["n.leaf"].self_), [2.0, 2.0])
    # inner = 1 + leaf 2 + after-hook 10 + 3
    _expect("inner incl", list(spans["m.inner"].incl), [16.0, 16.0])
    _expect("inner self", list(spans["m.inner"].self_), [14.0, 14.0])
    _expect("outer incl", list(spans["m.outer"].incl), [44.0])
    _expect("outer self", list(spans["m.outer"].self_), [12.0])
    _expect("root after outer", tracer.root_s, 44.0)

    ns.guarded()
    _expect("failing span closed", list(spans["n.failing"].incl), [4.0])
    _expect("guarded self", list(spans["m.guarded"].self_), [1.0])
    _expect("open spans after fault", tracer._open, [])
    _expect("root total", tracer.root_s, 49.0)
    _expect("module m self", tracer.module_self_s("m"), 12.0 + 28.0 + 1.0)
    _expect("module n self", tracer.module_self_s("n"), 8.0)
    _expect(
        "self times cover the root spans",
        tracer.module_self_s("m") + tracer.module_self_s("n"),
        tracer.root_s,
    )


if __name__ == "__main__":
    try:
        run()
    except SelfTestError as exc:
        print(f"tracer self-test failed: {exc}", file=sys.stderr)
        sys.exit(1)
    print("tracer self-test passed")
