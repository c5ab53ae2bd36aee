"""Self-test of the tracer, run at the start of every traced job.

    python3 perfbench/selftest.py

Synthetic nested spans on a scripted clock must give the expected self
times, including ``convex_hull`` re-entered from inside
``intrinsic_volume_mc`` and add-one re-hulls nested under
``estimate_taus``; every wrapped function must be restored afterwards.
"""
from __future__ import annotations

import sys
import types

from tracer import Tracer


class _Clock:
    """Advances only when a fake function asks it to."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def work(self, seconds: float) -> None:
        self.t += seconds


def _fake_package(clock):
    """Two modules calling each other through module lookups, as
    functionals -> hull and experiment -> malliavin -> hull do."""
    hull = types.ModuleType("fake.hull")
    mall = types.ModuleType("fake.malliavin")

    def convex_hull(n):
        clock.work(0.002 * n)
        return n

    def intrinsic_volume_mc(n, dirs):
        clock.work(0.010)
        for _ in range(dirs):
            hull.convex_hull(n)  # looked up on the module at call time
        return 0.0

    def estimate_taus(outer, inner):
        for _ in range(outer):
            clock.work(0.001)
            for _ in range(inner):
                mall.convex_hull(3)
        return 0.0

    hull.convex_hull = convex_hull
    hull.intrinsic_volume_mc = intrinsic_volume_mc
    mall.convex_hull = convex_hull
    mall.estimate_taus = estimate_taus
    return hull, mall


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def run() -> list[tuple[str, bool, str]]:
    clock = _Clock()
    hull, mall = _fake_package(clock)
    originals = {(m, k): getattr(m, k) for m in (hull, mall)
                 for k in vars(m) if not k.startswith("__")}
    tracer = Tracer(clock=clock)
    tracer.wrap(hull, "convex_hull", "hull.convex_hull")
    tracer.wrap(hull, "intrinsic_volume_mc", "hull.intrinsic_volume_mc")
    tracer.wrap(mall, "convex_hull", "hull.convex_hull")
    tracer.wrap(mall, "estimate_taus", "malliavin.estimate_taus")
    with tracer.span("experiment.run"):
        hull.intrinsic_volume_mc(5, dirs=4)   # 0.010 own + 4 x 0.010
        with tracer.excluded():
            clock.work(1.0)                    # off the clock entirely
        mall.estimate_taus(2, inner=3)         # 0.002 own + 6 x 0.006
    tracer.restore()

    out = []

    def expect(name, got, want):
        out.append((f"selftest: {name}", _close(got, want),
                    f"{got!r} vs {want!r}"))

    expect("intrinsic_volume_mc self time",
           tracer.busy("hull.intrinsic_volume_mc"), 0.010)
    expect("convex_hull under intrinsic_volume_mc",
           sum(s.duration for s in tracer.named("hull.convex_hull",
                                                "fake.hull")), 0.040)
    expect("estimate_taus self time",
           tracer.busy("malliavin.estimate_taus"), 0.002)
    expect("re-hulls under estimate_taus",
           sum(s.self_time for s in tracer.named("hull.convex_hull",
                                                 "fake.malliavin")), 0.036)
    expect("run self time", tracer.busy("experiment.run"), 0.0)
    expect("run duration excludes aside time",
           tracer.named("experiment.run")[0].duration, 0.088)
    parents = {s.parent.name for s in tracer.named("hull.convex_hull")}
    out.append(("selftest: re-hull parents", parents == {
        "hull.intrinsic_volume_mc", "malliavin.estimate_taus"},
        repr(sorted(parents))))
    left = [f"{m.__name__}.{k}" for (m, k), fn in originals.items()
            if getattr(m, k) is not fn]
    out.append(("selftest: wrapped functions restored",
                not left and not tracer.unrestored(), ", ".join(left)))
    return out


if __name__ == "__main__":
    results = run()
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}  ({detail})")
    sys.exit(0 if all(p for _, p, _ in results) else 1)
