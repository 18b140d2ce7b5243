"""Correct host times for the host's own drift in speed.

On a shared machine the same pure-Python work takes 20-40% longer in some
stretches of seconds to minutes than in others, which would swamp any
change worth measuring.  Each timed region is therefore bracketed by a
fixed reference loop, and its wall time is scaled to the speed at which
that loop takes :data:`REFERENCE_S`:

    corrected = wall * REFERENCE_S / mean(reference before, reference after)

so every reported time reads as host seconds at one fixed host speed.  The
reference loop does the kind of work the simulator does (tuple keys, dict
stores, integer arithmetic) and touches no fluxloop code, so a change to
the program cannot move it.  On a shared 2-core x86-64 VM, margin_sweep
passes interleaved with this loop for two minutes gave 15-second window
medians that spread 17% in raw wall time and 2.6% once corrected.
"""

from __future__ import annotations

from time import perf_counter

#: Wall seconds of one reference loop at the nominal host speed: a round
#: figure within the 13-22 ms the loop took on the 2-core machine that
#: baseline.json was measured on.  Changing it rescales every reported time.
REFERENCE_S = 0.015


def reference_loop() -> float:
    """Run the fixed reference work once; returns its wall seconds."""
    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(60_000):
        table[(i % 97, "k")] = i
        acc += len(table) * 3 % 11
    return perf_counter() - start


class Bracket:
    """Times a region and the reference loop on both sides of it.

    ``wall`` is the region's raw wall seconds, ``scale`` the factor that
    maps it to nominal host speed, and ``seconds`` the corrected time.
    """

    def __enter__(self) -> "Bracket":
        self._before = reference_loop()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._start
        self.scale = REFERENCE_S / ((self._before + reference_loop()) / 2)
        self.seconds = self.wall * self.scale
