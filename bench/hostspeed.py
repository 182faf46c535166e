"""Rescale wall time to a fixed host speed.

On a shared host the speed of a core can change by 2x within a minute,
which no amount of run length averages away between runs. The runner
therefore times a fixed probe after every operation, for at least 10% of
that operation's time, and reports each time multiplied by
NOMINAL_PROBE_S / (mean probe time of the same phase). A reported second
is thus a second on a host where the probe takes NOMINAL_PROBE_S. The
probe runs no library code, so program changes move the reported times as
they move raw times. It is an integer loop, which tracks compute-bound
slowdowns, plus bare expat over a fixed document, which tracks the
memory-streaming kind. Over 8 s windows on a 2-vCPU host, this cut the
spread of the pipeline time from 15-24% (raw median) to about 4%.
"""

from __future__ import annotations

import statistics
import xml.parsers.expat
from time import perf_counter

NOMINAL_PROBE_S = 0.016
PROBE_SHARE = 0.1
_PROBE_XML = ("<r>" + "".join(f'<a id="i{n}" v="{n * 7}">text {n}</a>' for n in range(4000))
              + "</r>").encode()


def _noop(*_) -> None:
    pass


def bare_expat(data: bytes) -> float:
    """Seconds for expat with no-op handlers, configured as xmltree configures it."""
    parser = xml.parsers.expat.ParserCreate(namespace_separator=None)
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = parser.EndElementHandler = _noop
    parser.CharacterDataHandler = _noop
    start = perf_counter()
    parser.Parse(data, True)
    return perf_counter() - start


def probe_loop() -> float:
    """Seconds for a fixed integer loop plus bare expat over a fixed document."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - start + bare_expat(_PROBE_XML)


class HostSpeed:
    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self, busy_s: float) -> None:
        """Sample the probe after an operation that took ``busy_s`` seconds."""
        spent = 0.0
        while not spent or spent < PROBE_SHARE * busy_s:
            seconds = probe_loop()
            self.probes.append(seconds)
            spent += seconds

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.probes)

    def scale(self, seconds: float) -> float:
        return seconds * NOMINAL_PROBE_S / self.mean_probe_s()
