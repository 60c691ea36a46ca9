"""In-memory spans around each layer's public functions.

The tracer replaces every binding of a wrapped function inside the loaded
``lsdecomp`` modules (``from .states import build`` makes a second binding,
so each module is searched), and wraps ``numpy.linalg.eigvalsh`` and
``eigh`` to count eigensolves made under ``bsa_search``. Spans are taken
on the process's CPU clock, like the end-to-end metrics. They stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

import numpy as np

# (module, attribute) -> span name
LAYERS = (
    ("lsdecomp.states", "build", "states.build"),
    ("lsdecomp.lsd", "decompose", "lsd.decompose"),
    ("lsdecomp.lsd", "verify", "lsd.verify"),
    ("lsdecomp.separability", "ppt_check", "separability.ppt_check"),
    ("lsdecomp.wootters", "concurrence", "wootters.concurrence"),
    ("lsdecomp.oracle", "family_for_spec", "oracle.family_for_spec"),
    ("lsdecomp.oracle", "bsa_search", "oracle.bsa_search"),
    ("lsdecomp.oracle", "duality_check", "oracle.duality_check"),
    ("lsdecomp.cli", "main", "cli.main"),
)
EIGENSOLVERS = ("eigvalsh", "eigh")


class Tracer:
    """Records spans [name, start, end, parent, op, tag, eig_calls, eig_mats].

    `op` is the request the span belongs to and `tag` a label the benchmark
    sets per request (the family) or, for ``cli.main``, the command.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.search: list[int] = []  # open bsa_search spans
        self.op = None
        self.tag = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            tag = args[0][0] if name == "cli.main" and args and args[0] else self.tag
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, tag, 0, 0]
            self.spans.append(rec)
            self.stack.append(idx)
            if name == "oracle.bsa_search":
                self.search.append(idx)
            rec[1] = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.process_time()
                self.stack.pop()
                if name == "oracle.bsa_search":
                    self.search.pop()
        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.search:
                rec = self.spans[self.search[-1]]
                rec[6] += 1
                rec[7] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)
        return counted

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "lsdecomp" or name.startswith("lsdecomp."))]
        for modname, attr, span in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(span, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for attr in EIGENSOLVERS:
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._count(original))

    def uninstall(self) -> None:
        for obj, key, val in reversed(self._restore):
            setattr(obj, key, val)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], count_ops: set) -> dict[str, float]:
    """Per-layer medians from `spans`; eigensolve counts use only the
    searches of requests in `count_ops`, a fixed set, so they repeat."""
    durs: dict[str, list[float]] = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        name = s[0]
        dur = s[2] - s[1]
        if name == "oracle.bsa_search":
            durs.setdefault(f"oracle.bsa_search_ms.{s[5]}", []).append(dur * 1e3)
        elif name == "cli.main":
            durs.setdefault(f"cli.{s[5]}_self_us", []).append(own * 1e6)
        else:
            durs.setdefault(f"{name}_us", []).append(dur * 1e6)
    out = {k: statistics.median(v) for k, v in durs.items()}
    searches = [s for s in spans if s[0] == "oracle.bsa_search" and s[4] in count_ops]
    if searches:
        out["oracle.eigvalsh_calls_per_search"] = sum(s[6] for s in searches) / len(searches)
        out["oracle.eigvalsh_matrices_per_search"] = sum(s[7] for s in searches) / len(searches)
    return out
