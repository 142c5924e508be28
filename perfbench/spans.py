"""Per-layer spans, recorded from outside the program.

The tracer replaces each cross-module entry point at the name its caller
looks up (``phaselab.convergence.csum`` is the ``csum`` that
``pointwise_trace`` calls) with a wrapper that times the call and counts
its work.  A layer's self time is the time of its outermost spans minus
the time covered by spans of other layers nested inside them.

Public entry points give the layer totals; the private hot spots
(``_angles``, ``_phase_radii``) are optional sub-spans.  A wrap point
that no longer exists is listed in ``Tracer.absent`` and skipped; a
counter that no longer fits the code is listed in ``Tracer.broken``.
Neither stops the run, and end-to-end metrics are measured with no
wrapper installed.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "spectral", "phase_laws", "multipliers", "propagation", "convergence")

#: Bytes the trace reduction touches per (k, point, mode) term, computed
#: from array sizes (no hardware counters): the complex128 coefficient and
#: wave row are read, their product is written and read back by the sum.
TRACE_BYTES_PER_TERM = 4 * 16


def _size(x) -> int:
    return getattr(x, "size", 1)


def _csum(c, args, kwargs, result):
    c["spectral.csum_calls"] += 1
    c["spectral.csum_terms"] += _size(args[0])


def _io(path_arg):
    def count(c, args, kwargs, result):
        path = str(args[path_arg])
        c["spectral.io_bytes"] += os.path.getsize(path)
        c["spectral.io_bytes"] += os.path.getsize(os.path.splitext(path)[0] + ".json")
    return count


def _law(c, args, kwargs, result):
    c["phase_laws.law_calls"] += 1
    c["phase_laws.law_points"] += _size(args[1])


def _calls(name):
    def count(c, args, kwargs, result):
        c[name] += 1
    return count


def _sup(c, args, kwargs, result):
    c["multipliers.sup_calls"] += 1
    c["multipliers.scan_points"] += result.points


def _angles(c, args, kwargs, result):
    c["propagation.angles_calls"] += 1
    c["propagation.angles_points"] += args[0].num_modes


def _trace(c, args, kwargs, result):
    terms = result.k_max * len(result.points) * args[0].grid.num_modes
    c["convergence.trace_terms"] += terms
    c["convergence.trace_bytes_computed"] += terms * TRACE_BYTES_PER_TERM


# (module, attribute at the caller's lookup, layer, sub-span name, counter)
WRAPS = (
    ("phaselab.cli", "main", "cli", None, None),
    ("phaselab.cli", "make_grid", "spectral", None, None),
    ("phaselab.cli", "random_field", "spectral", None, None),
    ("phaselab.cli", "read_field_csv", "spectral", "spectral.io_s", _io(0)),
    ("phaselab", "write_field_csv", "spectral", "spectral.io_s", _io(1)),
    ("phaselab.propagation", "synthesize", "spectral", None, None),
    ("phaselab.convergence", "csum", "spectral", "spectral.csum_s", _csum),
    ("phaselab.spectral", "csum", "spectral", "spectral.csum_s", _csum),
    ("phaselab.phase_laws", "PhaseLaw.__call__", "phase_laws", None, _law),
    ("phaselab.cli", "parse_law", "phase_laws", None, None),
    ("phaselab.multipliers", "invert", "phase_laws", None, None),
    ("phaselab.convergence", "invert_many", "phase_laws", None, _calls("phase_laws.invert_calls")),
    ("phaselab.phase_laws", "invert_many", "phase_laws", None, _calls("phase_laws.invert_calls")),
    ("phaselab.multipliers", "check_hypotheses", "phase_laws", None,
     _calls("phase_laws.hypothesis_checks")),
    ("phaselab.phase_laws", "check_hypotheses", "phase_laws", None,
     _calls("phase_laws.hypothesis_checks")),
    ("phaselab.cli", "certify", "multipliers", None, None),
    ("phaselab.convergence", "analytic_envelope", "multipliers", None, None),
    ("phaselab.convergence", "numeric_sup", "multipliers", None, _sup),
    ("phaselab.multipliers", "numeric_sup", "multipliers", None, _sup),
    ("phaselab.multipliers", "_phase_radii", "multipliers", "multipliers.phase_radii_s",
     _calls("multipliers.phase_radii_calls")),
    ("phaselab.cli", "evaluate_shifted", "propagation", None, None),
    ("phaselab.convergence", "_angles", "propagation", None, _angles),
    ("phaselab.propagation", "_angles", "propagation", None, _angles),
    ("phaselab.cli", "pointwise_trace", "convergence", None, _trace),
    ("phaselab.cli", "rate_fit", "convergence", None, None),
    ("phaselab.cli", "required_exponent", "convergence", None, None),
    ("phaselab.cli", "sequence_applicable", "convergence", None,
     _calls("convergence.classify_calls")),
    ("phaselab.convergence", "sequence_applicable", "convergence", None,
     _calls("convergence.classify_calls")),
    ("phaselab.cli", "parse_sequence", "convergence", None, None),
    ("phaselab.cli", "default_points", "convergence", None, None),
)


class Tracer:
    """Collects layer self times, sub-span times and counts while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self.broken = set()
        self._frames = []  # [layer, start, time covered by other-layer children]
        self._undo = []

    def install(self):
        for module, attr, layer, span, count in WRAPS:
            name = attr.rpartition(".")[2]
            try:
                owner = importlib.import_module(module)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, name, self._wrap(original, layer, span, count, f"{module}.{attr}"))
            self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, fn, layer, span, count, label):
        frames = self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own = not frames or frames[-1][0] != layer
            start = perf_counter()
            if own:
                frames.append([layer, start, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if span is not None:
                    self.span_s[span] += end - start
                if own:
                    _, begun, covered = frames.pop()
                    self.self_s[layer] += end - begun - covered
                    if frames:
                        frames[-1][2] += end - begun
            if count is not None:
                try:
                    count(self.counts, args, kwargs, result)
                except Exception:  # the code moved under the counter; keep running
                    self.broken.add(label)
            return result

        return wrapper
