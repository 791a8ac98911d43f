"""Outside-in tracing for the benchmark's traced run.

The tracer changes no package code.  It replaces names in the module (or
class) namespaces where the package looks them up at call time, for example
``chemopattern.simulator.coeffs_to_grid``, and restores every original on
exit.  A name that does not exist is skipped, so a refactor that deletes a
function shows up as a zero count instead of a crash.

Two kinds of wrapper exist:

* span wrappers record ``[name, start, end, parent]`` in memory; the parent is
  the innermost span open at entry, so self time is a span's duration minus
  the time its direct children cover (one thread, so children never overlap);
* count wrappers only bump counters, for functions called too often to afford
  a span (1-D transform passes, planar field evaluations, stepper steps).

Spans marked as a *context* (the nonlinear right-hand sides, planar
``integrate``) also tag every count made while they are open, which is how
"transforms per step" counts only the work inside the stepping loop.
"""

from __future__ import annotations

import gzip

from speed import PULSES

# spans leave out the machine-speed pulses that interrupt them
_clock = PULSES.clock


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        self.returns: dict[str, list] = {}   # span name -> values from on_return
        self._stack: list[int] = []
        self._contexts: dict[str, int] = {}  # open context name -> depth
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def _install(self, owner, attr: str, label: str, make) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(label)
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def span(self, owner, attr: str, name: str, context: str | None = None,
             on_call=None, on_return=None) -> bool:
        """Record a span around ``owner.attr``, named ``name``.

        ``on_call(args, kwargs)`` and ``on_return(result)`` may return a value
        that is appended to ``self.returns[name]``.
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                spans, stack = tracer.spans, tracer._stack
                idx = len(spans)
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(rec)
                stack.append(idx)
                if context is not None:
                    tracer._contexts[context] = tracer._contexts.get(context, 0) + 1
                if on_call is not None:
                    tracer._keep(name, on_call(args, kwargs))
                rec[1] = _clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.add(f"{name}!{type(exc).__name__}")
                    raise
                finally:
                    rec[2] = _clock()
                    stack.pop()
                    if context is not None:
                        tracer._contexts[context] -= 1
                if on_return is not None:
                    tracer._keep(name, on_return(result))
                return result
            wrapper.__wrapped__ = fn
            return wrapper

        return self._install(owner, attr, f"{name} ({attr})", make)

    def count(self, owner, attr: str, name: str, weigh=None) -> bool:
        """Count calls of ``owner.attr``; ``weigh(args, kwargs)`` may add a
        second tally, ``<name>.bytes``."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.add(name)
                if weigh is not None:
                    tracer.add(name + ".bytes", weigh(args, kwargs))
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper

        return self._install(owner, attr, f"{name} ({attr})", make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording ------------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount
        for ctx, depth in self._contexts.items():
            if depth:
                key = f"{name}@{ctx}"
                counts[key] = counts.get(key, 0) + amount

    def _keep(self, name: str, value) -> None:
        if value is not None:
            self.returns.setdefault(name, []).append(value)

    # -- analysis -------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == name]

    def under(self, names: set[str], within: set[str]) -> list[list]:
        """Spans named in ``names`` that have an ancestor named in ``within``."""
        inside = [False] * len(self.spans)
        out = []
        for i, s in enumerate(self.spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or self.spans[p][0] in within)
            if inside[i] and s[0] in names:
                out.append(s)
        return out

    def write(self, path: str) -> None:
        """Write every span as ``index parent name start end`` (gzip text)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
