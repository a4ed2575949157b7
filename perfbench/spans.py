"""In-memory span recorder that times calls into arw's layers from outside.

`Recorder.wrap` replaces a module attribute with a timing wrapper.  arw's
callers look these names up through module globals at call time, so every
call the program makes through them is recorded without editing the
program.  Spans are kept in memory and written out once, at the end of a
run.  A span is (name, start, end, parent, trial, tag): `parent` is the
index of the enclosing span (-1 at the root), `trial` the id of the trial
it belongs to, and `tag` a small dict of counts taken from the call's
arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

NAME, START, END, PARENT, TRIAL, TAG = range(6)
CLOCK, TRACE = 1, 2  # recorder levels: time trials only, or every wrapped layer


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.level = 0  # a wrapper installed at a higher level calls straight through
        self.trial = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name, *, level: int = TRACE, tag=None, trial_of=None) -> None:
        """Time every call to `module.attr` made while `self.level >= level`.

        `name` is the span name, or a function of the bound arguments that
        returns it.  `tag(bound_args, result)` returns the span's tag and
        `trial_of(bound_args)` the trial id the call opens.  A target the
        program no longer has is listed in `missing` and reads as zero.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.level < level:
                return fn(*args, **kwargs)
            bound = None
            if callable(name) or tag or trial_of:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = [name(bound) if callable(name) else name, 0.0, 0.0, -1, rec.trial, None]
            span[PARENT] = rec._stack[-1] if rec._stack else -1
            outer_trial = rec.trial
            if trial_of:
                rec.trial = span[TRIAL] = trial_of(bound)
            index = len(rec.spans)
            rec.spans.append(span)
            rec._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                rec._stack.pop()
                rec.trial = outer_trial
            if tag:
                span[TAG] = tag(bound, result)
            return result

        setattr(module, attr, wrapper)

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        out = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec, self.name = rec, name
        self.index = -1

    def __enter__(self) -> "_Span":
        rec = self.rec
        self.index = len(rec.spans)
        rec.spans.append([self.name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.trial, None])
        rec._stack.append(self.index)
        rec.spans[self.index][START] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec.spans[self.index][END] = time.perf_counter()
        rec._stack.pop()

    @property
    def seconds(self) -> float:
        span = self.rec.spans[self.index]
        return span[END] - span[START]
