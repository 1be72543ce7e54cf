"""Spans and counters recorded from outside the spikecrown modules.

The tracer wraps public functions at module attributes for the duration
of one traced stage call and restores them afterwards; the program
itself is not modified. Each wrapped call records a span (name, start,
end, parent span, thread, job id) and, where useful, a counter read off
its arguments or result. Spans stay in memory until `dump` writes them.
"""

import collections
import functools
import json
import threading
import time

Span = collections.namedtuple(
    "Span", "id name start end parent thread job")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._threads = {}
        self._patches = []
        self._job = None
        self._root = None

    # ------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_no(self):
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def span(self, name):
        """Context manager timing one call; nests per thread. A span
        opened on a pool thread gets the job's root span as parent."""
        return _SpanCtx(self, name)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def record_max(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def job(self, job_id, root_name):
        """Context manager marking one stage call: every span inside it
        carries job_id, and the call itself is the root span."""
        return _JobCtx(self, job_id, root_name)

    # ------------------------------------------------------- patching

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a wrapper that records span `name` and
        then calls after(tracer, args, result)."""
        orig = _current(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self.patch(owner, attr, wrapper)
        return wrapper

    def wrap_count(self, owner, attr, key):
        """Count calls to owner.attr without a span (hot paths)."""
        orig = _current(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return orig(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------- analysis

    def outer_totals(self):
        """Per span name, the summed duration of its spans that have no
        ancestor of the same name (recursive root finds count once)."""
        by_id = {s.id: s for s in self.spans}
        out = collections.Counter()
        for s in self.spans:
            p = by_id.get(s.parent)
            while p is not None and p.name != s.name:
                p = by_id.get(p.parent)
            if p is None:
                out[s.name] += s.end - s.start
        return out

    def span_counts(self):
        return collections.Counter(s.name for s in self.spans)

    def self_times(self):
        """Per layer (the span name's prefix): span durations minus the
        part of each span covered by its children, summed. Children on
        other threads overlap; only the union of their intervals is
        subtracted, so self time is never negative."""
        children = collections.defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = collections.Counter()
        for s in self.spans:
            covered = _union_length(children.get(s.id, ()), s.start, s.end)
            out[s.name.split(".", 1)[0]] += (s.end - s.start) - covered
        return out

    def dump(self, path):
        doc = {"span_fields": Span._fields, "spans": self.spans,
               "counts": dict(self.counts), "maxima": self.maxima}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _current(owner, attr):
    # a class's own dict holds the plain function, which setattr restores
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _SpanCtx:
    __slots__ = ("tracer", "name", "id", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = next(t._ids)
        t._stack().append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        stack = t._stack()
        stack.pop()
        parent = stack[-1] if stack else t._root
        t.spans.append(Span(self.id, self.name, self.start, end, parent,
                            t._thread_no(), t._job))
        return False


class _JobCtx:
    def __init__(self, tracer, job_id, root_name):
        self.tracer = tracer
        self.job_id = job_id
        self.root = _SpanCtx(tracer, root_name)

    def __enter__(self):
        self.tracer._job = self.job_id
        self.root.__enter__()
        self.tracer._root = self.root.id
        return self

    def __exit__(self, *exc):
        self.tracer._root = None
        self.root.__exit__(*exc)
        self.tracer._job = None
        return False
