"""In-memory spans around ratioscope's public functions.

``Tracer.install`` replaces a function at each module attribute where
its callers look it up (``cli.load_csv``, ``harness.auc``, ...) with a
wrapper that records one span per call: id, parent id, layer name,
wall start and end, and the thread's CPU seconds inside the call and
inside the call minus its traced children (self CPU).  ``Tracer.remove``
puts the originals back.  Spans stay in memory; ``dump`` writes them
out at the end of the run.

A span's parent is the innermost open span on the same thread.  A span
opened on a worker thread with nothing open there (the ``bench``
thread pool) takes as parent the innermost span open on the main
thread, which is the ``run_bench`` call that started the pool; its CPU
is not subtracted from that parent, which ran on another thread.

Times are thread CPU seconds because the bench pool's two threads
contend for the interpreter lock: a call's wall time there depends on
what the other thread runs meanwhile, its CPU time does not.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, cpu_s, self_cpu_s)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []  # [span id, CPU seconds of finished children]
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, module, attr, name):
        """Wrap ``module.attr``; ``name`` is a layer name or a function
        of the call's positional arguments returning one."""
        original = getattr(module, attr)
        name_of = name if callable(name) else (lambda *_: name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            else:
                parent = tracer._main_stack[-1][0] if tracer._main_stack else 0
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                with tracer._lock:
                    tracer.spans.append(
                        (frame[0], parent, name_of(*args), start, end, cpu, cpu - frame[1])
                    )

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self):
        """Per layer name: calls, wall seconds, CPU seconds, self CPU seconds."""
        out = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0})
        for _, _, name, start, end, cpu, self_cpu in self.spans:
            row = out[name]
            row["calls"] += 1
            row["wall_s"] += end - start
            row["cpu_s"] += cpu
            row["self_s"] += self_cpu
        return dict(out)

    def dump(self, path):
        keys = ("id", "parent", "name", "start", "end", "cpu_s", "self_cpu_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
