"""Spans around calls into the public functions of qbd_tails.

The tracer replaces each traced function by a wrapper wherever the package
holds it: on its own module and on every module that imported it by name.
Spans stay in memory while the benchmark runs and are written out at the
end.  Calls made while the tracer is disabled (input building, output
checks) pass straight through and are not recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index or -1)
        self.stack = []
        self.op = -1
        self.enabled = False
        self.originals = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)

        return traced

    def install(self, names):
        """Trace each "module.function" of qbd_tails in `names`."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qbd_tails" or key.startswith("qbd_tails.")]
        for name in names:
            mod_name, attr = name.split(".")
            original = getattr(sys.modules[f"qbd_tails.{mod_name}"], attr)
            wrapper = self._wrap(name, original)
            self.originals[name] = original
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def cache_counts(self, name):
        """(hits, misses) so far of a traced function's own cache."""
        info = self.originals[name].cache_info()
        return info.hits, info.misses

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")
