"""Outside-in tracing of the fflattice library layers.

The tracer replaces the public functions and methods of the library modules
with timing wrappers, from outside: the library source is not touched.  Every
wrapped call adds to per-name aggregates (calls, inclusive time, self time =
inclusive time minus the time of wrapped child calls).  Calls that are not
hot also record a span: id, parent span id, operation label, name, start,
end.  Spans stay in memory and are written once, by write().

Names bound into a module with `from ... import name` keep pointing at the
unwrapped function, so calls through them escape the wrappers; install()
returns those names so the run can list them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Dunder methods whose calls are layer work (element arithmetic, construction).
_DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__truediv__"}
# Private methods the per-layer metrics need.
_PRIVATE = {"StdLattice._embedding_entry"}
# Leaf calls made ~10^5 times per run: aggregated only, no span each.
_HOT_PREFIXES = (
    "fppoly.", "linalg.matmul_mod", "linalg.identity", "linalg.as_matrix",
    "extfield.FFElem.", "extfield.frobenius", "extfield.ExtField.element",
    "extfield.ExtField.zero", "extfield.ExtField.one", "extfield.ExtField.gen",
    "extfield.ExtField.frob_power", "kummer.KummerElem.", "kummer.kalg_mul",
    "kummer.KummerAlg.element", "kummer.KummerAlg.zero", "kummer.KummerAlg.one",
    "kummer.KummerAlg.from_", "kummer.KummerAlg.scalar_", "cyclotomic.CycloLattice.level",
    "lattice.StdLattice.field", "lattice.StdLattice._embedding_entry",
)
# Spans kept in memory; later ones are counted as dropped.
MAX_SPANS = 300_000


class Stat:
    __slots__ = ("calls", "incl", "self", "keys")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.keys = set()   # distinct cache keys seen, for miss counts


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0                 # index into self.ops of the running operation
        self.ops = ["(none)"]
        self._op_index = {"(none)": 0}
        self._child = [0.0]         # time of wrapped children, one slot per open call
        self._span = [0]            # ids of open spans; 0 is the root
        self._next_id = 1
        self._undo: list[tuple] = []    # (owner, attribute, original) per wrapper
        self.epoch = 0                  # bumped per install; cache keys are per epoch
        self.t0 = time.perf_counter()

    def begin_op(self, label: str) -> None:
        self.op = self._op_index.setdefault(label, len(self.ops))
        if self.op == len(self.ops):
            self.ops.append(label)

    def end_op(self) -> None:
        self.op = 0
        del self._child[1:], self._span[1:]   # left open only by an interrupted call

    def wrap(self, name: str, fn, key=None):
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        clock = time.perf_counter
        hot = name.startswith(_HOT_PREFIXES)
        tracer = self

        def call(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k is not None:
                    stat.keys.add((tracer.epoch, k))
            if not hot:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = tracer._span[-1]
                tracer._span.append(sid)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.incl += dt
                stat.self += dt - inner
                if not hot:
                    tracer._span.pop()
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((sid, parent, tracer.op, name,
                                             start - tracer.t0, end - tracer.t0))
                    else:
                        tracer.dropped += 1

        return functools.update_wrapper(call, fn)

    def install(self, modules, keys: dict) -> list[str]:
        """Wrap every public function and method of the given modules.

        keys maps a wrapped name to a function of the call's arguments that
        returns a cache key (or None for a call that cannot miss).  Returns
        the names that escape the wrappers.
        """
        escaped = []
        self.epoch += 1
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if obj.__module__ == mod.__name__:
                        name = f"{short}.{attr}"
                        self._undo.append((mod, attr, obj))
                        setattr(mod, attr, self.wrap(name, obj, keys.get(name)))
                    elif obj.__module__.startswith("fflattice."):
                        origin = obj.__module__.rsplit(".", 1)[-1]
                        escaped.append(f"{short}.{attr} (bound to {origin}.{obj.__name__})")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._install_class(short, obj, mod, keys)
        return escaped

    def _install_class(self, short, cls, mod, keys) -> None:
        source = inspect.getsourcefile(mod)
        for attr, member in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not (not attr.startswith("_") or attr in _DUNDERS or qual in _PRIVATE):
                continue
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue   # properties, dataclass-generated methods
            name = f"{short}.{cls.__name__}.{attr.strip('_') if attr in _DUNDERS else attr}"
            wrapped = self.wrap(name, fn, keys.get(name))
            self._undo.append((cls, attr, member))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        """Put back every function and method install() wrapped."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {name: [s.calls, s.incl, s.self, len(s.keys)] for name, s in self.stats.items()}

    def write(self, path, meta: dict) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, ops=self.ops, names=names, dropped=self.dropped,
                   span_fields=["id", "parent", "op", "name", "start_s", "end_s"],
                   spans=[[s[0], s[1], s[2], index[s[3]], round(s[4], 7), round(s[5], 7)]
                          for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
