"""Span tracing from outside the library, and the per-layer metrics built on it.

:class:`Tracer` replaces every public function of each ``src/resokit``
module (and the public methods of the classes defined there) with a wrapper
that records a span: function, start, end, parent span and the operation id
shared by all spans of one benchmark operation. The scipy and numpy names
bound inside ``bound``, ``twochannel`` and ``verify`` (quad, brentq, erfcx,
dawsn, polyfit) are wrapped as the ``scipy`` layer. Spans are kept in
memory in flat arrays and written out once, when tracing ends; self time is
derived afterwards as a span's duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "contact", "scattering", "bound", "product", "twochannel",
          "units", "species", "verify")
# (module, attribute) pairs of foreign numerical routines called by resokit.
SCIPY_NAMES = (("bound", "brentq"), ("twochannel", "quad"), ("twochannel", "brentq"),
               ("twochannel", "erfcx"), ("twochannel", "dawsn"), ("verify", "quad"))
# Functions whose span records an element count: (argument index, or
# "result" for the length of the return value).
COUNTED = {"contact.g": 1, "scipy.twochannel_erfcx": 0, "scipy.twochannel_dawsn": 0,
           "bound.find_bound_states": "result"}
# Keep memory bounded: spans beyond this many are not recorded, the worker
# ends the traced phase after the operation that reached the cap, and that
# operation's spans are left out of the per-layer metrics.
SPAN_CAP = 2_000_000

_FIELDS = (("fid", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"),
           ("n", "q"), ("fail", "b"), ("nested", "b"))


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {name: array(code) for name, code in _FIELDS}
        self.stack: list[int] = []
        self.active: list[int] = []
        self.op = -1
        # Id of the operation during which SPAN_CAP was reached, else None.
        self.saturated_op = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.active.append(0)
        counted = COUNTED.get(name)
        c = self.cols
        fids, parents, ops, starts, ends = c["fid"], c["parent"], c["op"], c["start"], c["end"]
        ns, fails, nested = c["n"], c["fail"], c["nested"]
        stack, active, clock = self.stack, self.active, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            if i >= SPAN_CAP:
                if self.saturated_op is None:
                    self.saturated_op = self.op
                return fn(*args, **kwargs)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            n = 0
            if counted is not None and counted != "result" and len(args) > counted:
                n = int(np.size(args[counted]))
            ns.append(n)
            fails.append(0)
            nested.append(1 if active[fid] else 0)
            ends.append(0.0)
            active[fid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                fails[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                active[fid] -= 1
            if counted == "result":
                ns[i] = len(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = getattr(fn, "__wrapped__", fn)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public resokit function, method and scipy binding."""
        modules = {layer: importlib.import_module(f"resokit.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = self._wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrapper(f"{layer}.{meth}", fn))
        for layer, attr in SCIPY_NAMES:
            mod = modules[layer]
            if hasattr(mod, attr):
                self._patch(mod, attr, self._wrapper(f"scipy.{layer}_{attr}", getattr(mod, attr)))
        self._patch(np, "polyfit", self._wrapper("scipy.polyfit", np.polyfit))
        # Rebind every reference to a wrapped function: module attributes,
        # names imported into other modules and lookup tables such as the
        # battery's name-to-check map.
        import resokit

        for mod in (*modules.values(), resokit):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(mod, attr, originals[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in originals:
                            self._patches.append((obj, key, val))
                            obj[key] = originals[val]

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def arrays(self) -> dict:
        """Recorded spans as numpy columns, without those of the operation
        that reached SPAN_CAP (its spans are incomplete)."""
        # Views, not copies: the columns take tens of MB near SPAN_CAP, and
        # nothing is recorded once tracing has ended.
        out = {name: np.frombuffer(col, dtype=col.typecode) if len(col) else
               np.zeros(0, dtype=col.typecode) for name, col in self.cols.items()}
        if self.saturated_op is not None:
            # Operation ids grow with the span index, so the complete
            # operations are a prefix whose parent indices stay valid.
            n = int(np.searchsorted(out["op"], self.saturated_op))
            out = {name: col[:n] for name, col in out.items()}
        out["names"] = np.array(self.names)
        return out


def save(arrays: dict, path: str) -> None:
    np.savez(path, **arrays)


def load(path: str) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets from several processes into one."""
    index: dict[str, int] = {}
    cols = {name: [] for name, _ in _FIELDS}
    offset = 0
    for part in parts:
        remap = np.array([index.setdefault(str(n), len(index)) for n in part["names"]],
                         dtype=np.int64)
        for name, code in _FIELDS:
            col = part[name]
            if name == "fid" and len(col):
                col = remap[col]
            elif name == "parent":
                col = np.where(col >= 0, col + offset, -1)
            cols[name].append(np.asarray(col, dtype=code))
        offset += len(part["start"])
    out = {name: (np.concatenate(cols[name]) if cols[name] else np.zeros(0, dtype=code))
           for name, code in _FIELDS}
    out["names"] = np.array(sorted(index, key=index.get))
    return out


def _within(fid, parent, targets):
    """Boolean per span: the span or one of its ancestors has a fid in targets."""
    hit = np.isin(fid, targets)
    has_parent = parent >= 0
    while True:
        nxt = hit.copy()
        nxt[has_parent] |= hit[parent[has_parent]]
        if np.array_equal(nxt, hit):
            return hit
        hit = nxt


def layer_metrics(sp: dict, n_ops: int, speed: float) -> dict:
    """Per-function calls, busy/self seconds and fails per traced operation,
    plus derived ratios.

    ``n_ops`` is the number of operations whose spans were all recorded.
    Dividing by it keeps a metric the cost of one operation: a faster
    program fits more operations into the traced phase, which would raise
    totals it should lower. Times are multiplied by ``speed``, the median
    machine-speed factor of the traced phase (see calib.py).
    """
    names = [str(n) for n in sp["names"]]
    fid, parent = sp["fid"].astype(np.int64), sp["parent"].astype(np.int64)
    dur = sp["end"] - sp["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    outer = sp["nested"] == 0
    k = len(names)
    calls = np.bincount(fid, minlength=k)
    busy = np.bincount(fid, weights=np.where(outer, dur, 0.0), minlength=k)
    selfs = np.bincount(fid, weights=self_t, minlength=k)
    fails = np.bincount(fid, weights=sp["fail"].astype(float), minlength=k)
    elems = np.bincount(fid, weights=sp["n"].astype(float), minlength=k)
    per_op = 1.0 / max(n_ops, 1)
    s_per_op = speed * per_op

    m = {}
    layer_self: dict[str, float] = {}
    for i, name in enumerate(names):
        m[f"{name}.calls"] = float(calls[i]) * per_op
        m[f"{name}.busy_s"] = float(busy[i]) * s_per_op
        m[f"{name}.self_s"] = float(selfs[i]) * s_per_op
        m[f"{name}.fails"] = float(fails[i]) * per_op
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(selfs[i]) * s_per_op
    for layer in (*LAYERS, "scipy"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    def fid_of(name):
        return names.index(name) if name in names else -1

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    g = fid_of("contact.g")
    m["contact.g.points_per_call"] = ratio(elems[g], calls[g]) if g >= 0 else 0.0

    fbs = fid_of("bound.find_bound_states")
    brentq = fid_of("scipy.bound_brentq")
    parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1) if len(fid) else fid
    tries = int(np.sum((fid == brentq) & (parent_fid == fbs))) if fbs >= 0 and brentq >= 0 else 0
    m["bound.brentq_per_state"] = ratio(elems[fbs] if fbs >= 0 else 0, tries)

    bs = fid_of("twochannel.bound_state")
    erfcx = fid_of("scipy.twochannel_erfcx")
    if bs >= 0 and erfcx >= 0 and calls[bs]:
        inside = _within(fid, parent, [bs])
        m["twochannel.erfcx.points_per_bound_state"] = ratio(
            sp["n"][(fid == erfcx) & inside].sum(), calls[bs])
    else:
        m["twochannel.erfcx.points_per_bound_state"] = 0.0
    quad = fid_of("scipy.twochannel_quad")
    m["twochannel.quad.calls_per_op"] = float(calls[quad]) * per_op if quad >= 0 else 0.0
    ep = fid_of("twochannel.effective_params")
    inv = fid_of("twochannel.inverse_amplitude")
    if ep >= 0 and inv >= 0 and calls[ep]:
        inside = _within(fid, parent, [ep])
        m["twochannel.inverse_amplitude.calls_per_effective_params"] = ratio(
            np.sum((fid == inv) & inside), calls[ep])
    else:
        m["twochannel.inverse_amplitude.calls_per_effective_params"] = 0.0
    return m


def import_breakdown(stderr: str) -> dict:
    """Import metrics (ms) from ``python -X importtime -c "import resokit.cli"``.

    Cumulative time is attributed to the first importer of a module, so the
    per-package numbers depend on import order; ``import.total_ms`` is the
    sum over the top-level resokit imports and is the one to compare first.
    """
    total = 0.0
    first = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, pkg = line[len("import time:"):].split("|")
        name = pkg.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        cum_ms = int(cum) / 1000.0
        first.setdefault(name, cum_ms)
        if depth == 0 and (name == "resokit" or name.startswith("resokit.")):
            total += cum_ms
    out = {"import.total_ms": total}
    for key, mod in (("numpy_ms", "numpy"), ("scipy.optimize_ms", "scipy.optimize"),
                     ("scipy.integrate_ms", "scipy.integrate"),
                     ("scipy.special_ms", "scipy.special"),
                     ("scipy.constants_ms", "scipy.constants")):
        out[f"import.{key}"] = first.get(mod, 0.0)
    return out
