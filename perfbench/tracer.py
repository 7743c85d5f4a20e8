"""In-memory span tracer that wraps the public API of the ``mmtrace`` modules.

``Tracer.install`` replaces every public function and every public method
defined in an ``mmtrace`` module with a timing wrapper, at every module
attribute the function is bound under (``weighted_stats`` lives in both
``measures`` and ``functionals``, and in the package namespace).
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` is
edited: the wrappers exist only while a traced job runs.

Each call is pushed on a stack, so its self time (duration minus the time
spent in wrapped callees) is exact.  Every call adds to a per-name table of
calls, total and self time.  Calls of names in ``HOT`` are aggregated only;
every other call is also kept as a span ``(id, name, start, end, parent)``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

MARK = "__perfbench_wrapped__"

# Leaf-like calls made tens of thousands of times per job: count and time
# them, but keep no span per call.
HOT = frozenset(
    {
        "measures.weighted_stats",
        "space.members",
        "neighbors.members_of",
        "functionals.bsn_term",
        "functionals.tilde_e",
        "measures.e_ball",
        "measures.ball_mass",
        "measures.mass_on",
        "measures.dense",
        "space.ball_mass",
        "space.check_id",
        "space.distance",
        "space.distances_from",
        "space.k_of_r",
        "regularity.weight_on",
    }
)


def layer_name(module_name: str, attr: str) -> str:
    """``mmtrace._neighbors`` + ``self_lists`` -> ``neighbors.self_lists``."""
    short = module_name.split(".", 1)[1] if "." in module_name else module_name
    return f"{short.lstrip('_')}.{attr}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _path_arg(args, kwargs, pos: int):
    return kwargs["path"] if "path" in kwargs else (args[pos] if len(args) > pos else None)


# Counter hooks: hook(counters, call, args, kwargs) runs the call and
# returns its result, reading what it needs before and after.


def _masses_hook(counters, call, args, kwargs):
    space, radius = args[0], (args[1] if len(args) > 1 else kwargs["radius"])
    miss = float(radius) not in space._mass_cache
    out = call()
    if miss:
        counters["space.masses_at_radius.misses"] += 1
        counters["space.masses_at_radius.centers"] += int(space.n)
    return out


def _self_lists_hook(counters, call, args, kwargs):
    nbrs, radius = args[0], (args[1] if len(args) > 1 else kwargs["radius"])
    miss = float(radius) not in nbrs._lists_cache
    out = call()
    if miss:
        counters["neighbors.self_lists.pairs"] += int(sum(len(x) for x in out))
    return out


def _cross_pairs_hook(counters, call, args, kwargs):
    out = call()
    counters["neighbors.cross_pairs.pairs"] += int(out[0].size)
    return out


def _cover_hook(counters, call, args, kwargs):
    out = call()
    counters["content.hausdorff_content.balls"] += len(out.balls)
    return out


def _family_hook(counters, call, args, kwargs):
    out = call()
    counters["functionals.nice_family.balls"] += len(out.balls)
    return out


def _io_write_hook(pos):
    def hook(counters, call, args, kwargs):
        out = call()
        counters["io.bytes"] += _file_size(_path_arg(args, kwargs, pos))
        return out

    return hook


def _io_read_hook(counters, call, args, kwargs):
    counters["io.bytes"] += _file_size(_path_arg(args, kwargs, 0))
    return call()


HOOKS = {
    "space.masses_at_radius": _masses_hook,
    "neighbors.self_lists": _self_lists_hook,
    "neighbors.cross_pairs": _cross_pairs_hook,
    "content.hausdorff_content": _cover_hook,
    "functionals.enumerate_or_search_nice_family": _family_hook,
    "io.save_space": _io_write_hook(1),
    "io.save_pieces": _io_write_hook(1),
    "io.save_function": _io_write_hook(2),
    "experiments.report_emit": _io_write_hook(2),
    "io.load_space": _io_read_hook,
    "io.load_pieces": _io_read_hook,
    "io.load_function": _io_read_hook,
}


def package_modules(package) -> list:
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def surviving_wrappers(package) -> list:
    """Names of module attributes or class methods that are still wrappers."""
    left = []
    for mod in package_modules(package):
        for attr, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                left.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj):
                for mattr, fn in vars(obj).items():
                    if getattr(fn, MARK, False):
                        left.append(f"{mod.__name__}.{obj.__name__}.{mattr}")
    return sorted(set(left))


class Tracer:
    """Spans and per-name call statistics for one traced job."""

    def __init__(self, package):
        self.package = package
        # system-wide on Linux, so spans line up with the parent's timestamps
        self.clock = time.monotonic
        self.spans: list = []        # (id, name, start, end, parent id)
        self.stats: dict = {}        # name -> [calls, total_s, self_s]
        self.counters = Counter()
        self._stack: list = []       # frames: [start, child_s, span id for children]
        self._patches: list = []     # (owner, attr, original)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function and method of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__
        mods = package_modules(self.package)
        wrappers = {}   # id(original function) -> wrapper
        for mod in mods:
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not mattr.startswith("_"):
                            name = layer_name(mod.__name__, mattr)
                            self._patch(obj, mattr, fn, self._wrap(fn, name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if home != prefix and not home.startswith(prefix + "."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer_name(obj.__module__, obj.__name__))
                self._patch(mod, attr, obj, wrappers[id(obj)])

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        record = name not in HOT
        call_traced = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call_traced(fn, name, record, hook, args, kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- recording -------------------------------------------------------

    def _call(self, fn, name, record, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1][2] if stack else None
        sid = len(self.spans) if record else None
        if record:
            self.spans.append(None)   # reserve the id; filled on exit
        frame = [self.clock(), 0.0, sid if record else parent]
        stack.append(frame)
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(self.counters, lambda: fn(*args, **kwargs), args, kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - frame[0]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if record:
                self.spans[sid] = (sid, name, frame[0], end, parent)

    def phase(self, name: str, start: float, end: float):
        """Record a span timed by the caller (benchmark phases such as the
        import or the output check) as a child of the current frame."""
        stack = self._stack
        parent = stack[-1][2] if stack else None
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, parent))
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += end - start
        st[2] += end - start
        if stack:
            stack[-1][1] += end - start

    def open_root(self, name: str, start: float):
        """Open the job's root span at ``start``."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([start, 0.0, sid])
        self._root = (sid, name)

    def close_root(self, end: float):
        start, child, sid = self._stack.pop()
        _, name = self._root
        self.spans[sid] = (sid, name, start, end, None)
        self.stats[name] = [1, end - start, end - start - child]

    # -- analysis --------------------------------------------------------

    def nesting_violations(self, tol: float = 1e-9) -> int:
        """Spans that do not lie inside their parent span."""
        bad = 0
        for span in self.spans:
            sid, _, start, end, parent = span
            if parent is None:
                continue
            _, _, pstart, pend, _ = self.spans[parent]
            if start < pstart - tol or end > pend + tol or end < start:
                bad += 1
        return bad

    def self_total(self) -> float:
        return sum(st[2] for st in self.stats.values())
