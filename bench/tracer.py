"""Outside-in tracing of the khnn modules.

``Tracer.install`` replaces the public functions of every khnn module,
and the public methods of the classes defined there, with timing
wrappers. It rebinds each wrapped function under every name a khnn
module holds it by, and in module-level dicts such as the activation
table, so ``from .tensor import no_grad`` style imports are traced too. Nothing inside the package changes on disk, and
``uninstall`` puts every original back.

Each wrapper times the call with ``time.perf_counter`` and keeps a stack
of open spans, so a span's self time is its duration minus the time of
the spans nested in it. The wrapper's own bookkeeping is charged to no
span: the parent is billed for the child's whole wrapper, not only for
the wrapped call. Tensor ops that record a tape node also get their
backward closure wrapped, under the name ``<op>.bwd``; those spans nest
inside ``tensor.Tensor.backward``, whose self time is then the tape's
own overhead.

Statistics are kept per section (``setup``, ``step``, ``check`` ...),
chosen by the caller with ``Tracer.section``. Counts that follow from
shapes alone (conv and matmul FLOPs and compulsory bytes) are summed as
counters next to the timings.
"""

from __future__ import annotations

import functools
import importlib
import types
import weakref
from contextlib import contextmanager
from time import perf_counter

MODULES = ("algebra", "tensor", "layers", "model", "training", "datasets", "cli")


def _operands(args, kwargs, names):
    return [args[i] if i < len(args) else kwargs[name] for i, name in enumerate(names)]


def _cost(macs, operands, out):
    """FLOPs and compulsory bytes of an op, then of its backward rule.

    The backward rule does the op's work once per operand that needs a
    gradient, reading and writing the same arrays.
    """
    arrays = [getattr(v, "data", v) for v in operands]
    moved = (sum(a.size for a in arrays) + out.data.size) * out.data.itemsize
    grads = sum(bool(getattr(v, "requires_grad", False)) for v in operands)
    return 2 * macs, moved, 2 * macs * grads, moved * grads


def _conv_cost(args, kwargs, out):
    x, kernel = _operands(args, kwargs, ("x", "kernel"))
    k = getattr(kernel, "data", kernel)
    return _cost(out.data.size * (k.size // k.shape[-1]), (x, kernel), out)   # B*So*Cout * K*Cin


def _matmul_cost(args, kwargs, out):
    a, b = _operands(args, kwargs, ("a", "b"))
    inner = getattr(a, "data", a).shape[1]
    return _cost(out.data.size * inner, (a, b), out)


# ops whose cost is computed from shapes: name -> cost function
COSTED = {"tensor.conv_nd": _conv_cost, "tensor.matmul": _matmul_cost}


class Tracer:
    """Timing wrappers around the khnn modules, with per-section totals."""

    def __init__(self):
        self.stats = {}       # section -> name -> [calls, total_s, child_s]
        self.counters = {}    # section -> key -> number
        self.layer_names = weakref.WeakKeyDictionary()
        self._stack = []
        self._patches = []
        self._tensor_cls = None
        self._enter("setup")

    # -- sections ---------------------------------------------------------

    def _enter(self, name):
        self._section = name
        self._cur = self.stats.setdefault(name, {})
        self._counts = self.counters.setdefault(name, {})

    @contextmanager
    def section(self, name):
        prev = self._section
        self._enter(name)
        try:
            yield
        finally:
            self._enter(prev)

    def name_layers(self, model):
        """Report each layer of model as layers.<index>.<class>."""
        for i, layer in enumerate(model.layers):
            self.layer_names[layer] = f"layers.{i}.{type(layer).__name__}"

    # -- recording --------------------------------------------------------

    def _record(self, name, dt, child):
        s = self._cur.get(name)
        if s is None:
            self._cur[name] = [1, dt, child]
        else:
            s[0] += 1
            s[1] += dt
            s[2] += child

    def count(self, key, value):
        self._counts[key] = self._counts.get(key, 0) + value

    def _span(self, name, fn, post=None):
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            record(name(args) if callable(name) else name, t1 - t0, frame[0])
            if post is not None:
                post(args, kwargs, out)
            if stack:
                stack[-1][0] += perf_counter() - t_enter
            return out

        wrapper._traced = True
        return wrapper

    def _op_post(self, name):
        """After a tensor op: wrap the backward closure of a new tape node."""
        tensor_cls = self._tensor_cls
        cost = COSTED.get(name)
        bwd_name = name + ".bwd"

        def post(args, kwargs, out):
            if not isinstance(out, tensor_cls):
                return
            bwd_cost = None
            if cost is not None:
                flop, moved, bwd_flop, bwd_moved = cost(args, kwargs, out)
                self.count(name + ".flop", flop)
                self.count(name + ".bytes", moved)
                bwd_cost = (bwd_flop, bwd_moved)
            closure = out._backward
            if closure is None or getattr(closure, "_traced", False):
                return
            self.count("tensor.tape_nodes", 1)
            bwd_post = None
            if bwd_cost is not None:
                def bwd_post(args, kwargs, grads):
                    self.count(bwd_name + ".flop", bwd_cost[0])
                    self.count(bwd_name + ".bytes", bwd_cost[1])
            out._backward = self._span(bwd_name, closure, bwd_post)

        return post

    def _backward_post(self, args, kwargs, out):
        """After Tensor.backward: size the tape it walked and the grads it left."""
        seen = set()
        todo = [args[0]]
        nodes = grads = node_bytes = grad_bytes = 0
        while todo:
            t = todo.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._backward is not None:
                nodes += 1
                node_bytes += t.data.nbytes
            if t.grad is not None:
                grads += 1
                grad_bytes += t.grad.nbytes
            todo.extend(t._parents)
        self.count("tensor.backward.tape_nodes", nodes)
        self.count("tensor.backward.tape_bytes", node_bytes)
        self.count("tensor.backward.grads_held", grads)
        self.count("tensor.backward.grad_bytes", grad_bytes)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        modules = {short: importlib.import_module(f"khnn.{short}") for short in MODULES}
        self._tensor_cls = modules["tensor"].Tensor
        wrapped = {}   # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != mod.__name__ or id(value) in wrapped):
                    continue
                name = f"{short}.{value.__name__}"
                post = self._op_post(name) if short == "tensor" else None
                wrapped[id(value)] = self._span(name, value, post)
            for value in list(vars(mod).values()):
                if (isinstance(value, type) and value.__module__ == mod.__name__
                        and not issubclass(value, BaseException)):
                    self._wrap_methods(short, value)

        # rebind every name a khnn module holds a wrapped function by, and
        # every value of a module-level dict (such as the activation table)
        for owner in (importlib.import_module("khnn"), *modules.values()):
            for attr, value in list(vars(owner).items()):
                if id(value) in wrapped:
                    self._patch(vars(owner), attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)])

    def _wrap_methods(self, short, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            post = None
            if name == "tensor.Tensor.backward":
                post = self._backward_post
            elif short == "tensor":
                post = self._op_post(name)
            if short == "layers" and attr == "forward":
                name = functools.partial(self._layer_name, name)
            setattr(cls, attr, self._span(name, value, post))
            self._patches.append((cls, attr, value))

    def _layer_name(self, fallback, args):
        return self.layer_names.get(args[0], fallback)

    def _patch(self, namespace, key, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- reading ----------------------------------------------------------

    def totals(self, section):
        """name -> (calls, total_s, self_s) for one section."""
        return {name: (c, t, t - child)
                for name, (c, t, child) in self.stats.get(section, {}).items()}

    def counts(self, section):
        return dict(self.counters.get(section, {}))
