"""Per-layer spans and counters, recorded from outside qbialg.

``Tracer.install`` replaces the public functions and methods of each
qbialg module with wrappers that record a span (name, start, end,
parent) and update counters derived from the call's arguments or
result.  A module that imported a function by name keeps its own
reference to it, so every module global bound to a wrapped function is
rebound as well: the wrapper is found wherever the caller looks the
name up.

A layer is a qbialg module.  Its self time is the time spent in its
spans minus the time of their child spans; times are multiplied by the
normalisation factor of the operation they belong to, so they compare
across runs the way the end-to-end times do.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, class or None, attribute names).  Trivial accessors such as
# matrices.shape are left out: wrapping them would cost more than they do.
TARGETS = (
    ("cli", None, (
        "main", "build_parser", "_read_json", "_presentation", "_element", "_fraction",
        "_int_csv", "_emit", "_object_pool", "_cmd_verify", "_cmd_twist",
        "_cmd_trivialize", "_cmd_normalize", "_cmd_solve_r", "_cmd_verify_r",
        "_cmd_boundary", "_cmd_cohomology", "_cmd_classify", "_cmd_homcheck",
        "_cmd_compare_hom",
    )),
    ("homcat", None, (
        "unit_object", "tensor_obj", "from_module_action", "structure_maps",
        "associator", "left_unitor", "right_unitor", "braiding",
        "pentagon_sides", "triangle_sides", "hexagon_forward_sides",
        "hexagon_backward_sides", "symmetry_sides", "naturality_associator_sides",
        "naturality_unitor_sides", "naturality_braiding_sides",
        "random_unimodular", "random_object", "random_morphism",
        "check_coherence", "compare_structures",
    )),
    ("homcat", "MonoidalParams", ("__post_init__", "to_dict")),
    ("homcat", "HomObject", ("__post_init__",)),
    ("homcat", "HomMorphism", ("__post_init__",)),
    ("homcat", "CoherenceReport", ("to_dict",)),
    ("homcat", "ComparisonReport", ("to_dict",)),
    ("matrices", None, (
        "from_rows", "identity", "mul", "sub", "scale", "kron", "inverse", "power", "flip",
    )),
    ("laurent", None, (
        "as_unit", "invert_unit", "tensor_concat", "permute_legs", "insert_unit_leg",
        "apply_algebra_map_on_leg", "apply_counit_on_leg",
    )),
    ("laurent", "TensorElement", (
        "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__",
        "terms", "to_dict", "from_dict", "one", "single", "generator", "zero",
    )),
    ("laurent", "UnitElement", (
        "__post_init__", "inverse", "power", "__mul__", "to_tensor", "identity",
    )),
    ("laurent", "AlgebraMapSpec", ("__post_init__", "image_of_vector")),
    ("laurent", "CounitSpec", ("__post_init__", "value_of_vector")),
    ("quasibialgebra", None, (
        "ordinary", "canonical", "is_ordinary_coalgebra", "verify", "twist",
        "normalize", "find_trivializing_twist",
    )),
    ("quasibialgebra", "QuasiBialgebraPresentation", ("__post_init__", "to_dict", "from_dict")),
    ("quasibialgebra", "CanonicalTriple", ("__post_init__",)),
    ("quasibialgebra", "BialgebraIso", ("apply", "as_map")),
    ("rmatrix", None, ("check_rmatrix_shape", "verify_R", "twist_R", "solve_R")),
    ("reports", None, ("compare",)),
    ("reports", "AxiomCheck", ("to_dict",)),
    ("reports", "VerificationReport", ("to_list", "failed")),
    ("harrison", None, (
        "coface", "boundary", "boundary_closed_form", "coboundary_matrix",
        "cohomology", "cocycle_classify",
    )),
    ("harrison", "HarrisonCochain", (
        "__post_init__", "from_data", "identity", "__mul__", "inverse", "to_dict", "from_dict",
    )),
    ("harrison", "AbelianGroupDescriptor", ("__post_init__", "to_dict")),
    ("harrison", "ThreeCocycleClassification", ("cocycle", "parameters_of")),
    ("intlinalg", None, (
        "identity_matrix", "matrix_mul", "smith_normal_form", "diagonal_entries",
        "invariant_factors", "kernel_basis", "invariant_factors_from_diagonal",
        "solve_columns", "quotient_invariants",
    )),
)

# Groups of spans whose inclusive time is reported on its own.
GROUPS = {
    "homcat.sides_ms": {
        "homcat." + n for n in (
            "pentagon_sides", "triangle_sides", "hexagon_forward_sides",
            "hexagon_backward_sides", "symmetry_sides", "naturality_associator_sides",
            "naturality_unitor_sides", "naturality_braiding_sides",
        )
    },
    "homcat.constraint_ms": {
        "homcat.associator", "homcat.left_unitor", "homcat.right_unitor", "homcat.braiding",
    },
    "homcat.validate_ms": {"homcat.HomObject.__post_init__", "homcat.HomMorphism.__post_init__"},
    "cli.parse_ms": {"cli.build_parser", "cli.parse_args"},
}

# Every per-layer metric, with its unit, in the order it is printed.
METRICS = {
    "cli.calls": "count",
    "cli.parse_ms": "ms",
    "cli.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "homcat.self_ms": "ms",
    "homcat.instances": "count",
    "homcat.sides_ms": "ms",
    "homcat.constraint_ms": "ms",
    "homcat.validations": "count",
    "homcat.validate_ms": "ms",
    "matrices.self_ms": "ms",
    "matrices.mul_calls": "count",
    "matrices.mul_products": "count",
    "matrices.kron_entries": "count",
    "matrices.inverse_calls": "count",
    "matrices.inverse_ops": "count",
    "matrices.power_calls": "count",
    "matrices.max_dim": "count",
    "laurent.self_ms": "ms",
    "laurent.mul_calls": "count",
    "laurent.term_products": "count",
    "laurent.map_calls": "count",
    "quasibialgebra.self_ms": "ms",
    "quasibialgebra.calls": "count",
    "rmatrix.self_ms": "ms",
    "rmatrix.calls": "count",
    "reports.compare_calls": "count",
    "harrison.self_ms": "ms",
    "harrison.cohomology_calls": "count",
    "harrison.boundary_calls": "count",
    "intlinalg.self_ms": "ms",
    "intlinalg.smith_calls": "count",
    "intlinalg.smith_entries": "count",
    "intlinalg.max_bits": "bits",
}

def _dims(m) -> int:
    return max(len(m), len(m[0]) if m else 0)


def _mat_hook(name):
    def hook(t, args, result):
        shapes = [_dims(m) for m in (*args, result) if isinstance(m, tuple) and m and isinstance(m[0], tuple)]
        t.peak("matrices.max_dim", max(shapes, default=0))
        if name == "mul":
            a, b = args
            t.add("matrices.mul_calls")
            t.add("matrices.mul_products", len(a) * len(b) * (len(b[0]) if b else 0))
        elif name == "kron":
            t.add("matrices.kron_entries", len(result) * (len(result[0]) if result else 0))
        elif name == "inverse":
            t.add("matrices.inverse_calls")
            t.add("matrices.inverse_ops", len(args[0]) ** 3)
        elif name == "power":
            t.add("matrices.power_calls")
    return hook


def _tensor_mul_hook(t, args, result):
    a, b = args
    t.add("laurent.mul_calls")
    t.add("laurent.term_products", a.term_count() * (b.term_count() if hasattr(b, "term_count") else 1))


def _smith_hook(t, args, result):
    (a,) = args
    t.add("intlinalg.smith_calls")
    t.add("intlinalg.smith_entries", len(a) * (len(a[0]) if a else 0))
    t.peak("intlinalg.max_bits", max((abs(x).bit_length() for m in result for row in m for x in row), default=0))


def _coherence_hook(t, args, result):
    t.add("homcat.instances", sum(len(group) for _, group in result.axioms))


def _comparison_hook(t, args, result):
    t.add("homcat.instances", len(result.entries))


def _parser_hook(t, args, parser):
    parser.parse_args = t.wrap("cli.parse_args", parser.parse_args)


HOOKS = {
    "cli.main": lambda t, a, r: t.add("cli.calls"),
    "cli.build_parser": _parser_hook,
    "homcat.check_coherence": _coherence_hook,
    "homcat.compare_structures": _comparison_hook,
    "homcat.HomObject.__post_init__": lambda t, a, r: t.add("homcat.validations"),
    "homcat.HomMorphism.__post_init__": lambda t, a, r: t.add("homcat.validations"),
    "laurent.TensorElement.__mul__": _tensor_mul_hook,
    "laurent.TensorElement.__rmul__": _tensor_mul_hook,
    "laurent.apply_algebra_map_on_leg": lambda t, a, r: t.add("laurent.map_calls"),
    "reports.compare": lambda t, a, r: t.add("reports.compare_calls"),
    "harrison.cohomology": lambda t, a, r: t.add("harrison.cohomology_calls"),
    "harrison.boundary": lambda t, a, r: t.add("harrison.boundary_calls"),
    "intlinalg.smith_normal_form": _smith_hook,
}
HOOKS.update({f"matrices.{n}": _mat_hook(n) for n in ("from_rows", "identity", "mul", "sub", "scale", "kron", "inverse", "power", "flip")})

IN_QBIALG = "in_qbialg"

# Layers whose metric ``<layer>.calls`` counts every wrapped call.
CALL_COUNTED = ("quasibialgebra", "rmatrix")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._op_start = 0
        self.totals: Counter = Counter()
        # per operation: seconds of self time per layer and of inclusive
        # time per group, plus IN_QBIALG, the time inside any span
        self.op_times: list[Counter] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def add(self, metric: str, n: int = 1) -> None:
        self.totals[metric] += n

    def peak(self, metric: str, value: int) -> None:
        if value > self.totals[metric]:
            self.totals[metric] = value

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        hook = HOOKS.get(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "qbialg" or name.startswith("qbialg.")]
        for modname, clsname, attrs in TARGETS:
            module = sys.modules[f"qbialg.{modname}"]
            owner = module if clsname is None else getattr(module, clsname)
            prefix = modname if clsname is None else f"{modname}.{clsname}"
            for attr in attrs:
                raw = owner.__dict__[attr] if clsname else getattr(owner, attr)
                name = f"{prefix}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                if clsname is None:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._saved.append((mod, key, raw))
                                setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- per-operation accounting ------------------------------------------

    def begin_op(self) -> None:
        self._op_start = len(self.spans)
        self.enabled = True

    def end_op(self) -> None:
        """Stop recording and fold this operation's spans into its layer
        and group times, in seconds of wall time."""
        self.enabled = False
        spans, start, names = self.spans, self._op_start, self.names
        child = Counter()
        for nid, t0, t1, parent in spans[start:]:
            if parent >= 0:
                child[parent] += t1 - t0
        times = Counter()
        for idx in range(start, len(spans)):
            nid, t0, t1, parent = spans[idx]
            name = names[nid]
            layer = name.split(".", 1)[0]
            times[layer] += t1 - t0 - child[idx]
            if parent < 0:
                times[IN_QBIALG] += t1 - t0
            if layer in CALL_COUNTED:
                self.totals[f"{layer}.calls"] += 1
            for metric, members in GROUPS.items():
                if name in members and (parent < 0 or names[spans[parent][0]] not in members):
                    times[metric] += t1 - t0
        self.op_times.append(times)

    def normalised_ms(self, factors: list[float]) -> Counter:
        """Layer and group times in normalised milliseconds, each
        operation scaled by its own factor."""
        out = Counter()
        for times, factor in zip(self.op_times, factors):
            for key, seconds in times.items():
                out[key] += seconds * factor * 1e3
        return out

    def metrics(self, factors: list[float]) -> dict:
        ms = self.normalised_ms(factors)
        out = {}
        for metric, unit in METRICS.items():
            if metric.endswith(".self_ms"):
                value = ms[metric.split(".")[0]]
            elif metric in GROUPS:
                value = ms[metric]
            else:
                value = self.totals[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines: a header with the name table, then one
        [name, start_us, end_us, parent] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(f"[{nid},{t0 * 1e6:.1f},{t1 * 1e6:.1f},{parent}]\n")
