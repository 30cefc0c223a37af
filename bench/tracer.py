"""Run one symdeg CLI command in-process with timing spans around each layer.

Usage (PYTHONPATH must reach the symdeg sources):

    python3 bench/tracer.py --spans OUT.json -- dual-dim @f.txt --format json

The program itself is not modified.  Before ``symdeg.cli.main(argv)``
runs, every public function listed in ``TARGETS`` is replaced by a
wrapper that records a span (name, start, end, parent).  Modules import
these names directly (``from .linalg import minor_dets``), so the wrapper
is patched into every ``symdeg`` module attribute bound to the original
function, not only into the defining module.  Spans stay in memory and
are written to OUT.json when the command finishes, together with a few
counters read from arguments and return values at the same boundaries.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from time import perf_counter

# module -> functions (``Class.method`` for methods) wrapped with a span.
# A name missing from the program is skipped; its metrics then read 0.
TARGETS = {
    "cli": ("main",),
    "poly": ("parse_poly", "differentiate", "evaluate", "divides", "compose_linear",
             "MultiPoly.format"),
    "linalg": ("det_poly", "rank_rational", "det_rational", "inverse_rational",
               "smith_normal_form", "cokernel"),
    "hessian": ("build_hessian", "evaluate_hessian", "stratify",
                "ambient_rank_certificate", "hypersurface_rank_certificate", "_first_minor"),
    "dualvariety": ("dual_dimension", "rank_relation_check", "adapt_coordinates",
                    "block_decompose", "second_order_implicit"),
    "quadrics": ("torsion_certificate", "nonsurjectivity_certificate"),
    "bounds": ("replay_main_theorem",),
}
_PHASES = {
    "hessian.ambient_rank_certificate": "ambient",
    "hessian.hypersurface_rank_certificate": "hypersurface",
}


class Tracer:
    """Span recorder; ``install`` patches the loaded symdeg modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def phase(self) -> str:
        """``ambient`` or ``hypersurface``: the innermost open certificate span."""
        for index in reversed(self.stack):
            phase = _PHASES.get(self.names[self.spans[index][0]])
            if phase:
                return phase
        return "none"

    def wrap_minor_dets(self, fn):
        counters = self.counters

        def traced(m, k):
            key = f"minor_dets.k{k}.{self.phase()}"
            for item in fn(m, k):
                counters[key] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        counters = self.counters
        if name == "poly.divides":
            def after(result):
                if result is None:
                    counters["divides.misses"] += 1
            return after
        if name == "linalg.det_poly":
            def after(result):
                coeffs = getattr(result, "terms", {}).values()
                counters["det_poly.max_terms"] = max(counters["det_poly.max_terms"], len(coeffs))
                bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                            for c in coeffs), default=0)
                counters["det_poly.max_coeff_bits"] = max(counters["det_poly.max_coeff_bits"], bits)
            return after
        if name == "hessian._first_minor":
            def after(result):
                if result is not None:
                    counters["first_minor.witnesses"] += 1
            return after
        return None

    def install(self) -> None:
        import symdeg.cli  # noqa: F401  (loads every symdeg module)

        modules = [m for key, m in sys.modules.items() if key == "symdeg" or key.startswith("symdeg.")]
        replacements = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"symdeg.{module_name}"]
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                name = f"{module_name}.{attr}"
                wrapped = self.wrap(name, original, self._after(name))
                if owner_name:
                    setattr(owner, attr, wrapped)
                else:
                    replacements[id(original)] = (original, wrapped)
        linalg = sys.modules["symdeg.linalg"]
        if hasattr(linalg, "minor_dets"):
            replacements[id(linalg.minor_dets)] = (linalg.minor_dets,
                                                   self.wrap_minor_dets(linalg.minor_dets))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file to write the spans to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="symdeg CLI arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    import symdeg.cli

    try:
        return symdeg.cli.main(argv)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
