"""Every internal re-check fires once what it re-checks is broken.

Each case breaks one name that a module imports, or shadows a builtin
it calls, or hands a re-check an ``AdaptedForm`` changed with
``_replace``, and pins the exact message of the ``InternalCheckError``
that results.  The Fermat cubic at (1, -1, 0, 0) is adapted so that
its form holds X0^2*X3 with coefficient 1.
"""

import builtins

import pytest

from symdeg import (
    FGAbelianGroup,
    InternalCheckError,
    MultiPoly,
    adapt_coordinates,
    ambient_rank_certificate,
    block_decompose,
    build_hessian,
    corollary_threshold,
    hypersurface_rank_certificate,
    parse_poly,
    rank_rational,
    rank_relation_check,
    second_order_implicit,
    smith_normal_form,
    sym_stratum_dim,
    torsion_certificate,
    veronese_witness,
)
from symdeg import bounds, dualvariety, hessian, linalg, quadrics
from symdeg.cli import main

F = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", ["x0", "x1", "x2", "x3"])
P = (1, -1, 0, 0)
X0, X1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
AF = adapt_coordinates(F, P)
LEAD = (2, 0, 0, 1)  # X0^2*X3


def without_lead(p):
    return MultiPoly(p.num_vars, {e: c for e, c in p.terms.items() if e != LEAD})


def plus_one(matrix):
    return tuple(tuple(x + 1 for x in row) for row in matrix)


def dividing_every_packed_minor(call, *args):
    """``call(*args)`` while ``hessian._divide_terms`` finds every division exact."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hessian, "_divide_terms", lambda f, m, packing: m)
        return call(*args)


def shifted_variables(cls):
    """``cls`` whose ``variable(i, n)`` is variable i + 1 (mod n)."""

    class Shifted(cls):
        @staticmethod
        def variable(i, n):
            return cls.variable((i + 1) % n, n)

    return Shifted


# (module, name, replacement built from the original, call, message); a
# case with no module breaks nothing and passes a changed AdaptedForm.
CASES = {
    "det_rational": (
        dualvariety, "det_rational", lambda det: lambda m: 0,
        lambda: adapt_coordinates(F, P),
        "adapted coordinate change is singular",
    ),
    "compose_without_lead": (
        dualvariety, "compose_linear", lambda compose: lambda p, t: without_lead(compose(p, t)),
        lambda: adapt_coordinates(F, P),
        "transverse direction lost the leading coefficient",
    ),
    "shifted_variables": (
        dualvariety, "MultiPoly", shifted_variables,
        lambda: adapt_coordinates(F, P),
        "normal-form pieces do not reassemble the adapted form",
    ),
    "compose_plus_x0_cubed": (
        dualvariety, "compose_linear", lambda compose: lambda p, t: compose(p, t) + X0**3,
        lambda: adapt_coordinates(F, P),
        "adapted form does not vanish at the point",
    ),
    "compose_plus_x0_squared_x1": (
        dualvariety, "compose_linear", lambda compose: lambda p, t: compose(p, t) + X0**2 * X1,
        lambda: adapt_coordinates(F, P),
        "adapted form has a surviving tangential gradient",
    ),
    "evaluate_hessian": (
        dualvariety, "evaluate_hessian", lambda evaluate: lambda h, p: plus_one(evaluate(h, p)),
        lambda: block_decompose(AF),
        "block matrix disagrees with the Hessian at the point",
    ),
    "block_decompose": (
        dualvariety, "block_decompose",
        lambda block: lambda af: (b := block(af))._replace(a=plus_one(b.a)),
        lambda: second_order_implicit(AF),
        "implicit quadratic does not equal minus half the block",
    ),
    "dualvariety_rank_rational": (
        dualvariety, "rank_rational", lambda rank: lambda m: 0,
        lambda: rank_relation_check(F, P),
        "assembled block rank is not 2 + rank of the middle block",
    ),
    "implicit_without_lead": (
        None, None, None,
        lambda: second_order_implicit(AF._replace(f_adapted=without_lead(AF.f_adapted))),
        "implicit step is degenerate: no transverse linear term",
    ),
    "implicit_plus_x0_squared_x1": (
        None, None, None,
        lambda: second_order_implicit(AF._replace(f_adapted=AF.f_adapted + X0**2 * X1)),
        "adapted form is not flat to second order",
    ),
    "telescoping_terms": (
        bounds, "telescoping_terms", lambda terms: lambda N, r: [*terms(N, r), 1],
        lambda: corollary_threshold(4, 2),
        "binomial threshold disagrees with the telescoped sum",
    ),
    "comb_at_3_2": (
        bounds, "comb", lambda comb: lambda n, k: comb(n, k) + ((n, k) == (3, 2)),
        lambda: sym_stratum_dim(3, 1),
        "stratum recursion disagrees with the closed form",
    ),
    "bounds_rank_rational": (
        bounds, "rank_rational", lambda rank: lambda m: 0,
        lambda: veronese_witness([1, 2]),
        "outer product of a nonzero vector must have rank 1",
    ),
    "cokernel": (
        quadrics, "cokernel", lambda cokernel: lambda m: FGAbelianGroup(1),
        lambda: torsion_certificate([1], 3, 0),
        "multiplication by 2 on Z must have cokernel Z/2",
    ),
    "mat_mul": (
        linalg, "mat_mul", lambda mul: lambda a, b: [list(row) for row in plus_one(mul(a, b))],
        lambda: smith_normal_form([[2]]),
        "Smith factorization does not multiply back",
    ),
    # Reversed, the loop over diagonal positions finishes the zero block
    # at (1, 1) first, and the diagonal is read back as [0, 1].
    "reversed_range": (
        linalg, "range", lambda rng: lambda *args: reversed(rng(*args)),
        lambda: smith_normal_form([[1, 0], [0, 0]]),
        "zero precedes nonzero on Smith diagonal",
    ),
    "any_false": (
        linalg, "any", lambda _: lambda it: False,
        lambda: smith_normal_form([[2, 0], [0, 3]]),
        "Smith diagonal divisibility chain broken",
    ),
    # The division in poly has its own divmod; this shadow reaches Bareiss only.
    "divmod_remainder_one": (
        linalg, "divmod", lambda _: lambda a, b: (a // b, 1),
        lambda: rank_rational([[1, 2], [3, 4]]),
        "Bareiss division was not exact",
    ),
    "pivot_columns_zero_minor": (
        hessian, "_pivot_columns_poly",
        lambda pivots: lambda m: (pivots(m)[0], MultiPoly.zero(4)),
        lambda: ambient_rank_certificate(build_hessian(F)),
        "principal minor on the pivot columns is zero",
    ),
    # f then divides every principal minor of the packed search, the
    # ambient witness's first.
    "divides": (
        None, None, None,
        lambda: dividing_every_packed_minor(hypersurface_rank_certificate, build_hessian(F)),
        "divisibility search found no principal minor",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_internal_check_fires(case, monkeypatch):
    module, name, breaking, call, message = CASES[case]
    if module is not None:
        original = getattr(module, name, getattr(builtins, name, None))
        monkeypatch.setattr(module, name, breaking(original), raising=False)
    with pytest.raises(InternalCheckError) as caught:
        call()
    assert str(caught.value) == message


def test_failed_check_exits_three_from_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(quadrics, "cokernel", lambda m: FGAbelianGroup(1))
    code = main(["torsion", "--betti", "1", "--r", "3", "--d", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "internal check failed: multiplication by 2 on Z must have cokernel Z/2\n"
