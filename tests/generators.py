"""Polytopes and polynomials that several test modules build.

``product_spec`` multiplies specs, ``blow_up`` cuts vertices off a
dilate, and ``random_poly`` draws a small rational polynomial from a
seeded ``random.Random``.
"""

from fractions import Fraction

from delzant.polynomial import MultiPoly
from delzant.polytope import HalfSpaceSpec
from subset_reference import subset_charts


def product_spec(*factors):
    """P x Q x ...: each factor's facets, padded with zeros to the full dimension."""
    dim = sum(f.dim for f in factors)
    facets, shift = [], 0
    for f in factors:
        for normal, offset in f.facets:
            facets.append(((0,) * shift + normal + (0,) * (dim - shift - f.dim), offset))
        shift += f.dim
    return HalfSpaceSpec(dim, facets)


def blow_up(spec, cuts):
    """``spec`` dilated by 3, with the vertices ``cuts`` (indices into its
    sorted vertices, those past the end ignored) cut off one lattice step deep.

    At a Delzant vertex v on facets A, the facet sum_A n_a . x <= sum_A n_a . v - 1
    meets each edge of v one step from v.  Every edge of the dilate is at
    least 3 steps long, so the cuts leave a simple Delzant polytope.
    """
    big = spec.dilate(3)
    charts = subset_charts(big.normals(), big.offsets())
    facets = [*big.facets]
    for k in sorted(k for k in cuts if k < len(charts)):
        active, vertex = charts[k].active_set, charts[k].anchor_ints()
        normal = tuple(map(sum, zip(*(big.facets[a].normal for a in active))))
        facets.append((normal, sum(n * x for n, x in zip(normal, vertex)) - 1))
    return HalfSpaceSpec(spec.dim, facets)


def random_poly(rng, nvars=3, max_exp=2, terms=4):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out[exps] = out.get(exps, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 4)
        )
    return MultiPoly(nvars, out)
