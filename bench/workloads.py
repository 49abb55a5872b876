"""Seeded inputs and the CLI cases of each benchmark workload.

Every input is drawn from one numpy generator seeded by --seed, so a seed
fixes the exact argument lists the program receives.  The generator checks
its own draws against closed forms that do not go through carnot_calc: the
surface must stay non-characteristic on its domain, and each deformation
bump must keep its support inside the patch with a margin (the analytic
first variation assumes compact support).
"""

import json
from collections import namedtuple

import numpy as np

# Default patch domain of every "t-graph:..." id in the surface catalog;
# run.py checks that the built surface really uses it.
DOMAIN = (0.5, 1.5, 0.5, 1.5)
CUBIC_MAX = 0.1          # |c| of each seeded cubic term
W_FLOOR = 1.0            # smallest |horizontal normal| accepted on DOMAIN
BUMP_MARGIN = 0.1        # gap between a bump support and the domain edge
BUMP_RADII = (0.15, 0.3)
LAM_RANGE = (1.2, 2.5)
RANDOM_COUNT = 64
STABILITY_SURFACE = "xyt-graph"

Inputs = namedtuple("Inputs", "surface terms field bumps lam family")
Case = namedtuple("Case", "name argv")


def _rng(seed):
    return np.random.default_rng(int(seed) % 2 ** 64)


def horizontal_normal_min(terms, domain=DOMAIN, n=101):
    """min over the domain of |(h_x + y/2, h_y - x/2)| for t = h(x, y).

    This is |(X1 phi, X2 phi)| for phi = t - h with the H^1 frame
    X1 = d_x - y/2 d_t, X2 = d_y + x/2 d_t; the t-graph is characteristic
    exactly where it vanishes.
    """
    u0, u1, v0, v1 = domain
    x, y = np.meshgrid(np.linspace(u0, u1, n), np.linspace(v0, v1, n),
                       indexing="ij")
    hx = np.zeros_like(x)
    hy = np.zeros_like(x)
    for c, (i, j) in terms:
        if i:
            hx += c * i * x ** (i - 1) * y ** j
        if j:
            hy += c * j * x ** i * y ** (j - 1)
    return float(np.min(np.hypot(hx + 0.5 * y, hy - 0.5 * x)))


def _draw_surface(rng):
    """The parabola t = x^2 + y^2 plus four seeded cubic terms."""
    while True:
        cs = np.round(rng.uniform(-CUBIC_MAX, CUBIC_MAX, size=4), 4)
        terms = [[1.0, [2, 0]], [1.0, [0, 2]]] + \
            [[float(c), [3 - k, k]] for k, c in enumerate(cs)]
        if horizontal_normal_min(terms) >= W_FLOOR:
            return terms


def bump_margin(bump, domain=DOMAIN):
    """Distance from the support ellipse of bump (cu, cv, ru, rv) to the
    domain edge; negative when the support leaves the domain."""
    cu, cv, ru, rv = bump
    u0, u1, v0, v1 = domain
    return min(cu - ru - u0, u1 - cu - ru, cv - rv - v0, v1 - cv - rv)


def _draw_bump(rng):
    u0, u1, v0, v1 = DOMAIN
    ru, rv = rng.uniform(*BUMP_RADII, size=2)
    cu = rng.uniform(u0 + BUMP_MARGIN + ru, u1 - BUMP_MARGIN - ru)
    cv = rng.uniform(v0 + BUMP_MARGIN + rv, v1 - BUMP_MARGIN - rv)
    # rounding moves an edge by at most 1e-4, far inside the margin
    return tuple(float(z) for z in np.round((cu, cv, ru, rv), 4))


def generate(seed):
    """All seeded inputs: surface, deformation field, dilation factor and
    random stability family."""
    rng = _rng(seed)
    terms = _draw_surface(rng)
    bumps = tuple(_draw_bump(rng) for _ in range(3))
    field = json.dumps({key: "bump:%r,%r,%r,%r" % b
                        for key, b in zip("abk", bumps)})
    lam = float(np.round(rng.uniform(*LAM_RANGE), 3))
    family = "random:%d,%d" % (RANDOM_COUNT, rng.integers(0, 2 ** 31))
    surface = "t-graph:poly:" + json.dumps(terms, separators=(",", ":"))
    return Inputs(surface, terms, field, bumps, lam, family)


def _measure(surface, quantity, grid, *extra):
    return ["measure", "--surface", surface, "--quantity", quantity,
            "--grid", str(grid)] + list(extra)


def _variation(inp, mode, grid):
    return ["variation", "--surface", inp.surface, "--mode", mode,
            "--grid", str(grid), "--field", inp.field]


def _stability(family=None):
    argv = ["stability", "--surface", STABILITY_SURFACE, "--grid", "96"]
    return argv + (["--family", family] if family else [])


def quadrature(inp):
    return [
        Case("perimeter", _measure(inp.surface, "perimeter", 512)),
        Case("scaling", _measure(inp.surface, "scaling", 256,
                                 "--lam", repr(inp.lam))),
        Case("eps_area", _measure(inp.surface, "eps-area", 256)),
        Case("v1", _variation(inp, "v1", 256)),
        Case("v2_full", _variation(inp, "v2-full", 256)),
        Case("numeric2", _variation(inp, "numeric:2", 128)),
    ]


def pointwise(inp):
    return [
        Case("curvature", ["curvature", "--surface", inp.surface,
                           "--points", "4096"]),
        Case("identities", ["identities", "--surface", inp.surface,
                            "--points", "9"]),
        Case("flow_check", ["flow-check", "--surface", inp.surface,
                            "--points", "49"]),
    ]


def stability(inp):
    return [
        Case("stability_lattice", _stability()),
        Case("stability_random", _stability(inp.family)),
    ]


WORKLOADS = {"quadrature": quadrature, "pointwise": pointwise,
             "stability": stability}


def cases(workload, seed):
    inp = generate(seed)
    return inp, WORKLOADS[workload](inp)


def reference_cases(workload, inp):
    """Untimed runs that give the output checks an independent route.

    The analytic and numeric variations are compared on one grid each,
    since their quadrature errors differ (numeric:1 converges slowest, so
    it runs at 512).
    """
    if workload == "quadrature":
        return [Case("numeric1_512", _variation(inp, "numeric:1", 512)),
                Case("numeric2_256", _variation(inp, "numeric:2", 256)),
                Case("v2_full_128", _variation(inp, "v2-full", 128))]
    return []


def surfaces_used(case_list):
    return sorted({c.argv[c.argv.index("--surface") + 1] for c in case_list})
