"""Stratified nilpotent (Carnot) groups in exponential coordinates of the first kind.

A group of step r is described by its graded Lie algebra
g = V_1 (+) ... (+) V_r together with the structure tensor
b[i, j, k] = <[e_i, e_j], e_k> over a fixed graded orthonormal basis.
Everything downstream (frames, dilations, gauges, the group law) is
derived from that tensor.  Only step <= 3 is supported, where the BCH
series truncates exactly.
"""

import math

import numpy as np

__all__ = [
    "StratifiedGroup",
    "build_group",
    "frame_at",
    "frame_jacobian",
    "group_product",
    "group_inverse",
    "dilate",
    "gauge_norm",
    "metric_eps",
    "horizontal_connection",
]

MAX_STEP = 3


class GroupError(ValueError):
    pass


class StratifiedGroup:
    """A Carnot group of step <= 3 in exponential coordinates.

    Attributes:
        layer_dims: tuple of layer dimensions (m_1, ..., m_r).
        b: structure tensor, shape (N, N, N); b[i, j, k] is the e_k
           coefficient of [e_i, e_j].
    """

    def __init__(self, layer_dims, b, name="custom"):
        layer_dims = tuple(int(d) for d in layer_dims)
        if any(d <= 0 for d in layer_dims):
            raise GroupError("layer dimensions must be positive")
        if len(layer_dims) > MAX_STEP:
            raise GroupError(
                "step %d not supported (max %d)" % (len(layer_dims), MAX_STEP)
            )
        self.name = name
        self.layer_dims = layer_dims
        self.step = len(layer_dims)
        self.dim = sum(layer_dims)
        self.m = layer_dims[0]
        # homogeneous weight (layer number) of each coordinate, 1-based layers
        w = []
        for j, d in enumerate(layer_dims, start=1):
            w.extend([j] * d)
        self.weights = np.array(w, dtype=float)
        self.Q = int(round(self.weights.sum()))
        self.b = np.asarray(b, dtype=float)
        self.is_heisenberg = False
        if self.b.shape != (self.dim,) * 3:
            raise GroupError("structure tensor has wrong shape")
        self._validate()
        # ad(e_i) as a matrix acting on coefficient vectors:
        # (_ad_basis[i])[k, j] = <[e_i, e_j], e_k>
        self._ad_basis = np.array([self.b[i].T for i in range(self.dim)])
        # the basis vectors with a nonzero bracket, which alone enter ad_g
        self._ad_terms = [(i, a) for i, a in enumerate(self._ad_basis)
                          if a.any()]
        nz = self._ad_basis.any(axis=0)  # the entries ad_g can fill
        self._ad_inner = np.flatnonzero(nz.any(0) & nz.any(1)).tolist()

    def _validate(self):
        b = self.b
        skew = b + np.swapaxes(b, 0, 1)
        if np.max(np.abs(skew)) != 0.0:
            raise GroupError("structure tensor is not skew-symmetric")
        w = self.weights
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if b[i, j, k] != 0.0 and w[k] != w[i] + w[j]:
                        raise GroupError(
                            "bracket [e%d,e%d] hits e%d, violating the grading"
                            % (i + 1, j + 1, k + 1)
                        )
        # Jacobi identity (cheap at these dimensions).
        jac = (
            np.einsum("ijm,mkl->ijkl", b, b)
            + np.einsum("jkm,mil->ijkl", b, b)
            + np.einsum("kim,mjl->ijkl", b, b)
        )
        if np.max(np.abs(jac)) > 1e-12:
            raise GroupError("structure constants violate the Jacobi identity")

    # -- layer bookkeeping -------------------------------------------------

    def layer_slice(self, j):
        """Coordinate slice of layer j (1-based)."""
        lo = sum(self.layer_dims[: j - 1])
        return slice(lo, lo + self.layer_dims[j - 1])

    def b_horizontal(self, s):
        """Matrix b^s_{ij} over horizontal i, j for the s-th layer-2 direction."""
        m = self.m
        return self.b[:m, :m, m + s]

    def ad(self, g):
        """Matrix of ad_g acting on coefficient vectors: ad(g) @ v = [g, v].

        g may carry leading point axes, (n, dim) giving (n, dim, dim).
        """
        g = np.asarray(g, dtype=float)
        M = np.zeros(g.shape[:-1] + (self.dim, self.dim))
        for i, a in self._ad_terms:
            M += g[..., i, None, None] * a
        return M

    def bracket(self, u, v):
        return np.einsum("i,j,ijk->k", u, v, self.b)

    def __repr__(self):
        return "StratifiedGroup(%r, layers=%r)" % (self.name, self.layer_dims)


# ---------------------------------------------------------------------------
# presets


def _heisenberg(n):
    dim = 2 * n + 1
    b = np.zeros((dim, dim, dim))
    for i in range(n):
        b[i, n + i, 2 * n] = 1.0
        b[n + i, i, 2 * n] = -1.0
    G = StratifiedGroup((2 * n, 1), b, name="h%d" % n)
    G.is_heisenberg = True
    return G


def _engel():
    # [e1, e2] = e3, [e1, e3] = e4
    b = np.zeros((4, 4, 4))
    b[0, 1, 2], b[1, 0, 2] = 1.0, -1.0
    b[0, 2, 3], b[2, 0, 3] = 1.0, -1.0
    return StratifiedGroup((2, 1, 1), b, name="engel")


def build_group(spec):
    """Build a group from a preset id ("h1", "hn:<n>", "engel") or a dict.

    Custom dicts look like
        {"layer_dims": [2, 1],
         "brackets": [{"i": 1, "j": 2, "layer": 2, "index": 1, "value": 1.0}]}
    with 1-based basis indices i, j and 1-based (layer, index) target.
    """
    if isinstance(spec, StratifiedGroup):
        return spec
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s == "h1":
            return _heisenberg(1)
        if s.startswith("hn:"):
            n = int(s.split(":", 1)[1])
            if n < 1:
                raise GroupError("need n >= 1 in 'hn:<n>'")
            return _heisenberg(n)
        if s == "engel":
            return _engel()
        raise GroupError("unknown group id %r" % spec)
    if isinstance(spec, dict):
        layer_dims = spec["layer_dims"]
        dim = int(sum(layer_dims))
        offsets = np.cumsum([0] + list(layer_dims))
        b = np.zeros((dim, dim, dim))
        for entry in spec.get("brackets", ()):
            i = int(entry["i"]) - 1
            j = int(entry["j"]) - 1
            layer = int(entry["layer"])
            k = offsets[layer - 1] + int(entry["index"]) - 1
            val = float(entry["value"])
            b[i, j, k] += val
            b[j, i, k] -= val
        return StratifiedGroup(layer_dims, b, name=spec.get("name", "custom"))
    raise GroupError("cannot build a group from %r" % (spec,))


# ---------------------------------------------------------------------------
# frames and the group law


def _dot(a, b):
    """sum_k a[..., k] b[..., k], broadcasting the leading axes.  Each sum
    runs in one fixed order, not through BLAS or einsum, so a point's value
    does not depend on how many points are stacked with it."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def _ad_matmul(G, a, b):
    """a @ b over the last two axes for ad matrices of G, summed as _dot
    sums over G._ad_inner only: the other terms are exact zeros."""
    return sum((a[..., :, k, None] * b[..., None, k, :]
                for k in G._ad_inner), 0.0)


def frame_at(G, g):
    """Left-invariant frame at g, as a matrix whose columns are the frame
    vectors (X_1..X_m, then the vertical layers) in coordinate components.

    In exponential coordinates of the first kind the frame is
    A(g) = I + ad_g/2 + ad_g^2/12, exact for step <= 3.  g may be one point
    (dim,) or a batch (n, dim), giving (n, dim, dim).
    """
    g = np.asarray(g, dtype=float)
    M = G.ad(g)
    A = np.eye(G.dim) + 0.5 * M
    if G.step >= 3:
        A += _ad_matmul(G, M, M) / 12.0
    return A


def frame_jacobian(G, g):
    """d(frame)/d(coordinates): tensor J with J[i] = d A / d g_i; a batch
    g (n, dim) gives (n, dim, dim, dim) with J[k, i] the i-th one at g[k]."""
    g = np.asarray(g, dtype=float)
    B = G._ad_basis
    J = np.multiply(0.5, B, out=np.empty(g.shape[:-1] + B.shape))
    if G.step >= 3:
        M = G.ad(g)[..., None, :, :]
        J = J + (_ad_matmul(G, B, M) + _ad_matmul(G, M, B)) / 12.0
    return J


def group_product(G, g, h):
    """Group law via the (exactly truncated) BCH series, step <= 3."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    out = g + h + 0.5 * G.bracket(g, h)
    if G.step >= 3:
        gh = G.bracket(g, h)
        out = out + (G.bracket(g, gh) - G.bracket(h, gh)) / 12.0
    return out


def group_inverse(G, g):
    return -np.asarray(g, dtype=float)


def _dilation_factor(lam):
    """lam as a float; GroupError unless lam > 0 (so not NaN)."""
    lam = float(lam)
    if not lam > 0:
        raise GroupError("dilation factor must be positive, not %r" % lam)
    return lam


def dilate(G, lam, g):
    """Anisotropic dilation: layer j scales by lam**j."""
    lam = _dilation_factor(lam)
    g = np.asarray(g, dtype=float)
    return g * lam ** G.weights


def gauge_norm(G, g):
    """Homogeneous gauge.

    For Heisenberg groups this is ((|x|^2+|y|^2)^2 + 16 t^2)^(1/4);
    otherwise the generic (sum_j |xi_j|^(2 r!/j))^(1/(2 r!)).
    """
    g = np.asarray(g, dtype=float)
    if G.is_heisenberg:
        z2 = np.sum(g[..., : G.m] ** 2, axis=-1)
        t = g[..., G.m]
        return (z2 ** 2 + 16.0 * t ** 2) ** 0.25
    rfact = math.factorial(G.step)
    acc = 0.0
    for j in range(1, G.step + 1):
        block = g[..., G.layer_slice(j)]
        nj = np.sqrt(np.sum(block ** 2, axis=-1))
        acc = acc + nj ** (2.0 * rfact / j)
    return acc ** (1.0 / (2.0 * rfact))


def metric_eps(G, g, eps):
    """Riemannian approximating metric on a Heisenberg group.

    Returns (matrix, inverse, det) of the metric that keeps X_1..X_2n
    orthonormal and blows the vertical direction up to |T|^2 = 1/eps.
    det is exactly eps**-1 (the frame is unimodular).
    """
    if not G.is_heisenberg:
        raise GroupError("metric_eps is defined for the Heisenberg presets")
    if eps <= 0:
        raise GroupError("eps must be positive")
    A = frame_at(G, g)
    # step 2: ad_g^2 = 0, so the exact inverse frame is I - ad_g/2
    Ainv = 2.0 * np.eye(G.dim) - A
    d = np.ones(G.dim)
    d[-1] = 1.0 / eps
    matrix = Ainv.T @ (d[:, None] * Ainv)
    dinv = np.ones(G.dim)
    dinv[-1] = eps
    inverse = A @ (dinv[:, None] * A.T)
    return matrix, inverse, 1.0 / eps


def horizontal_connection(G, kind, i, j):
    """Horizontal-connection coefficient tables over the frame.

    kind="XX": horizontal covariant derivative of one horizontal frame
    field along another.  The Levi-Civita derivative is purely vertical,
    (1/2) sum_s b^s_{ij} T_s, so its horizontal projection vanishes and the
    returned X-coefficient vector (length m) is zero.

    kind="XT": horizontal derivative of a vertical frame field,
    nabla^H_{X_i} T_s = -(1/2) sum_j b^s_{ij} X_j; here j is the layer-2
    index s, and the returned vector (length m) holds the X-coefficients.

    Indices are 1-based, matching the basis labels.
    """
    m, k = G.m, G.layer_dims[1] if G.step >= 2 else 0
    if kind == "XX":
        if not (1 <= i <= m and 1 <= j <= m):
            raise GroupError("XX indices must be horizontal")
        return np.zeros(m)
    if kind == "XT":
        s = j
        if not (1 <= i <= m and 1 <= s <= k):
            raise GroupError("XT wants a horizontal index and a layer-2 index")
        return np.array([-0.5 * G.b_horizontal(s - 1)[i - 1, jj] for jj in range(m)])
    raise GroupError("kind must be 'XX' or 'XT'")
