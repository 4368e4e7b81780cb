"""Adaptive cubature on boxes in one to four dimensions.

Rules
-----
* d = 1: the classical 7/15 Gauss-Kronrod pair.  The 15-point Kronrod rule
  (degree 22) is the estimate, the embedded 7-point Gauss rule (degree 13)
  drives the error heuristic, with the usual rescaling by the deviation
  integral so the heuristic is scale invariant.
* d in {2, 3, 4}: the Genz-Malik fully symmetric degree-7 rule with its
  embedded degree-5 companion.  Point count per cell: 17 (d=2), 33 (d=3),
  57 (d=4).  The cell is split along the coordinate axis with the largest
  fourth divided difference, measured from the rule's own axis points.
  The error of a cell made by a split comes from four null rules on the
  same points (Berntsen & Espelid, ACM TOMS 17, 1991): N1 = w_hi - w_lo
  of degree 5, N2 and N3 of degree 3 and N4 of degree 1.  Their scaled
  sums are E1 = |N1 f|, E2 = |(N2 f, N3 f)| and E3 = |N4 f|.  When they
  decay, r = max(E1/E2, E2/E3) <= 1 and the estimate shrinks from
  |I7 - I5| to 10 r E1 if that is smaller; otherwise it stays |I7 - I5|.
  Two guards keep a shrunk estimate honest.  The first cell has no
  parent and reports |I7 - I5|.  A child reports at least an eighth of
  how far the split moved its parent's value, capped at its own
  |I7 - I5|, so a feature that every null rule misses still shows.  No
  estimate exceeds |I7 - I5| with its roundoff floor.

Adaptivity is global and batched, as in DCUHRE (Berntsen, Espelid & Genz,
ACM TOMS 17, 1991).  Cells live in growable arrays indexed by creation id
(center, half-width, value, error, priority roundoff and split axis); a
queue hands out the worst cells first, and the children of a round are
built and evaluated in one vectorized step.  Each round is sized by the
error excess: it takes the worst cells until their errors sum to the share
``_EXCESS_SHARE`` of ``run_err - tol``, at least ``_BATCH[d]`` cells and at
most ``_ROUND_POINTS`` new sample points.  Past ``_BATCH[d]`` cells a round
also stays within the evaluation budget left, so a run that uses up its
budget ends at most ``2 * _BATCH[d] * npts`` evaluations over it.  A round
goes on through near ties of its last cell (equal priority and roundoff up
to summation order), so mirror-image twins split together and
cancellations by reflection survive to roundoff.  The rule reads only the
running totals, the tolerance and the queued cells, so it is
deterministic.  The priority is the cell's error contribution.  A cell
too thin to bisect in floating point is frozen: it keeps its estimate and
leaves the queue, and refinement goes on with the remaining cells.
Running out of budget is an expected outcome, not an exception: the result
is returned with ``converged=False``.

Integrands are vectorized: ``f(points)`` receives an array of shape
``(n, d)`` (also for d = 1) and must return shape ``(n,)``, real or
complex.  Cell evaluations are pure and independent; the final value is
re-summed over live cells in creation order, then frozen cells in the
order they froze, so the reported number does not depend on the layout of
the queue.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import NonFiniteSample

__all__ = ["QuadResult", "QuadSpec", "combine", "integrate", "integrate_mc",
           "rule_pair"]

Integrand = Callable[[np.ndarray], np.ndarray]

_EPS = float(np.finfo(float).eps)

# Refinement round sizing (see the module docstring), fixed so runs are
# reproducible: least cells per round, share of the error excess a round
# covers, most new sample points per round, relative tie tolerance of the
# roundoff.  Share and cap come from a scan over the benchmark's cubature
# calls, recorded in CHANGES.md.
_BATCH = {1: 64, 2: 32, 3: 16, 4: 16}
_EXCESS_SHARE = 0.5
_ROUND_POINTS = 1 << 14
_TIE = 1e-12
# The queue keeps this many of the largest rounds' cells sorted.
_HEAD_ROUNDS = 16


@dataclass(frozen=True)
class QuadResult:
    """Value and error of one cubature, with :func:`integrate`'s telemetry:
    refinement ``rounds``, ``leaves`` (live cells at the end) and
    ``frozen`` cells (too thin to bisect).  Other producers leave them 0.
    A result assembled from named sub-results keeps them in ``pieces``;
    :meth:`scaled` and :func:`combine` leave it empty."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool
    rounds: int = 0
    leaves: int = 0
    frozen: int = 0
    pieces: Dict[str, QuadResult] = field(default_factory=dict, hash=False)

    def scaled(self, k: complex) -> "QuadResult":
        """This result times the constant ``k``: value k v, error |k| e."""
        return replace(self, value=k * self.value,
                       error_estimate=abs(k) * self.error_estimate, pieces={})


def combine(*rs: QuadResult) -> QuadResult:
    """Sum of results, added left to right: values, errors, evaluations and
    telemetry add up, and the sum converged only if every term did."""
    first, *rest = rs
    value, err, evals = first.value, first.error_estimate, first.evaluations
    rounds, leaves, frozen = first.rounds, first.leaves, first.frozen
    for r in rest:
        value += r.value
        err += r.error_estimate
        evals += r.evaluations
        rounds += r.rounds
        leaves += r.leaves
        frozen += r.frozen
    return QuadResult(value=value, error_estimate=err, evaluations=evals,
                      converged=all(r.converged for r in rs), rounds=rounds,
                      leaves=leaves, frozen=frozen)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and evaluation budget for :func:`integrate`.

    Either tolerance may be zero (disabled) but not both, and both must
    be finite.  The budget is a positive integer.
    """

    abs_tol: float = 0.0
    rel_tol: float = 1e-8
    max_evaluations: int = 10_000_000

    def __post_init__(self) -> None:
        if not all(0 <= t < math.inf for t in (self.abs_tol, self.rel_tol)):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")
        if (not isinstance(self.max_evaluations, numbers.Integral)
                or isinstance(self.max_evaluations, bool)
                or self.max_evaluations < 1):
            raise ValueError("max_evaluations must be a positive integer")


# ---------------------------------------------------------------------------
# Rule tables
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15 on [0, 1]: (abscissa, Kronrod weight, Gauss weight),
# mirrored to [-1, 1] by ``_gauss_kronrod``; Gauss weight 0 marks
# Kronrod-only nodes.  QUADPACK's dqk15 constants.
_GK_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144838258730, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.0, 0.209482141084727828012999174891714,
     0.417959183673469387755102040816327),
)


class _Rule(NamedTuple):
    """A symmetric rule pair on the reference cell [-1, 1]^d.

    ``points``: (npts, d); ``w_hi``/``w_lo``: weights normalized so the
    rule returns the *mean* of the integrand (multiply by cell volume).
    ``axis_idx[:, i]`` holds the point indices used for the fourth divided
    difference along axis i (inner pair then outer pair); unused in 1D.
    ``null``: (npts, 4) null rules N1..N4 for the error estimate, each of
    norm ``|w_hi|``; (npts, 0) in 1D.
    """

    d: int
    points: np.ndarray
    w_hi: np.ndarray
    w_lo: np.ndarray
    w_abs: np.ndarray
    axis_idx: np.ndarray
    dd_ratio: float
    null: np.ndarray

    @property
    def npts(self) -> int:
        return len(self.points)


def _gauss_kronrod() -> _Rule:
    half = np.array(_GK_HALF).T
    x, wk, wg = np.concatenate((half[:, :-1], half[:, ::-1]), axis=1)
    x[:len(_GK_HALF) - 1] *= -1.0
    # Sum of Kronrod weights on [-1,1] is 2: halve for mean form.
    w_hi = wk / 2.0
    return _Rule(d=1, points=x[:, None],
                 w_hi=w_hi, w_lo=wg / 2.0, w_abs=np.abs(w_hi),
                 axis_idx=np.zeros((4, 0), dtype=np.intp), dd_ratio=0.0,
                 null=np.zeros((len(x), 0)))


def _genz_malik(d: int) -> _Rule:
    l2 = math.sqrt(9.0 / 70.0)
    l3 = math.sqrt(9.0 / 10.0)
    l4 = l3
    l5 = math.sqrt(9.0 / 19.0)
    pts = [np.zeros(d)]
    w7 = [(12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0]
    w5 = [(729.0 - 950.0 * d + 50.0 * d * d) / 729.0]
    # Orbit of each point under the cube's symmetries: centre, the two
    # axis-point orbits, the (l4, l4) pairs and the corners.
    orbit = [0]
    axis_idx = [[] for _ in range(d)]
    for o, lam, a7, a5 in ((1, l2, 980.0 / 6561.0, 245.0 / 486.0),
                           (2, l3, (1820.0 - 400.0 * d) / 19683.0,
                            (265.0 - 100.0 * d) / 1458.0)):
        for i in range(d):
            axis_idx[i] += [len(pts), len(pts) + 1]
            for s in (+1.0, -1.0):
                p = np.zeros(d)
                p[i] = s * lam
                pts.append(p)
                w7.append(a7)
                w5.append(a5)
                orbit.append(o)
    for i in range(d):
        for j in range(i + 1, d):
            for si in (+1.0, -1.0):
                for sj in (+1.0, -1.0):
                    p = np.zeros(d)
                    p[i] = si * l4
                    p[j] = sj * l4
                    pts.append(p)
                    w7.append(200.0 / 19683.0)
                    w5.append(25.0 / 729.0)
                    orbit.append(3)
    for corner in itertools.product((+1.0, -1.0), repeat=d):
        pts.append(l5 * np.array(corner))
        w7.append(6859.0 / 19683.0 / 2.0 ** d)
        w5.append(0.0)
        orbit.append(4)
    points, w_hi, w_lo = np.array(pts), np.array(w7), np.array(w5)
    return _Rule(d=d, points=points, w_hi=w_hi, w_lo=w_lo,
                 w_abs=np.abs(w_hi),
                 axis_idx=np.array(axis_idx, dtype=np.intp).T,
                 dd_ratio=(l2 / l3) ** 2,
                 null=_null_rules(points, np.array(orbit), w_hi, w_lo))


def _null_rules(points: np.ndarray, orbit: np.ndarray, w_hi: np.ndarray,
                w_lo: np.ndarray) -> np.ndarray:
    """Four orthogonal fully symmetric null rules, as (npts, 4) columns.

    A null rule of degree k sums every monomial of degree <= k to zero.
    Over the five orbits, odd monomials vanish by symmetry, and the even
    ones 1, x^2 (degree 1 and 3) and x^4, x^2 y^2 (degree 5) leave null
    spaces of dimension 4, 3 and 1.  N1 = w_hi - w_lo spans the last; N2
    and N3 complete the degree-3 space, N4 the degree-1 space.  Each is
    scaled to the norm of ``w_hi``.
    """
    sym = (orbit[:, None] == np.arange(5)).astype(float)
    sym /= np.sqrt(sym.sum(axis=0))  # orthonormal fully symmetric basis
    x2 = points[:, 0] ** 2
    # A complete QR extends (1, x^2, N1) to an orthonormal basis of the
    # symmetric weights: column 1 is x^2 less its constant part (N4), and
    # columns 3 and 4 are orthogonal to 1, x^2 and N1 (N2, N3).
    q = np.linalg.qr(sym.T @ np.column_stack((np.ones_like(x2), x2, w_hi - w_lo)),
                     mode="complete")[0]
    return np.linalg.norm(w_hi) * (sym @ q[:, [2, 3, 4, 1]])


_RULES = {1: _gauss_kronrod(), **{d: _genz_malik(d) for d in (2, 3, 4)}}


def _check_box(box: Sequence[Sequence[float]]) -> np.ndarray:
    b = np.asarray(box, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("box must be a sequence of (lo, hi) pairs")
    if b.shape[0] not in (1, 2, 3, 4):
        raise ValueError("dimension must be 1..4")
    if not np.all(np.isfinite(b)) or not np.all(b[:, 0] < b[:, 1]):
        raise ValueError("box must have finite lo < hi per axis")
    return b


def _eval_cells(
    f: Integrand,
    rule: _Rule,
    centers: np.ndarray,
    halves: np.ndarray,
    parent: np.ndarray | None = None,
):
    """Apply the rule pair to a batch of cells.

    ``parent`` holds the values of the split cells whose children these
    are, in consecutive pairs; without it (the first cell) the error is
    |hi - lo|.  Returns per-cell high/low estimates, error, the error's
    roundoff floor and split axis, plus the raw sample count.
    """
    m = centers.shape[0]
    # Built coordinate by coordinate, so each column of ``flat`` is contiguous.
    pts = np.empty((rule.d, m, rule.npts))
    for i in range(rule.d):
        np.multiply(halves[:, i, None], rule.points[:, i], out=pts[i])
        pts[i] += centers[:, i, None]
    flat = pts.reshape(rule.d, m * rule.npts).T
    vals = np.asarray(f(flat))
    if vals.shape != (m * rule.npts,):
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {(m * rule.npts,)}"
        )
    if not np.isfinite(vals).all():
        raise NonFiniteSample("integrand returned a non-finite sample")
    v = vals.reshape(m, rule.npts)
    vol = np.prod(2.0 * halves, axis=1)
    mean_hi = v @ rule.w_hi
    hi = vol * mean_hi
    lo = vol * (v @ rule.w_lo)
    resabs = vol * (np.abs(v) @ rule.w_abs)
    err = np.abs(hi - lo)
    if rule.d == 1:
        # QUADPACK rescaling: compare the raw gap to the deviation
        # integral so the 200-power heuristic is scale free.
        resasc = vol * (np.abs(v - mean_hi[:, None]) @ rule.w_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                (resasc > 0) & (err > 0),
                np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                1.0,
            )
        err = np.where((resasc > 0) & (err > 0), resasc * scale, err)
        split_axis = np.zeros(m, dtype=int)
    else:
        p2, m2, p3, m3 = v[:, rule.axis_idx].transpose(1, 0, 2)
        v0 = 2.0 * v[:, :1]
        dd = np.abs(p2 + m2 - v0 - rule.dd_ratio * (p3 + m3 - v0))
        split_axis = np.argmax(dd, axis=1)
        if parent is not None:
            err = _null_error(rule, v, vol, err, hi, parent)
    # Roundoff floor keeps symmetric cancellations honest: a cell whose
    # signed sum vanishes still carries summation noise ~ eps * int |f|.
    noise = 50.0 * _EPS * resabs
    err = np.maximum(err, noise)
    return hi, lo, err, noise, split_axis, m * rule.npts


def _null_error(rule: _Rule, v: np.ndarray, vol: np.ndarray, err: np.ndarray,
                hi: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Null-rule error of split children (see the module docstring),
    never above ``err = |hi - lo|``."""
    e1, e2a, e2b, e3 = vol * np.abs(v @ rule.null).T
    e2 = np.hypot(e2a, e2b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # r is NaN or infinite where a sum vanishes: such a cell keeps err.
        r = np.maximum(e1 / e2, e2 / e3)
        est = np.where(r <= 1.0, np.minimum(err, 10.0 * r * e1), err)
    moved = np.repeat(np.abs(parent - hi.reshape(-1, 2).sum(axis=1)), 2)
    return np.maximum(est, np.minimum(err, moved / 8.0))


def rule_pair(f: Integrand, box: Sequence[Sequence[float]]):
    """One application of the embedded rule pair on ``box``, no subdivision.

    Returns ``(value, embedded_value, error_estimate, evaluations)``.
    Exposed so the rule's polynomial exactness can be tested directly.
    """
    b = _check_box(box)
    rule = _RULES[b.shape[0]]
    centers = ((b[:, 0] + b[:, 1]) / 2.0)[None, :]
    halves = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
    hi, lo, err, _, _, n = _eval_cells(f, rule, centers, halves)
    return hi[0], lo[0], float(err[0]), n


class _Queue:
    """Live cell ids, worst first: priority descending, ties by creation id.

    Only a head of the worst cells is kept sorted, by ``key = -priority``.
    Every other live cell waits unsorted in ``rest`` with a key above
    ``bound``, and so behind every head cell, until a refill needs it.  A
    round therefore costs one merge into the head, not one heap operation
    per cell.
    """

    def __init__(self, size: int):
        self.size = size  # head length a refill aims for
        self.head_id = np.empty(0, np.intp)
        self.head_key = np.empty(0)
        self.rest_id = np.empty(0, np.intp)
        self.rest_key = np.empty(0)
        self.n_rest = 0
        self.bound = math.inf

    def __len__(self) -> int:
        return len(self.head_id) + self.n_rest

    def push(self, ids: np.ndarray, pri: np.ndarray) -> None:
        """Add cells, in id order, whose ids exceed every id already queued."""
        key = -pri
        wait = key > self.bound
        if wait.any():
            self._stash(ids[wait], key[wait])
            ids, key = ids[~wait], key[~wait]
        # A stable sort keeps equal keys in id order: the head's ids are in
        # order within ties already, and all precede the new ones.
        key = np.concatenate((self.head_key, key))
        order = np.argsort(key, kind="stable")
        self.head_id = np.concatenate((self.head_id, ids))[order]
        self.head_key = key[order]
        if len(self.head_key) > 2 * self.size:
            # Keep ties with the last kept key in the head.
            cut = int(np.searchsorted(self.head_key, self.head_key[self.size - 1],
                                      side="right"))
            self._stash(self.head_id[cut:], self.head_key[cut:])
            self.bound = float(self.head_key[cut - 1])
            self.head_id, self.head_key = self.head_id[:cut], self.head_key[:cut]

    def _stash(self, ids: np.ndarray, key: np.ndarray) -> None:
        n = self.n_rest + len(ids)
        if n > len(self.rest_id):
            grown_id, grown_key = np.empty(2 * n, np.intp), np.empty(2 * n)
            grown_id[:self.n_rest] = self.rest_id[:self.n_rest]
            grown_key[:self.n_rest] = self.rest_key[:self.n_rest]
            self.rest_id, self.rest_key = grown_id, grown_key
        self.rest_id[self.n_rest:n], self.rest_key[self.n_rest:n] = ids, key
        self.n_rest = n

    def top(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and priorities of the ``k`` worst cells (fewer if fewer live)."""
        if len(self.head_id) < k and self.n_rest:
            ids = np.concatenate((self.head_id, self.rest_id[:self.n_rest]))
            key = np.concatenate((self.head_key, self.rest_key[:self.n_rest]))
            keep = max(k, self.size)
            self.n_rest = 0
            if len(ids) > keep:
                self.bound = float(np.partition(key, keep - 1)[keep - 1])
                wait = key > self.bound
                self._stash(ids[wait], key[wait])
                ids, key = ids[~wait], key[~wait]
            else:
                self.bound = math.inf
            order = np.lexsort((ids, key))
            self.head_id, self.head_key = ids[order], key[order]
        return self.head_id[:k], -self.head_key[:k]

    def drop(self, k: int) -> None:
        """Remove the ``k`` worst cells."""
        self.head_id, self.head_key = self.head_id[k:], self.head_key[k:]

    def ids(self) -> np.ndarray:
        """Every queued id, in creation order."""
        return np.sort(np.concatenate((self.head_id, self.rest_id[:self.n_rest])))


def _round_size(pri: np.ndarray, err: np.ndarray, noise: np.ndarray,
                least: int, most: int, target: float) -> int:
    """Cells to split this round, given the worst-first priorities, errors
    and priority roundoff of at least ``most + 1`` cells (or every live one).

    The worst cells whose errors first sum to ``target``, clamped to
    ``[least, most]``, then each next cell that is a mirror image of the
    previous one, up to ``most``.  Twins differ only by summation order,
    which ``|hi - lo|`` can magnify beyond any fixed relative tolerance, but
    their roundoff, a sum of ``|f|``, cannot.  So a twin has a priority
    within the previous cell's roundoff, and a roundoff equal to it within
    ``_TIE`` relative.
    """
    count = min(max(least, int(np.searchsorted(np.cumsum(err), target)) + 1),
                most, len(pri))
    last, nxt = slice(count - 1, -1), slice(count, None)
    ties = ((pri[last] - pri[nxt] <= noise[last])
            & (np.abs(noise[last] - noise[nxt]) <= _TIE * noise[last]))
    return min(count + int(np.argmin(ties) if not ties.all() else len(ties)),
               most)


def integrate(
    f: Integrand, box: Sequence[Sequence[float]], spec: QuadSpec
) -> QuadResult:
    """Globally adaptive cubature of ``f`` over ``box``.

    Subdivides the worst cells (bisection along the axis of largest
    fourth difference) until the summed error estimate meets
    ``max(abs_tol, rel_tol * |value|)`` or the evaluation budget runs
    out, in which case ``converged=False`` on the result.
    """
    b = _check_box(box)
    d = b.shape[0]
    rule = _RULES[d]
    most = max(_BATCH[d], _ROUND_POINTS // (2 * rule.npts))
    # Cell store, indexed by creation id; the queue holds the live ids.
    cap = 256
    center, half = np.empty((cap, d)), np.empty((cap, d))
    val = np.empty(cap, dtype=complex)  # real values are stored exactly
    err, noise, axis = np.empty(cap), np.empty(cap), np.empty(cap, np.intp)
    n = evals = rounds = 0
    queue = _Queue(_HEAD_ROUNDS * most)
    frozen: list = []  # ids of cells too thin to split, in freeze order
    # Running totals drive the tolerance test and are updated one batch at
    # a time in a fixed order; the reported value is re-summed at the end.
    run_val = 0.0 + 0.0j
    run_err = 0.0
    c = ((b[:, 0] + b[:, 1]) / 2.0)[None, :]
    h = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
    parent = None  # values of the cells split in the last round
    is_complex = False
    while True:
        hi, _, e, floor, ax, k = _eval_cells(f, rule, c, h, parent)
        is_complex = is_complex or np.iscomplexobj(hi)
        evals += k
        m = len(hi)
        if n + m > cap:
            # Copy only the rows in use, so unused capacity is never touched.
            cap = 2 * (n + m)
            grown = []
            for a in (center, half, val, err, noise, axis):
                g = np.empty((cap,) + a.shape[1:], a.dtype)
                g[:n] = a[:n]
                grown.append(g)
            center, half, val, err, noise, axis = grown
        new = slice(n, n + m)
        center[new], half[new], val[new], err[new], noise[new], axis[new] = (
            c, h, hi, e, floor, ax)
        queue.push(np.arange(n, n + m), e)
        run_val += complex(hi.sum())
        run_err += float(e.sum())
        n += m

        tol = max(spec.abs_tol, spec.rel_tol * abs(run_val))
        if run_err <= tol or evals >= spec.max_evaluations or not len(queue):
            break
        # Round size: enough worst cells to cover a fixed share of the error
        # excess, within [_BATCH[d], most] and within the budget left.
        upper = min(most, max(_BATCH[d], (spec.max_evaluations - evals)
                              // (2 * rule.npts)))
        target = _EXCESS_SHARE * (run_err - tol)
        # Take rounds until one has a cell to split or the queue runs dry.
        while True:
            ids, pri = queue.top(upper + 1)
            ids = ids[:_round_size(pri, err[ids], noise[ids], _BATCH[d], upper,
                                   target)]
            queue.drop(len(ids))
            run_val -= complex(val[ids].sum())
            run_err = max(run_err - float(err[ids].sum()), 0.0)
            ax = axis[ids]
            c, h = center[ids], half[ids]
            rows = np.arange(len(ids))
            c_ax, h_ax = c[rows, ax], h[rows, ax] / 2.0
            thin = (h_ax == 0.0) | (c_ax + h_ax == c_ax)
            if thin.any():
                # Frozen cells keep their estimate and never return to the queue.
                run_val += complex(val[ids[thin]].sum())
                run_err += float(err[ids[thin]].sum())
                frozen.extend(ids[thin].tolist())
                c, h, ax, c_ax, h_ax = (a[~thin] for a in (c, h, ax, c_ax, h_ax))
                rows = rows[:len(ax)]
            if len(ax) or not len(queue):
                break
        if not len(ax):
            break
        parent = val[ids[~thin]]
        # The lower child of each split cell gets the smaller id.
        h[rows, ax] = h_ax
        c, h = np.repeat(c, 2, axis=0), np.repeat(h, 2, axis=0)
        c[2 * rows, ax] = c_ax - h_ax
        c[2 * rows + 1, ax] = c_ax + h_ax
        rounds += 1

    leaf = queue.ids()
    total = complex(math.fsum(val[leaf].real.tolist()),
                    math.fsum(val[leaf].imag.tolist())) + sum(val[frozen].tolist())
    e_tot = math.fsum(err[leaf].tolist()) + math.fsum(err[frozen].tolist())
    # Re-test on the carefully summed totals so the converged flag is an
    # honest statement about the numbers actually returned.
    converged = e_tot <= max(spec.abs_tol, spec.rel_tol * abs(total))
    return QuadResult(
        value=total if is_complex else total.real, error_estimate=float(e_tot),
        evaluations=evals, converged=bool(converged), rounds=rounds,
        leaves=len(leaf), frozen=len(frozen),
    )


def integrate_mc(
    f: Integrand,
    box: Sequence[Sequence[float]],
    samples: int,
    rng_seed: int,
) -> QuadResult:
    """Plain Monte-Carlo mean over ``box`` with a standard-error estimate.

    Deterministic for a given seed: the PCG64 stream and the (fixed)
    chunking are part of the contract, so repeated calls are
    bit-identical.
    """
    b = _check_box(box)
    d = b.shape[0]
    if samples < 100:
        raise ValueError("samples must be at least 100")
    vol = float(np.prod(b[:, 1] - b[:, 0]))
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    chunk = 1 << 20
    total = 0.0 + 0.0j
    total_sq = 0.0
    is_complex = False
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u = rng.random((m, d))
        pts = b[:, 0] + u * (b[:, 1] - b[:, 0])
        vals = np.asarray(f(pts))
        if vals.shape != (m,):
            raise ValueError(f"integrand returned shape {vals.shape}, expected {(m,)}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample("integrand returned a non-finite sample")
        is_complex = is_complex or np.iscomplexobj(vals)
        total += complex(np.sum(vals))
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0) * samples / (samples - 1)
    stderr = vol * math.sqrt(var / samples)
    value = vol * mean
    if not is_complex:
        value = value.real
    return QuadResult(
        value=value, error_estimate=stderr, evaluations=samples, converged=True,
    )
