"""Tangent frames and the numerical rank decisions on them.

A frame (``TangentFrame``) holds its columns, its prefixes' column blocks
and, for a tall unitary frame, its Gram matrix with an error bound.  A
sweep batch's rank decisions go one prefix at a time (``_decide``): each
stacks its samples' Gram matrices and certifies them with one Cholesky
call (``_certify``), while each sum and product keeps one sample's
operands, and a lone frame's decision (``numerical_rank``) is that routine
on a stack of one.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError, check_int, check_mode
from .plan import _count

DEFAULT_TOLERANCES = (1e-6, 1e-10)


def _frame_rows(n: int, mode: str) -> int:
    """4^n Pauli rows in unitary mode, 2 * 2^n real rows in state mode; any
    other mode raises ValidationError."""
    check_mode(mode)
    return 4 ** n if mode == "unitary" else 2 * 2 ** n


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Real matrix of gauge-fixed perturbation-direction coordinates.

    ``columns[c]`` is the (gate, generator) pair of column c: a 0-based gate
    index and an index into the 15 two-qubit generators.  Columns are
    ordered by gate, then generator.

    ``matrix`` is formed on first access and kept.  A state frame forms it
    from its sweep's vector stack at once.  A unitary frame, tall or wide,
    holds its transfer stack and, when ``matrix`` is first read, runs the
    matrix plan's sweep and assembles the matrix from it.  ``gram`` is the
    C x C Gram matrix M^T M of a tall unitary frame (fewer columns than
    rows), read off the split sweep in column order, and ``gram_error``
    bounds its 2-norm distance from the exact Gram matrix of ``matrix``.
    A unitary frame that serves tall prefixes (``tangent_frame``) holds
    the Gram matrix of its leading columns, those of the longest tall
    prefix's gates, which hold every tall prefix's.  ``gram`` is None in
    state mode and for every other frame.

    ``prefixes`` maps the gate count of each prefix of the architecture
    that the frame serves, the whole one included, to that prefix's own
    columns of ``columns``: a slice or a read-only index array
    (``_gauge``).  ``prefix`` gives each one's frame.

    A stacked frame (``tangent_frame`` of a stacked assignment) holds S
    samples' frames at once: ``samples`` is S (None for one sample's
    frame), and ``gram`` and ``gram_error`` carry a leading sample axis.
    ``sample`` gives each sample's frame, which ``matrix``,
    ``numerical_rank`` and ``prefix`` take, so a stack's matrices form per
    sample, through ``sample(i)``, one matrix sweep at a time: a unitary
    stack's first read of a sample's matrix forms those of the
    ``_matrix_batch`` samples of its sweep, which the stack keeps until a
    sample of another sweep is read; a state stack holds them all.
    """

    mode: str
    n: int
    gate_count: int
    columns: np.ndarray  # (C, 2) int
    # the matrix of sample i; a frame with no sample axis ignores i
    _part: Callable[[int], np.ndarray] = field(repr=False)
    gram: np.ndarray | None = None
    gram_error: float | np.ndarray = 0.0
    prefixes: dict[int, slice | np.ndarray] = field(default_factory=dict,
                                                    repr=False)
    samples: int | None = None
    # the samples whose matrices one ``_part`` read forms together
    # (``_decide``): one matrix sweep's, a state stack's all, or 1
    _chunk: int = field(default=1, repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        self._one("matrix")
        return self._part(0)

    def _one(self, call: str) -> None:
        if self.samples is not None:
            raise ValidationError(
                f"{call} takes one sample's frame, not a stack of "
                f"{self.samples}: see TangentFrame.sample")

    def sample(self, i: int) -> TangentFrame:
        """Sample i's frame of a stacked frame, equal bit for bit to the
        frame of its own assignment: its Gram matrix and bound (none when
        the bound is not finite, as a non-finite transfer stack makes it)
        and its matrix, formed on first access.  A frame with no sample
        axis, or an index outside it, raises ValidationError."""
        if self.samples is None:
            raise ValidationError("the frame has no sample axis")
        if not 0 <= check_int(i, "sample") < self.samples:
            raise ValidationError(
                f"sample {i} outside [0, {self.samples - 1}]")
        gram, error = None, 0.0
        if self.gram is not None and np.isfinite(self.gram_error[i]):
            gram, error = self.gram[i], float(self.gram_error[i])
        return TangentFrame(self.mode, self.n, self.gate_count, self.columns,
                            lambda _: self._part(i), gram, error,
                            self.prefixes)

    def prefix(self, length: int) -> TangentFrame:
        """The frame of the prefix of ``length`` gates, at the same gates:
        its own columns of this frame.  The later gates act on them by one
        orthogonal map, so it has the prefix's own Gram matrix and singular
        values.  If it has fewer columns than rows it takes its block of
        ``gram``.  ``gram_error`` is C_head times a bound on each entry's
        error, C_head the columns ``gram`` holds, and a block of C_t
        columns is within C_t times that bound in the Frobenius norm and
        so in the 2-norm; the block's error is ``gram_error`` C_t / C_head,
        raised by 8 u (u = eps / 2) over the three roundings of forming
        it, and ``gram_error`` itself for the whole head.  Its matrix is
        the column block of ``matrix``, read on first access.  Columns that
        run in a slice take views: the whole frame's prefix holds this
        frame's arrays.  A length the frame does not serve, or a stacked
        frame, raises ValidationError."""
        self._one("prefix")
        if length not in self.prefixes:
            raise ValidationError(
                f"the frame serves no prefix of {length} gates")
        cols = self.prefixes[length]
        rows = _frame_rows(self.n, self.mode)
        columns = self.columns[cols]
        gram, error = None, 0.0
        if self.gram is not None and len(columns) < rows:
            gram, error = _gram_block(self.gram, self.gram_error, cols)
        return TangentFrame(self.mode, self.n, length, columns,
                            lambda _: self.matrix[:, cols], gram, error,
                            {length: slice(0, len(columns), 1)})


def _gram_block(gram: np.ndarray, error: float | np.ndarray,
                cols: slice | np.ndarray) -> tuple[np.ndarray,
                                                   float | np.ndarray]:
    """The block of ``gram`` on the columns ``cols``, and its bound from
    ``gram_error``'s ``error`` (``TangentFrame.prefix``); with a leading
    sample axis, each sample's block and bound.  Columns in a slice take
    a view, others a C-ordered copy, as ``np.ix_`` gathers it."""
    c, width = _count(cols), gram.shape[-1]
    block = gram[..., cols, cols] if isinstance(cols, slice) \
        else gram[np.ix_(*map(range, gram.shape[:-2]), cols, cols)]
    if c < width:
        error = error * c / width * float(1 + 8 * _UNIT_ROUNDOFF)
    return block, error


@dataclass(frozen=True, eq=False)
class RankEstimate:
    """Rank decision at a loose/tight tolerance pair.

    The estimate is conclusive only when both thresholds count the same
    number of singular values above tol * sigma_max.  ``route`` names how
    it was decided: ``"gram"`` (certified from the Gram matrix) or
    ``"svd"``; see ``numerical_rank``.  An svd-route estimate holds every
    singular value, descending.  A gram-route estimate of rank r holds the
    certified bounds ``sigma_max_upper`` >= sigma_max and
    ``sigma_min_lower`` <= sigma_r, the r-th largest singular value (for a
    tall frame, r = C and sigma_r is sigma_min), with sigma_min_lower =
    100 loose sigma_max_upper, and holds ``singular_values`` only when
    asked for the spectrum (None otherwise).
    """

    singular_values: np.ndarray | None
    tolerances: tuple[float, float]
    loose_rank: int
    tight_rank: int
    route: str = "svd"
    sigma_max_upper: float | None = None
    sigma_min_lower: float | None = None

    @property
    def conclusive(self) -> bool:
        return self.loose_rank == self.tight_rank

    @property
    def rank(self) -> int | None:
        return self.loose_rank if self.conclusive else None

    def gap_description(self) -> str:
        if self.conclusive:
            return "conclusive"
        lo, hi = sorted((self.loose_rank, self.tight_rank))
        contested = ", ".join(f"{x:.3e}" for x in self.singular_values[lo:hi])
        return (f"ranks {self.loose_rank}/{self.tight_rank} disagree; "
                f"contested singular values: {contested}")


# A Gram certificate places every singular value at least this factor above
# the loose cutoff.
_GRAM_MARGIN = 100.0

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), with u = eps / 2: the relative rounding
    bound of a k-term sum or dot product."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _shift(gram: np.ndarray, error: np.ndarray,
           floor: np.ndarray) -> np.ndarray:
    """``_certify``'s diagonal shift s of each symmetric C x C matrix of
    the S x C x C stack ``gram``, with S values of ``error`` and of
    ``floor``, from its diagonal alone."""
    c, u = gram.shape[-1], _UNIT_ROUNDOFF
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    gamma, top = _gamma(c + 1), diag.max(axis=-1)
    return ((floor + error + gamma / (1 - gamma) * (1 + gamma)
             * diag.sum(axis=-1) + u * top) * (1 + 16 * u)
            + 4 * (c + 1) * (2 * (c + 2) + top) * _SMALLEST_SUBNORMAL)


def _certify(gram: np.ndarray, error: np.ndarray,
             floor: np.ndarray) -> np.ndarray:
    """For each symmetric C x C matrix G of the S x C x C stack ``gram``,
    with its values of the S-vectors ``error`` and ``floor``, whether
    lam_min(A) >= floor for every symmetric A within error of G in the
    2-norm, proved by one floating-point Cholesky factorization.

    With u = eps / 2, gamma = gamma_{C+1} and gamma' = gamma / (1 - gamma):

    - The shift s (``_shift``) is floor + error, plus gamma' trace(G)
      (1 + gamma) (the last factor covers the rounding of the trace), plus
      u max g_ii, plus Rump's underflow term 4 (C + 1) (2 (C + 2) +
      max g_ii) eta (eta the smallest subnormal), the sum taken times
      (1 + 16 u) to cover the rounding of forming it.
    - If floating-point Cholesky of G~ = fl(G - s I) runs to completion,
      its factor R satisfies R^T R = G~ + dA with |dA| <= gamma' d d^T,
      d_i = sqrt(g~_ii) (Demmel, LAPACK Working Note 14, 1989, in the form
      of S. M. Rump, "Verification of positive definiteness", BIT 46 (2006)
      433-452, which adds the underflow term), so ||dA||_2 <= gamma'
      trace(G~) <= gamma' trace(G), as 0 < g~_ii <= g_ii.  G~ differs from
      G - s I by the rounding of its diagonal, at most u max g_ii.  R^T R
      is positive semidefinite, so lam_min(G) >= s minus those two terms
      and the underflow term, and lam_min(A) >= lam_min(G) - error >=
      floor.

    A Cholesky that fails (``LinAlgError``) proves nothing.  Nor does a
    non-finite entry of G, ``error`` or ``floor``, refused before the
    factorization, which LAPACK may run to completion on NaN.

    The result is the S verdicts.  One Cholesky call factors the shifted
    copies of every finite sample, and when it fails, each is factored
    alone, so each verdict is its sample's own, computed on the same
    numbers.
    """
    def factors(shifted: np.ndarray) -> bool:  # one matrix or a stack
        try:  # exactly symmetric: its F-ordered transpose is the same
            np.linalg.cholesky(np.swapaxes(shifted, -1, -2))
        except np.linalg.LinAlgError:
            return False
        return True

    ok = np.isfinite(error) & np.isfinite(floor) \
        & np.isfinite(gram).all(axis=(1, 2))
    shifted = gram[ok]
    s, c = shifted.shape[:2]
    shifted.reshape(s, c * c)[:, ::c + 1] -= _shift(
        shifted, error[ok], floor[ok])[:, None]
    if s and not factors(shifted):
        # the stack fails if one sample fails: factor each alone
        ok[ok] = [s > 1 and factors(one) for one in shifted]
    return ok


def _upper(gram: np.ndarray, read_error: np.ndarray) -> np.ndarray:
    """``_gram_estimate``'s U of each matrix of the stack ``gram``, with
    its value of ``read_error``."""
    return np.abs(gram).sum(axis=-1).max(axis=-1) \
        * (1 + _gamma(gram.shape[-1] + 1)) + read_error


def _gram_estimate(gram: np.ndarray, tol_pair: tuple[float, float],
                   read_error: np.ndarray) -> list[RankEstimate | None]:
    """For each matrix G of the S x C x C stack ``gram``, the full-rank
    estimate of a real matrix M with C columns that G certifies, or None
    when it cannot, in order, from one ``_certify`` call.

    G is symmetric and lies within its value of the S-vector
    ``read_error`` of the exact A = M^T M in the 2-norm.
    U = ||G||_inf (1 + gamma_{C+1}) + read_error (``_upper``) bounds
    lam_max(A) from above; the factor covers the rounding of the C-term
    row sums.  With floor = (100 loose)^2,
    ``_certify(G, read_error, floor U)`` proves lam_min(A) >= floor U >=
    floor lam_max(A) with no eigensolver.  Then every singular value is at
    least 100x above loose * sigma_max, so an SVD would count all C of
    them at both tolerances.  The estimate holds sigma_max_upper =
    sqrt(U) and sigma_min_lower = sqrt(floor U), and no singular values.
    A certificate that fails proves nothing, and the SVD decides.
    """
    c = gram.shape[-1]
    upper = _upper(gram, read_error)
    low = (_GRAM_MARGIN * tol_pair[0]) ** 2 * upper
    return [RankEstimate(None, tol_pair, c, c, route="gram",
                         sigma_max_upper=float(np.sqrt(top)),
                         sigma_min_lower=float(np.sqrt(bottom)))
            if passed else None
            for passed, top, bottom
            in zip(_certify(gram, read_error, low), upper, low)]


def _wide_estimate(mats: Iterable[np.ndarray], samples: int, rows: int,
                   tol_pair: tuple[float, float],
                   ) -> list[RankEstimate | None]:
    """The rank-(m - 1) estimate of each of the ``samples`` wide unitary
    frames ``mats`` (m = 4^n = ``rows`` rows, C >= m columns) that its row
    Gram matrix certifies, or None when it cannot, in order.

    Row 0, m_0, is the identity string's: 0 in exact arithmetic, since
    every generator is traceless and each T_j fixes the identity.  Let M'
    be the other m - 1 rows and H = M' M'^T, with gamma = gamma_C.
    Floating point forms G = fl(H) with |G - H| <= gamma |M'| |M'|^T
    entrywise, so ||G - H||_2 <= gamma ||M'||_F^2 = gamma trace(H), and
    trace(H) <= fl(sum of g_ii) / (1 - gamma)^2 over the diagonal's and
    the sum's roundings.  The exact ||m_0||^2 is at most fl(m_0 . m_0) /
    (1 - gamma).  M^T M = M'^T M' + m_0^T m_0, so
    sigma_max(M)^2 <= lam_max(H) + ||m_0||^2, and ``_gram_estimate`` of G
    with read_error = gamma trace(H) + ||m_0||^2 (times 1 + 16 u for
    forming it) has U >= sigma_max(M)^2 and, on success,
    lam_min(H) >= floor U.  By Cauchy interlacing, sigma_{m-1}(M)^2 >=
    lam_min(H): every one of the top m - 1 singular values sits at least
    100x above the loose cutoff.

    The certificate also requires ||m_0||^2 <= (tight / 100)^2
    max_i g_ii (1 - 2 gamma).  Each exact h_ii is at least g_ii (1 -
    gamma) and at most sigma_max(M)^2, the extra gamma >= 16 u covering
    the roundings of the test, so sigma_m(M) <= ||m_0|| (M^T e_0 = m_0)
    sits 100x below the tight cutoff.  So an SVD would count m - 1 at
    both tolerances.  A non-finite M' gives a non-finite trace, and a
    non-finite m_0 fails the test: neither is certified; such a sample,
    or one that fails the test, takes no read error (NaN), which
    ``_certify`` refuses.

    The matrices are read one at a time: each forms its G by its own GEMM
    into one S x (m - 1) x (m - 1) stack, which one ``_gram_estimate``
    call certifies.
    """
    grams = np.empty((samples, rows - 1, rows - 1))
    edges = np.empty(samples)
    for k, mat in enumerate(mats):
        cols = mat.shape[1]
        rest = mat[1:]
        np.matmul(rest, rest.T, out=grams[k])
        edges[k] = mat[0] @ mat[0]
    u, gamma = _UNIT_ROUNDOFF, _gamma(cols)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    trace = diag.sum(axis=1)
    ceiling = (tol_pair[1] / _GRAM_MARGIN) ** 2 \
        * diag.max(axis=1, initial=0.0) * (1 - 2 * gamma)
    ok = np.isfinite(trace) & (edges / (1 - gamma) <= ceiling)
    read_error = np.where(
        ok, (gamma * trace / (1 - gamma) + edges) / (1 - gamma)
        * (1 + 16 * u), np.nan)
    return _gram_estimate(grams, tol_pair, read_error)


def _check_tolerances(tol_pair: tuple[float, float]) -> tuple[float, float]:
    """The (loose, tight) pair, or ValidationError unless
    eps <= tight <= loose < 1."""
    loose, tight = tol_pair
    if not np.finfo(float).eps <= tight <= loose < 1.0:
        raise ValidationError("tolerances must satisfy eps <= tight <= loose"
                              f" < 1, got (loose, tight) = {tol_pair}")
    return loose, tight


def _svd_estimate(mat: np.ndarray,
                  tol_pair: tuple[float, float]) -> RankEstimate:
    """The svd-route estimate of ``mat`` (``numerical_rank``)."""
    loose, tight = tol_pair
    if mat.size == 0:
        return RankEstimate(np.zeros(0), tol_pair, 0, 0)
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("frame holds a non-finite entry")
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = sv[0]  # 0 for an all-zero matrix, whose rank is then 0
    return RankEstimate(
        sv, tol_pair,
        int((sv > loose * smax).sum()),
        int((sv > tight * smax).sum()),
    )


def _tall_estimates(stack: TangentFrame, cols: slice | np.ndarray,
                    tol_pair: tuple[float, float],
                    spectrum: bool) -> list[RankEstimate | None]:
    """Each sample's gram-route estimate of the column block ``cols`` of
    the stacked frame ``stack`` (``_decide``), or None for each sample it
    leaves to a matrix: every sample when the block is not a tall block
    of ``gram``."""
    if stack.gram is None \
            or not 0 < _count(cols) < _frame_rows(stack.n, stack.mode):
        return [None] * stack.samples
    # each sample's block in its own frame's layout, which a sum's order
    # follows
    grams, errors = _gram_block(stack.gram, stack.gram_error, cols)
    found = _gram_estimate(grams, tol_pair, errors)
    if not spectrum:
        return found
    return [None if e is None else replace(
        e, singular_values=np.sqrt(np.linalg.eigvalsh(g)[::-1]))
        for e, g in zip(found, grams)]


def _decide(stack: TangentFrame, lengths: Sequence[int],
            tol_pair: tuple[float, float],
            spectrum: bool) -> list[list[RankEstimate]]:
    """``numerical_rank`` of every sample's frame of each prefix of
    ``lengths`` gates that the stacked frame ``stack`` serves: one list
    per prefix, in sample order, each estimate its sample's own frame's
    (``TangentFrame.sample`` and ``prefix``), bit for bit.

    First the tall prefixes that carry their blocks of ``gram``, which
    read no matrix: each stacks its S samples' Gram blocks, each bounded
    by its own ``gram_error`` as ``TangentFrame.prefix`` scales it, and
    one ``_gram_estimate`` call certifies them.  A sample whose bound is
    not finite (``TangentFrame.sample`` gives it no Gram matrix) is
    refused there.  With ``spectrum`` each certified sample takes
    eigvalsh of its own block.  Then, for the samples whose matrices one
    read forms together (``TangentFrame._chunk``: those of one matrix
    sweep, ``_matrix_batch``, or a state stack's all), every decision
    that reads a matrix: one ``_wide_estimate`` call per wide
    unitary prefix (C >= 4^n), each certified one with ``spectrum``
    taking its SVD's values, and then the SVD (``_svd_estimate``) of
    each sample's block that is still undecided.  Every reduction and
    GEMM takes one sample's operands as its own frame's decision would,
    so only the Cholesky factorizations share a call."""
    rows = _frame_rows(stack.n, stack.mode)
    found = [_tall_estimates(stack, stack.prefixes[length], tol_pair,
                             spectrum) for length in lengths]
    chunk = stack._chunk
    for lo in range(0, stack.samples, chunk):
        samples = range(lo, min(lo + chunk, stack.samples))
        for length, ests in zip(lengths, found):
            cols = stack.prefixes[length]
            if stack.mode == "unitary" and _count(cols) >= rows:
                ests[lo:samples.stop] = _wide_estimate(
                    (stack._part(i)[:, cols] for i in samples),
                    len(samples), rows, tol_pair)
            for i in samples:
                if ests[i] is None:
                    ests[i] = _svd_estimate(stack._part(i)[:, cols], tol_pair)
                elif spectrum and ests[i].singular_values is None:
                    ests[i] = replace(ests[i], singular_values=np.linalg.svd(
                        stack._part(i)[:, cols], compute_uv=False))
    return found


def numerical_rank(frame: TangentFrame | np.ndarray,
                   tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                   *, spectrum: bool = False) -> RankEstimate:
    """Singular-value rank under two relative thresholds.

    A unitary frame is first tried on the Gram route, which certifies its
    rank from a small Gram matrix by one Cholesky factorization, shifted by
    its error bounds (``_certify``), and no eigensolver.  A frame
    that carries the Gram matrix of all its columns
    (``TangentFrame.gram``: a tall unitary frame, which reads it off its
    sweep or takes its block of a frame that serves it) is certified when
    all C singular values sit at least 100x above the loose cutoff, and
    never forms its matrix.  A wide unitary frame (C >= 4^n) forms its
    matrix and is certified from its row Gram matrix, that of the 4^n - 1
    rows of non-identity strings, when its top 4^n - 1 singular values sit
    100x above the loose cutoff and its identity row 100x below the tight
    one (``_wide_estimate``).  Either way the SVD would return
    loose = tight = the certified rank as well.  The estimate holds the
    certified bounds ``sigma_max_upper`` and ``sigma_min_lower``, with
    ``route="gram"``, and with ``spectrum`` also its singular values:
    sqrt(eigvalsh(G)) of a tall frame and the SVD's of a wide one.  A
    certificate that fails proves nothing, and every other input takes a
    full SVD (``route="svd"``), whose singular values the estimate always
    holds: plain arrays, state frames, rank-deficient or near-cutoff
    spectra, and all-zero matrices.  A state frame could never be
    certified: gate 0 acts on |0...0>, so its at least 9 kept directions
    i S_k u_0 |00> lie in the 7-dimensional tangent space of the sphere at
    u_0 |00>, and the later gates move them by one unitary.  Ranks never
    differ between the routes; gram-route singular values of a tall frame
    differ from LAPACK's SVD by rounding only (below 1e-12 sigma_max on the
    frames measured).

    A frame is decided as the one sample of a stack, by the routine
    (``_decide``) that decides every sample of a consensus's sweep batch
    at once, so a frame's estimate is the one its sample gets there.

    An empty or all-zero matrix has rank 0 by convention.  A matrix holding
    NaN or inf raises ``LinAlgError``.  A Gram matrix holding one is never
    certified (``_certify``), so its frame takes the SVD of its matrix,
    which raises if that is not finite either.  The tolerances must satisfy
    eps <= tight <= loose < 1.  A stacked frame raises ValidationError:
    each of its samples (``TangentFrame.sample``) takes its own rank.
    """
    _check_tolerances(tol_pair)
    if not isinstance(frame, TangentFrame):
        return _svd_estimate(np.asarray(frame), tol_pair)
    frame._one("numerical_rank")
    one = replace(frame, gram=None if frame.gram is None else frame.gram[None],
                  gram_error=np.array([frame.gram_error]),
                  prefixes={frame.gate_count: slice(0, len(frame.columns), 1)},
                  samples=1, _part=lambda _: frame.matrix)
    return _decide(one, [frame.gate_count], tol_pair, spectrum)[0][0]
