"""Sliding-window search: parameter planning, window filtration, and the
scan loop that dispatches verifications.

The window has length m - k.  From its right end the loop reads up to
J = 1 + ceil(k / (c*q)) non-overlapping q-grams leftwards, summing their
index entries, as in the backward reading of Fredriksson & Navarro (JEA
2004).  A gram is looked up by its two halves in the index's `halves`
tables, two dict lookups in place of a loop over its q letters.  Each
entry lower-bounds the edit distance between that gram and anything
inside any rotation, and any occurrence covering all grams read so far
absorbs their summed differences, so once the sum exceeds k no occurrence
can start at or before the leftmost letter read: the window skips one
position past it.  If all J grams stay within budget the window is
verified: its m-k starts join the run of verified starts [lo, hi) when
the window touches it, and the window advances by its full length.  When
a window that does not touch the run verifies, and at the end of the
text, the run is settled by one pass of the rotation screen over
t[lo : hi + m + k], which holds every factor within k of a rotation that
starts in the run (such a factor is at most m + k letters long).  A
window on its own gets a 2m-letter slice.  Runs are disjoint and settled
left to right, so the occurrences come out sorted by (start, rotation)
with no pass to merge them.  Verify-all mode has no window loop: it
settles all n - (m - k) + 1 starts as one run, one pass over the text,
and counts its windows by arithmetic.

Parameter planning sweeps q downwards from the largest value that the
index budgets and the window allow.  At each q it takes c as given, or
else the c on a 0.01 grid, from k / (epsilon m - k - q) up, that
maximizes the difference-rate exponent

    d(c) = 1 - c + 2c log_sigma(c) + 2(1-c) log_sigma(1-c)

among those with d(c) > 0 for which the window holds 2q + k/c.  For
sigma >= 8 the classical ceiling c < 1 - e/sqrt(sigma) additionally caps
the grid; for smaller alphabets that bound is vacuous and positivity of
d(c) is the operative test.  The plan takes the first q whose J grams fit
the window and which is at most

    ceil((3 ln m + ln max(k, 1)) / (d(c) ln sigma)),

so q = Theta(log_sigma m), as the average-case bound needs.  When no q
passes, the plan falls back to verifying every window, which stays
correct: the text is then one run, and the screen reads each letter once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .alphabet import Alphabet, to_bytes
from .bitparallel import rotation_screen
from .qgramindex import DEFAULT_MAX_ENTRIES, DEFAULT_MAX_WORK, QGramIndex, pattern_digest
from .verifier import Occurrence


class PlanError(ValueError):
    pass


class SearchPlan(NamedTuple):
    mode: str  # "filter" or "verify-all"
    m: int
    k: int
    epsilon: float
    q: int | None = None
    c: float | None = None
    d: float | None = None
    j_grams: int | None = None

    @property
    def window_len(self) -> int:
        return self.m - self.k

    @classmethod
    def verify_all(cls, m: int, k: int, epsilon: float = 0.5) -> SearchPlan:
        """The plan that verifies every window."""
        return cls(mode="verify-all", m=m, k=k, epsilon=epsilon)


class SearchStats:
    """Deterministic counters of one search.  `chars_inspected` is the
    letters read by the filter (q per gram read) plus the letters of every
    run slice the screen settled, so it is n in verify-all mode."""

    def __init__(
        self,
        windows_examined: int = 0,
        windows_verified: int = 0,
        qgrams_read: int = 0,
        chars_inspected: int = 0,
        occurrences_reported: int = 0,
        skips: list | None = None,
    ):
        self.windows_examined = windows_examined
        self.windows_verified = windows_verified
        self.qgrams_read = qgrams_read
        self.chars_inspected = chars_inspected
        self.occurrences_reported = occurrences_reported
        self.skips = [] if skips is None else skips  # (position, shift), test mode only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"SearchStats({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def d_exponent(c: float, sigma: int) -> float:
    """Exponent governing how fast random q-gram matches become unlikely."""
    ls = math.log(sigma)
    return 1 - c + 2 * c * math.log(c) / ls + 2 * (1 - c) * math.log(1 - c) / ls


def _grams_per_window(k: int, c: float, q: int) -> int:
    return 1 + math.ceil(k / (c * q)) if k > 0 else 1


def _c_ceiling(sigma: int) -> float:
    ceil = 1 - math.e / math.sqrt(sigma)
    return ceil if ceil > 0 else 1.0


def _best_c(m: int, k: int, q: int, sigma: int, epsilon: float) -> tuple[float, float] | None:
    """Grid-maximize d(c) over feasible c for this q, or None."""
    wlen = m - k
    denom = epsilon * m - k - q
    lo = 0.0 if k == 0 else (k / denom if denom > 0 else None)
    if lo is None:
        return None
    hi = min(_c_ceiling(sigma), 1.0)
    best = None
    c = max(1, math.ceil(lo * 100))
    while c <= 99 and c / 100 < hi:
        cv = c / 100
        if 2 * q + (k / cv if k else 0.0) <= wlen:
            dv = d_exponent(cv, sigma)
            if dv > 0 and (best is None or dv > best[1]):
                best = (cv, dv)
        c += 1
    return best


def _q_caps(m: int, sigma: int, max_entries: int, max_work: int) -> int:
    """Largest q whose index fits both the entry and the build-work budget.

    The work term is a planning bound kept unchanged on purpose: it models
    an older window-matrix builder, not the packed build of `build_index`,
    but changing it would move plans, and with them q and every scan
    counter.  Recalibrating it belongs to choosing plans by cost.
    """
    q = 0
    while True:
        nq = q + 1
        entries = sigma**nq
        if entries > max_entries:
            break
        work = entries * (2 * m - nq) * (2 * nq + 1) * sigma
        if work > max_work:
            break
        q = nq
    return q


def check_overrides(m: int, q: int | None, c: float | None, epsilon: float) -> None:
    """Reject a q, c or epsilon outside its range, whatever the mode."""
    if not 0 < epsilon < 1:
        raise PlanError(f"epsilon must lie in (0, 1), got epsilon={epsilon}")
    if c is not None and not 0 < c < 1:
        raise PlanError(f"c must lie in (0, 1), got c={c}")
    if q is not None and not 1 <= q < m:
        raise PlanError(f"q must satisfy 1 <= q < m, got q={q}")


def plan(
    m: int,
    k: int,
    a: Alphabet,
    *,
    q: int | None = None,
    c: float | None = None,
    epsilon: float = 0.5,
    max_index_entries: int = DEFAULT_MAX_ENTRIES,
    max_index_work: int = DEFAULT_MAX_WORK,
) -> SearchPlan:
    """Choose search parameters for a length-m pattern at threshold k.

    A given q is validated against the filter-mode invariants (positive
    exponent, grams fitting the window, window holding 2q + k/c) and used
    with the given c, or the grid's best c for it.  Otherwise one sweep
    takes the largest feasible q under the budgets, the window and the
    asymptotic expression, with the given c or each q's best c; with no
    such q it falls back to verify-all, or raises if c was given.
    """
    if k < 0 or k >= m:
        raise PlanError(f"threshold k={k} must satisfy 0 <= k < m={m}")
    check_overrides(m, q, c, epsilon)
    sigma = a.size
    wlen = m - k

    def make(qv: int, cv: float, dv: float) -> SearchPlan:
        return SearchPlan(
            mode="filter",
            m=m,
            k=k,
            epsilon=epsilon,
            q=qv,
            c=cv,
            d=dv,
            j_grams=_grams_per_window(k, cv, qv),
        )

    def check(qv: int, cv: float) -> SearchPlan:
        if sigma**qv > max_index_entries:
            raise PlanError(
                f"sigma^q = {sigma**qv} exceeds the index budget {max_index_entries}"
            )
        dv = d_exponent(cv, sigma)
        if dv <= 0:
            raise PlanError(
                f"difference-rate exponent d(c={cv:.3f}) = {dv:.4f} is not positive"
            )
        if 2 * qv + (k / cv if k else 0) > wlen:
            raise PlanError(
                f"window m-k = {wlen} cannot hold 2q + k/c = {2 * qv + (k / cv if k else 0):.1f}"
            )
        j = _grams_per_window(k, cv, qv)
        if j * qv > wlen:
            raise PlanError(f"J*q = {j * qv} exceeds the window length {wlen}")
        return make(qv, cv, dv)

    if q is not None and c is not None:
        return check(q, c)
    if q is not None:
        got = _best_c(m, k, q, sigma, epsilon)
        if got is None:
            raise PlanError(
                f"no feasible c for q={q}: need k/(eps*m-k-q) <= c < 1 - e/sqrt(sigma) with d(c) > 0"
            )
        return check(q, got[0])

    q_cap = min(_q_caps(m, sigma, max_index_entries, max_index_work), (wlen - 1) // 2, m - 1)
    if q_cap < 1:
        return SearchPlan.verify_all(m, k, epsilon)
    given = None if c is None else (c, d_exponent(c, sigma))
    if given and given[1] <= 0:
        raise PlanError(
            f"difference-rate exponent d(c={c:.3f}) = {given[1]:.4f} is not positive"
        )

    # the largest q under the caps whose c lets the window hold 2q + k/c and
    # J grams, and that is at most the asymptotic (3 ln m + ln k) / (d ln sigma)
    top = 3 * math.log(m) + math.log(max(k, 1))
    for qv in range(q_cap, 0, -1):
        got = given or _best_c(m, k, qv, sigma, epsilon)
        if got is None:
            continue
        cv, dv = got
        if (
            2 * qv + (k / cv if k else 0) <= wlen
            and _grams_per_window(k, cv, qv) * qv <= wlen
            and qv <= math.ceil(top / (math.log(sigma) * dv))
        ):
            return make(qv, cv, dv)
    if given:
        raise PlanError(f"no q pairs with c={c} for m={m}, k={k}, sigma={sigma}")
    return SearchPlan.verify_all(m, k, epsilon)


def search(
    t: str | bytes,
    x: str | bytes,
    k: int,
    plan: SearchPlan,
    idx: QGramIndex | None = None,
    *,
    collect_skips: bool = False,
) -> tuple[list[Occurrence], SearchStats]:
    """Scan the whole text and return every occurrence of every rotation,
    one per (start, rotation) and sorted by (start, rotation), plus scan
    statistics.

    In filter mode the index must be given, built with the plan's q for
    this pattern; in verify-all mode every window is verified and the
    index is ignored.  A gram holding a letter outside the index alphabet
    contributes 0 to the window's sum, which can only force a
    verification, never lose an occurrence.
    """
    tb, xb = to_bytes(t), to_bytes(x)
    n, m = len(tb), len(xb)
    if k < 0 or k >= m:
        raise ValueError("need 0 <= k < len(pattern)")
    if plan.m != m or plan.k != k:
        raise ValueError("plan was built for a different (m, k)")
    wlen = plan.window_len
    stats = SearchStats()
    occs: list[Occurrence] = []
    screen = None  # looked up at the first run: a search may verify nothing

    def settle(lo: int, hi: int) -> None:
        # one pass over the run of starts [lo, hi) and the m + k letters
        # past it, as far as a factor within k of a rotation reaches
        nonlocal screen
        if lo < hi:
            if screen is None:
                screen = rotation_screen(xb, k)
            data = tb[lo : hi + m + k]
            stats.chars_inspected += len(data)
            occs.extend(
                Occurrence(lo + s, length, r, d)
                for s, length, r, d in screen.occurrences(data, hi - lo)
            )

    if plan.mode != "filter":
        # every window verifies and touches the last: one run of all starts
        starts = max(0, n - wlen + 1)
        stats.windows_examined = stats.windows_verified = -(-starts // wlen)
        settle(0, starts)
        stats.occurrences_reported = len(occs)
        return occs, stats

    if idx is None:
        raise ValueError("filter mode needs a q-gram index")
    if idx.q != plan.q:
        raise ValueError(f"index was built with q={idx.q} but the plan has q={plan.q}")
    if idx.digest != pattern_digest(xb):
        raise ValueError("index was built for a different pattern")
    q, j_grams, entries = plan.q, plan.j_grams, idx.entries
    # a gram g's entry is entries[left[g[:h]] + right[g[h:]]]; a half that
    # is in neither table holds a foreign letter, and the gram adds 0
    left, right = idx.halves
    h = q // 2
    rlen = q - h
    examined = verified = grams = 0
    lo = hi = p = 0  # [lo, hi): the verified starts not yet settled
    last = n - wlen
    while p <= last:
        examined += 1
        # read grams leftwards from the window end until the summed entries
        # exceed k or all J are read
        gend = p + wlen
        ssum = jj = 0
        while ssum <= k and jj < j_grams:
            jj += 1
            gmid = gend - rlen
            try:
                ssum += entries[left[tb[gmid - h : gmid]] + right[tb[gmid:gend]]]
            except KeyError:
                pass
            gend -= q
        grams += jj
        if ssum > k:
            shift = wlen - jj * q + 1
            if collect_skips:
                stats.skips.append((p, shift))
            p += shift
            continue
        verified += 1
        if p != hi:
            settle(lo, hi)
            lo = p
        p = hi = p + wlen
    settle(lo, hi)
    stats.windows_examined, stats.windows_verified = examined, verified
    stats.qgrams_read = grams
    stats.chars_inspected += q * grams
    stats.occurrences_reported = len(occs)
    return occs, stats

