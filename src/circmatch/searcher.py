"""Sliding-window search: parameter planning, window filtration, and the
scan loop that dispatches verifications.

The window has length m - k.  From its right end the loop reads up to
J = 1 + ceil(k / (c*q)) non-overlapping q-grams leftwards, summing their
index entries, as in the backward reading of Fredriksson & Navarro (JEA
2004).  A gram is looked up by its two halves in qgramindex.half_tables,
two dict lookups in place of a loop over its q letters.  Each
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
build-work budget MAX_WORK and the window allow.  At each q it takes c
as given, or else the least c on a 0.01 grid, from k / (epsilon m - k - q)
up, for which the window holds 2q + k/c, provided that the
difference-rate exponent

    d(c) = 1 - c + 2c log_sigma(c) + 2(1-c) log_sigma(1-c)

is positive there.  For sigma >= 8 the classical ceiling
c < 1 - e/sqrt(sigma) caps the grid; for smaller alphabets that bound is
vacuous and positivity of d(c) is the operative test.  The least c is
also the one that maximizes d(c) over the feasible grid (see `_best_c`).
One rule accepts or rejects each (q, c): sigma^q within the entry budget
qgramindex.MAX_ENTRIES, d(c) > 0, and a window that holds 2q + k/c, and
so the J grams, as J q < 2q + k/c.  The plan takes the first accepted q
that is at most

    ceil((3 ln m + ln max(k, 1)) / (d(c) ln sigma)),

so q = Theta(log_sigma m), as the average-case bound needs.  When no q
passes, the plan falls back to verifying every window, which stays
correct: the text is then one run, and the screen reads each letter once.
A one-letter alphabet has d = -inf, so it always verifies every window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import qgramindex
from .alphabet import Alphabet, to_bytes
from .bitparallel import rotation_screen
from .qgramindex import QGramIndex, pattern_digest
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


class SearchStats(NamedTuple):
    """Deterministic counters of one search.  `chars_inspected` is the
    letters read by the filter (q per gram read) plus the letters of every
    run slice the screen settled, so it is n in verify-all mode."""

    windows_examined: int = 0
    windows_verified: int = 0
    qgrams_read: int = 0
    chars_inspected: int = 0
    occurrences_reported: int = 0
    skips: list | tuple = ()  # (position, shift), test mode only


def d_exponent(c: float, sigma: int) -> float:
    """Exponent governing how fast random q-gram matches become unlikely;
    -inf, its limit, for one letter, where every gram matches."""
    if sigma < 2:
        return -math.inf
    ls = math.log(sigma)
    return 1 - c + 2 * c * math.log(c) / ls + 2 * (1 - c) * math.log(1 - c) / ls


def _grams_per_window(k: int, c: float, q: int) -> int:
    return 1 + math.ceil(k / (c * q)) if k > 0 else 1


def _c_ceiling(sigma: int) -> float:
    ceil = 1 - math.e / math.sqrt(sigma)
    return ceil if ceil > 0 else 1.0


def _best_c(m: int, k: int, q: int, sigma: int, epsilon: float) -> tuple[float, float] | None:
    """(c, d(c)) for the least c on the 0.01 grid, from k / (epsilon m -
    k - q) up and below the ceiling, whose window holds 2q + k/c; None
    when there is no such c or d(c) <= 0.

    That c also maximizes d over the feasible grid, since every larger c
    holds the window too.  d is convex in c, least at sqrt(sigma) / (1 +
    sqrt(sigma)).  For sigma >= 8 the ceiling 1 - e/sqrt(sigma) lies below
    that point, so d falls along the whole grid.  For sigma <= 7, d rises
    from that point towards d(1) = 0, and d(0.99) < 0, so d > 0 only where
    it falls.  Either way no larger c has a greater d, nor d > 0 when the
    least c has not.
    """
    denom = epsilon * m - k - q
    if k and denom <= 0:
        return None
    hi = _c_ceiling(sigma)
    c = max(1, math.ceil(k / denom * 100)) if k else 1
    while c <= 99 and c / 100 < hi:
        cv = c / 100
        if 2 * q + k / cv <= m - k:
            dv = d_exponent(cv, sigma)
            return (cv, dv) if dv > 0 else None
        c += 1
    return None


# the build-work budget of `_q_caps`, read at each plan
MAX_WORK = 1 << 29


def _q_caps(m: int, sigma: int, limit: int) -> int:
    """Largest q up to `limit` whose index fits the build-work budget,
    MAX_WORK; `_rejection` holds the entry budget.

    The work term, sigma^q (2m - q)(2q + 1) sigma, is a planning bound,
    not a cost model of `build_index`, whose level-by-level trie build
    costs about q sigma^(q-1) lane bits per text column; it stays as it is
    because changing it would move plans, and with them q and every scan
    counter.  Recalibrating it belongs to choosing plans by cost.
    """
    q = 0
    while q < limit and sigma ** (q + 1) * (2 * m - q - 1) * (2 * q + 3) * sigma <= MAX_WORK:
        q += 1
    return q


def _rejection(m: int, k: int, q: int, sigma: int, c: float, d: float) -> str | None:
    """Why (q, c) with d = d(c) cannot filter, or None when it can.  A
    window that holds 2q + k/c holds the J grams too, as J q < 2q + k/c."""
    if sigma**q > qgramindex.MAX_ENTRIES:
        return f"sigma^q = {sigma**q} exceeds the index budget {qgramindex.MAX_ENTRIES}"
    if d <= 0:
        return f"difference-rate exponent d(c={c:.3f}) = {d:.4f} is not positive"
    need = 2 * q + (k / c if k else 0)
    if need > m - k:
        return f"window m-k = {m - k} cannot hold 2q + k/c = {need:.1f}"
    return None


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
) -> SearchPlan:
    """Choose search parameters for a length-m pattern at threshold k.

    One sweep takes q downwards from the largest value that the work
    budget and the window allow, with the given c or each q's best c, and
    returns the first (q, c) that `_rejection` accepts and whose q is at
    most the asymptotic bound.  A given q is a sweep over q alone, without
    that bound, in which a rejection raises PlanError.  When no q is left
    the plan verifies every window, or raises if c was given.
    """
    if k < 0 or k >= m:
        raise PlanError(f"threshold k={k} must satisfy 0 <= k < m={m}")
    check_overrides(m, q, c, epsilon)
    sigma = a.size
    if q is None:
        qs = range(_q_caps(m, sigma, (m - k - 1) // 2), 0, -1)
        if not qs:
            return SearchPlan.verify_all(m, k, epsilon)
    else:
        qs = [q]
    given = None if c is None else (c, d_exponent(c, sigma))
    # a swept q is at most the asymptotic (3 ln m + ln k) / (d ln sigma)
    top = 3 * math.log(m) + math.log(max(k, 1))
    for qv in qs:
        got = given or _best_c(m, k, qv, sigma, epsilon)
        if got is None:
            why = (
                f"no feasible c for q={qv}: "
                "need k/(eps*m-k-q) <= c < 1 - e/sqrt(sigma) with d(c) > 0"
            )
        else:
            why = _rejection(m, k, qv, sigma, *got)
        if why:
            # a given c with d(c) <= 0 is rejected at every q
            if q is not None or given and given[1] <= 0:
                raise PlanError(why)
            continue
        cv, dv = got
        if q is None and qv > math.ceil(top / (math.log(sigma) * dv)):
            continue
        j = _grams_per_window(k, cv, qv)
        return SearchPlan(mode="filter", m=m, k=k, epsilon=epsilon, q=qv, c=cv, d=dv, j_grams=j)
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
    occs: list[Occurrence] = []
    skips: list[tuple[int, int]] = []
    settled = 0  # letters of the run slices the screen read
    screen = None  # looked up at the first run: a search may verify nothing

    def settle(lo: int, hi: int) -> None:
        # one pass over the run of starts [lo, hi) and the m + k letters
        # past it, as far as a factor within k of a rotation reaches
        nonlocal screen, settled
        if lo < hi:
            if screen is None:
                screen = rotation_screen(xb, k)
            data = tb[lo : hi + m + k]
            settled += len(data)
            occs.extend(
                Occurrence(lo + s, length, r, d)
                for s, length, r, d in screen.occurrences(data, hi - lo)
            )

    if plan.mode != "filter":
        # every window verifies and touches the last: one run of all starts
        starts = max(0, n - wlen + 1)
        windows = -(-starts // wlen)
        settle(0, starts)
        return occs, SearchStats(windows, windows, 0, settled, len(occs), skips)

    if idx is None:
        raise ValueError("filter mode needs a q-gram index")
    if idx.q != plan.q:
        raise ValueError(f"index was built with q={idx.q} but the plan has q={plan.q}")
    if idx.digest != pattern_digest(xb):
        raise ValueError("index was built for a different pattern")
    q, j_grams, entries = plan.q, plan.j_grams, idx.entries
    # a gram g's entry is entries[left[g[:h]] + right[g[h:]]]; a half that
    # is in neither table holds a foreign letter, and the gram adds 0
    left, right = qgramindex.half_tables(idx.alphabet, q)
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
                skips.append((p, shift))
            p += shift
            continue
        verified += 1
        if p != hi:
            settle(lo, hi)
            lo = p
        p = hi = p + wlen
    settle(lo, hi)
    return occs, SearchStats(examined, verified, grams, settled + q * grams, len(occs), skips)

