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
position past it.  Most windows skip on their first gram alone, by
m - k - q + 1, so the loop reads each window's first gram in a tight inner
loop that only looks the gram up, compares its entry with k and shifts;
it counts those windows and their grams from the distance it moved, and
it stops at a gram within k, at a foreign letter, or past the text's end,
where the right half is too short to be in its table.  Only a window whose
first gram stays within k reads its other J - 1 grams.

If all J grams stay within budget the window is verified: its m-k starts
join the run of verified starts [lo, hi) when the window touches it, and
the window advances by its full length.  When a window that does not
touch the run verifies, and at the end of the text, the run is settled by
one pass of the rotation screen over t[lo : hi + m + k], which holds every
factor within k of a rotation that starts in the run (such a factor is at
most m + k letters long).  A window on its own gets a 2m-letter slice.
Runs are disjoint and settled left to right, so the occurrences come out
sorted by (start, rotation) with no pass to merge them.  Verify-all mode
has no window loop: it settles all n - (m - k) + 1 starts as one run, one
pass over the text, and counts its windows by arithmetic.

Parameter planning sweeps q downwards from the largest value that the
build-work budget MAX_WORK and the window allow, and one rule,
`_filter_c`, accepts or rejects each q.  It takes c as given, or else the
least c on a 0.01 grid, from k / (epsilon m - k - q) up, for which the
window holds 2q + k/c; for sigma >= 8 the classical ceiling
c < 1 - e/sqrt(sigma) caps the grid, and for smaller alphabets that bound
is vacuous.  It then asks for sigma^q within the entry budget
qgramindex.MAX_ENTRIES, a positive difference-rate exponent

    d(c) = 1 - c + 2c log_sigma(c) + 2(1-c) log_sigma(1-c),

and a window that holds 2q + k/c, and so the J grams, as J q < 2q + k/c.
The least c is also the one that maximizes d(c) over the feasible grid
(the argument is in `_filter_c`).  A rejection names the one condition
that failed, with its numbers.  The plan takes the first accepted q that
is at most

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


def _filter_c(
    m: int, k: int, q: int, sigma: int, epsilon: float, c: float | None = None
) -> tuple[float, float]:
    """(c, d(c)) with which q-grams can filter: the given c, or else the
    least c on the 0.01 grid, from k / (epsilon m - k - q) up and below
    the ceiling, whose window holds 2q + k/c.  PlanError names, with its
    numbers, the first of these conditions that fails: epsilon m - k - q
    > 0, a grid c whose window holds 2q + k/c, sigma^q within the entry
    budget qgramindex.MAX_ENTRIES, d(c) > 0, and a window that holds
    2q + k/c, and so the J grams, as J q < 2q + k/c.

    The least grid c also maximizes d over the feasible grid, since every
    larger c holds the window too.  d is convex in c, least at sqrt(sigma)
    / (1 + sqrt(sigma)).  For sigma >= 8 the ceiling 1 - e/sqrt(sigma)
    lies below that point, so d falls along the whole grid.  For sigma <=
    7, d rises from that point towards d(1) = 0, and d(0.99) < 0, so d > 0
    only where it falls.  Either way no larger c has a greater d, nor d > 0
    when the least c has not.
    """
    if c is None:
        denom = epsilon * m - k - q
        if k and denom <= 0:
            raise PlanError(f"eps*m - k - q = {epsilon}*{m} - {k} - {q} = {denom:g} is not positive")
        lo = max(1, math.ceil(k / denom * 100)) if k else 1
        # below sigma = 8 the ceiling is not positive, and the grid runs to 0.99
        hi = 1 - math.e / math.sqrt(sigma) if sigma >= 8 else 1.0
        grid = (i / 100 for i in range(lo, 100) if i / 100 < hi)
        c = next((cv for cv in grid if 2 * q + k / cv <= m - k), None)
        if c is None:
            raise PlanError(
                f"no c on the 0.01 grid in [{lo / 100:g}, {hi:.3g}) lets the window "
                f"m-k = {m - k} hold 2q + k/c at q = {q}"
            )
    if sigma**q > qgramindex.MAX_ENTRIES:
        raise PlanError(f"sigma^q = {sigma**q} exceeds the index budget {qgramindex.MAX_ENTRIES}")
    d = d_exponent(c, sigma)
    if d <= 0:
        raise PlanError(f"difference-rate exponent d(c={c:.3f}) = {d:.4f} is not positive")
    need = 2 * q + (k / c if k else 0)
    if need > m - k:
        raise PlanError(f"window m-k = {m - k} cannot hold 2q + k/c = {need:.1f}")
    return c, d


# the build-work budget of `_q_caps`, read at each plan
MAX_WORK = 1 << 29


def _q_caps(m: int, sigma: int, limit: int) -> int:
    """Largest q up to `limit` whose index fits the build-work budget,
    MAX_WORK; `_filter_c` holds the entry budget.

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
    fallback: bool = True,
) -> SearchPlan:
    """Choose search parameters for a length-m pattern at threshold k.

    One sweep takes q downwards from the largest value that the work
    budget and the window allow, and returns the first (q, c) that
    `_filter_c` gives whose q is at most the asymptotic bound.  A given q
    is a sweep over q alone, without that bound, and raises the PlanError
    of `_filter_c`.  When the sweep leaves no q, a given c raises the
    reason at the last q swept; otherwise the plan verifies every window,
    or without `fallback` raises "no filter plan:" with that reason, or
    with the window or the work budget that left no q to sweep.
    """
    if k < 0 or k >= m:
        raise PlanError(f"threshold k={k} must satisfy 0 <= k < m={m}")
    check_overrides(m, q, c, epsilon)
    sigma = a.size
    if q is not None:
        qs = [q]
    elif not (qs := range(_q_caps(m, sigma, (m - k - 1) // 2), 0, -1)):
        if fallback:
            return SearchPlan.verify_all(m, k, epsilon)
        why = (
            f"window m-k = {m - k} is shorter than 2q + 1 = 3 at q = 1"
            if m - k < 3
            else f"build work sigma^q (2m-q)(2q+1) sigma at q = 1 exceeds MAX_WORK = {MAX_WORK}"
        )
        raise PlanError(f"no filter plan: {why}")
    # a swept q is at most the asymptotic (3 ln m + ln k) / (d ln sigma)
    top = 3 * math.log(m) + math.log(max(k, 1))
    for qv in qs:
        try:
            cv, dv = _filter_c(m, k, qv, sigma, epsilon, c)
        except PlanError as err:
            if q is not None:
                raise
            why = err
            continue
        if q is None and qv > math.ceil(top / (math.log(sigma) * dv)):
            continue
        j = _grams_per_window(k, cv, qv)
        return SearchPlan(mode="filter", m=m, k=k, epsilon=epsilon, q=qv, c=cv, d=dv, j_grams=j)
    # q = 1 is never above the bound, so `why` is its reason
    if c is not None:
        raise why
    if fallback:
        return SearchPlan.verify_all(m, k, epsilon)
    raise PlanError(f"no filter plan: {why}")


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
    # a gram's entry is entries[left[gram[:h]] + right[gram[h:]]]; a half
    # that is in neither table holds a foreign letter, and the gram adds 0
    left, right = qgramindex.half_tables(idx.alphabet, q)
    h = q // 2
    rlen = q - h
    # a window's grams are read leftwards from its end, and g is where the
    # gram being read splits: the gram is t[g - h : g + rlen]
    fast = wlen - q + 1  # the shift of a window whose first gram exceeds k
    first = wlen - rlen  # the first gram's split in the window at 0
    span = (j_grams - 1) * q
    examined = verified = grams = 0
    lo = hi = 0  # [lo, hi): the verified starts not yet settled
    g0 = first  # the first gram's split in the window at g0 - first
    while True:
        # windows whose first gram alone exceeds k, counted from the distance
        # g0 moved; past the text's end the right half is short and in no
        # table, so the lookup ends the run
        run = g0
        try:
            while (ssum := entries[left[tb[g0 - h : g0]] + right[tb[g0 : g0 + rlen]]]) > k:
                g0 += fast
        except KeyError:
            ssum = 0  # a foreign letter, or the end of the text
        if run < g0:
            ran = (g0 - run) // fast
            examined += ran
            grams += ran
            if collect_skips:
                skips.extend((g - first, fast) for g in range(run, g0, fast))
        if g0 + rlen > n:
            break
        # the first gram is within k: read the other J - 1 leftwards until
        # the summed entries exceed k or all J are read
        examined += 1
        g, stop = g0, g0 - span
        while ssum <= k and g > stop:
            g -= q
            try:
                ssum += entries[left[tb[g - h : g]] + right[tb[g : g + rlen]]]
            except KeyError:
                pass
        grams += (g0 - g) // q + 1
        if ssum > k:
            # one letter past the leftmost letter read
            if collect_skips:
                skips.append((g0 - first, g + fast - g0))
            g0 = g + fast
            continue
        verified += 1
        p = g0 - first
        if p != hi:
            settle(lo, hi)
            lo = p
        hi = p + wlen
        g0 += wlen
    settle(lo, hi)
    return occs, SearchStats(examined, verified, grams, settled + q * grams, len(occs), skips)

