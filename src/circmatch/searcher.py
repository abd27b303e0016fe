"""Sliding-window search: parameter planning, window filtration, and the
scan loop that dispatches verifications.

The window has length m - k.  From its right end the loop reads up to
J = 1 + ceil(k / (c*q)) non-overlapping q-grams leftwards, summing index
lookups.  Each lookup lower-bounds the edit distance between that gram and
anything inside any rotation, and any occurrence covering all grams read
so far absorbs their summed differences, so once the sum exceeds k no
occurrence can start at or before the leftmost letter read: the window
skips one position past it.  If all J grams stay within budget the window
is verified with a 2m block and advances by its full length.

Parameter planning picks (q, c) so the difference-rate exponent

    d(c) = 1 - c + 2c log_sigma(c) + 2(1-c) log_sigma(1-c)

is positive and maximal on a 0.01 grid, subject to the window being able
to hold the grams plus the slack k/c, and to the index fitting its space
and build-work budgets.  For sigma >= 8 the classical ceiling
c < 1 - e/sqrt(sigma) additionally caps the grid; for smaller alphabets
that bound is vacuous and positivity of d(c) is the operative test.
When no pair (q, c) is feasible the plan falls back to verifying every
window, which stays correct at O(n m k / (m-k)) expected cost.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from ._vectordp import min_prefix_distances
from .alphabet import Alphabet, encode_qgram, to_bytes
from .qgramindex import DEFAULT_MAX_ENTRIES, DEFAULT_MAX_WORK, QGramIndex
from .verifier import Block, Occurrence, dedup_occurrences, verify_block


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class SearchPlan:
    mode: str  # "filter" or "verify-all"
    m: int
    k: int
    window_len: int
    verified_shift: int
    epsilon: float
    q: int | None = None
    c: float | None = None
    d: float | None = None
    j_grams: int | None = None
    unverified_shift: int | None = None  # worst case: all J grams read


@dataclass
class SearchStats:
    windows_examined: int = 0
    windows_verified: int = 0
    qgrams_read: int = 0
    chars_inspected: int = 0
    occurrences_reported: int = 0
    skips: list = field(default_factory=list)  # (position, shift), test mode only


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
    an older window-matrix builder and overstates the cost of the trie
    build, but changing it would move plans, and with them q and every scan
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

    Overrides are validated against the filter-mode invariants (positive
    exponent, grams fitting the window, window holding 2q + k/c) and used
    as given.  Without overrides, a fixed-point iteration alternates the
    grid search for c with the asymptotic expression for q, caps q by the
    budgets and the window, and falls back to q-descent if the fixed point
    lands infeasible.
    """
    if k < 0 or k >= m:
        raise PlanError(f"threshold k={k} must satisfy 0 <= k < m={m}")
    if not 0 < epsilon < 1:
        raise PlanError("epsilon must lie in (0, 1)")
    sigma = a.size
    wlen = m - k

    def make(qv: int, cv: float, dv: float) -> SearchPlan:
        j = _grams_per_window(k, cv, qv)
        return SearchPlan(
            mode="filter",
            m=m,
            k=k,
            window_len=wlen,
            verified_shift=wlen,
            epsilon=epsilon,
            q=qv,
            c=cv,
            d=dv,
            j_grams=j,
            unverified_shift=wlen - j * qv + 1,
        )

    def check(qv: int, cv: float) -> SearchPlan:
        if not 1 <= qv < m:
            raise PlanError(f"q must satisfy 1 <= q < m, got q={qv}")
        if sigma**qv > max_index_entries:
            raise PlanError(
                f"sigma^q = {sigma**qv} exceeds the index budget {max_index_entries}"
            )
        if not 0 < cv < 1:
            raise PlanError(f"c must lie in (0, 1), got c={cv}")
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
        return SearchPlan(
            mode="verify-all", m=m, k=k, window_len=wlen,
            verified_shift=wlen, epsilon=epsilon,
        )

    if c is not None:
        dv = d_exponent(c, sigma)
        if dv <= 0:
            raise PlanError(
                f"difference-rate exponent d(c={c:.3f}) = {dv:.4f} is not positive"
            )
        qv = math.ceil((3 * math.log(m) + math.log(max(k, 1))) / (math.log(sigma) * dv))
        qv = max(1, min(qv, q_cap, int((wlen - (k / c if k else 0)) // 2)))
        for qq in range(qv, 0, -1):
            try:
                return check(qq, c)
            except PlanError:
                continue
        raise PlanError(f"no q pairs with c={c} for m={m}, k={k}, sigma={sigma}")

    # fixed-point iteration on q, then a downward sweep if needed
    q_cur = max(
        1,
        min(
            math.ceil((3 * math.log(m) + math.log(max(k, sigma))) / math.log(sigma)),
            q_cap,
        ),
    )
    for _ in range(10):
        got = _best_c(m, k, q_cur, sigma, epsilon)
        if got is None:
            break
        cv, dv = got
        q_next = math.ceil(
            (3 * math.log(m) + math.log(max(k, 1))) / (math.log(sigma) * dv)
        )
        q_next = max(1, min(q_next, q_cap))
        if q_next == q_cur:
            break
        q_cur = q_next
    for qv in range(q_cur, 0, -1):
        got = _best_c(m, k, qv, sigma, epsilon)
        if got is None:
            continue
        cv, dv = got
        if _grams_per_window(k, cv, qv) * qv <= wlen:
            return make(qv, cv, dv)
    return SearchPlan(
        mode="verify-all", m=m, k=k, window_len=wlen,
        verified_shift=wlen, epsilon=epsilon,
    )


@dataclass(frozen=True)
class FilterDecision:
    action: str  # "verify" or "skip"
    shift: int | None
    grams_read: int


def filter_window(
    t: str | bytes, window_start: int, plan: SearchPlan, idx: QGramIndex
) -> FilterDecision:
    """Read q-grams backwards from the window end and decide.

    Returns "skip" with the safe shift as soon as the summed lookups
    exceed k; otherwise "verify" after all J grams.  Grams containing
    letters outside the index alphabet contribute 0, which can only force
    a verification, never lose an occurrence.
    """
    if plan.mode != "filter":
        raise ValueError("filter_window needs a filter-mode plan")
    tb = to_bytes(t)
    wlen, q, k = plan.window_len, plan.q, plan.k
    wend = window_start + wlen
    if wend > len(tb):
        raise ValueError("window extends past the end of the text")
    ssum = 0
    for jj in range(1, plan.j_grams + 1):
        gpos = wend - jj * q
        code = encode_qgram(tb[gpos : gpos + q], idx.alphabet)
        if code is not None:
            ssum += idx.lookup(code)
        if ssum > k:
            return FilterDecision("skip", wlen - jj * q + 1, jj)
    return FilterDecision("verify", None, plan.j_grams)


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
    deduplicated, plus scan statistics.

    In filter mode the index must be given; in verify-all mode every
    window is verified and the index is ignored.
    """
    tb, xb = to_bytes(t), to_bytes(x)
    n, m = len(tb), len(xb)
    if k < 0 or k >= m:
        raise ValueError("need 0 <= k < len(pattern)")
    if plan.m != m or plan.k != k or plan.window_len != m - k:
        raise ValueError("plan was built for a different (m, k)")
    wlen = plan.window_len
    stats = SearchStats()
    occs: list[Occurrence] = []
    filtering = plan.mode == "filter"
    if filtering and idx is None:
        raise ValueError("filter mode needs a q-gram index")
    p = 0
    last = n - wlen
    while p <= last:
        stats.windows_examined += 1
        if filtering:
            decision = filter_window(tb, p, plan, idx)
            stats.qgrams_read += decision.grams_read
            stats.chars_inspected += decision.grams_read * plan.q
        else:
            decision = FilterDecision("verify", None, 0)
        if decision.action == "verify":
            stats.windows_verified += 1
            block = Block(p, tb[p : p + 2 * m])
            stats.chars_inspected += len(block.data)
            occs.extend(verify_block(xb, k, block))
            p += plan.verified_shift
        else:
            if collect_skips:
                stats.skips.append((p, decision.shift))
            p += decision.shift
    out = dedup_occurrences(occs)
    stats.occurrences_reported = len(out)
    return out, stats


def search_chunked(
    t: str | bytes,
    x: str | bytes,
    k: int,
    plan: SearchPlan,
    idx: QGramIndex | None = None,
    chunks: int = 1,
    threads: int = 1,
) -> tuple[list[Occurrence], SearchStats]:
    """Partition the text, search each chunk with 2m-1 letters of overlap,
    and merge.  The merged, deduplicated result is identical to the
    single-pass output; chunks may run on a thread pool."""
    tb, xb = to_bytes(t), to_bytes(x)
    n, m = len(tb), len(xb)
    chunks = max(1, min(chunks, n or 1))
    if chunks == 1:
        return search(tb, xb, k, plan, idx)
    bounds = [(n * i) // chunks for i in range(chunks + 1)]
    jobs = []
    for i in range(chunks):
        core_start, core_end = bounds[i], bounds[i + 1]
        if core_start >= core_end:
            continue
        ext_end = min(n, core_end + 2 * m - 1)
        jobs.append((core_start, core_end, tb[core_start:ext_end]))

    def one(job):
        core_start, core_end, data = job
        found, st = search(data, xb, k, plan, idx)
        keep = [
            Occurrence(o.start + core_start, o.length, o.rotation, o.distance)
            for o in found
            if o.start < core_end - core_start
        ]
        return keep, st

    results = []
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]
    merged: list[Occurrence] = []
    stats = SearchStats()
    for keep, st in results:
        merged.extend(keep)
        stats.windows_examined += st.windows_examined
        stats.windows_verified += st.windows_verified
        stats.qgrams_read += st.qgrams_read
        stats.chars_inspected += st.chars_inspected
    out = dedup_occurrences(merged)
    stats.occurrences_reported = len(out)
    return out, stats


def oracle_search(t: str | bytes, x: str | bytes, k: int) -> list[Occurrence]:
    """Reference search: for every start and every rotation, the banded
    distance to every clipped prefix, minimum distance then minimum length.

    Independent of the window/filtration machinery; intended for
    correctness checking at desk scale.
    """
    tb, xb = to_bytes(t), to_bytes(x)
    n, m = len(tb), len(xb)
    if k < 0 or k >= m:
        raise ValueError("need 0 <= k < len(pattern)")
    if n == 0:
        return []
    arr = np.frombuffer(tb, dtype=np.uint8)
    doubled = np.frombuffer(xb + xb, dtype=np.uint8)
    rot_matrix = np.lib.stride_tricks.sliding_window_view(doubled, m)[:m]
    dmin, lmin = min_prefix_distances(rot_matrix, arr, k, n)
    out: list[Occurrence] = []
    for r, p in np.argwhere(dmin <= k):
        out.append(Occurrence(int(p), int(lmin[r, p]), int(r), int(dmin[r, p])))
    return dedup_occurrences(out)
