"""Batch-stepping fast path: vectorized planning of interaction-free runs.

The paper's method needs event-level fidelity only for the **miss**
stream — MSHR occupancy and loaded latency are where Little's law
lives.  An L1 hit, by contrast, is pure arithmetic: it completes a
fixed ``l1_hit_ns`` after issue, touches nothing shared, and never
installs or evicts a line.  A run of hits is therefore just a run with
zero misses, and one planner
(:meth:`repro.sim.core.ThreadDriver._try_batch`) retires both; for a
run that holds misses it also replays the MSHR and memory-controller
service closed-form.  This module holds the planner's vectorized
checks.  Each computes, for a candidate run of upcoming accesses, how
long a prefix the simulator may retire *in one step* with observables
bit-identical to the event engine:

* :func:`issue_times` reproduces the event path's chained issue-time
  floats exactly (``np.cumsum`` performs the same left-to-right adds);
* :func:`window_admissible` replays the per-access window check the
  core front end would perform, using the completion-before-issue tie
  rule of the event engine;
* :func:`mshr_admissible`, :func:`conflict_free`,
  :func:`first_duplicate` and :func:`first_member` cut a run holding
  misses at MSHR pressure, at an in-run fill that invalidates the
  residency snapshot, at a merge onto an in-flight line, and at an
  exact float tie;
* :func:`run_length` cuts the run at the first access that fails any
  condition — that access (a would-be stall, a prefetch, a miss the
  plan cannot take…) falls back to the event engine with exact state.

A run that holds misses is also served closed-form by the components
it touches, each with array passes instead of a loop per access, and
each bit-identical to the scalar path:

* ``MemoryController.plan_batch`` solves the admission recurrence
  ``admit[i] = max(t[i], admit[i-1] + slot)`` by bounded fixed-point
  passes (a back-to-back chain that outlasts them is finished with one
  ``cumsum``) and the utilization window with one ``searchsorted``;
  ``commit_batch`` trims the window once, at the last cutoff;
* ``StreamPrefetcher.observe_replay`` opens the streams of pages it
  has not seen before in bulk, and steps only repeat pages through the
  scalar table transition;
* ``CacheArray.fill_batch`` keeps the sorted resident table that
  ``probe_batch`` reads current — victims deleted, survivors merged —
  instead of dropping it for a rebuild on the next probe.

The caller is responsible for the *quiescence* preconditions: no stall
in progress, zero outstanding demand accesses, and empty L1/L2 MSHR
files.  Under those conditions no queued event can mutate the core's
L1 residency while the run is in progress, so snapshot probes and
aggregate LRU replay are exact.  Runs with SMT or a TLB never batch
(the hierarchy turns the planner off for the whole run).  A run that
holds misses further requires an empty event queue, so nothing can
observe or perturb the shared memory controller mid-run.

A run of hits may still retire while another core has events queued,
and then exactness can fail.  The run schedules its hand-off and late
completion events when it is planned, so they carry earlier tie-break
sequence numbers than the event path would give them.  An event of
another core at the same instant then fires in a different order, and
same-instant memory-controller admissions of the two cores can swap.
The known case is comd on knl and a64fx at the cross-validation size,
pinned as an expected failure in ``tests/test_sim_batch.py``; an exact
fix needs multi-core co-batching.
"""

from __future__ import annotations

import numpy as np

#: Maximum accesses examined per scan; bounds per-scan work and keeps
#: temporary arrays cache-resident.
BATCH_LOOKAHEAD = 1024

#: Runs shorter than this are not worth the scan overhead; the event
#: path handles them.
MIN_BATCH = 8

#: After a failed scan, skip this many accesses before scanning again
#: (the trace is locally miss-heavy; rescanning every access would make
#: the fast path a slowdown).
BATCH_BACKOFF = 64


def issue_times(t0: float, gaps_ns: np.ndarray) -> np.ndarray:
    """Event-path issue times for a run whose first access issues now.

    The event engine computes each attempt time as the chained float
    sum ``t[j] = t[j-1] + gaps_ns[j]``; ``np.cumsum`` performs the same
    left-to-right sequential adds (unlike ``np.sum``'s pairwise tree),
    so every element is bit-identical to the scalar chain.

    ``gaps_ns`` holds the gaps of accesses 1..m of the run (the first
    access's gap already elapsed — it issues at ``t0``); the result has
    ``len(gaps_ns) + 1`` elements.
    """
    out = np.empty(len(gaps_ns) + 1, dtype=np.float64)
    out[0] = t0
    out[1:] = gaps_ns
    np.cumsum(out, out=out)
    return out


def run_length(ok: np.ndarray) -> int:
    """Length of the leading all-True prefix of a boolean mask."""
    if ok.all():
        return len(ok)
    return int(np.argmin(ok))


# -- run planning helpers ------------------------------------------------------
#
# Every helper below is *prefix-consistent*: the value it computes for
# access ``j`` depends only on accesses ``i < j``, so a run planned at
# full lookahead can be truncated at the minimum of all cut points
# without recomputation — the surviving prefix's values are unchanged.


def window_admissible(
    t: np.ndarray, completion: np.ndarray, window: int
) -> np.ndarray:
    """Per-access window check for a run that starts with none in flight.

    ``completion`` holds each access's completion time (``t +
    l1_hit_ns`` for a hit, the L1 fill time for a miss).  The demand
    accesses in flight when access ``j`` attempts to issue are the
    earlier ones that complete *strictly* after ``t[j]``: a completion
    at exactly ``t[j]`` counts as retired, because the event engine
    fires it first (it was scheduled strictly earlier, so it carries
    the lower tie-break sequence number).  Miss-completion/issue ties
    are cut upstream by :func:`first_member`, so only the hit tie rule
    is exercised here.  ``searchsorted`` on the sorted completion times
    counts the complement in O(n log n).  Entries past the first
    ``False`` are meaningless; cut via :func:`run_length`.
    """
    completed = np.searchsorted(np.sort(completion), t, side="right")
    in_flight = np.arange(len(t)) - completed
    return in_flight < window


def mshr_admissible(
    t: np.ndarray,
    is_alloc: np.ndarray,
    release_t: np.ndarray,
    capacity: int,
) -> np.ndarray:
    """Per-access MSHR-capacity check for a planned run.

    ``is_alloc`` marks the accesses that would allocate an entry in the
    file; ``release_t`` holds their release times in the same order
    (length ``is_alloc.sum()``).  The occupancy a candidate allocation
    at ``t[j]`` would observe is the number of earlier in-run
    allocations not yet released — releases after ``t[j]`` keep their
    entry live.  A release can only predate ``t[j]`` if its allocation
    did (service latency is positive), so one global ``searchsorted``
    over the sorted release times is exact.  Must stay strictly below
    ``capacity`` or the event path would have stalled the core.
    """
    prior_allocs = np.cumsum(is_alloc) - is_alloc
    released = np.searchsorted(np.sort(release_t), t, side="right")
    occupancy = prior_allocs - released
    return ~is_alloc | (occupancy < capacity)


def conflict_free(
    t: np.ndarray,
    set_idx: np.ndarray,
    check: np.ndarray,
    fill_sets: np.ndarray,
    fill_times: np.ndarray,
    num_sets: int,
) -> np.ndarray:
    """Snapshot-validity check against in-run fills.

    An access at position ``j`` whose hit/miss classification came from
    a residency snapshot is only trustworthy while no in-run fill has
    landed in its set: a fill can evict the line a planned hit relies
    on.  ``check`` marks the positions that need the guarantee;
    ``fill_sets``/``fill_times`` describe every fill the run would
    perform, in an array of ``num_sets`` sets.  Conservative: any
    same-set fill at or before ``t[j]`` invalidates ``j``, whether or
    not it actually evicts.  Fills from accesses after ``j`` land
    strictly after ``t[j]`` (service latency is positive), so the
    per-set minimum over *all* fills is exact for the prefix.
    """
    if not len(fill_sets) or not check.any():
        return np.ones(len(t), dtype=bool)
    # Earliest fill per set, dense over the array's sets (a set with no
    # fill keeps +inf).
    earliest = np.full(num_sets, np.inf)
    np.minimum.at(earliest, fill_sets, fill_times)
    return ~check | (t < earliest[set_idx])


def first_duplicate(values: np.ndarray) -> int:
    """Index of the first element equal to an earlier element (else len).

    Used to cut a miss run before a repeated line address: a duplicate
    would merge onto the in-flight MSHR entry on the event path, a case
    the batched replay does not model.
    """
    n = len(values)
    if n < 2:
        return n
    # A plain sort settles the common no-duplicate case; only a hit
    # needs the stable argsort that maps duplicates back to positions.
    sorted_values = np.sort(values)
    if not (sorted_values[1:] == sorted_values[:-1]).any():
        return n
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    dup = sorted_values[1:] == sorted_values[:-1]
    return int(order[1:][dup].min())


def first_member(t: np.ndarray, boundaries: np.ndarray) -> int:
    """Index of the first element of ``t`` present in ``boundaries``.

    Used to cut a run at a float-time collision between an issue attempt
    and an in-run fill/completion: the event engine's firing order for
    such a tie depends on scheduling history the planner cannot
    reconstruct, so the colliding access replays through the engine.
    Returns ``len(t)`` when no element collides.
    """
    if not len(boundaries):
        return len(t)
    # Membership by binary search in the sorted boundaries: the same
    # ``==`` test as ``np.isin``, without its per-call set machinery.
    sorted_b = np.sort(boundaries)
    pos = np.searchsorted(sorted_b, t)
    np.minimum(pos, len(sorted_b) - 1, out=pos)
    mask = sorted_b[pos] == t
    if not mask.any():
        return len(t)
    return int(np.argmax(mask))
