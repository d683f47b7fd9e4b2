"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most literal way possible
(plain dicts, direct summation, recursion) and shares no code with the
package internals it checks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def ref_windows(cw_min: int, cw_max: int, retry_limit: int) -> tuple[int, ...]:
    out = [cw_min]
    for _ in range(1, retry_limit):
        out.append(min(cw_max, 2 * out[-1]))
    return tuple(out)


def make_ref_tx_prob(cw_min: int, cw_max: int, retry_limit: int):
    """Direct-summation evaluation of the large-population attempt recursion.

    Returns (a, b, p_tx) callables of (t, r).
    """
    windows = ref_windows(cw_min, cw_max, retry_limit)

    @lru_cache(maxsize=None)
    def a(t: int, r: int) -> float:
        if t < 0 or r >= retry_limit:
            return 0.0
        if r == 0:
            return 1.0 / cw_min if 0 <= t < cw_min else 0.0
        cw_r = windows[r]
        return sum(a(i, r - 1) for i in range(t - cw_r, t)) / cw_r

    @lru_cache(maxsize=None)
    def b(t: int, r: int) -> float:
        if r == 0:
            return 1.0 - sum(a(i, 0) for i in range(t))
        return sum(a(i, r - 1) - a(i, r) for i in range(t))

    def p_tx(t: int, r: int) -> float:
        den = b(t, r)
        if den <= 0.0:
            return 0.0
        return a(t, r) / den

    return a, b, p_tx


class DenseChainReference:
    """Plain-dict stepping of both processes under the per-slot Bernoulli model.

    Mirrors the production semantics from the written transition formulas
    alone; used to check the vectorized steppers to float accuracy.
    """

    def __init__(self, n, cw_min, cw_max, retry_limit, durations):
        self.n = n
        self.retry_limit = retry_limit
        self.durations = durations
        _, _, self.p_tx = make_ref_tx_prob(cw_min, cw_max, retry_limit)
        self.layer_a = {(0, 0, 0): 1.0}  # (c, s, r) -> mass
        self.layer_b = {(0, 0): 1.0}  # (c, s) -> mass
        self.t = 0
        self.pa_atoms: dict[int, float] = {}
        self.pb_atoms: dict[int, float] = {}
        self.fail_a = 0.0
        self.success_records: dict[tuple[int, int, int], float] = {}  # (t, c, s) -> mass

    def cond_tx(self, c: int, s: int) -> float:
        num = den = 0.0
        for (cc, ss, r), m in self.layer_a.items():
            if cc == c and ss == s:
                num += self.p_tx(self.t, r) * m
                den += m
        return num / den if den > 0.0 else 0.0

    def _time(self, c: int, s: int, t: int) -> int:
        d = self.durations
        return c * d.t_collision + s * d.t_success + (t - c - s) * d.t_empty

    def step(self) -> None:
        n, t = self.n, self.t
        next_a: dict[tuple[int, int, int], float] = {}
        next_b: dict[tuple[int, int], float] = {}

        for (c, s, r), m in self.layer_a.items():
            q = self.p_tx(t, r)
            big_p = self.cond_tx(c, s)
            peers = n - s - 1
            pie = (1.0 - big_p) ** peers
            pis = peers * big_p * (1.0 - big_p) ** (peers - 1) if peers > 0 else 0.0
            pic = 1.0 - pie - pis

            def put(key, mass):
                if mass > 0.0:
                    next_a[key] = next_a.get(key, 0.0) + mass

            put((c, s, r), m * (1.0 - q) * pie)
            succ = m * q * pie
            if succ > 0.0:
                key = (t, c, s)
                self.success_records[key] = self.success_records.get(key, 0.0) + succ
                tau = self._time(c, s + 1, t + 1)
                self.pa_atoms[tau] = self.pa_atoms.get(tau, 0.0) + succ
            put((c, s + 1, r), m * (1.0 - q) * pis)
            coll = m * q * (1.0 - pie)
            if r + 1 >= self.retry_limit:
                self.fail_a += coll
            else:
                put((c + 1, s, r + 1), coll)
            put((c + 1, s, r), m * (1.0 - q) * pic)

        for (c, s), m in self.layer_b.items():
            big_p = self.cond_tx(c, s)
            rem = n - s
            pie = (1.0 - big_p) ** rem
            pis = rem * big_p * (1.0 - big_p) ** (rem - 1)
            pic = 1.0 - pie - pis

            def putb(key, mass):
                if mass > 0.0:
                    next_b[key] = next_b.get(key, 0.0) + mass

            putb((c, s), m * pie)
            succ = m * pis
            if s + 1 == n:
                if succ > 0.0:
                    tau = self._time(c, n, t + 1)
                    self.pb_atoms[tau] = self.pb_atoms.get(tau, 0.0) + succ
            else:
                putb((c, s + 1), succ)
            putb((c + 1, s), m * pic)

        self.layer_a = next_a
        self.layer_b = next_b
        self.t += 1

    def run(self, t_stop: int) -> None:
        for _ in range(t_stop):
            self.step()


def enumerate_protocol(n, cw_min, cw_max, retry_limit, durations, tagged=0):
    """Exact outcome distribution of the true slotted backoff protocol.

    Exhaustively enumerates every joint initial draw and every redraw after a
    collision.  Returns (tagged_atoms, tagged_fail_prob, all_atoms,
    any_fail_prob, all_fail_prob) where all_atoms holds the time the last
    successful station finishes (runs with zero successes excluded).
    """
    windows = ref_windows(cw_min, cw_max, retry_limit)
    tagged_atoms: dict[int, float] = {}
    all_atoms: dict[int, float] = {}
    totals = {"tagged_fail": 0.0, "any_fail": 0.0, "all_fail": 0.0}

    def recurse(counters, retries, done, failed, elapsed, prob, tagged_time, last_success):
        # counters/retries: per station; done/failed: frozen outcome flags
        active = [i for i in range(n) if not done[i] and not failed[i]]
        if not active:
            if failed[tagged]:
                totals["tagged_fail"] += prob
            elif tagged_time is not None:
                tagged_atoms[tagged_time] = tagged_atoms.get(tagged_time, 0.0) + prob
            if any(failed):
                totals["any_fail"] += prob
            if all(failed[i] for i in range(n)):
                totals["all_fail"] += prob
            elif last_success is not None:
                all_atoms[last_success] = all_atoms.get(last_success, 0.0) + prob
            return

        tx = [i for i in active if counters[i] == 0]
        if len(tx) == 1:
            now = elapsed + durations.t_success
            winner = tx[0]
            done2 = list(done)
            done2[winner] = True
            counters2 = [c - 1 if (i in active and i != winner) else c for i, c in enumerate(counters)]
            recurse(
                counters2, retries, done2, failed, now, prob,
                now if winner == tagged else tagged_time, now,
            )
        elif len(tx) == 0:
            now = elapsed + durations.t_empty
            counters2 = [c - 1 if i in active else c for i, c in enumerate(counters)]
            recurse(counters2, retries, done, failed, now, prob, tagged_time, last_success)
        else:
            now = elapsed + durations.t_collision
            retries2 = list(retries)
            failed2 = list(failed)
            redrawers = []
            for i in tx:
                retries2[i] += 1
                if retries2[i] >= retry_limit:
                    failed2[i] = True
                else:
                    redrawers.append(i)
            base = [c - 1 if (i in active and i not in tx) else c for i, c in enumerate(counters)]
            choices = [range(windows[retries2[i]]) for i in redrawers]
            weight = prob / math.prod(windows[retries2[i]] for i in redrawers)
            for draw in itertools.product(*choices):
                counters2 = list(base)
                for i, v in zip(redrawers, draw):
                    counters2[i] = v
                recurse(counters2, retries2, done, failed2, now, weight, tagged_time, last_success)

    initial = itertools.product(*(range(cw_min) for _ in range(n)))
    w0 = 1.0 / cw_min**n
    for draw in initial:
        recurse(list(draw), [0] * n, [False] * n, [False] * n, 0, w0, None, None)
    return tagged_atoms, totals["tagged_fail"], all_atoms, totals["any_fail"], totals["all_fail"]


def slot_stepping_batch(config, batch_index: int, batch_runs: int) -> dict:
    """One simulator batch stepped slot by slot over every (station, run) cell.

    The form the pinned simulator counts were recorded from: each slot counts
    down every waiting station and updates every run by arithmetic on masks.
    Kept as the oracle for the draw order of the event-driven batch.
    """
    import numpy as np

    params, durations = config.params, config.durations
    n = params.n_stations
    rl = params.retry_limit
    windows = np.asarray(params.contention_windows(), dtype=np.int64)
    slot_time = np.array([durations.t_empty, durations.t_success, durations.t_collision])

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, batch_index))))

    # (station, run) arrays in the smallest integer types that hold every
    # counter, retry count and transmitter count; a station that delivered or
    # failed holds counter -1
    small = np.min_scalar_type(-max(params.cw_max, rl) - 1)
    counters = np.ascontiguousarray(
        rng.integers(0, windows[0], size=(batch_runs, n), dtype=np.int64).T, dtype=small)
    retries = np.zeros((n, batch_runs), dtype=small)
    count_type = np.min_scalar_type(n)
    remaining = np.full(batch_runs, n, dtype=np.int64)
    elapsed = np.zeros(batch_runs, dtype=np.int64)

    tagged_time = np.full(batch_runs, -1, dtype=np.int64)
    tagged_failed = np.zeros(batch_runs, dtype=bool)
    last_success = np.full(batch_runs, -1, dtype=np.int64)
    any_failed = np.zeros(batch_runs, dtype=bool)

    done_tagged: list[np.ndarray] = []
    done_tagged_failed: list[np.ndarray] = []
    done_last: list[np.ndarray] = []
    done_any_failed: list[np.ndarray] = []

    def _harvest(done_mask: np.ndarray) -> None:
        done_tagged.append(tagged_time[done_mask])
        done_tagged_failed.append(tagged_failed[done_mask])
        done_last.append(last_success[done_mask])
        done_any_failed.append(any_failed[done_mask])

    while True:
        tx = counters == 0
        # waiting stations count down now, so counters redrawn below count
        # from the next slot on
        counters -= counters > 0
        ntx = tx.sum(axis=0, dtype=count_type)
        elapsed += slot_time[np.minimum(ntx, 2)]

        success = ntx == 1
        won = tx & success
        counters -= won
        remaining -= success
        last_success = np.where(success, elapsed, last_success)
        tagged_time = np.where(won[0], elapsed, tagged_time)

        collision = ntx >= 2
        if collision.any():
            colliders = tx & collision
            retries += colliders
            dead = colliders & (retries >= rl)
            counters -= dead
            n_dead = dead.sum(axis=0, dtype=count_type)
            remaining -= n_dead
            any_failed |= n_dead > 0
            tagged_failed |= dead[0]
            # redraws are taken in (run, station) order
            station, run = np.divmod(np.flatnonzero(colliders ^ dead), counters.shape[1])
            if run.size:
                order = np.argsort(run, kind="stable")
                station, run = station[order], run[order]
                counters[station, run] = rng.integers(0, windows[retries[station, run]],
                                                      dtype=np.int64)

        running = remaining > 0
        if not running.all():
            if not running.any():
                _harvest(slice(None))
                break
            if running.mean() < 0.75:
                _harvest(~running)
                counters = counters[:, running]
                retries = retries[:, running]
                remaining = remaining[running]
                elapsed = elapsed[running]
                tagged_time = tagged_time[running]
                tagged_failed = tagged_failed[running]
                last_success = last_success[running]
                any_failed = any_failed[running]

    tagged_times = np.concatenate(done_tagged)
    tagged_fail = np.concatenate(done_tagged_failed)
    last = np.concatenate(done_last)
    anyf = np.concatenate(done_any_failed)
    return dict(
        tagged_times=tagged_times[~tagged_fail],
        tagged_failures=int(tagged_fail.sum()),
        finish_times=last[last >= 0],
        any_failure=int(anyf.sum()),
    )


def simulate_group_mixture(size, p_active, params, durations, runs, seed):
    """Monte-Carlo tagged delivery times for one group whose peer count is
    random: the tagged station always holds a frame, each of the other
    ``size - 1`` stations holds one with probability ``p_active``.

    Returns (sorted duration array of successful runs, failure count).
    Deterministic for a fixed seed; uses the production simulator per active
    count, which is itself validated against the exhaustive enumeration.
    """
    import numpy as np

    from rawtime import SimConfig, simulate

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xFEED))))
    peers = rng.binomial(size - 1, p_active, size=runs)
    times = []
    failures = 0
    for m in np.unique(peers):
        count = int((peers == m).sum())
        cfg = SimConfig(
            params=params.with_stations(int(m) + 1),
            durations=durations,
            runs=count,
            seed=seed + 7919 * (int(m) + 1),
        )
        emp_a, _ = simulate(cfg)
        failures += emp_a.failure_count
        for tau, c in atoms(emp_a).items():
            times.extend([tau] * c)
    return np.sort(np.asarray(times, dtype=np.int64)), failures


def atoms(dist) -> dict:
    """``{duration: probability}`` of a ``TimeDistribution``, or ``{duration:
    count}`` of a simulator histogram, as plain Python numbers."""
    weights = dist.counts if hasattr(dist, "counts") else dist.probabilities
    return dict(zip(dist.durations.tolist(), weights.tolist()))


def ref_compare(first: dict, second: dict) -> tuple[float, dict]:
    """Kolmogorov distance and per-duration differences ``first - second`` of
    two ``{duration: probability}`` dicts: each cumulative distribution is a
    running sum over its own atoms in duration order, read on the union of
    both supports."""
    support = sorted(set(first) | set(second))

    def cdf(dist: dict) -> dict:
        total, out = 0.0, {}
        for d in support:
            if d in dist:
                total += dist[d]
            out[d] = total
        return out

    cdf_first, cdf_second = cdf(first), cdf(second)
    distance = max((abs(cdf_first[d] - cdf_second[d]) for d in support), default=0.0)
    return distance, {d: first.get(d, 0.0) - second.get(d, 0.0) for d in support}
