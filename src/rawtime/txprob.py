"""Per-slot transmission probabilities for truncated binary exponential backoff.

Under the large-population approximation every transmission collides, which
closes the recursion for a single station:

* ``a[t, r]`` -- probability that the station transmits in virtual slot ``t``
  while on retry count ``r``.  Fresh backoff is uniform over the initial
  window; after a collision in slot ``i`` the retransmission falls uniformly
  on one of the next CW_r slots, giving a sliding-window convolution.
* ``b[t, r]`` -- probability that the station enters slot ``t`` with retry
  count ``r`` and has not transmitted since reaching that count.  The sums
  run over slots ``0..t-1``: slot ``t`` itself has not happened yet, which is
  what forces ``p_tx`` to 1 on the last slot of a window.
* ``p_tx[t, r] = a / b`` -- conditional transmission probability, 0 where
  ``b`` vanishes (such states carry no probability mass).

The chains read only ``p_tx``, so a table keeps it alone, in the form they
multiply by (``TxProbTable.split``); ``a`` and ``b`` live only while the table
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ConfigurationError, ModelParams


@dataclass(frozen=True, eq=False)
class TxProbTable:
    """``split[t, r]`` holds ``(1 - p_tx, 1, p_tx)`` for ``t < t_extent`` and
    ``r < retry_limit``: one product with it splits a layer's mass into its silent
    share, itself and its transmitting share.
    """

    split: np.ndarray
    t_extent: int

    def split_row(self, t: int) -> np.ndarray:
        if not 0 <= t < self.t_extent:
            raise IndexError(f"slot {t} outside materialized range [0, {self.t_extent})")
        return self.split[t]


#: Most ``t_extent * retry_limit`` cells a table may have: 2**24, over 1,000 times the
#: 2,033 x 7 cells of the 802.11ah table, and 128 MiB per float64 array, of which a table
#: keeps three (the three of ``split``) and its build makes three more (``a``, ``b`` and
#: ``p_tx``).  A larger table is refused before anything is allocated: the windows of
#: ``cw_max = 2**30`` would ask for tens of GiB.
MAX_TABLE_CELLS = 2**24


def build_tx_prob_table(params: ModelParams, t_extent: int) -> TxProbTable:
    """The table of ``p_tx`` for slots ``0..t_extent-1``, from ``a`` and ``b``.

    The recursion is evaluated with prefix sums, so the cost is
    ``O(t_extent * retry_limit)``.  ``ConfigurationError`` if the table would have more
    than ``MAX_TABLE_CELLS`` cells.
    """
    if t_extent < 1:
        raise ConfigurationError(f"t_extent must be >= 1, got {t_extent}")
    if t_extent * params.retry_limit > MAX_TABLE_CELLS:
        raise ConfigurationError(
            f"the transmission-probability table would have {t_extent} slots x "
            f"{params.retry_limit} retry counts, more than {MAX_TABLE_CELLS} cells; "
            f"lower cw_max, retry_limit or t_max_cap")
    a, b = _attempts(params, t_extent)
    p_tx = np.zeros_like(a)
    reachable = b > 0.0
    p_tx[reachable] = np.clip(a[reachable] / b[reachable], 0.0, 1.0)
    split = np.stack([1.0 - p_tx, np.ones_like(p_tx), p_tx], axis=-1)
    split.setflags(write=False)
    return TxProbTable(split=split, t_extent=t_extent)


def _attempts(params: ModelParams, t_extent: int) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` for slots ``0..t_extent-1``."""
    windows = params.contention_windows()
    rl = params.retry_limit
    cw0 = windows[0]
    t_idx = np.arange(t_extent)

    a = np.zeros((t_extent, rl))
    a[: min(cw0, t_extent), 0] = 1.0 / cw0
    for r in range(1, rl):
        cw_r = windows[r]
        prev_prefix = np.concatenate(([0.0], np.cumsum(a[:, r - 1])))
        lo = np.maximum(t_idx - cw_r, 0)
        a[:, r] = (prev_prefix[t_idx] - prev_prefix[lo]) / cw_r

    b = np.zeros_like(a)
    b[:, 0] = np.maximum(1.0 - np.concatenate(([0.0], np.cumsum(a[:, 0])))[:t_extent], 0.0)
    for r in range(1, rl):
        entered_minus_left = np.concatenate(([0.0], np.cumsum(a[:, r - 1] - a[:, r])))
        b[:, r] = np.maximum(entered_minus_left[:t_extent], 0.0)
    return a, b
