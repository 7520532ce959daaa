"""Channel model for the 3-user Gaussian interference channel.

A single carrier is a 3x3 real gain matrix ``h`` with ``h[i][j]`` the gain
from transmitter ``j`` to receiver ``i`` (user indices are 1-based in the
public API, matching the usual notation).  A parallel (multi-carrier)
channel is an ordered list of such carriers; carrier ``m`` holds the m-th
diagonal entries of all nine per-link diagonal matrices.

Besides the data model this module provides the singularity detector: a
carrier is *singular* when some interferer j is heard at two receivers i
and k in the same proportion to user i's own signal,

    h[i][j] / h[i][i] == h[k][j] / h[k][i]

for pairwise distinct (i, j, k).  A singular carrier supports only one
degree of freedom, which is what the built-in two-carrier counterexample
exploits: every carrier is singular, yet joint coding across the two
carriers aligns interference and achieves 3/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

USERS = (1, 2, 3)

#: entries with absolute value at or below this are rejected as zero gains
ZERO_TOL = 1e-12

#: default relative tolerance of the singularity ratio test
SINGULARITY_TOL = 1e-9

# all ordered triples of pairwise-distinct users, in lexicographic order;
# the detector scans them in this order so ties resolve deterministically
_TRIPLES = tuple(sorted(permutations(USERS)))


class ChannelError(ValueError):
    """Base class for channel construction/validation problems."""


class InvalidChannelError(ChannelError):
    """Raised when an operation requires a valid channel and gets an invalid one."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        parts = ", ".join(f"({i},{j}): {msg}" for i, j, msg in self.issues)
        super().__init__(f"invalid channel: {parts}")


class ChannelFormatError(ChannelError):
    """Raised when a channel file/document does not match the expected schema."""


def _as_row(row, where):
    if not isinstance(row, (list, tuple)) or len(row) != 3:
        raise ChannelFormatError(f"{where}: expected a row of 3 numbers")
    out = []
    for c, x in enumerate(row):
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            raise ChannelFormatError(f"{where}[{c}]: expected a number, got {type(x).__name__}")
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class SingleCarrierChannel:
    """One carrier of the 3-user interference channel.

    ``h`` is stored as a 3x3 tuple of real numbers (int, float or Fraction;
    Fractions let exact-arithmetic constructions survive unrounded).
    Row index = receiver, column index = transmitter.
    """

    h: tuple

    def __post_init__(self):
        if not isinstance(self.h, (list, tuple)) or len(self.h) != 3:
            raise ChannelFormatError("h: expected 3 rows of 3 numbers")
        rows = tuple(_as_row(r, f"h[{i}]") for i, r in enumerate(self.h))
        object.__setattr__(self, "h", rows)

    def gain(self, i: int, j: int):
        """Gain from transmitter j to receiver i (1-based indices)."""
        return self.h[i - 1][j - 1]

    def _float_rows(self) -> tuple:
        """The gain matrix as a 3x3 tuple of Python floats."""
        return tuple((float(a), float(b), float(c)) for a, b, c in self.h)


@dataclass(frozen=True)
class ParallelChannel:
    """An ordered list of M >= 1 carriers used jointly by all three users."""

    carriers: tuple

    def __post_init__(self):
        carriers = tuple(self.carriers)
        if len(carriers) < 1:
            raise ChannelFormatError("a parallel channel needs at least one carrier")
        for m, c in enumerate(carriers):
            if not isinstance(c, SingleCarrierChannel):
                raise ChannelFormatError(f"carriers[{m}]: expected a SingleCarrierChannel")
        object.__setattr__(self, "carriers", carriers)

    @property
    def n_carriers(self) -> int:
        return len(self.carriers)

    def _link_gains(self, i: int, j: int) -> list:
        """Per-carrier gains of the transmitter-j to receiver-i link, as Python floats."""
        return [float(c.gain(i, j)) for c in self.carriers]


@dataclass(frozen=True)
class SingularityWitness:
    """A triple of distinct users (i, j, k) satisfying the ratio condition.

    ``gamma`` is the common ratio h[i][j]/h[i][i] (= h[k][j]/h[k][i] within
    the detector tolerance); it is nonzero for any valid channel.
    """

    i: int
    j: int
    k: int
    gamma: float


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`; ``issues`` holds (i, j, message) per bad entry."""

    ok: bool
    issues: tuple = ()


def validate(channel: SingleCarrierChannel) -> ValidationResult:
    """Check that all nine gains are finite, above ZERO_TOL in magnitude,
    and small enough that their squares are finite too (every rate
    squares the gains).

    Returns
    -------
    ValidationResult
        ``ok`` is True iff every entry passes; each failing entry is
        reported with its 1-based (receiver, transmitter) index.
    """
    issues = []
    for i in USERS:
        for j in USERS:
            try:
                x = float(channel.gain(i, j))
            except (OverflowError, TypeError, ValueError):
                issues.append((i, j, "not a finite real number"))
                continue
            if not math.isfinite(x):
                issues.append((i, j, "not a finite real number"))
            elif abs(x) <= ZERO_TOL:
                issues.append((i, j, "zero gain"))
            elif not math.isfinite(x * x):
                issues.append((i, j, "gain too large: its square overflows"))
    return ValidationResult(ok=not issues, issues=tuple(issues))


def ensure_valid(channel: SingleCarrierChannel) -> None:
    """Raise :class:`InvalidChannelError` unless ``channel`` validates."""
    result = validate(channel)
    if not result.ok:
        raise InvalidChannelError(result.issues)


def ensure_parallel_valid(channel: ParallelChannel) -> None:
    for carrier in channel.carriers:
        ensure_valid(carrier)


def _witness_scan(channel, tol, exact):
    """Yield every triple passing the ratio test, in lexicographic order."""
    ensure_valid(channel)
    # negated, so that a NaN fails it; at tol >= 1 any two same-sign ratios collide
    if not exact and not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r} (or pass exact=True)")
    if exact:
        h, rtol = tuple(tuple(Fraction(x) for x in row) for row in channel.h), 0
    else:
        h, rtol = channel._float_rows(), tol
    for i, j, k in _TRIPLES:
        r1 = h[i - 1][j - 1] / h[i - 1][i - 1]
        r2 = h[k - 1][j - 1] / h[k - 1][i - 1]
        if abs(r1 - r2) <= rtol * max(abs(r1), abs(r2)):
            yield SingularityWitness(i, j, k, float(r1))


def singularity_check(
    channel: SingleCarrierChannel,
    tol: float = SINGULARITY_TOL,
    exact: bool = False,
) -> Optional[SingularityWitness]:
    """Search for a ratio collision h[i][j]/h[i][i] == h[k][j]/h[k][i].

    All six ordered triples of pairwise-distinct users are tested in
    lexicographic order on (i, j, k); the first hit is returned so the
    output is deterministic when several triples collide.

    Parameters
    ----------
    channel : SingleCarrierChannel
        Must be valid (all gains finite and nonzero).
    tol : float
        Relative tolerance in (0, 1): ratios r1, r2 collide when
        ``|r1 - r2| <= tol * max(|r1|, |r2|)``, a test unchanged when a
        row or a column of ``h`` is scaled.
    exact : bool
        Compare the ratios in exact rational arithmetic instead (``tol``
        is ignored).  Meant for rationally constructed channels, e.g. the
        output of the adversary's best response.

    Returns
    -------
    SingularityWitness or None
    """
    return next(_witness_scan(channel, tol, exact), None)


def all_witnesses(
    channel: SingleCarrierChannel,
    tol: float = SINGULARITY_TOL,
    exact: bool = False,
) -> tuple:
    """All triples passing the ratio test, in lexicographic order."""
    return tuple(_witness_scan(channel, tol, exact))


def make_counterexample() -> ParallelChannel:
    """The built-in two-carrier inseparability counterexample.

    All cross gains are 1 on both carriers; the direct gains are
    (1, 1, -1) on carrier 1 and (-1, -1, 1) on carrier 2.  Every carrier
    is singular (one degree of freedom on its own), yet beamforming along
    [1, 1] on every transmitter aligns all interference along [1, 1] at
    every receiver, so joint coding across the carriers reaches 3/2
    degrees of freedom per carrier.
    """
    carrier1 = SingleCarrierChannel(((1, 1, 1), (1, 1, 1), (1, 1, -1)))
    carrier2 = SingleCarrierChannel(((-1, 1, 1), (1, -1, 1), (1, 1, 1)))
    return ParallelChannel((carrier1, carrier2))


def per_carrier_dof(channel: ParallelChannel) -> tuple:
    """Degrees of freedom of each carrier taken on its own.

    Returns 1 for carriers where the singularity detector fires.  For
    generic carriers no value is established by this library, so ``None``
    (unknown) is reported rather than a guess.  Each singularity_check
    validates its own carrier, so an invalid carrier raises
    :class:`InvalidChannelError`.
    """
    return tuple(
        1 if singularity_check(c) is not None else None for c in channel.carriers
    )


def parse_channel(obj) -> ParallelChannel:
    """Build a :class:`ParallelChannel` from a decoded JSON document.

    Expected shape: ``{"carriers": [{"h": [[...],[...],[...]]}, ...]}``
    with row index = receiver and column index = transmitter.
    """
    if not isinstance(obj, dict) or "carriers" not in obj:
        raise ChannelFormatError('expected an object with a "carriers" list')
    carriers_obj = obj["carriers"]
    if not isinstance(carriers_obj, list) or not carriers_obj:
        raise ChannelFormatError('"carriers" must be a non-empty list')
    carriers = []
    for m, entry in enumerate(carriers_obj):
        if not isinstance(entry, dict) or "h" not in entry:
            raise ChannelFormatError(f'carriers[{m}]: expected an object with an "h" matrix')
        try:
            carriers.append(SingleCarrierChannel(entry["h"]))
        except ChannelFormatError as exc:
            raise ChannelFormatError(f"carriers[{m}].{exc}") from exc
    return ParallelChannel(tuple(carriers))


def load_channel(path) -> ParallelChannel:
    """Read a channel JSON file (see :func:`parse_channel` for the schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChannelFormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return parse_channel(obj)
