"""Sphere homotopy-group table and assembly of manifold homotopy groups.

The bundled TSV ships pi_k(S^m) for 2 <= m <= 8 over the classical Toda
range; below the diagonal the groups are zero and on it they are Z, so those
never need table rows.  Each row's free rank is checked against Serre's
theorem at load.  Queries outside the loaded range raise instead of
guessing.  Homotopy groups of an (n, r, G) manifold are assembled, away from
the primes dividing |G|, as the direct sum over sphere summands S^(w+1) with
the Moebius multiplicities l[w].
"""

import os
import stat
from collections import namedtuple

from .abelian import FgAbelianGroup
from .errors import TableFormatError, TableRangeError
from .manifold import ManifoldModel, parse_torsion, sigma_primes
from .series import sphere_summand_counts

BUNDLED_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "sphere_table.tsv")

# The most cyclic summands a homotopy answer may have.  homotopy --n 2 --r 5
# --k 9 has 207,228 and prints in about 0.1 s; --r 100 --k 9 would have about
# 1.4 * 10^15.
MAX_SUMMANDS = 10**6

# The most characters a table file may hold; the bundled table has 2,274.
# Reading stops one past it, so --table /dev/zero fails at once.
MAX_TABLE_CHARS = 10**6


class SphereTable:
    """Validated map (k, m) -> pi_k(S^m); each sphere's rows run without gaps."""

    def __init__(self, entries, provenance):
        self.entries = dict(entries)
        self.provenance = dict(provenance)
        ranges = {}
        for k, m in self.entries:
            lo, hi = ranges.get(m, (k, k))
            ranges[m] = (min(lo, k), max(hi, k))
        for m, (lo, hi) in ranges.items():
            for k in range(lo, hi + 1):
                if (k, m) not in self.entries:
                    raise TableFormatError(f"gap in table: pi_{k}(S^{m}) missing below pi_{hi}(S^{m})")

    def covers(self, k: int, m: int) -> bool:
        """Does pi(k, m) answer without TableRangeError?"""
        return k <= m or (k, m) in self.entries

    def pi(self, k: int, m: int) -> FgAbelianGroup:
        """pi_k(S^m); zero below the diagonal, Z on it, table above."""
        if m < 1 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        if k < m:
            return FgAbelianGroup.zero()
        if k == m:
            return FgAbelianGroup(1)
        entry = self.entries.get((k, m))
        if entry is None:
            raise TableRangeError([(k, m)])
        return entry


def load_table(text: str) -> SphereTable:
    """Parse TSV lines "k m free_rank torsion [source]"; '#' starts a comment.

    Rejects, with the offending line number: malformed fields, duplicate
    entries, nonzero groups below the diagonal, non-Z diagonal entries and
    free ranks that Serre's theorem forbids.
    """
    entries = {}
    provenance = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (4, 5):
            raise TableFormatError(f"line {lineno}: expected 4 or 5 fields, got {len(fields)}")
        try:
            k, m, rank = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise TableFormatError(f"line {lineno}: k, m, free_rank must be integers") from None
        if m < 1 or k < 0 or rank < 0:
            raise TableFormatError(f"line {lineno}: need m >= 1, k >= 0, free_rank >= 0")
        try:
            torsion = parse_torsion(fields[3])
        except ValueError as e:
            raise TableFormatError(f"line {lineno}: torsion: {e}") from None
        group = FgAbelianGroup(rank, torsion)
        if k < m and not group.is_zero():
            raise TableFormatError(f"line {lineno}: pi_{k}(S^{m}) must be zero below the diagonal")
        if k == m and group != FgAbelianGroup(1):
            raise TableFormatError(f"line {lineno}: pi_{m}(S^{m}) must be Z")
        # Serre: pi_k(S^m) is finite above the diagonal, except pi_(2m-1)(S^m) = Z + finite, m even
        hopf = m % 2 == 0 and k == 2 * m - 1
        if k > m and rank != hopf:
            raise TableFormatError(f"line {lineno}: pi_{k}(S^{m}) must have free rank {int(hopf)}")
        if k < m:
            continue  # implied zero; do not store
        if (k, m) in entries:
            raise TableFormatError(f"line {lineno}: duplicate entry for pi_{k}(S^{m})")
        entries[(k, m)] = group
        provenance[(k, m)] = fields[4] if len(fields) == 5 else ""
    return SphereTable(entries, provenance)


def load_table_file(path: str | None = None) -> SphereTable:
    """The table in the file at ``path`` (the CLI's --table); None means the bundled table.

    A file of more than MAX_TABLE_CHARS characters raises TableFormatError,
    and so does a FIFO that yields no text.  The file opens without
    blocking, so a FIFO with no writer reads as empty at once instead of
    waiting for one, while a pipe (``--table /dev/stdin``) still loads.
    """
    path = BUNDLED_TABLE_PATH if path is None else path
    with open(path, encoding="utf-8", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        os.set_blocking(fh.fileno(), True)  # a pipe with a writer, or a terminal, waits for its input
        fifo = stat.S_ISFIFO(os.fstat(fh.fileno()).st_mode)
        text = fh.read(MAX_TABLE_CHARS + 1)
    if fifo and not text:
        raise TableFormatError(f"{path} is a FIFO with no writer, or one that wrote nothing")
    if len(text) > MAX_TABLE_CHARS:
        raise TableFormatError(f"file is longer than the limit of {MAX_TABLE_CHARS} characters")
    return load_table(text)


class HomotopyAnswer(namedtuple("HomotopyAnswer", "k inverted_primes summands total")):
    """pi_k as summands (sphere dim m, multiplicity, localized pi_k(S^m)),
    with their direct sum `total` as an FgAbelianGroup."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "inverted_primes": list(self.inverted_primes),
            "summands": [
                {"m": m, "mult": mult, "group": str(g)} for m, mult, g in self.summands
            ],
            "total": str(self.total),
        }

    def summand_text(self) -> str:
        """Human form, one term per sphere summand: "Z + Z", "Z^2", "0"."""
        if not self.summands:
            return "0"
        return " + ".join(str(g.power(mult)) for _m, mult, g in self.summands)


def homotopy_of_manifold(m: ManifoldModel, k: int, table: SphereTable) -> HomotopyAnswer:
    """pi_k of the manifold, away from its torsion primes.

    Sums pi_k(S^(w+1)), localized, with multiplicity l[w] (for r = 0 the
    one summand S^(2n+1)); only spheres of dimension <= k can contribute,
    so the sum is finite.  Every such summand is listed, zero groups
    included.  If any needed group is outside the table range the query
    fails listing every missing (k, m) pair; nothing is silently dropped.  An answer of more than
    MAX_SUMMANDS cyclic summands (each sphere's multiplicity times the number
    of cyclic factors of its localized group) is refused with ValueError
    before any group is built: its printed form lists every summand.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    primes = sigma_primes(m)
    counts = sphere_summand_counts(m.n, m.r, max(k - 1, 1)) if k >= 2 else {}
    needed = [(w + 1, counts[w]) for w in sorted(counts) if counts[w] and w + 1 <= k]
    missing = [(k, sphere) for sphere, _mult in needed if not table.covers(k, sphere)]
    if missing:
        raise TableRangeError(missing)
    summands = [(sphere, mult, table.pi(k, sphere).localize(primes)) for sphere, mult in needed]
    size = sum(mult * (g.rank + len(g.torsion.invariant_factors)) for _s, mult, g in summands)
    if size > MAX_SUMMANDS:
        raise ValueError(
            f"pi_{k} at r={m.r} has {size} cyclic summands, over the limit {MAX_SUMMANDS}; "
            "lower r or k"
        )
    total = FgAbelianGroup.zero()
    for _s, mult, g in summands:
        total = total.direct_sum(g.power(mult))
    return HomotopyAnswer(
        k=k,
        inverted_primes=tuple(sorted(primes)),
        summands=tuple(summands),
        total=total,
    )
