"""Output checks for the benchmark, by routes independent of loopspace.

Nothing here imports loopspace: every expected number is recomputed from
(n, r, cap) with integer arithmetic only.

* Loop-homology dimensions are the coefficients of 1/q(t), with
  q(t) = 1 - r t^(n-1) - r t^n + t^(2n-1), from the integer recurrence
  q(t) * a(t) = 1.
* Sphere-summand counts l[w] must satisfy prod_w (1 - t^w)^(-l[w]) = 1/q(t).
  Both sides have constant term 1, so the identity holds iff their
  logarithmic derivatives agree.  Applying t d/dt to the log of each side
  turns it into the integer identity

      sum_{w | m} w * l[w] = p_m   for 1 <= m <= cap,

  where p(t) = -t q'(t) / q(t) = -t q'(t) * a(t) has integer coefficients.
  This checks the product identity exactly without expanding binomials of
  l[w], which have hundreds of digits at cap 400.
* Lie-algebra dimensions (the number of standard Lyndon words per degree)
  equal l[w]; they are recovered from p_m by integer Moebius inversion,
  l[w] = (1/w) sum_{d | w} mu(w/d) p_d.

Each check returns a list of error strings; an empty list means the output
passed.  An op whose list is non-empty counts as failed.
"""

import json
import re

SELFTEST_SUITES = (
    "dp-vs-enumeration",
    "mobius-vs-lyndon",
    "pbw-identity",
    "master-series",
    "confluence-fuzz",
    "independence",
)


# ---------------------------------------------------------------------------
# independent integer routes
# ---------------------------------------------------------------------------

def _q_terms(n, r):
    """q(t) as {exponent: coefficient}, without the constant term 1."""
    return {n - 1: -r, n: -r, 2 * n - 1: 1}


def loop_dims(n, r, cap):
    """Coefficients a_0..a_cap of 1/q(t), by a_m = -sum_e q_e a_(m-e)."""
    terms = _q_terms(n, r)
    a = [0] * (cap + 1)
    a[0] = 1
    for m in range(1, cap + 1):
        a[m] = -sum(c * a[m - e] for e, c in terms.items() if e <= m)
    return a


def power_sums(n, r, cap):
    """Coefficients p_0..p_cap of -t q'(t) / q(t)."""
    a = loop_dims(n, r, cap)
    p = [0] * (cap + 1)
    for e, c in _q_terms(n, r).items():
        for m in range(e, cap + 1):
            p[m] -= e * c * a[m - e]
    return p


def _mobius(k):
    result = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            result = -result
        d += 1
    return -result if k > 1 else result


def summand_counts(n, r, cap):
    """l[1..cap] by integer Moebius inversion of the power sums."""
    p = power_sums(n, r, cap)
    counts = {}
    for w in range(1, cap + 1):
        total = sum(_mobius(w // d) * p[d] for d in range(1, w + 1) if w % d == 0)
        if total % w:
            raise ArithmeticError(f"l[{w}] is not an integer")
        counts[w] = total // w
    return counts


# ---------------------------------------------------------------------------
# checks on program outputs
# ---------------------------------------------------------------------------

def check_dims(n, r, cap, dims):
    if not isinstance(dims, list) or len(dims) != cap + 1:
        got = len(dims) if isinstance(dims, list) else type(dims).__name__
        return [f"loop_homology_dims: expected {cap + 1} degrees, got {got}"]
    expected = loop_dims(n, r, cap)
    for d, (got, want) in enumerate(zip(dims, expected)):
        if got != want:
            return [f"loop_homology_dims[{d}] = {got}, expected {want}"]
    return []


def check_summands(n, r, cap, counts):
    """counts maps w -> l[w] for exactly w = 1..cap."""
    if sorted(counts) != list(range(1, cap + 1)):
        return [f"summand_counts: expected degrees 1..{cap}, got {len(counts)} keys"]
    for w, v in counts.items():
        if not isinstance(v, int) or v < 0:
            return [f"summand_counts[{w}] = {v!r} is not a non-negative integer"]
    p = power_sums(n, r, cap)
    for m in range(1, cap + 1):
        s = sum(w * counts[w] for w in range(1, m + 1) if m % w == 0)
        if s != p[m]:
            return [f"product identity fails at t^{m}: sum w*l[w] = {s}, expected {p[m]}"]
    return []


_DIMS_LINE = re.compile(r"^loop homology dims \(degrees 0\.\.(\d+)\): (.*)$", re.M)
_SUMMANDS_LINE = re.compile(r"^sphere summands: (.*)$", re.M)
_SUMMAND = re.compile(r"^l\[(\d+)\]=(\d+)$")


def _parse_text_report(stdout):
    """(dims, counts) from a text report; raises ValueError if malformed."""
    dims_m = _DIMS_LINE.search(stdout)
    sum_m = _SUMMANDS_LINE.search(stdout)
    if not dims_m or not sum_m:
        raise ValueError("text report lacks the dims or summands line")
    dims = [int(x) for x in dims_m.group(2).split()]
    counts = {}
    for token in sum_m.group(1).split():
        m = _SUMMAND.match(token)
        if not m:
            raise ValueError(f"malformed summand token {token!r}")
        counts[int(m.group(1))] = int(m.group(2))
    return dims, counts


def check_report(spec, stdout):
    """A `report` output for spec = {n, r, cap, json}."""
    n, r, cap = spec["n"], spec["r"], spec["cap"]
    try:
        if spec["json"]:
            doc = json.loads(stdout)
            if (doc.get("n"), doc.get("r"), doc.get("cap")) != (n, r, cap):
                return [f"report echoes (n, r, cap) = {(doc.get('n'), doc.get('r'), doc.get('cap'))}"]
            dims, raw = doc.get("loop_homology_dims"), doc.get("summand_counts")
            counts = None if raw is None else {int(w): v for w, v in raw.items()}
        elif r >= 1:
            dims, counts = _parse_text_report(stdout)
        else:
            dims = counts = None
    except ValueError as e:
        return [f"unparseable report: {e}"]
    if r == 0:
        if dims is not None or counts is not None:
            return ["rank-0 report should carry no loop homology"]
        if not spec["json"] and f"M ≃ S^{2 * n + 1} after inverting" not in stdout:
            return ["rank-0 text report lacks the sphere line"]
        return []
    if dims is None or counts is None:
        return ["report lacks loop homology dims or summand counts"]
    return check_dims(n, r, cap, dims) + check_summands(n, r, cap, counts)


_FROM_LINE = re.compile(r"^  from S\^(\d+) x(\d+): ", re.M)


def check_homotopy(spec, stdout):
    """The sphere summands (m, mult) of a `homotopy` answer.

    For r >= 1 the summands are exactly the spheres S^(w+1) with l[w] > 0 and
    w + 1 <= k, each with multiplicity l[w].  For r = 0 the only possible
    summand is the top sphere S^(2n+1), once.
    """
    n, r, k = spec["n"], spec["r"], spec["k"]
    try:
        if spec["json"]:
            doc = json.loads(stdout)
            if doc.get("k") != k:
                return [f"homotopy echoes k = {doc.get('k')}"]
            got = [(s["m"], s["mult"]) for s in doc["summands"]]
        else:
            if not stdout.startswith(f"pi_{k} = "):
                return [f"homotopy text does not start with pi_{k}"]
            got = [(int(a), int(b)) for a, b in _FROM_LINE.findall(stdout)]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unparseable homotopy answer: {e}"]
    if r == 0:
        ok = got in ([], [(2 * n + 1, 1)])
        return [] if ok else [f"rank-0 summands {got}"]
    counts = summand_counts(n, r, max(k - 1, 1)) if k >= 2 else {}
    want = [(w + 1, counts[w]) for w in sorted(counts) if counts[w] and w + 1 <= k]
    return [] if got == want else [f"summands {got}, expected {want}"]


def check_certificate(n, r, cap, report):
    """independence_certificate output {degree: (count, rank, space_dim)}."""
    if sorted(report) != list(range(1, cap + 1)):
        return [f"certificate: expected degrees 1..{cap}, got {sorted(report)}"]
    lie = summand_counts(n, r, cap)
    space = loop_dims(n, r, cap)
    for d in range(1, cap + 1):
        count, rank, dim = report[d]
        if count != rank:
            return [f"degree {d}: rank {rank} != count {count}"]
        if count != lie[d]:
            return [f"degree {d}: {count} standard words, expected lie dim {lie[d]}"]
        if dim != space[d]:
            return [f"degree {d}: space dim {dim}, expected {space[d]}"]
    return []


def check_selftest(code, stdout):
    if code != 0:
        return [f"selftest exit code {code}"]
    lines = stdout.splitlines()
    verdicts = {}
    for line in lines[:-1]:
        name, _, status = line.partition(" ")
        verdicts[name] = status.strip()
    if sorted(verdicts) != sorted(SELFTEST_SUITES):
        return [f"selftest suites {sorted(verdicts)}"]
    failed = [name for name, status in verdicts.items() if status != "PASS"]
    if failed:
        return [f"selftest suites not PASS: {failed}"]
    if not lines or lines[-1] != "selftest: all suites passed":
        return ["selftest summary line missing"]
    return []


def check_golden(name, expected, got):
    """Byte-for-byte comparison of a golden invocation's stdout."""
    if got == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(expected, got)) if a != b), min(len(expected), len(got)))
    return [f"golden {name}: first difference at byte {at}"]
