"""Deterministic coefficient magnitude schemes, ready for randomization.

A scheme stores sparse pairs (a_j0, a_j1) for the cosine and sine components
at degree j; |a_j| = sqrt(a_j0^2 + a_j1^2) is what all membership criteria
consume.  Every constructor records a provenance dict from which the scheme
regenerates bit-exactly through ``scheme_from_provenance``, which reads the
constructor for each scheme name from the ``SCHEMES`` table at the end.

Constructors, with n_{k-1} < j <= n_k denoting block k of a BlockSequence:

  uniform_block_scheme    magnitude per block from one of three rules:
                          g(n_k)/n_k, g(n_k)/sqrt(n_k log n_k), g(n_k)/sqrt(n_k)
  loglog_energy_scheme    a_j = 1/sqrt(n_k) on tower blocks n_k = 2^(2^k),
                          so each block carries about unit square-sum and the
                          cumulative square-sum grows like log log n
  riesz_lacunary_scheme   nu_k g(n_k)/log(n_k) on the 4-power comb
                          j = n_{k-1} + 4^m inside each block
  saturating_scheme       nu_k g(n_k)/sqrt(n_k log n_k) on whole blocks,
                          nu increasing, saturating the blockwise criterion
  rudin_shapiro_scheme    +-g(n_k)/sqrt(n_k - n_{k-1}) with Golay/Rudin-Shapiro
                          signs, so partial sums stay O(g(n)) in sup norm
  hadamard_lacunary_scheme  a_{n_k} = g(n_k), zero elsewhere

radial_derivative maps a scheme to that of r d/dr u, coefficients j a_j; a
function lies in the Bloch-type space of w when its radial derivative lies
in the growth space of 1/w, so Bloch-type conditions score this scheme.
It is not in SCHEMES; its provenance keeps the base scheme's under "base".

Logs are natural and clamped to max(1, log n_k); nu sequences are evaluated
at 0-based block positions (the first randomized block gets nu.at(0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GrowthLabError, fail, refuse_unread
from .reporting import canonical_json, format_csv, write_text
from .weights import BlockSequence, weight_from_json, weight_to_json

G_OVER_N = "g_over_n"
G_OVER_SQRT_NLOGN = "g_over_sqrt_nlogn"
G_OVER_SQRT_N = "g_over_sqrt_n"
MAGNITUDE_RULES = (G_OVER_N, G_OVER_SQRT_NLOGN, G_OVER_SQRT_N)

# Degree span n_K - n_0 allowed for the block-filling schemes (uniform,
# saturating, riesz_lacunary, rudin_shapiro): 64x the largest in use (2^16),
# well below what makes a build or its dense circle grid exhaust memory.
MAX_SCHEME_SPAN = 2**22


def clamped_log(x) -> np.ndarray:
    """max(1, ln x); keeps block formulas finite at n_k in {1, 2}."""
    return np.maximum(1.0, np.log(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class NuSequence:
    """Positive non-decreasing multipliers, indexed from 0.

    constant: c        log: log(i + 2)        sqrt: sqrt(i + 1)
    """

    kind: str
    c: float = 1.0

    def at(self, i) -> np.ndarray:
        i = np.asarray(i, dtype=float)
        if self.kind == "constant":
            return np.full_like(i, self.c)
        if self.kind == "log":
            return np.log(i + 2.0)
        if self.kind == "sqrt":
            return np.sqrt(i + 1.0)
        fail("CONFIG_INVALID", f"unknown nu sequence {self.kind!r}")

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "constant" and self.c != 1.0:
            d["c"] = self.c
        return d


def nu_from_json(d) -> "NuSequence":
    if isinstance(d, str):
        return NuSequence(kind=d)
    refuse_unread(d, ("kind", "c") if d.get("kind") == "constant" else ("kind",),
                  f"nu sequence {d.get('kind')!r}")
    return NuSequence(kind=d["kind"], c=d.get("c", 1.0))


@dataclass(frozen=True, eq=False)
class CoefficientScheme:
    """Sparse magnitudes j -> (a_j0, a_j1) up to max_degree."""

    support: np.ndarray          # sorted unique int64 degrees
    cos_coeffs: np.ndarray       # aligned with support
    sin_coeffs: np.ndarray
    max_degree: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        assert len(self.support) == len(self.cos_coeffs) == len(self.sin_coeffs)

    @property
    def size(self) -> int:
        return len(self.support)

    def magnitudes(self) -> np.ndarray:
        return np.hypot(self.cos_coeffs, self.sin_coeffs)

    def dense_magnitudes(self, n_max: Optional[int] = None) -> np.ndarray:
        """|a_j| for j = 0..n_max as a dense vector, at most MAX_SCHEME_SPAN long."""
        n = self.max_degree if n_max is None else int(n_max)
        if n > MAX_SCHEME_SPAN:
            fail("DEGREE_BUDGET", f"dense magnitudes up to degree {n} exceed the limit "
                 f"{MAX_SCHEME_SPAN}")
        out = np.zeros(n + 1)
        mask = self.support <= n
        out[self.support[mask]] = self.magnitudes()[mask]
        return out

    def to_csv(self) -> str:
        rows = zip(self.support.tolist(), self.cos_coeffs.tolist(), self.sin_coeffs.tolist())
        return format_csv(
            ["j", "a_j0", "a_j1"], rows,
            comments=[f"provenance: {canonical_json(self.provenance)}",
                      f"max_degree: {self.max_degree}"])

    def write_csv(self, path):
        write_text(path, self.to_csv())


def scheme_from_arrays(support, cos_coeffs, sin_coeffs, max_degree, provenance) -> CoefficientScheme:
    support = np.asarray(support, dtype=np.int64)
    if support.size and support.min() < 0:   # brackets take the degree from the last index
        fail("DOMAIN", f"support indices must be >= 0, got {support.min()}")
    order = np.argsort(support)
    support = support[order]
    repeats = support[1:][support[1:] == support[:-1]]
    if repeats.size:
        fail("DOMAIN", f"support indices must be unique, got {repeats[0]} more than once")
    return CoefficientScheme(
        support=support,
        cos_coeffs=np.asarray(cos_coeffs, dtype=float)[order],
        sin_coeffs=np.asarray(sin_coeffs, dtype=float)[order],
        max_degree=int(max_degree),
        provenance=provenance)


def scheme_from_csv(text: str) -> CoefficientScheme:
    import json
    prov = {}
    max_degree = None
    support, a0, a1 = [], [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                prov = json.loads(body[len("provenance:"):].strip())
            elif body.startswith("max_degree:"):
                max_degree = int(body[len("max_degree:"):].strip())
            continue
        if line.startswith("j,"):
            continue
        j, c, s = line.split(",")
        support.append(int(j))
        a0.append(float(c))
        a1.append(float(s))
    if max_degree is None:
        max_degree = max(support) if support else 0
    return scheme_from_arrays(support, a0, a1, max_degree, prov)


def blocks_provenance(blocks: BlockSequence) -> dict:
    return {"weight": weight_to_json(blocks.weight), "A": blocks.ratio_a,
            "n": list(blocks.n)}


def _check_span(blocks: BlockSequence, name: str):
    """Fail with DEGREE_BUDGET before a scheme over n_0 < j <= n_K is built."""
    span = blocks.n[-1] - blocks.n[0]
    if span > MAX_SCHEME_SPAN:
        fail("DEGREE_BUDGET", f"{name} scheme would span {span} degrees "
             f"(n_0 = {blocks.n[0]}, n_K = {blocks.n[-1]}); the limit is {MAX_SCHEME_SPAN}")


def _block_segments(blocks: BlockSequence):
    """Yield (k, n_prev, n_k) for the 1-based blocks k = 1..k_max."""
    for k in range(1, len(blocks.n)):
        yield k, blocks.n[k - 1], blocks.n[k]


def _block_scheme(pieces, max_degree: int, prov: dict,
                  fill_both: bool = False) -> CoefficientScheme:
    """Cosine scheme from per-block (degrees, values) pieces, values a scalar
    or one per degree; fill_both copies the values into the sine part."""
    pieces = list(pieces)
    support = np.concatenate([js for js, _ in pieces] or [np.zeros(0, dtype=np.int64)])
    vals = np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), js.shape)
                           for js, v in pieces] or [np.zeros(0)])
    sin = vals.copy() if fill_both else np.zeros_like(vals)
    return scheme_from_arrays(support, vals, sin, max_degree, prov)


# -- constructors -------------------------------------------------------------

def uniform_block_scheme(blocks: BlockSequence, rule: str,
                         fill_both: bool = False) -> CoefficientScheme:
    """Constant magnitude on each block, chosen by `rule`.

    g_over_n keeps the absolute-value sum criterion bounded for every sign
    choice; g_over_sqrt_nlogn is the randomized membership threshold;
    g_over_sqrt_n is the extremal square-sum budget.  Cosine-only unless
    fill_both puts the magnitude in both components.
    """
    if rule not in MAGNITUDE_RULES:
        fail("CONFIG_INVALID", f"unknown magnitude rule {rule!r}")
    if blocks.k_max < 1:
        fail("EMPTY_BLOCKS", "need at least one block beyond n0")
    _check_span(blocks, "uniform")
    pieces = []
    gs = blocks.g_values()
    for k, lo, hi in _block_segments(blocks):
        gnk = float(gs[k])
        nk = float(hi)
        if rule == G_OVER_N:
            mag = gnk / nk
        elif rule == G_OVER_SQRT_NLOGN:
            mag = gnk / math.sqrt(nk * float(clamped_log(nk)))
        else:
            mag = gnk / math.sqrt(nk)
        pieces.append((np.arange(lo + 1, hi + 1, dtype=np.int64), mag))
    prov = {"name": "uniform", "rule": rule, "fill_both": fill_both,
            "blocks": blocks_provenance(blocks)}
    return _block_scheme(pieces, blocks.n[-1], prov, fill_both)


TOWER_BLOCKS = (2, 4, 16, 256, 65536)  # 2^(2^k), k = 0..4


def loglog_energy_scheme(k_max: int) -> CoefficientScheme:
    """a_j = 1/sqrt(n_k) on the tower blocks n_k = 2^(2^k); a_0 = a_1 = a_2 = 0.

    Each block carries square-sum 1 - n_{k-1}/n_k, so the cumulative
    square-sum up to n_N is about N + 1, i.e. log log n_N.
    """
    if k_max < 0:
        fail("DOMAIN", f"k_max must be >= 0, got {k_max}")
    if k_max > 4:
        fail("DEGREE_BUDGET", f"k_max <= 4 (degree 65536); got {k_max}")
    n = TOWER_BLOCKS[:k_max + 1]
    pieces = ((np.arange(n[k - 1] + 1, n[k] + 1, dtype=np.int64), 1.0 / math.sqrt(n[k]))
              for k in range(1, len(n)))
    return _block_scheme(pieces, n[-1], {"name": "loglog", "k_max": k_max})


def riesz_lacunary_scheme(blocks: BlockSequence, nu: NuSequence) -> CoefficientScheme:
    """nu_k g(n_k)/log(n_k) at the comb j = n_{k-1} + 4^m, 0 <= m <= log_4(n_k/2).

    Requires n_k >= 4 n_{k-1} so the comb stays inside its block; the sup
    norm of each block is then bounded below by a Riesz-product argument,
    which is what makes the Cesaro norms of the full series grow like nu.
    """
    for k, lo, hi in _block_segments(blocks):
        if hi < 4 * lo:
            fail("RATIO_TOO_SMALL",
                 f"riesz lacunary scheme needs n_k >= 4 n_(k-1); block {k} has {hi} < 4*{lo}")
    _check_span(blocks, "riesz_lacunary")
    pieces = []
    gs = blocks.g_values()
    for k, lo, hi in _block_segments(blocks):
        m_top = int(math.floor(math.log(hi / 2.0, 4.0)))
        pieces.append((lo + 4 ** np.arange(0, m_top + 1, dtype=np.int64),
                       float(nu.at(k - 1)) * float(gs[k]) / float(clamped_log(hi))))
    prov = {"name": "riesz_lacunary", "nu": nu.to_json(),
            "blocks": blocks_provenance(blocks)}
    return _block_scheme(pieces, blocks.n[-1], prov)


def saturating_scheme(blocks: BlockSequence, nu: NuSequence) -> CoefficientScheme:
    """nu_k g(n_k)/sqrt(n_k log n_k) on whole blocks, zeroed for j <= 2.

    With nu constant this is the uniform g_over_sqrt_nlogn rule; with nu
    increasing to infinity it saturates the blockwise square-sum criterion
    by exactly the factor nu_k.
    """
    _check_span(blocks, "saturating")
    base = uniform_block_scheme(blocks, G_OVER_SQRT_NLOGN)
    ks = np.searchsorted(np.asarray(blocks.n), base.support, side="left")
    scale = nu.at(ks - 1)
    vals = base.cos_coeffs * scale
    keep = base.support > 2
    prov = {"name": "saturating", "nu": nu.to_json(),
            "blocks": blocks_provenance(blocks)}
    return scheme_from_arrays(base.support[keep], vals[keep],
                              np.zeros(int(keep.sum())), blocks.n[-1], prov)


def rudin_shapiro_signs(m: int) -> np.ndarray:
    """First m terms of the Golay/Rudin-Shapiro sign sequence.

    eps_j = (-1)^(number of adjacent 11 bit pairs in j); partial-sum
    polynomials sum eps_j z^j over j < m have sup norm at most 5 sqrt(m).
    """
    if m < 1:
        fail("DOMAIN", f"m must be >= 1, got {m}")
    j = np.arange(m, dtype=np.uint64)
    pairs = np.bitwise_count(j & (j >> np.uint64(1)))
    return 1.0 - 2.0 * (pairs.astype(np.int64) & 1)


def rudin_shapiro_scheme(blocks: BlockSequence) -> CoefficientScheme:
    """Sign-flattened blocks: +-g(n_k)/sqrt(n_k - n_{k-1}) at n_{k-1}+1..n_k.

    Block k is g(n_k) z^{n_{k-1}} P(z) for the normalized Rudin-Shapiro
    polynomial P of length n_k - n_{k-1}; taking real parts of the real
    +-1 coefficients leaves cosine terms with signs attached.  Each block
    has square-sum exactly g(n_k)^2.
    """
    for k, lo, hi in _block_segments(blocks):
        if hi < 2 * lo:
            fail("RATIO_TOO_SMALL",
                 f"rudin-shapiro scheme needs n_k >= 2 n_(k-1); block {k} has {hi} < 2*{lo}")
    _check_span(blocks, "rudin_shapiro")
    gs = blocks.g_values()
    # term j of block k's polynomial uses eps_{j-1}
    pieces = ((np.arange(lo + 1, hi + 1, dtype=np.int64),
               rudin_shapiro_signs(hi - lo) * (float(gs[k]) / math.sqrt(hi - lo)))
              for k, lo, hi in _block_segments(blocks))
    return _block_scheme(pieces, blocks.n[-1],
                         {"name": "rudin_shapiro", "blocks": blocks_provenance(blocks)})


def hadamard_lacunary_scheme(blocks: BlockSequence) -> CoefficientScheme:
    """a_{n_k} = g(n_k) at every block endpoint including n_0, zero elsewhere."""
    support = np.asarray(blocks.n, dtype=np.int64)
    vals = blocks.g_values().astype(float)
    prov = {"name": "hadamard", "blocks": blocks_provenance(blocks)}
    return scheme_from_arrays(support, vals, np.zeros_like(vals),
                              blocks.n[-1], prov)


def radial_derivative(scheme: CoefficientScheme) -> CoefficientScheme:
    """The scheme of r d/dr u: j a_j at degree j, support and max_degree kept."""
    j = scheme.support.astype(float)
    return CoefficientScheme(support=scheme.support, cos_coeffs=j * scheme.cos_coeffs,
                             sin_coeffs=j * scheme.sin_coeffs, max_degree=scheme.max_degree,
                             provenance={"name": "radial_derivative",
                                         "base": dict(scheme.provenance)})


def blocks_from_provenance(d: dict) -> BlockSequence:
    refuse_unread(d, ("weight", "A", "n"), "a block sequence")
    w = weight_from_json(d["weight"])
    return BlockSequence(weight=w, ratio_a=float(d["A"]), n=tuple(int(x) for x in d["n"]))


# -- registry -------------------------------------------------------------------

# scheme name -> (constructor name, provenance fields it takes as keyword
# arguments).  Constructors are looked up by name when called, so a wrapper
# installed on this module's attribute sees every build.
SCHEMES = {
    "loglog": ("loglog_energy_scheme", ("k_max",)),
    "uniform": ("uniform_block_scheme", ("blocks", "rule", "fill_both")),
    "saturating": ("saturating_scheme", ("blocks", "nu")),
    "riesz_lacunary": ("riesz_lacunary_scheme", ("blocks", "nu")),
    "rudin_shapiro": ("rudin_shapiro_scheme", ("blocks",)),
    "hadamard": ("hadamard_lacunary_scheme", ("blocks",)),
}

_DECODE = {"blocks": blocks_from_provenance, "nu": nu_from_json}
_OPTIONAL = ("fill_both",)     # provenance fields whose constructor argument has a default


def scheme_fields(name) -> tuple:
    """Provenance fields beside "name" that the scheme `name` is built from."""
    if name not in SCHEMES:
        fail("CONFIG_INVALID", f"unknown scheme {name!r}; expected one of {', '.join(SCHEMES)}")
    return SCHEMES[name][1]


def scheme_from_provenance(prov: dict) -> CoefficientScheme:
    """Rebuild a scheme bit-exactly from its provenance dict; a field of the
    wrong type or shape is CONFIG_INVALID, as is a provenance that is not an object."""
    if not isinstance(prov, dict):
        fail("CONFIG_INVALID", f"a scheme provenance must be a JSON object, "
             f"got {type(prov).__name__}")
    try:
        fields = scheme_fields(prov.get("name"))
        refuse_unread(prov, ("name",) + fields, f"scheme {prov['name']!r}")
        missing = [f for f in fields if f not in prov and f not in _OPTIONAL]
        if missing:
            fail("CONFIG_INVALID",
                 f"scheme {prov['name']!r} provenance lacks {', '.join(missing)}")
        build = globals()[SCHEMES[prov["name"]][0]]
        return build(**{f: _DECODE.get(f, lambda v: v)(prov[f]) for f in fields if f in prov})
    except GrowthLabError:       # a ValueError subclass that already carries its code
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        fail("CONFIG_INVALID", f"scheme {prov.get('name')!r} provenance is malformed "
             f"({type(e).__name__}: {e})")
