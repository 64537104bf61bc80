"""Pinned proxy and code-parameter outputs.

The digests below are contract values: a change to the integer search, the
LZW compressor, the word strings or the minimum-distance computation that
moves any of them needs a PROXY_VERSION bump.
"""

import hashlib

from kolmex import codes
from kolmex import complexity as cx
from kolmex.halting import integer_window_order

# One integer per branch of the integer search: perfect powers, a^e + r,
# small-divisor products, the towers 2^^4, 3^^3, 4^^3 and 5^^3, 10^100, and
# primes near 10^6 that exhaust the budget.
BRANCH_INTS = (
    2**32, 3**40, 10**9, 7**12, 12**10, 2**100, 6**17, 99**5, 2**64 - 1,
    10**9 + 7, 2**40 + 123, 3**30 + 999, 7**15 + 5, 10**12 + 39,
    3 * 2**20, 64 * 10**7, 63 * 5**9,
    2**16, 3**27, 4**256, 5**3125,
    10**100,
    999979, 999983, 1000003, 1000033,
)

# (q, n, size, count, seed) for sampled codes; q=36 uses the whole symbol table.
SAMPLED = (
    (2, 8, 4, 30, 11),
    (2, 6, 40, 10, 12),
    (3, 5, 6, 20, 13),
    (5, 4, 10, 15, 14),
    (7, 4, 20, 10, 15),
    (7, 3, 5, 10, 16),
    (36, 3, 12, 10, 17),
)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_complexity_bits_pinned():
    proxy = cx.DEFAULT_PROXY
    small = [str(proxy.complexity_bits(x)) for x in range(1, 1025)]
    assert _digest(small) == (
        "2bda541264af46d3eda7b25ab3555e1481c707df385afd371b89b123db187490")
    lines = [f"{proxy.search(x)[0].serialize()} "
             f"{proxy.complexity_bits(x)}" for x in BRANCH_INTS]
    assert _digest(lines) == (
        "078191948979e3cde9c53b24b1348487dede1773c382caac6e861fe636bb6e2f")


def test_code_params_and_bits_pinned():
    lines = []
    for q, n, size, count, seed in SAMPLED:
        for e in codes.sample_codes(q, n, size, count, seed).entries:
            lines.append(f"{q},{e.params.d},{e.complexity_bits}")
    rs = codes.reed_solomon(7, 7, 3)
    bits = cx.DEFAULT_PROXY.complexity_bits(
        rs.to_code_words(), hints=rs.description_hints())
    lines.append(f"rs,{codes.code_params(rs).d},{bits}")
    assert _digest(lines) == (
        "6f5c54863a2f275ec5192ccced8760c5e3a54da79b6c089711c66269f6b83294")


def test_window_order_and_zipf_corpus_pinned():
    order = integer_window_order(1024)
    assert order.budget_cuts == 21
    assert _digest(map(str, order.objects)) == (
        "b30093f8cb5b6540a62053267344b38b895964bdeabeb867359af98507cad1fd")
    corpus = cx.synthetic_zipf_corpus(1000, 100_000, 20260809)
    assert _digest(corpus) == (
        "fc0f695bb1ad7234e941769606a6039019e999b7d6ebc3fcd1e42141438d76e0")
