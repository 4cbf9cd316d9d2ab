"""The squares U, U^2, U^4, ... that each unit keeps for `eval`'s unit powers.

`units._unit_power` reads them from `units._SQUARES` and adds the ones it
makes.  After any earlier powers, `U^n` must give the raw payload and
text of a plain `UNIT_VALUES[u] ** n`; it must take
`bit_length(n) + popcount(n) - 2` products from an emptied cache and
`popcount(n) - 1` once the squares it needs are kept; a substituted unit
must not read the squares of the value it replaced; the kept squares
must stay near twice the payload of the largest power asked for; and
threads that share them must print what one thread prints.
"""

import random
import sys
import threading
import time

import pytest

from signfree import units
from signfree.expressions import eval_text, format_value
from signfree.matrices import CyclicMatrix
from signfree.units import UNIT_VALUES, UnitName

from test_cyclic_core import _count_products
from test_verify import _swap_j_and_jj

TOKENS = [member.name for member in UnitName]
EXPONENTS = range(65)
TEXTS = [(token, n) for n in EXPONENTS for token in TOKENS]
ORDERS = {
    "ascending": TEXTS,
    "descending": TEXTS[::-1],
    "shuffled": random.Random("unit squares").sample(TEXTS, len(TEXTS)),
}


@pytest.fixture
def cold(monkeypatch):
    """An emptied cache for the test, the module's own restored after it."""
    monkeypatch.setattr(units, "_SQUARES", {})


def _raw(value):
    return value._num, value._den, str(value)


def _plain(token, n):
    return _raw(UNIT_VALUES[UnitName[token]] ** n)


@pytest.mark.parametrize("order", ORDERS)
def test_unit_powers_match_plain_powers(cold, order):
    for token, n in ORDERS[order]:
        assert _raw(eval_text(f"{token}^{n}")) == _plain(token, n), (token, n)


def test_a_substituted_unit_reads_none_of_the_replaced_squares(cold, monkeypatch):
    j, jj = UNIT_VALUES[UnitName.J], UNIT_VALUES[UnitName.JJ]
    eval_text("J^64")  # J and JJ keep their squares up to the 64th power
    eval_text("JJ^64")
    with monkeypatch.context() as swapped:
        _swap_j_and_jj(swapped)
        assert _raw(eval_text("J^5")) == _raw(jj**5)
        assert _raw(eval_text("JJ^5")) == _raw(j**5)
    assert _raw(eval_text("J^5")) == _raw(j**5)
    assert _raw(eval_text("JJ^5")) == _raw(jj**5)


@pytest.mark.parametrize("token", TOKENS)
def test_a_warm_unit_power_only_joins_its_squares(cold, monkeypatch, token):
    count = _count_products(monkeypatch, CyclicMatrix)
    for n in EXPONENTS:
        units._SQUARES.clear()
        count[0] = 0
        eval_text(f"{token}^{n}")
        assert count[0] == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
    eval_text(f"{token}^64")
    for n in EXPONENTS:
        count[0] = 0
        eval_text(f"{token}^{n}")
        assert count[0] == max(bin(n).count("1") - 1, 0), n


def _bits(matrix):
    return sum(x.bit_length() for x in matrix._num) + matrix._den.bit_length()


@pytest.mark.parametrize("token", TOKENS)
def test_kept_squares_stay_near_twice_the_largest_power(cold, token):
    unit = UnitName[token]
    largest = 0
    for n in random.Random(token).sample(range(1, 300), 40):
        eval_text(f"{token}^{n}")
        largest = max(largest, n)
        kept = units._SQUARES.get(unit, ())
        assert len(kept) == (largest.bit_length() if largest > 1 else 0), n
        # the payload of U^n grows with n, but for ONE's, which the slack covers
        slack = len(kept) * _bits(UNIT_VALUES[unit])
        assert sum(map(_bits, kept)) <= 2 * _bits(UNIT_VALUES[unit] ** largest) + slack, n


def test_threads_sharing_the_squares_print_what_one_thread_prints(cold, monkeypatch):
    texts = [f"{token}^{n}" for token, n in ORDERS["shuffled"]]
    expected = [format_value(eval_text(text)) for text in texts]
    units._SQUARES.clear()
    product = CyclicMatrix.__mul__

    def yielding(self, other):
        time.sleep(0)  # let another thread run in the middle of a power, here at each product
        return product(self, other)

    monkeypatch.setattr(CyclicMatrix, "__mul__", yielding)
    threads = 8
    start = threading.Barrier(threads, timeout=60)
    printed = [None] * threads

    def run(index):
        start.wait()
        printed[index] = [format_value(eval_text(text)) for text in texts]

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(lines == expected for lines in printed)
    # whichever thread stored a unit's squares last, they are U, U^2, U^4, ... in order
    for unit, kept in units._SQUARES.items():
        assert [_raw(square) for square in kept] == [_plain(unit.name, 2**k) for k in range(len(kept))]
