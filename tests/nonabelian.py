"""A nonabelian group for the tests: the symmetric group S3.

Every group sepgraph builds is abelian, so only a test group can tell g*h from
h*g in skew products, actions, the action check and the crossed product.  No
command needs S3, so it lives here and not in ``src``.
"""

import itertools

from sepgraph.groups import Group, GroupError


class S3(Group):
    """Permutations of (0, 1, 2) as tuples, composed right to left: (p*q)(i) = p(q(i))."""

    __slots__ = ()
    is_finite = True
    order = 6

    def _identity(self):
        return (0, 1, 2)

    def _mul(self, p, q):
        return tuple(p[i] for i in q)

    def _inv(self, p):
        return tuple(sorted(range(3), key=p.__getitem__))

    def _normalize(self, raw):
        if sorted(raw) != [0, 1, 2]:
            raise GroupError(f"{raw!r} is not a permutation of (0, 1, 2)")
        return tuple(raw)

    def _values(self):
        return list(itertools.permutations(range(3)))

    def generating_set(self) -> list:  # a transposition and a 3-cycle
        return [self.element((1, 0, 2)), self.element((1, 2, 0))]

    def format_value(self, value) -> str:
        return "".join(map(str, value))

    def __str__(self):
        return "S3"


def exponents(value) -> list:
    """[a, b] with value = t^a r^b, for the generators t and r of :class:`S3`."""
    group = S3()
    t, r = (s.value for s in group.generating_set())
    for a, b in itertools.product(range(2), range(3)):
        p = group._identity()
        for step in [t] * a + [r] * b:
            p = group._mul(p, step)
        if p == value:
            return [a, b]
    raise ValueError(f"{value!r} is not in S3")
