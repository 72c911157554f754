"""Force data from source text, shared by the test modules."""

from normalshift.expr import parse
from normalshift.fields import ABFields, HWPair


def hw(W, h="1", n=2):
    return HWPair(parse(W), parse(h), n)


def ab(a, b):
    return ABFields(parse(a), tuple(parse(c) for c in b))
