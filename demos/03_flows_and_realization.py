"""
Flows and the realization of a complex
======================================

A flow forgets the cell structure and keeps the algebra of execution:
a path set with endpoints, an associative composition, and an adjacency
relation recording which paths can be deformed into each other.  The
realization of a complex takes *all* of its execution paths, composes
them by concatenation, and makes paths adjacent when one square move
separates them.
"""

from globflow import (
    Edge,
    GlobularComplex,
    IncrementalRealizer,
    Square,
    germs,
    glob_flow,
    realize,
    restrict,
    validate_flow,
)

# the flow of a globe by hand: no two paths compose
direct = glob_flow(["a", "b"])
print("glob flow:", direct)
print("composable pairs:", list(direct.composable_pairs()))

# realization of a two-edge chain: the composite path appears on its own
chain = GlobularComplex(
    states=("u", "v", "w"),
    edges=(Edge("e1", "u", "v"), Edge("e2", "v", "w")),
)
flow = realize(chain)
print("\nchain realization paths:", sorted(flow.paths))
print("e1 * e2 =", flow.compose("e1", "e2"))
print("axioms hold:", validate_flow(flow).ok)

# restriction keeps paths whose endpoints survive: the composite u -> w
# outlives the two halves when the middle state is dropped
print("restricted to {u, w}:", sorted(restrict(flow, {"u", "w"}).paths))

# germs: all ways of leaving u "the same way" collapse to one class,
# because a path is identified with each of its extensions
print("germs leaving u:", germs(flow, "u", "minus"))
print("germs entering v:", germs(flow, "v", "plus"))

# realize builds cell by cell too; a realizer goes on from where it is,
# and each square adds the moves pre.left.suf ~ pre.right.suf around it
builder = IncrementalRealizer(GlobularComplex(states=("00", "01", "10", "11")))
for cell in (
    Edge("a", "00", "10"),
    Edge("b", "10", "11"),
    Edge("c", "00", "01"),
    Edge("d", "01", "11"),
    Square("q", ("a", "b"), ("c", "d")),
):
    builder.attach(cell)
print("\nbuilt incrementally:", builder.flow)
print("adjacency from the square:", sorted(builder.flow.adjacency))
print("same as a fresh realization:", builder.flow == realize(builder.complex))
