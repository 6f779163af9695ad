"""Every normal subobject of an algebra, for tests that draw from the
normal lattice or use it as a brute-force oracle."""

from semiab import join_normal, normal_closure


def _sub_key(sub):
    return tuple(tuple(sorted(X)) for X in sub.elements)


def normal_subobjects(A):
    """Every kernel of a quotient of A, smallest first.

    A normal subobject is the join of the normal closures of its own
    elements, so breadth-first joins of single-element closures reach
    all of them.
    """
    atoms = [normal_closure(A, *({x} if j == k else () for j in range(len(A.sorts))))
             for k, S in enumerate(A.sorts) for x in range(S.order)]
    found = {_sub_key(atom): atom for atom in atoms}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for sub in frontier:
            for atom in atoms:
                joined = join_normal(A, sub, atom)
                key = _sub_key(joined)
                if key not in found:
                    found[key] = joined
                    nxt.append(joined)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.size, _sub_key(s)))
