"""Automorphism generators of a graph by a bitset search.

The vertices are numbered b_0..b_{n-1} in breadth-first order, and G_i is
the group of automorphisms that fix b_0..b_{i-1}. From the deepest level up
(C. C. Sims, 1970), each w that b_i could map to (unused, of b_i's degree,
with b_i's neighbours among b_0..b_{i-1}) and that is in neither b_i's orbit
under the generators held nor a failed w's orbit gets one generator of G_i
that maps b_i to w: the transposition (b_i w) if w is b_i's twin, else the
first leaf of an exhaustive search. So the generators give b_i its G_i-orbit
and generate G_i with G_{i+1}'s; at level 0, Aut(g). The search places
b_{i+1}, b_{i+2}, ... on an explicit stack, each image an unused vertex of
the same degree next to the image of an earlier neighbour, kept when
nbr[x] & used == want, want the images of its earlier neighbours.

There is no partition refinement (McKay & Piperno, J. Symbolic Comput. 60,
2014). It pays where a search that must fail runs deep, as on vertex-
transitive graphs: on the 9x9 Sudoku grid this search finds no generator in
its bound, where refinement found 12. But sn_exact cannot finish there (sn
>= 17 of 81), and where it can, the candidate test prunes as well, faster.

Steps: one per candidate, earlier neighbour and vertex moved between
orbits, and n per generator. The search stops before they would exceed
AUT_STEPS * (n + 2m), at its clock's deadline, or at `most` generators.
"""

from __future__ import annotations

from .errors import Clock
from .graph import Graph

AUT_STEPS = 128  # the work bound: AUT_STEPS steps per vertex and per edge end


def automorphism_generators(
    g: Graph, clock: Clock | None = None, most: int | None = None
) -> tuple[list[tuple[int, ...]], int]:
    """(generators, steps): tuples gamma, gamma[v] the image of v, none the identity."""
    n, adj = g.n, g.adj
    deadline = None if clock is None else clock.deadline
    limit, steps, out = AUT_STEPS * (n + 2 * g.m), 0, False

    def charge(cost: int) -> bool:
        nonlocal steps, out
        out = out or steps + cost > limit or len(gens) == most
        out = out or deadline is not None and Clock.now() >= deadline
        steps += 0 if out else cost
        return not out

    nbr = [sum(1 << u for u in a) for a in adj]
    order, pos, q = [], [-1] * n, 0  # breadth-first, component by component
    for r in range(n):
        if pos[r] < 0:
            pos[r] = len(order)
            order.append(r)
        while q < len(order):
            for u in adj[order[q]]:
                if pos[u] < 0:
                    pos[u] = len(order)
                    order.append(u)
            q += 1
    back = [[u for u in a if pos[u] < pos[v]] for v, a in enumerate(adj)]
    gens, ident = [], list(range(n))  # the generators share ident's int objects
    image, cell, members = ident[:], ident[:], {v: [v] for v in ident}
    full = used = (1 << n) - 1

    def options(v: int, taken: int) -> list[int]:
        """The images of v that keep its adjacency to the placed vertices."""
        want = sum(1 << image[u] for u in back[v])
        cand = (nbr[image[back[v][0]]] if back[v] else full) & ~taken
        if not charge(1 + len(back[v]) + cand.bit_count()):
            return []
        kept = []  # highest first
        while cand:
            x = cand.bit_length() - 1
            cand ^= 1 << x
            if nbr[x] & taken == want and len(adj[x]) == len(adj[v]):
                kept.append(x)
        return kept

    def keep(gamma: list[int]) -> None:
        if charge(n):
            gens.append(tuple(map(ident.__getitem__, gamma)))
        for v, w in enumerate(gamma if not out else ()):
            a, c = cell[v], cell[w]
            if a != c and charge(min(len(members[a]), len(members[c]))):
                a, c = sorted((a, c), key=lambda o: len(members[o]))
                for u in members[a]:  # the smaller orbit joins the larger
                    cell[u] = c
                members[c] += members.pop(a)

    charge(n + 2 * g.m)  # the set-up; past the deadline, nothing is charged or searched
    for i in range(n - 1, -1, -1):
        b = order[i]
        used ^= 1 << b  # b_0..b_{i-1}, which keep their own images
        taken, failed, stack = used, set(), [options(b, used)]  # stack[k]: order[i + k]'s left
        while stack and not out:
            p = i + len(stack) - 1
            if not stack[-1]:
                stack.pop()
                taken ^= 1 << image[order[p - 1]]
                if len(stack) == 1:
                    failed.add(cell[image[b]])
                continue
            x = stack[-1].pop()
            if p == i and (cell[x] == cell[b] or cell[x] in failed):
                continue
            if p == i and not (nbr[x] ^ nbr[b]) & ~(1 << x | 1 << b):  # twins
                keep([x if v == b else b if v == x else v for v in range(n)])
                continue
            image[order[p]] = x
            if p < n - 1:
                taken |= 1 << x
                stack.append(options(order[p + 1], taken))
            else:
                keep(image)
                del stack[1:]
                taken = used
    return gens, steps

