"""The chain of commutator subgroups inside a graph power.

Between the basic commutators of clicks and the full [G,G]^n sit five nested
subgroups. Their orders measure exactly how much nonabelian freedom the
graph grants; a graph is G-RA when the top two coincide.
"""

from graphpower import chain_report, cycle, dihedral, hypercube, ra_index

d8 = dihedral(8)
d10 = dihedral(10)

print("Chain orders: Comm_d <= Comm_b <= [G^G, G^G] <= Comm <= [G,G]^n")
print()
for name, graph in [("C4", cycle(4)), ("Q3", hypercube(3))]:
    rep = chain_report(d8, graph)
    print(f"D8 on {name}: {rep.orders()}")

print()
print("On the 4-cycle the chain tops out: every commutator pattern is")
print("reachable, C4 is D8-RA. On the cube the top gap has index 2:")
# D10 reduces Q3 although Q3 is not RA: its lattice index 2 is prime to |[D10,D10]| = 5
print(f"  ra_index(D8, Q3)  = {ra_index(d8, hypercube(3))}")
print(f"  ra_index(D10, Q3) = {ra_index(d10, hypercube(3))}")
print()
print("Same graph, different dihedral group, opposite verdicts; the cube is")
print("the smallest graph that is not RA for every group.")
print()
print("Comm_d < Comm_b on C4 (orders 8 vs 16): single-vertex commutators")
print("need the u = v basic commutators, so C4 is RA but not strongly RA.")
rep = chain_report(d8, cycle(4))
print(f"  chain(D8, C4) = {rep.orders()}")
