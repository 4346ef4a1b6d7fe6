"""Why a null site can start firing, and when two crossings differ.

The amplitude through the crossing O vanishes because two path
amplitudes cancel. That cancellation is a property of the undisturbed
interferometer: pointers elsewhere can break it. The disturbance table
recomputes each null site's branch amplitudes in the presence of the
scenario's pointers and flags the sites whose zero did not survive.

The second half contrasts two models of a crossing: a rank-1 projector
onto the in-phase combination of the two paths versus the rank-2
projector onto their whole span. Both have weak value 0, but strong
detectors on the incoming paths tell them apart.
"""

import numpy as np

from wvlab import (
    PointerSpec,
    builtin,
    default_three_path,
    disturbance_table,
    run_pointers,
    three_path_rank2_crossing,
)

print("disturbance in the fig2 configuration (strong D, O, E', F')")
print()
for row in disturbance_table(builtin("three-path-fig2")).disturbance:
    flag = "DISTURBED" if row.disturbed else "still null"
    print(f"  {row.site} @ {row.stage}: undisturbed amplitude {abs(row.undisturbed):.1e}  ->  {flag}")
    for pattern, amp in row.branches.items():
        print(f"      branch {'+'.join(pattern)}: {amp.real:+.6f}{amp.imag:+.6f}i")
print()
print("The strong pointers at E' and F' destroy the coherence between the")
print("two path amplitudes that used to cancel at O, leaving two opposite")
print("branches of 1/3 each. O', probed after the paths rejoin, keeps its")
print("zero in every branch.")
print()

# Same weak values, different operator: a strong detector at O
# separates the rank-1 crossing from the rank-2 one once the incoming
# paths are watched.
pointers = tuple(PointerSpec(site=s, kind="strong") for s in ("E", "F", "O"))
print("strong E, F at t_1 and strong O at t_2:")
print()
for name, sc in (
    ("rank-1 crossing", default_three_path(pointers)),
    ("rank-2 crossing", three_path_rank2_crossing(pointers)),
):
    rank = int(round(np.trace(sc.site("O").projector.matrix).real))
    rep = run_pointers(sc)
    print(f"  {name} (projector rank {rank})")
    print(f"    P(O clicks) = {rep.clicks['O']:.6f}")
    for pattern, p in sorted(rep.patterns.items(), key=lambda kv: -kv[1]):
        label = "+".join(pattern) if pattern else "(no clicks)"
        print(f"    {label:<10} {p:.6f}")
    print()
print("Watching the incoming paths already collapses the superposition, so")
print("the rank-1 projector (which needs the in-phase combination) stops")
print("firing, while the rank-2 one fires whenever either path is taken.")
