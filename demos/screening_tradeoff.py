"""How candidate sorting and screening shrink the work per query.

Every other-class point is a candidate target, but almost none get a QP:
after the nearest target, the targets within reach of the incumbent are
bounded at once by cheap single-coordinate dual values and visited best
first, in ascending bound, and the first bound beyond the incumbent stops
the loop outright.  Each visited target's QP is built and solved; every
other candidate counts as screened.  The sweep below varies ``n_scr``, the number of rows in that
bound; with sorting active even one row usually suffices, so the decisive
ablation is sorting itself.
"""

import time

import numpy as np

from knnrobust import Dataset, Query, exact_1nn, knn_predict

rng = np.random.default_rng(13)
n, d = 1200, 40
points = rng.random((n, d))
labels = rng.integers(1, 3, n)
ds = Dataset(points, labels, 2)

queries = []
while len(queries) < 15:
    z = rng.random(d)
    queries.append(Query(z, knn_predict(ds, z, 1)))

n_candidates = int(np.count_nonzero(ds.labels != queries[0].true_label))
print(f"{ds.n} uniform points in {d}-D, about {n_candidates} candidate targets per query\n")

print(f"{'n_scr':>6} {'mean built':>11} {'mean screened':>14} {'time (s)':>9}")
for n_scr in (1, 2, 4, 8, 16, 32):
    started = time.perf_counter()
    built = screened = 0
    for q in queries:
        cert = exact_1nn(ds, q, n_scr=n_scr)
        built += cert.stats.subproblems_built
        screened += cert.stats.subproblems_screened
    elapsed = time.perf_counter() - started
    print(f"{n_scr:>6} {built / len(queries):>11.2f} {screened / len(queries):>14.2f} "
          f"{elapsed:>9.3f}")

print("\nsorting ablation (n_scr=8): without distance ordering the incumbent")
print("shrinks late, so far more systems are built and solved:")
for label, kwargs in (("sorted", {}), ("unsorted", {"sort_candidates": False})):
    built = screened = 0
    for q in queries:
        cert = exact_1nn(ds, q, **kwargs)
        built += cert.stats.subproblems_built
        screened += cert.stats.subproblems_screened
    print(f"  {label:>8}: mean built {built / len(queries):6.2f}, "
          f"mean screened {screened / len(queries):6.2f}")
