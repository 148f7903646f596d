"""Output checks that take their own route, without importing latgon.

Polygons arrive as plain vertex lists.  Convexity is tested with cross
products against every edge, lattice freeness by scanning the bounding box
point by point, and maps by their integer matrix and shift alone.
"""

from __future__ import annotations

Vertex = tuple[int, int]


def _cross(o: Vertex, a: Vertex, b: Vertex) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strictly_convex(vertices: list[Vertex]) -> bool:
    """Counterclockwise, strictly convex and simple.

    Every vertex off an edge must lie strictly to the left of that edge's
    line; that also rules out self-crossing stars, which turn left
    throughout but wind twice.
    """
    k = len(vertices)
    if k < 3 or len(set(vertices)) != k:
        return False
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        for j in range(k):
            if j != i and j != (i + 1) % k and _cross(a, b, vertices[j]) <= 0:
                return False
    return True


def _in_closed(vertices: list[Vertex], point: Vertex) -> bool:
    k = len(vertices)
    return all(_cross(vertices[i], vertices[(i + 1) % k], point) >= 0
               for i in range(k))


def free_of_scaled_lattice(vertices: list[Vertex], n: int) -> bool:
    """No point of nZ^2 in the closed convex polygon (bounding-box scan)."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    for x in range(min(xs), max(xs) + 1):
        if x % n:
            continue
        for y in range(min(ys), max(ys) + 1):
            if y % n == 0 and _in_closed(vertices, (x, y)):
                return False
    return True


def in_region(vertices: list[Vertex], region: list[int]) -> bool:
    x_min, x_max, y_min, y_max = region
    return all(x_min <= x <= x_max and y_min <= y <= y_max
               for x, y in vertices)


def polygon_problems(vertices: list[Vertex], n: int,
                     region: list[int]) -> list[str]:
    """Reasons a reported polygon is not a convex nZ^2-free region polygon."""
    problems = []
    if not strictly_convex(vertices):
        problems.append("not strictly convex")
    if not free_of_scaled_lattice(vertices, n):
        problems.append(f"holds a point of {n}Z^2")
    if not in_region(vertices, region):
        problems.append("leaves the search region")
    return problems


def bound_report_problems(report: dict, n: int, region: list[int],
                          exact_max: bool) -> list[str]:
    """Checks on a check_vertex_bound report (a dataclasses.asdict dict).

    The bound is 2n+2.  With `exact_max` the campaign must attain it.
    """
    bound = 2 * n + 2
    problems = []
    if not report["exhaustive"]:
        problems.append("report is not exhaustive")
    if report["counterexamples"]:
        problems.append(f"{len(report['counterexamples'])} counterexamples")
    found = report["max_vertices_found"]
    if exact_max and found != bound:
        problems.append(f"max_vertices_found {found} != {bound}")
    if found > bound:
        problems.append(f"max_vertices_found {found} > {bound}")
    witness = report["witness"]
    if witness is None:
        problems.append("no witness")
    else:
        verts = [tuple(v) for v in witness["vertices"]]
        if len(verts) != found:
            problems.append("witness size differs from max_vertices_found")
        problems += ["witness " + p for p in polygon_problems(verts, n, region)]
    return problems


def corpus_problems(report: dict, tally: dict) -> list[str]:
    """Checks on a verify_reduction_corpus report and its tally."""
    problems = []
    if not report["exhaustive"]:
        problems.append("report is not exhaustive")
    if report["counterexamples"]:
        problems.append(f"{len(report['counterexamples'])} pipeline failures")
    tags = ("I", "II", "III", "IV", "V", "VI", "Va")
    if sum(tally[t] for t in tags) != tally["total"]:
        problems.append("type counts do not sum to total")
    for tag in ("V", "VI", "IV"):
        if tally["reduced_" + tag.lower()] != tally[tag]:
            problems.append(f"reduced_{tag.lower()} != {tag}")
    for tag in ("V", "VI"):
        if tally[tag] == 0:
            problems.append(f"no type {tag} polygon, so its pipeline never ran")
    return problems


def classified_image_problems(vertices: list[Vertex], rows: list[list[int]],
                              shift: Vertex, n: int) -> list[str]:
    """The map x -> rows.x + shift is an automorphism of nZ^2, and the image
    of the polygon is a strictly convex nZ^2-free polygon of the same size."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    problems = []
    if det not in (1, -1):
        problems.append(f"linear part has determinant {det}")
    if shift[0] % n or shift[1] % n:
        problems.append(f"shift {shift} is not in {n}Z^2")
    image = [(a * x + b * y + shift[0], c * x + d * y + shift[1])
             for x, y in vertices]
    if det < 0:
        image.reverse()
    if len(set(image)) != len(vertices) or not strictly_convex(image):
        problems.append("image is not a strictly convex polygon of equal size")
    if not free_of_scaled_lattice(image, n):
        problems.append(f"image holds a point of {n}Z^2")
    return problems
