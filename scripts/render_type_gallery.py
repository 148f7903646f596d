#!/usr/bin/env python3
"""Render one example polygon of every position type to SVG files.

Example:
    python3 scripts/render_type_gallery.py --out-dir gallery/
"""

import argparse
import pathlib
import sys

from latgon import from_points, scaled_lattice, type_predicate
from latgon.svg import render_polygon_svg

EXAMPLES = {
    "I": (3, [(1, 1), (2, 1), (2, 2), (1, 2)]),
    "II": (3, [(-1, 1), (2, -1), (4, 2), (1, 4)]),
    "III": (3, [(1, -1), (4, 1), (1, 4)]),
    "IV": (4, [(-1, 1), (3, -2), (6, 5)]),
    "V": (3, [(-2, -1), (-1, 2), (1, 1)]),
    "VI": (3, [(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4),
               (-1, 2), (-2, 1), (-3, -1)]),
    "Va": (3, [(1, 2), (4, 1), (2, 4)]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="gallery",
                        help="directory for the SVG files")
    ns = parser.parse_args()

    out_dir = pathlib.Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, (n, vertices) in EXAMPLES.items():
        P = from_points(vertices)
        if not type_predicate(P, n, tag):
            print(f"example for {tag} went stale: {P} is not of type {tag} "
                  f"at n = {n}", file=sys.stderr)
            return 1
        svg = render_polygon_svg(P, n=n, tag=tag, lattice=scaled_lattice(n))
        path = out_dir / f"type-{tag.lower()}-n{n}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
