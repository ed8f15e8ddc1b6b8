"""Paper fidelity: the simulator's Fig. 8 agility against the paper's.

Fig. 8 was never used to calibrate the simulator, so its values work as
held-out reference data.  The reference values are the paper column of
the Fig. 8 table in EXPERIMENTS.md (Marketcetera / Hedwig; the paper has
no Zookeeper numbers).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Mapping, Tuple

#: Average agility (nodes) per application and manager, from the paper's Fig. 8.
PAPER_FIG8: Mapping[str, Mapping[str, float]] = {
    "marketcetera": {
        "CloudWatch": 18.19,
        "ElasticRMI": 10.27,
        "HTrace+CW": 14.23,
        "DCA-100%": 11.35,
        "DCA-5%": 2.91,
        "DCA-10%": 1.57,
        "DCA-20%": 7.53,
    },
    "hedwig": {
        "CloudWatch": 15.45,
        "ElasticRMI": 6.91,
        "HTrace+CW": 11.18,
        "DCA-100%": 9.9,
        "DCA-5%": 2.29,
        "DCA-10%": 1.27,
        "DCA-20%": 6.74,
    },
}

Cells = Mapping[Tuple[str, str], float]


def paper_cells(cells: Cells) -> Dict[Tuple[str, str], float]:
    """The ``(app, manager) -> agility`` cells that have a paper value."""
    return {
        (app, manager): value
        for (app, manager), value in cells.items()
        if manager in PAPER_FIG8.get(app, {})
    }


def agility_gap(cells: Cells) -> float:
    """Mean ``|measured - paper|`` over the cells that have a paper value."""
    matched = paper_cells(cells)
    if not matched:
        raise ValueError("no Fig. 8 cell to compare against the paper")
    return sum(
        abs(value - PAPER_FIG8[app][manager]) for (app, manager), value in matched.items()
    ) / len(matched)


def rank_inversions(cells: Cells) -> int:
    """Manager pairs, per application, ordered unlike the paper's Fig. 8.

    A pair counts when the measured and the paper agility order the two
    managers oppositely; a measured tie counts as no inversion.
    """
    by_app: Dict[str, Dict[str, float]] = {}
    for (app, manager), value in paper_cells(cells).items():
        by_app.setdefault(app, {})[manager] = value
    inversions = 0
    for app, measured in by_app.items():
        paper = PAPER_FIG8[app]
        for a, b in combinations(sorted(measured), 2):
            if (paper[a] - paper[b]) * (measured[a] - measured[b]) < 0:
                inversions += 1
    return inversions
