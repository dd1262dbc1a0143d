"""Every number reported in the paper's tables and Figure 2.

Transcribed from the ISPASS 2022 text.  These are the ground truth the
experiment harnesses compare against; nothing in the library *reads*
model parameters from here (workload calibrations carry their own
literals with rationale), so tests comparing model output to this data
are meaningful.

Layout: each case-study table (IV–IX) is a tuple of :class:`PaperRow`;
``source`` uses the paper's labels; ``opt``/``speedup`` describe the
optimization applied *on top of* that row's source and the performance
it yielded (None for terminal rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple


@dataclass(frozen=True)
class PaperRow:
    """One row of a Table IV–IX case study."""

    proc: str  # "skl" | "knl" | "a64fx"
    source: str  # paper's Source label, e.g. "+ vect, 2-ht"
    bw_gbs: float
    bw_pct: int  # paper's "(xx%)" column
    lat_ns: float
    n_avg: float
    opt: Optional[str]  # optimization applied on this source
    speedup: Optional[float]  # observed performance from that optimization


TABLE4_ISX: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 106.9, 84, 145, 10.1, "vectorize", 1.0),
    PaperRow("skl", "+ vect", 107.1, 84, 145, 10.1, "smt2", 1.0),
    PaperRow("knl", "base", 233.0, 58, 180, 10.23, "vectorize", 1.02),
    PaperRow("knl", "+ vect", 240.0, 60, 182, 10.66, "smt2", 1.04),
    PaperRow("knl", "+ vect, 2-ht", 253.0, 63, 187, 11.6, "smt4", 0.98),
    PaperRow("knl", "+ vect, 2-ht", 253.0, 63, 187, 11.6, "l2_prefetch", 1.4),
    PaperRow("knl", "+ vect, 2-ht, l2-pref", 344.0, 86, 238, 20.0, None, None),
    PaperRow("a64fx", "base", 649.0, 63, 188, 9.92, "l2_prefetch", 1.3),
    PaperRow("a64fx", "+ l2-pref", 788.0, 77, 280, 17.95, None, None),
)

TABLE5_HPCG: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 109.9, 86, 171, 12.6, "vectorize", 1.0),
    PaperRow("skl", "+ vect", 108.0, 84, 171, 12.6, "smt2", 0.98),
    PaperRow("knl", "base", 205.0, 51, 179, 8.95, "vectorize", 1.15),
    PaperRow("knl", "+ vect", 235.0, 59, 181, 10.38, "smt2", 1.26),
    PaperRow("knl", "+ vect, 2-ht", 296.0, 74, 209, 15.1, "smt4", 1.03),
    PaperRow("a64fx", "base", 271.0, 26, 156, 3.44, "vectorize", 1.7),
    PaperRow("a64fx", "+ vect", 418.0, 41, 165, 5.62, None, None),
)

TABLE6_PENNANT: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 37.9, 30, 93, 2.29, "vectorize", 2.0),
    PaperRow("skl", "+ vect", 46.8, 37, 95, 2.89, "smt2", 1.4),
    PaperRow("skl", "+ vect, 2-ht", 58.5, 46, 98, 3.73, None, None),
    PaperRow("knl", "base", 78.2, 19, 183, 3.49, "vectorize", 5.76),
    PaperRow("knl", "+ vect", 130.6, 33, 187, 5.96, "smt2", 1.17),
    PaperRow("knl", "+ vect, 2-ht", 233.6, 58, 199, 11.34, "smt4", 1.0),
    PaperRow("a64fx", "base", 69.3, 7, 144, 0.81, "vectorize", 3.83),
    PaperRow("a64fx", "+ vect", 102.0, 10, 146, 1.21, None, None),
)

TABLE7_COMD: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 3.19, 3, 82, 0.17, "vectorize", 1.4),
    PaperRow("skl", "+ vect", 4.56, 4, 82, 0.29, "smt2", 1.22),
    PaperRow("skl", "+ vect, 2-ht", 7.8, 6, 82, 0.41, None, None),
    PaperRow("knl", "base", 26.88, 7, 179, 1.17, "vectorize", 1.35),
    PaperRow("knl", "+ vect", 35.39, 9, 180, 1.55, "smt2", 1.52),
    PaperRow("knl", "+ vect, 2-ht", 82.82, 20, 186, 3.76, "smt4", 1.25),
    PaperRow("knl", "+ vect, 4-ht", 141.0, 35, 190, 6.54, None, None),
    PaperRow("a64fx", "base", 10.75, 1, 142, 0.12, "vectorize", 1.24),
    PaperRow("a64fx", "+ vect", 13.44, 1, 142, 0.16, None, None),
)

TABLE8_MINIGHOST: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 92.93, 73, 117, 7.07, "loop_tiling", 1.14),
    PaperRow("skl", "+ tiling", 107.14, 84, 148, 10.32, "smt2", 1.02),
    PaperRow("knl", "base", 232.96, 58, 198, 11.26, "loop_tiling", 1.47),
    PaperRow("knl", "+ tiling", 260.8, 65, 201, 12.79, "smt2", 1.0),
    PaperRow("knl", "+ tiling, 2-ht", 274.56, 69, 205, 13.74, "smt4", 1.0),
    PaperRow("a64fx", "base", 575.0, 56, 179, 8.38, "loop_tiling", 1.51),
    PaperRow("a64fx", "+ tiling", 554.0, 54, 174, 7.85, None, None),
)

TABLE9_SNAP: Tuple[PaperRow, ...] = (
    PaperRow("skl", "base", 58.2, 45, 100.1, 3.79, "sw_prefetch", 1.01),
    PaperRow("skl", "+ pref", 59.0, 46, 101, 3.87, "smt2", 1.03),
    PaperRow("knl", "base", 122.9, 31, 167, 5.0, "sw_prefetch", 1.08),
    PaperRow("knl", "+ pref", 126.4, 32, 168, 5.2, "smt2", 1.14),
    PaperRow("knl", "+ pref, 2-ht", 166.4, 42, 172, 6.98, "smt4", 1.02),
    PaperRow("a64fx", "base", 93.88, 9, 145, 1.1, "sw_prefetch", 1.07),
    PaperRow("a64fx", "+ pref", 97.3, 10, 145, 1.2, None, None),
)

#: All case-study tables keyed by workload name.
CASE_STUDY_TABLES: Mapping[str, Tuple[PaperRow, ...]] = {
    "isx": TABLE4_ISX,
    "hpcg": TABLE5_HPCG,
    "pennant": TABLE6_PENNANT,
    "comd": TABLE7_COMD,
    "minighost": TABLE8_MINIGHOST,
    "snap": TABLE9_SNAP,
}

#: Table number per workload, for report labels.
TABLE_NUMBER: Mapping[str, str] = {
    "isx": "IV",
    "hpcg": "V",
    "pennant": "VI",
    "comd": "VII",
    "minighost": "VIII",
    "snap": "IX",
}


@dataclass(frozen=True)
class PaperTable1Row:
    """One row of Table I (counter visibility)."""

    vendor: str
    stall_breakdown: str
    l1_mshrq_full: str
    l2_mshrq_full: str
    memory_latency: str


TABLE1_VISIBILITY: Tuple[PaperTable1Row, ...] = (
    PaperTable1Row("Intel", "Limited", "Yes", "No", "Limited"),
    PaperTable1Row("AMD", "Limited", "Yes", "No", "Limited"),
    PaperTable1Row("Cavium", "Very limited", "No", "No", "No"),
    PaperTable1Row("Fujitsu", "Limited", "No", "No", "No"),
)


@dataclass(frozen=True)
class PaperApplication:
    """One row of Table II (applications)."""

    name: str
    description: str
    problem_size: str
    routine: str


TABLE2_APPLICATIONS: Tuple[PaperApplication, ...] = (
    PaperApplication(
        "isx", "Scalable Integer Sort", "Keys per PE = 25165824", "count_local_keys"
    ),
    PaperApplication(
        "hpcg", "Sparse matrix-vector multiplication", "40^3", "ComputeSPMV_ref"
    ),
    PaperApplication(
        "pennant",
        "Unstructured mesh physics miniapp",
        "meshparams = 960, 1080, 1.0, 1.125",
        "setCornerDiv",
    ),
    PaperApplication(
        "comd", "Classical molecular dynamics", "x=y=z=24, T=4000", "eamForce"
    ),
    PaperApplication(
        "minighost",
        "Difference stencil miniapp",
        "nx=504, ny=126, nz=768, num_vars=40",
        "mg_stencil_3d27pt",
    ),
    PaperApplication(
        "snap",
        "Discrete ordinates neutral particle transport",
        "nx=64, ny=16, nz=24, nang=48, ng=54, cor_swp=1",
        "dim3_sweep",
    ),
)


@dataclass(frozen=True)
class PaperPlatform:
    """One row of Table III (platforms)."""

    name: str
    cores: int
    freq_ghz: float
    peak_bw_gbs: float
    l1_mshrs: int
    l2_mshrs: int


TABLE3_PLATFORMS: Tuple[PaperPlatform, ...] = (
    PaperPlatform("skl", 24, 2.1, 128.0, 10, 16),
    PaperPlatform("knl", 68, 1.4, 400.0, 12, 32),
    PaperPlatform("a64fx", 48, 1.8, 1024.0, 12, 20),
)


@dataclass(frozen=True)
class Figure2Data:
    """Paper Figure 2: ISx-on-KNL roofline with the L1-MSHR ceiling."""

    peak_bw_gbs: float = 400.0
    peak_gflops: float = 2867.0
    l1_ceiling_bw_gbs: float = 256.0
    base_n_avg: float = 10.23
    optimized_n_avg: float = 20.0


FIGURE2: Figure2Data = Figure2Data()


@dataclass(frozen=True)
class IntroSnapData:
    """Intro case study: TMA on SNAP (Skylake Gold 6130, full socket)."""

    tma_bandwidth_bound_pct: float = 27.0
    tma_latency_bound_pct: float = 23.0
    tma_reported_latency_cycles: float = 9.0
    prefetch_speedup: float = 1.08
    true_loaded_latency_ns: float = 180.0
    true_loaded_latency_cycles: float = 378.0


INTRO_SNAP: IntroSnapData = IntroSnapData()


def rows_for(workload: str, proc: Optional[str] = None) -> Tuple[PaperRow, ...]:
    """Rows of one case-study table, optionally filtered to one machine."""
    rows = CASE_STUDY_TABLES[workload]
    if proc is None:
        return rows
    return tuple(r for r in rows if r.proc == proc)
