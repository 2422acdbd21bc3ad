"""The workload name tables of the paper (Tables 3–6), numpy-free.

The front end (``repro bench --list``, argument validation, request
canonicalization) only needs these names, so they live apart from the
trace generators of :mod:`repro.workloads.applications` and
:mod:`repro.workloads.multi_app`, which re-export them.
"""

from __future__ import annotations

SINGLE_APP_NAMES = ("FIR", "KM", "PR", "AES", "MT", "MM", "BS", "ST", "FFT")
"""Table 3 order, used by every single-application figure."""

APPLICATION_NAMES = (*SINGLE_APP_NAMES, "SC")
"""Every application of :data:`repro.workloads.applications.APPLICATIONS`:
Table 3 plus SC (added for the multi-application mixes), in its order."""

#: Table 4 — the ten 4-GPU multi-application workloads.
MULTI_APP_WORKLOADS: dict[str, tuple[tuple[str, ...], str]] = {
    "W1": (("FIR", "FFT", "AES", "SC"), "LLLL"),
    "W2": (("FIR", "FFT", "MM", "KM"), "LLMM"),
    "W3": (("AES", "SC", "KM", "PR"), "LLMM"),
    "W4": (("FFT", "SC", "KM", "MT"), "LLMH"),
    "W5": (("AES", "FIR", "PR", "ST"), "LLMH"),
    "W6": (("FIR", "AES", "MT", "ST"), "LLHH"),
    "W7": (("FFT", "SC", "MT", "ST"), "LLHH"),
    "W8": (("KM", "PR", "MM", "BS"), "MMMM"),
    "W9": (("MM", "KM", "MT", "ST"), "MMHH"),
    "W10": (("MT", "MT", "ST", "ST"), "HHHH"),
}

#: Table 5 — 8-GPU (W11–W15) and 16-GPU (W16) workloads.
SCALED_WORKLOADS: dict[str, tuple[tuple[str, ...], str]] = {
    "W11": (("AES", "FIR", "SC", "PR", "MM", "KM", "MT", "ST"), "LLLMMMHH"),
    "W12": (("FIR", "FFT", "SC", "MM", "KM", "MT", "MT", "ST"), "LLLMMHHH"),
    "W13": (("FIR", "FFT", "SC", "AES", "KM", "MM", "PR", "BS"), "LLLLMMMM"),
    "W14": (("KM", "MM", "PR", "BS", "MT", "MT", "ST", "ST"), "MMMMHHHH"),
    "W15": (("FIR", "FFT", "SC", "AES", "MT", "MT", "ST", "ST"), "LLLLHHHH"),
    "W16": (
        (
            "FIR", "FFT", "SC", "AES", "KM", "MM", "PR", "BS",
            "MT", "MT", "ST", "ST", "FIR", "AES", "KM", "MT",
        ),
        "LLLLLMMMMMHHHHHH",
    ),
}

#: Table 6 — mixed workloads: two applications per GPU.
MIX_WORKLOADS: dict[str, tuple[tuple[tuple[str, str], ...], str]] = {
    "W17": ((("FIR", "KM"), ("AES", "MT"), ("MM", "ST")), "LM,LH,MH"),
    "W18": ((("FIR", "AES"), ("KM", "MM"), ("MT", "ST")), "LL,MM,HH"),
    "W19": ((("SC", "KM"), ("FIR", "MT"), ("AES", "ST")), "LM,LH,LH"),
}


def workload_category(name: str) -> str:
    """The MPKI-mix category string of a named workload (e.g. ``LLMH``)."""
    for table in (MULTI_APP_WORKLOADS, SCALED_WORKLOADS):
        if name in table:
            return table[name][1]
    if name in MIX_WORKLOADS:
        return MIX_WORKLOADS[name][1]
    raise ValueError(f"unknown workload {name!r}")
