"""The three benchmark workloads, shared by the orchestrator and the child.

Each workload drives fibmod only through its public entry points: the
CLI's ``main`` for ``wide_scan`` and ``wss_all``, and ``scan`` plus
``render_jsonl`` for ``t2_all_m``.  Only ``t2_all_m`` depends on the
seed, through the ``Sample`` policy's seed; the other two reproduce a
fixed README run, so their output bytes are pinned for every seed.
"""

WORKLOADS = ("wide_scan", "t2_all_m", "wss_all")

DEFAULT_SEED = 42

# The acceptance wide scan: eleven checks, table-heavy, on a 2-worker pool.
WIDE_IDS = "T1_2,C1_1_8,C1_1_16,C1_2,WILLIAMS,ADAMCHUK,E4_4,E4_5,E4_6,E4_7,MORLEY"
WIDE_JOBS = 2

# Seeded draws of m from [p, p^2) per prime, on top of every m in 1..p-1.
T2_SAMPLE = 50

# pmax for the scans and limit for wss.  "full" is README scale; "toy" is
# the self-test's size.
SIZES = {
    "full": {"wide_scan": 10_000, "t2_all_m": 300, "wss_all": 1_000_000},
    "toy": {"wide_scan": 50, "t2_all_m": 50, "wss_all": 10_000},
}


def run(fibmod, name: str, size: int, seed: int, out: str, ckpt: str) -> int:
    """Run one workload in this process and return its exit code.

    Entry points are looked up on the modules at call time, so a tracer
    installed beforehand sees the calls.
    """
    if name == "wide_scan":
        argv = ["scan", "--ids", WIDE_IDS, "--pmin", "3", "--pmax", str(size),
                "--jobs", str(WIDE_JOBS), "--out", out]
        return fibmod.cli.main(argv)
    if name == "wss_all":
        return fibmod.cli.main(["wss", "--limit", str(size), "--checkpoint", ckpt, "--out", out])
    if name == "t2_all_m":
        request = fibmod.ScanRequest(
            ("T2_MAIN", "T2_CAT"),
            3,
            size,
            m_policy=(fibmod.AllSmall(), fibmod.Sample(T2_SAMPLE, seed)),
            jobs=1,
        )
        text = fibmod.render_jsonl(fibmod.scan(request))
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        return 0
    raise ValueError(f"unknown workload {name!r}")
