"""Pinned report bytes: the SHA-256 of every CSV that acceptance criterion
10's ``run``, ``sweep`` and ``compare`` commands write, of two n=400
``run`` reports, of an n=1000 ``run`` shaped like the benchmark's
sparse-n1000 workload, of one ``run`` per way of pricing a message (the
refine-only schedule, measured accounting, an explicit fixed-level width),
of two small ``run`` reports whose starts collide (a nudged draw on a
drawn grid point, every node at one start), of a run whose every node
starts at one value off the quantizer's grid, of two runs under zoom factors
that the defaults do not use (an adaptive run that zooms out, a refine by
5/2), and of the two Table 1 reports, on both backends.

Criterion 10 compares reruns with each other; these digests compare them
with fixed values, so a change that moves one report byte fails here.  The
``backend`` column names the backend that ran and is masked before hashing;
every other byte is covered.
"""

import hashlib
from fractions import Fraction

import pytest

from zoomgrad.config import RunConfig
from zoomgrad.runner import cmd_compare, cmd_run, cmd_sweep, cmd_table1

COMMANDS = {
    "run": lambda d: cmd_run(RunConfig(seed=1, out_dir=d)),
    "sweep": lambda d: cmd_sweep(RunConfig(out_dir=d), [2, 3]),
    "compare": lambda d: cmd_compare(RunConfig(seed=5, n=5, out_dir=d, stop={"max_steps": 40})),
    # n=400: step 1's masses, the spread, the optimum and the start draws
    # take their large-n paths.
    "run-n400": lambda d: cmd_run(RunConfig(n=400, seed=0, out_dir=d, stop={"max_steps": 6})),
    "run-n400-fractional": lambda d: cmd_run(
        RunConfig(
            n=400,
            edge_prob=Fraction(1, 20),
            seed=3,
            b_q0=Fraction(1, 3),
            x_init_range=(Fraction(-7, 3), Fraction(9, 2)),
            x_init_grid=Fraction(1, 60),
            out_dir=d,
            stop={"max_steps": 6},
        )
    ),
    # n=1000, p=1/50: the instance build's bulk draws, the cost-class table
    # and the distinct starts at the size the benchmark times.
    "run-n1000": lambda d: cmd_run(
        RunConfig(n=1000, edge_prob=Fraction(1, 50), seed=0, out_dir=d, stop={"max_steps": 8})
    ),
    # One run per width schedule that is not the default's 3 bits: the
    # refine-only schedule across its breaks after steps 3 and 9, measured
    # accounting's quantizer width, and an explicit width at a level that has
    # no standard one.
    "run-refine": lambda d: cmd_run(
        RunConfig(seed=1, policy={"variant": "refine_only"}, out_dir=d, stop={"max_steps": 14})
    ),
    "run-measured": lambda d: cmd_run(
        RunConfig(
            seed=1,
            policy={"variant": "adaptive_zoom", "quantizer_width": 5},
            accounting={"mode": "measured"},
            out_dir=d,
            stop={"max_steps": 40},
        )
    ),
    "run-fixed-b6": lambda d: cmd_run(
        RunConfig(
            seed=1,
            delta0=Fraction(1, 7),
            policy={"variant": "fixed_level", "b_pm": 6},
            out_dir=d,
            stop={"max_steps": 10},
        )
    ),
    # Two start tables that the draws alone do not show.  The optimum is 2,
    # and the nudged draw 2 + 1/3 is also a drawn grid point: the nodes hold
    # three distinct starts from four grid indices.
    "run-start-collision": lambda d: cmd_run(
        RunConfig(
            n=6,
            seed=3,
            b_q0=Fraction(1, 7),
            x_init_range=(Fraction(2), Fraction(3)),
            x_init_grid=Fraction(1, 3),
            cost_spec={"kind": "random", "value_set": [1, 2], "shared_x0": True},
            out_dir=d,
            stop={"max_steps": 40, "target_error": 1e-9},
        )
    ),
    # Every node starts at 19/10, drawn from two grid indices (one of them
    # nudged off the optimum 2): the nodes already share an estimate, so
    # step 1 is a repeat and zooms in.
    "run-one-start": lambda d: cmd_run(
        RunConfig(
            n=6,
            seed=3,
            b_q0=Fraction(19, 10),
            x_init_range=(Fraction(19, 10), Fraction(2)),
            x_init_grid=Fraction(1, 10),
            cost_spec={"kind": "explicit", "costs": [[1, 2], [2, 2], [3, 2]] * 2},
            out_dir=d,
            stop={"max_steps": 40, "target_error": 1e-9},
        )
    ),
    # Every node starts at 19/10, one value that is not a point of the
    # quantizer's first grid (basis 0, step 1/2): the start level 19/5 is no
    # integer, so no consensus output repeats it and step 1 moves no grid.
    "run-one-start-off-grid": lambda d: cmd_run(
        RunConfig(
            n=6,
            seed=3,
            x_init_range=(Fraction(19, 10), Fraction(19, 10)),
            x_init_grid=Fraction(1, 10),
            out_dir=d,
            stop={"max_steps": 40, "target_error": 1e-9},
        )
    ),
    # Zoom factors whose grid moves the other pins do not cover: a 2-bit
    # range with c_out = 5/2 and c_in = 7/5 on a grid whose basis and step
    # have different denominators (6 zoom-outs and 26 zoom-ins in 40 steps),
    # and a refine by 5/2, whose odd levels become half levels.
    "run-zoom-out": lambda d: cmd_run(
        RunConfig(
            seed=1,
            c_in=Fraction(7, 5),
            c_out=Fraction(5, 2),
            b_q0=Fraction(1, 6),
            delta0=Fraction(1, 4),
            policy={"variant": "adaptive_zoom", "quantizer_width": 2},
            out_dir=d,
            stop={"max_steps": 40},
        )
    ),
    "run-refine-5-2": lambda d: cmd_run(
        RunConfig(seed=1, policy={"variant": "refine_only", "c_refine": "5/2"}, out_dir=d, stop={"max_steps": 20})
    ),
    "table1": cmd_table1,
}

DIGESTS = {
    ("run", "history.csv"): "e808d546b7dad35b2a6d268b83db61b4fa75497c546feb1cbac27a4dad560c82",
    ("run", "summary.csv"): "676d9b2e22dd80c02caaf23bb2cea07348a415ccc2cdfe9d96e5d82cdaff3a46",
    ("sweep", "sweep_aggregate.csv"): "d68c88f26dd7d0d1f41c29b99f7f11488a27b54a214fbac6360c2028af20c900",
    ("sweep", "sweep_seeds.csv"): "7b41eee174e68e32695e83264affa3d6f5b17ff834909ae90d934000a7c64a4c",
    ("compare", "compare.csv"): "f1defd9a5c3f65f9c6673a510d3dcbe9e308063ba8c1cc4bf4601e33a7213803",
    ("compare", "compare_summary.csv"): "33325431d5a28f607b83659c2e300560c5783949fffe24f5c5a407a4b7ca3cbe",
    ("run-n400", "history.csv"): "cfc5fae70732249cae2bcf60b6ff6cda412b9e0fbdcd159122a87322e45d403c",
    ("run-n400", "summary.csv"): "c14a6938745993e46f35a2cd2d9db42182a2d5eb9d5e7e2b13ba62d09cddf21c",
    ("run-n400-fractional", "history.csv"): "e45561d821dcd7cc356a3eacb7395170e77773b6f1747fd61839b12ed772fb4b",
    ("run-n400-fractional", "summary.csv"): "77551816d19bcda72db0635ba84e2616e1d90571365e88dbbaa2c73c85178505",
    ("run-n1000", "history.csv"): "d125233d65486ed22fc952a9bf4246d3c56adfe24dbde458befc4397ee18477d",
    ("run-n1000", "summary.csv"): "bd7ed1c7a742d8af0f5b25933c23df9f943bee1542821758932f960918c6549e",
    ("run-refine", "history.csv"): "786e2f7358f59ef63866b0024c2773c934dbdfcdc0a169872ce7a08f6762e965",
    ("run-refine", "summary.csv"): "c467fc0a64ff2a891ae34cfe0c26c87b1f7035e6db2b939388ef3c027626d066",
    ("run-measured", "history.csv"): "16c44f7caf06dc2faf21fc43ea19ab5673dbe36074ddb11f31ced494481d78ca",
    ("run-measured", "summary.csv"): "72ce670677970f396b116bea1487b92ef030be3cf0f480636eb48bcaece63884",
    ("run-fixed-b6", "history.csv"): "00a46f0d576a86d2a42a9df9f3702fa2c13ffa3e7024a7030ea3f72314dcab21",
    ("run-fixed-b6", "summary.csv"): "83d5ecb0fef98bf41821f64af62d7748618126a2311d412ba9f7e9396fd20b4b",
    ("run-start-collision", "history.csv"): "5db9c9ff3621532ac6bfe2cc70b912fff277310ab8a8e6dee662ddce527d0823",
    ("run-start-collision", "summary.csv"): "66a14603c3bb632a74cfe15bc9772a8d2aba12ef759a75700d2179f8872a7653",
    ("run-one-start", "history.csv"): "b11c815142a85411662d4c98513fbd3cc58f15f8c3dc82ab234b95478691265d",
    ("run-one-start", "summary.csv"): "c1f10d2cb42fb9de9759028356bedf77fe1b50eda5ea6f7d2daa5e3aa31e37bc",
    ("run-one-start-off-grid", "history.csv"): "41779557a160f9ebb4eaacb3501e2b6cb671247d18ef914cd8dca6d9dbee1c05",
    ("run-one-start-off-grid", "summary.csv"): "3c77f1ffa7323773216c0c64d9869f660f16a26e3e555d9f3fd7e01679246762",
    ("run-zoom-out", "history.csv"): "90fbd36e4e24d28d9f1986d469a38d55b69855f6a8df0f60b949500afb846c29",
    ("run-zoom-out", "summary.csv"): "56e1b896f0b89c45a09a294dd321b6352cdabc101750c7005f8e49f0b7bd1ba8",
    ("run-refine-5-2", "history.csv"): "4e454203a52f6da750723671aa2e94e289bb82e7a8ef6de9ec0d7832f1397f71",
    ("run-refine-5-2", "summary.csv"): "b8f4580ef4a4c4cc2e85da508b92e15bac8c4a5ed7fd5528f3606037edfc189e",
    ("table1", "table_avg_bits.csv"): "270c3c4522dce8391ac19b97977714d95d662933c71bf2f6823dd4d95631e15f",
    ("table1", "table_bits.csv"): "da776265ea6ef6e15f25a5f69595f85e4041fc3b50a90942470f8710448dfa77",
}


def masked_digest(text):
    """SHA-256 of a CSV with every ``backend`` cell replaced by ``*``."""
    assert '"' not in text  # no quoted cells, so splitting on commas is exact
    lines = text.split("\n")
    header = lines[0].split(",")
    if "backend" in header:
        col = header.index("backend")
        for i in range(1, len(lines)):
            if lines[i]:
                cells = lines[i].split(",")
                cells[col] = "*"
                lines[i] = ",".join(cells)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_report_bytes_are_pinned(backend, request, tmp_path):
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    got = {}
    for name, command in COMMANDS.items():
        out = tmp_path / name
        assert command(str(out)) == 0
        for path in sorted(out.iterdir()):
            got[(name, path.name)] = masked_digest(path.read_text())
    assert got == DIGESTS
