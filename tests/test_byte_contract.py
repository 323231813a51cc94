"""The byte-identity contract: every artifact of the CLI has the same bytes
on a rerun and at any worker count, and those bytes are pinned.

Each row of ROWS is a build (a dictionary of BUILDS, or none for
``build-dict``), an argv and the artifacts the argv writes; ``"stdout"``
stands for the document that ``analyze``, ``check`` and ``report`` print.
Each row runs ``cli.main`` in-process twice: ``smin`` and ``recover`` at
``--threads 1`` and ``--threads 2``, the one-worker commands (``build-dict``,
``analyze``, ``check``, ``report`` and ``moments``) twice alike.  The two
runs must write the same bytes, which holds on any platform.  Then the
sha256 of each artifact must be ``DIGESTS[row, artifact]``, read off PINNED
and taken on the reference platform (numpy 2.4 with OpenBLAS on x86-64).
A ``--threads 2`` run must start one pool of two workers, so those rows
draw more than ``rng.BLOCK`` trials.

A change that moves bytes on purpose re-pins exactly the rows it moves and
lists them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from sparsethresh.cli import main

BUILDS = {
    "mub5": "--mub 5",
    "mub7": "--mub 7",
    "fourier8": "--two-onb 8",
    # one column in A, so no sub-coherence (muADefined: false), and a
    # tight-frame gap of 5/6
    "random6x12": "--random 6 12 --split 1 --seed 3",
}

SMIN = ("smin_trials.csv", "smin_summary.json", "smin_sigma_hist.svg")
MOMENTS = ("moment_trials.csv", "moment_summary.json", "moment_bounds.svg")
RECOVER = ("recovery_rates.csv", "recovery_summary.json", "recovery_rates.svg")
HEATMAPS = tuple(f"recovery_heatmap_{s}.svg" for s in ("first-n", "spread", "random-baseline"))
STRATEGIES = "--strategies first-n,spread,random-baseline"
CLOSED_FORM = {
    "analyze": "analyze --json",
    "check": "check --json --na 1 --nb 1",
    "maximize": "check --maximize --json",
    "report": "report --na 1 --nb 1",
}

# row -> (build, argv, artifacts)
ROWS = {
    # the builders and the dictionary file's text
    "build-mub5": (None, "build-dict --mub 5", ("mub5.dict.json",)),
    "build-mub7": (None, "build-dict --mub 7", ("mub7.dict.json",)),
    "build-fourier8": (None, "build-dict --two-onb 8", ("fourier8.dict.json",)),
    "build-random4x9": (None, "build-dict --random 4 9 --seed 5", ("random4x9.dict.json",)),
    # the closed-form documents: what analyze measures and threshold derives
    **{f"{command}-{build}": (build, argv, ("stdout",))
       for build in ("mub7", "fourier8", "random6x12") for command, argv in CLOSED_FORM.items()},
    "smin-mub7-1-2": ("mub7", "smin --na 1 --nb 2 --trials 600 --seed 5", SMIN),
    # k > m, where sigma_min is exactly 0, and mub5 at k = m, where some S
    # are singular and take sigma_min from an SVD
    "smin-mub7-4-4": ("mub7", "smin --na 4 --nb 4 --trials 600 --seed 5", SMIN),
    "smin-mub5-2-3": ("mub5", "smin --na 2 --nb 3 --trials 600 --seed 5", SMIN),
    # a seed of two 32-bit words, and 2^64, two 64-bit limbs of the smin and
    # moments stream that must not wrap to seed 0; recover hands both to
    # SeedSequence
    "smin-seed0": ("mub7", "smin --na 2 --nb 3 --trials 600 --seed 0", SMIN),
    "smin-seed2^32": ("mub7", "smin --na 2 --nb 3 --trials 600 --seed 4294967296", SMIN),
    "smin-seed2^64": ("mub7", "smin --na 2 --nb 3 --trials 600 --seed 18446744073709551616",
                      SMIN),
    # the block draw of the A- then the B-support, of the B-support beside a
    # fixed A-support, and of a prescribed descending A-support, whose order
    # the block draw keeps
    "smin-random-baseline": ("mub7", "smin --na 2 --nb 3 --strategy random-baseline "
                             "--trials 600 --seed 4294967296", SMIN),
    "smin-spread": ("mub7", "smin --na 2 --nb 3 --strategy spread --trials 600 "
                    "--seed 4294967296", SMIN),
    "smin-prescribed": ("mub7", "smin --na 2 --nb 3 --strategy prescribed --support-a 5,1 "
                        "--trials 600 --seed 4294967296", SMIN),
    "moments-readme": ("mub7", "moments --na 2 --nb 3 --q 8 --trials 10000", MOMENTS),
    "moments-seed2^32": ("mub7", "moments --na 2 --nb 3 --q 8 --trials 1000 "
                         "--seed 4294967296", MOMENTS),
    "moments-seed2^64": ("mub7", "moments --na 2 --nb 3 --q 8 --trials 1000 "
                         "--seed 18446744073709551616", MOMENTS),
    "moments-prescribed": ("mub7", "moments --na 2 --nb 3 --q 8 --trials 1000 --strategy "
                           "prescribed --support-a 5,1 --seed 4294967296", MOMENTS),
    # fourier8 has N <= 2m, so ADMM projects with one N x N product; mub7 has
    # N > 2m, so with two thin products through pinv(D)
    "recover-readme": ("fourier8", "recover --na-range 0:4 --nb-range 0:4 --trials 50 --seed 3",
                       RECOVER + HEATMAPS[::2]),
    "recover-fourier8": ("fourier8", "recover --na-range 0:2 --nb-range 0:2 --trials 100 "
                         "--seed 3", RECOVER + HEATMAPS[::2]),
    "recover-strategies": ("mub7", f"recover --na-range 0:3 --nb-range 0:4 {STRATEGIES} "
                           "--trials 10 --seed 5", RECOVER + HEATMAPS),
    "recover-seed2^32": ("mub7", f"recover --na-range 0:3 --nb-range 0:4 {STRATEGIES} "
                         "--trials 30 --seed 4294967296", RECOVER + HEATMAPS),
    "recover-seed2^64": ("mub7", f"recover --na-range 0:3 --nb-range 0:4 {STRATEGIES} "
                         "--trials 30 --seed 18446744073709551616", RECOVER + HEATMAPS),
}

THREADED = ("smin", "recover")

# row -> the sha256 of each of its artifacts, in the row's order
PINNED = {
    "build-mub5": ("8369b46f0953155c6e504ca76e75092616e4b453a7b8b2aa18c882b074a58287",),
    "build-mub7": ("5ea5a6cd6838f7e111f43e62ed924997b0d6d2c45125f60b2885cc8f03db4f72",),
    "build-fourier8": ("c9cd9a46d4bdcc11b0ae18c449df2afd639c1b21ac06b1684eced01ef11a8e5e",),
    "build-random4x9": ("e4945ad9a618d6ed438a5ee7dfb7403599968fcdded93b45479b832f3c7c2966",),
    "analyze-mub7": ("d92c7f73530d313c16e918c29445ad8bb7f38b2ad7fea937dbeccbc9577b58f5",),
    "check-mub7": ("efb6611fa3334d58457367197cf5893036ccaa3fa90dd0a4c9f4d7d64b9efad5",),
    "maximize-mub7": ("ea43a8e316f6840529ca894ee712987b1debe47d766cc48265a0279a7ae9ae8c",),
    "report-mub7": ("5fa9c5124f32d1b2996d4b5da7e4649d7833829fd6e2029a6b6d4cfb11d4b0ec",),
    "analyze-fourier8": ("392e9b8a94668c1377c29a2a0ac68957441a01fef5d1b9e8588beec96b92cbe1",),
    "check-fourier8": ("8f31ede9d9e705fa8f227870e71366fc017788a992ba41678cb067d75a19314d",),
    "maximize-fourier8": ("99da83526ff07b445e3b90c47101b3d25972020039129ce2fe45933454e1c43b",),
    "report-fourier8": ("956047786f1f46525b42271c06522c0d73cdbf9b6084d9d394e7bd57940f4ddc",),
    "analyze-random6x12": ("b3e46759115cb7ea6f8084d18a1a2aca95a71ca88f9f04eb484346bd12b7d27f",),
    "check-random6x12": ("dade147f9c95690506ffb9e782c611a588fe4a6ecd2eec049216a4fbd686eea3",),
    "maximize-random6x12": ("24e41f8dbf1187db15e133b343ef5f0e41786365c5acaa5d4aaa58d5e689e94a",),
    "report-random6x12": ("ac61281249492a53bda235c610a9e48016b5029f95903aa60ded766253026956",),
    "smin-mub7-1-2": ("ce0661399911ddedb8a781da0dd14784bce3afef738f4fca92e9180a95e4ad7f",
                      "77e38c1c783187d18c8dbf63d7e6f923202b1a4b4997eeb9d7c3484bd1fee997",
                      "416606c4187620efbd55ecfb96f492a296eea7cf9cfc97f5b88bf5d327154293"),
    "smin-mub7-4-4": ("e722c0ee36a13b15fa1beb7e46a759d9e50b51416b0c695ccb297f2ef54449e0",
                      "bbb95379f257af61e0003ff2cc612288d3aacfa296e32d3215dfc4ad5668ffde",
                      "db009607e1eb466835b4fe80c2ff43e4f5d90f3efaf68ed520f9c5cc6856b411"),
    "smin-mub5-2-3": ("68d3c8350ec6192b3138ab604692f90bba5d16bf6e8e932b6ca5d548cdfbfa83",
                      "a7299d9504ca104ea393dc83a5503a69b170214a2946108344b838d79aea298f",
                      "eb7ede17fe07508cb3365fd10ab07469d67e34787c85090e3044245c7137d884"),
    "smin-seed0": ("b374fcd24989cfe4029501d7aa2da12e849a85fe5f92fd4b67274c59ba28cfd8",
                   "74330b6f57b7ff14e9d36d2cbb4a767ebf411c008e34e274e03a01911b09269c",
                   "4113ea559c28ca27070116035745894e9969faef51ad668af3754f827a4f712f"),
    "smin-seed2^32": ("445da8b2b0224411fe8bbcc80c9b71dc9a2ed7ee34e85c114a90f4241bb8ce09",
                      "6278232a02c08d8fed7f21dc0a014446dd2159c0e30e4b064c6465bf58127a50",
                      "868c1149f8b8f8cb840295b7d4a77579688cd3658648c3ea714033ac91b1b5f4"),
    "smin-seed2^64": ("15be5d1b219343b54576d050803e2f719c625a1a16fc3dac9261d171a3381293",
                      "1e3b7d4c43b2e066f692c2ee90e9944f334618327f2b122d56045e559bbbba74",
                      "8e4c8b06b7071c7ab27233b83488dc883c995b0ee8055dcfb1970b14771ff673"),
    "smin-random-baseline": ("621491410fc4ea9d34ce9153d7dc4575d41ff24d481809e4b6e417c4421a842c",
                             "d11901e2abc6306fe7be9893f148194b153cf3716509cb6d20622f1a4a59fe22",
                             "2ed3a16acdf2d38fc15e9b665795cff3c169cf134a0fd954a29956c4de399b28"),
    "smin-spread": ("3850d14fa66b0edac16bdae3828f2d87389a62e3d7f3176e2eeb6de827b60ba9",
                    "8c125b403b67c4b8a83f3e95f0ae7c8b5d06fe5b907c77834ad6d9a7cf1ac1d0",
                    "4e39762a8b81b0daf3eda79d4e58ddb064f18979729be24e5eaa6a0aec4733bc"),
    "smin-prescribed": ("cfbd972dfc9d2f62243c7f1962df3b6f49e21879ca2317c1a07469a2ebb14b28",
                        "596241dfa1fe515181e1ea03e9fe38e227c9c229c7f062dc120d9bc2ff1cd25e",
                        "e44a2ab6319372ab32e4b7b2b178b5721fb824503a92a51f5c7c515345c6fbf3"),
    "moments-readme": ("10a8c8d22e9edc19ed24701c686568e8651a926f4ba9070b47c0345228de4a2b",
                       "739a476920c318ab2d2707b627dc2543b195ce03286a6f5dd4e6ed381e4173b3",
                       "34005b54fdede1c6e1de59813050928bd981123938d538c71f29e4063b3045ca"),
    "moments-seed2^32": ("fb02bf7573899c1720a72e7f15108ee39d1645512fe0444a653bcd573f788aa5",
                         "9c2c15043409f9edd9263831287699cc9a938a34092c9b2f5f10c0979de981f9",
                         "0c2738febda671fea01f128c61b6363523f48d9cda071fa3499169850bf0feaa"),
    "moments-seed2^64": ("aaedb5292b5ccd871d20426e23d5c2dcf4ae5ab0fd35fa78c59715779181f394",
                         "d04954cc3991b3981dc59023f13da6ee9791ed37686ce5d95feb6e459a019e3c",
                         "af804165585ae421969011288cf06b68a346a2fbc750c5962ac06b8599d19a37"),
    "moments-prescribed": ("2d04b06c8714995854340de75275364aa0e2a5865f401e56826223b3088396c9",
                           "3cf7cd2713c1c77f8933453d626a35d59bd247c2db498c3d4720664959e515ab",
                           "f24f2537a18198cca6fd4bd8e80eac50a69396098ba736f3f4649310f867f6a7"),
    "recover-readme": ("f868d48f2154986b7e84d5fc02cce389e66243c13729fd3b204e66cbc570413d",
                       "f1d24cc12610398e546ac47ae5ce2839aa2c079e8b7d8ce291dede92effc175a",
                       "c58bd09367c91371f2ccff9dbd6e692db1ae32b3539a4f7c68b4ac2b9e3c2692",
                       "d9639716ba126fcf51c24afd80665500c0785e2dc8c239d96e601dfcf183c85d",
                       "cf052831ca7377a89a4c1ddae14bdd24ae662dbbeff0c9cb45401c7694153842"),
    "recover-fourier8": ("3b7c74c9f85598314f2810e37b4b41852fef17021a491e6910235d4b2d4af488",
                         "902021339df830ec22a4174fb0837e4fea14509f0262eeaa14b82784c7c7003a",
                         "8bd79c76f7f66b81cd6929b85d3a0e56371a6de0b997b450c85c7ecbd3e38076",
                         "6a7dc5061685d11cbff7ff0763038479be714c2376481b1d291768abe9ec138f",
                         "daa87fa14f61ff201d90dc38f24e0d564fc1c350505d0fd39304406cd831eac5"),
    "recover-strategies": ("49551d93af96d6fc19635643ccf5bf7541730d9729b316168ab430ff92847865",
                           "4521888dcf9fb535d661c9a462a465c38a10c87e4509fb8ff504ee9e84115f84",
                           "90e983975ec246fb2f485de508de3a2fc00c63fb62b7c17e816486453704775c",
                           "2011915865aeb5b4d08441a5288ba3921dfafd0156b23f77a931adad574735f8",
                           "cd6bc85b27417f278ebb18c008a9945bcfb23d4efd326b4750177330c3ddad59",
                           "4ec7c061fcc71d154312e426471a2ddfea5983d0371fdf6e9e30266ba1beffaf"),
    "recover-seed2^32": ("b18577e11656a49e9b97cb834a5ee1a13894151b4593e2e1362673cf442ebccc",
                         "b22b90429b9d91e10911bb71acd783ed76c04bc3494fdddbf57df924b12b52dd",
                         "0ea2ad8e57183a44a62782a1dcc0b0d7ef15f3d1a77c8b9373df2ac892eae1fd",
                         "027e91d143a9f76c318e7546571b717ff2a1afe4890f005206d16e8b3a403076",
                         "e6435f92688667be99ed6b4138df20ce793ac18db99da38cbb41285b2e0c995f",
                         "d01819dae471cdc056a000710559d0ed77b532e794b7853913e70118991af32c"),
    "recover-seed2^64": ("4b3ba2d2406a3407990039c555a461939555fc21f4d677527c52c2206ef59fd8",
                         "cb8fb11b7fcdd518f0dc569d4110da6db8b351d218fefc669285a9cfb56c67d3",
                         "a9765e7f904f57d22d3957be4cd1aba28c53b6fbe9c7691f2e8d935cfb69ea77",
                         "af3481fa2a43cafa1c1e25c0801f1c895f736d5a3a591bdadd054dc5bc2058ab",
                         "449ea1b475a436c2b478bed687a80e0d427fd772a3c81f1f43adb8b0108d9348",
                         "64ca0bdb305f24c42e1b704fc8a0a79c89425b2d44f8ddf91ae3a6b974c345ab"),
}
DIGESTS = {
    (row, name): digest
    for row, digests in PINNED.items() for name, digest in zip(ROWS[row][2], digests)
}


@pytest.fixture(scope="module")
def dict_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("builds")
    paths = {}
    for name, flags in BUILDS.items():
        paths[name] = str(base / f"{name}.dict.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build-dict", *flags.split(), "-o", paths[name]]) == 0
    return paths


def _run(row, dict_paths, out, threads) -> dict[str, bytes]:
    """The bytes of each artifact of one run of ``row`` into ``out``, by name."""
    build, command, artifacts = ROWS[row]
    argv = command.split()
    if argv[0] == "build-dict":
        argv += ["-o", str(out / artifacts[0])]
    else:
        argv += ["--dict", dict_paths[build]]
    if argv[0] in ("smin", "moments", "recover"):
        argv += ["--out", str(out)]
    if argv[0] in THREADED:
        argv += ["--threads", threads]
    out.mkdir()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(argv) in (0, 3)  # check exits 3 where a condition fails
    assert sorted(p.name for p in out.iterdir()) == sorted(set(artifacts) - {"stdout"})
    return {
        name: printed.getvalue().encode() if name == "stdout" else (out / name).read_bytes()
        for name in artifacts
    }


@pytest.mark.parametrize("row", ROWS)
def test_row_bytes_are_rerun_and_pinned(row, dict_paths, tmp_path, pool_starts):
    first, second = (_run(row, dict_paths, tmp_path / t, t) for t in ("1", "2"))
    for name in first:
        assert first[name] == second[name], name
    threaded = ROWS[row][1].split()[0] in THREADED
    assert pool_starts == ([2] if threaded else [])
    for name, data in first.items():
        assert hashlib.sha256(data).hexdigest() == DIGESTS[row, name], name


def test_every_artifact_has_one_digest():
    assert {row: len(r[2]) for row, r in ROWS.items()} == {
        row: len(digests) for row, digests in PINNED.items()
    }


def test_seed_2_to_64_is_not_seed_0():
    name = "smin_trials.csv"
    assert DIGESTS["smin-seed2^64", name] != DIGESTS["smin-seed0", name]
