"""Golden corpus: exit code and sha256 of stdout for fixed invocations.

The table was recorded from the command line before the duplicate-work
removal and pins every subcommand byte for byte: gamma (including one
instance with multiplicities near 10^3), clusters in both formats, verify,
moments at nu = 1, 2, 3 with default and given offsets and both rules, and
sweep over t and over a location in both formats. A changed hash means
changed output, not a test to re-record.

The CASCADE cases were recorded before the sticky core moved to arrays. The
instance has a 2-way merge at s = 0.75, a 3-way merge at s = 0.9 and two
merge groups at s = t.

The BIG cases were recorded before gamma3's pair sum moved to NumPy. All 200
locations end in one block at every t of the sweep; every other case has
blocks of at most 8 members.

The last three cases were recorded before the CLI writers formatted float
rows in bulk: `clusters` on BIG in both formats (200 paths, one block) and a
`gamma` whose route-1 minimizer has nu = 95000 entries.

The two ROUTE1 cases were recorded before route-1 PAVA started from
increasing runs. The first has nu = 57000 at t = 0.001, and route 1 pools
pairs of locations into three blocks. The second is an integer lattice with
(x_{j+1} - x_j)/t = 1 at three location boundaries, so the route-1 targets
on either side are equal: two of those ties stay split between blocks and
one is pooled inside a block.

The two single-suite verify cases were recorded before the exhaustive oracle
searched its active sets as arrays and before the Gauss-Legendre nodes were
cached: the oracle suite alone and the quadrature suite alone.

The ROUTE1_TIE case was recorded before route 1 and the quadrature took the
instance in place of its flattened form. There (x_2 - x_1)/t = (m_1 + m_2)/2
to double precision, so rounding decides the route-1 split. It was
re-recorded once, when route-1 PAVA began pooling each increasing run as one
block, from 36143e2ce5ba2850f93d8d676b3561e185d07d1b0faa63f2d87ab8cb3397692f
to 7b11dfe8dce7d955a30001df704048fdf6b7ef0a04cce53698982370f9765d76. In exact
rational arithmetic on its float inputs (x_2 - x_1)/t - (m_1 + m_2)/2 =
-4.6e-15, so the exact route-1 fit is one block: the per-target sums split it
in two, the run sums keep one. Against the exact minimizer the error of `a`
went from a mean of 11.3 ulp and a worst of 1171 ulp to 8.5 and 877. gamma1,
gamma2, gamma3, max_dev and the partition kept their bytes.

Four hashes were re-recorded once, when gamma3 moved from a row-by-row pair
sum in a Python pair loop's order to one whole-array pass over all blocks:
`gamma` on BIG, `sweep` on BIG over t = 2..6, and the `sweep --param x2`
case in both formats. Only gamma3 (and `gamma`'s max_dev) moved, and every
changed value is closer to the exact rational value of the closed form
(tests/test_gamma3_equivalence.py): on BIG the error went from 16.1, 8.0,
3.1, 3.4 and 3.2 ulp at t = 2..6 to 0.11, 0.00, 0.11, 0.37 and 0.22 ulp,
and at x2 = 1.5 from 1.69 to 0.69 ulp. A mismatch names its command.

Two hashes were re-recorded once, when the sticky run stopped moving every
live cluster by speed * step at each event and took positions from each
cluster's birth instead (birth position + speed * (s - birth)): `clusters` on
BIG in json and csv. The partition and every merge group held; the merge
times and positions and the path values moved, closer to exact: against the
exact rational run (tests/test_sticky_exact.py) the mean merge-time error on
BIG went from 7.0e-16 to 4.5e-16 * (1 + t), and the worst stayed 2.1e-15 * (1 + t).
`clusters` on FIVE and CASCADE kept their bytes.

One hash was re-recorded once, when the default contour stopped reading its
centre from the route-1 solver and took -sum(u)/(nu t) from the instance:
`moments --t 0.8 --x=-0.5,0.5 --m 2,1 --T 2` (nu = 3). Its offsets went from
[1.5416666666666667, 0.20833333333333348, -1.1249999999999998] to
[1.5416666666666665, 0.20833333333333334, -1.125]. Against the exact 37/24,
5/24 and -9/8 the errors, in units of 2^-52, went from 0.33, 0.67 and 1.0 to
0.67, 0.04 and 0; the centre's from 0.67 to 0.04. The moment went from
0.18923504222812915 to 0.1892350422281292, 2 ulp or 2.9e-16 relative. The
nu = 1 and nu = 2 default-offset cases kept their bytes.

Four hashes were re-recorded once, when the contour quadrature stopped
exponentiating the whole tensor grid and contracted the sum one axis at a
time: the `moments` cases at nu >= 2 with the Gauss rule. Only rounding
moved. Against the exact value of the same discrete sum (mpmath at 40
digits, on the same float nodes and weights), in ulp of the moment:
- `--x 0,0.5 --m 1,1 --T 3`: 24030653... -> 83cfc829...; moment
  0.13500814703954309 -> 0.1350081470395431 (-0.03 -> +0.97 ulp), rate and
  gap -0.6674733846411806 / -0.6049733846411806 -> -0.6674733846411804 /
  -0.6049733846411804, imag_residual 0 -> 2.0830059783179188e-17;
- `--x=-0.5,0.5 --m 2,1 --T 2`: 3af88e9b... -> 5743355a...; moment, rate
  and gap held (0.1892350422281292, +1.48 ulp), imag_residual 0 ->
  1.8921651976098228e-17;
- `--m 2 --offsets 1.0,-1.0`: d67a247c... -> 861bbec6...; moment
  0.35627246315558825 -> 0.3562724631555882 (+0.89 -> -0.11 ulp), rate and
  gap -0.5160297474576498 / -0.7660297474576498 -> -0.51602974745765 /
  -0.76602974745765, imag_residual held at 6.314779984153415e-17;
- `--m 3 --offsets 1.5,0,-1.5`: 9576da63... -> 7acd5b2d...; moment, rate
  and gap held (2.48577021341836, +3.52 ulp), imag_residual 0 ->
  9.218910655910181e-17.
The nu = 1 case and the trapezoid nu = 2 case kept their bytes.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from shelyap.cli import main

FIVE = ["--t", "1", "--x", "0,0.3,0.6,3.0,3.3", "--m", "1,1,1,1,1"]
CASCADE = ["--t", "1", "--x", "0,1.5,3,4.5,6,7.5,9,10.5", "--m", "2,1,1,2,2,1,1,2"]
BIG = [
    "--t", "2",
    "--x", ",".join(repr(0.37 * i + 0.011 * (i % 7)) for i in range(1, 201)),
    "--m", ",".join(str(1 + i % 5) for i in range(1, 201)),
]
ROUTE1_POOLED = ["--t", "0.001", "--x", "0,5,30,35,60,65",
                 "--m", "9000,11000,8000,12000,10000,7000"]
ROUTE1_TIES = ["--t", "1", "--x", "0,1,3,4,8,9", "--m", "1,1,2,1,1,1"]
ROUTE1_TIE = ["--t", "0.13218650019257538",
              "--x=-1.7571448324634413,36.24647397290198", "--m", "571,4"]
GOLDEN = [
    (["gamma", *FIVE],
     0, "c1b7d2600f2439e2f0414f76e0a1f62c5ddedd1353e4edbf56f7dce7b2ced625"),
    (["gamma", "--t", "2", "--x=-1.5,-0.2,0.4,2.5", "--m", "2,1,3,1"],
     0, "cd508d7d3f0fca23107f65ea96c493559f6e5e19eda3dc7016793ad90963fc72"),
    (["gamma", "--t", "1.5", "--x=-2000,0.1,1.7,3000", "--m", "900,1200,450,3"],
     0, "08b4ff62ebb9869aa1ba2a4a60d803b2166768cf0efbb5bf328c4ba7904cd505"),
    (["clusters", *FIVE],
     0, "5331c17e75884cc4463005d7055b14e4fd66b480b506be69b97b79a139ddbf2c"),
    (["clusters", *FIVE, "--format", "csv"],
     0, "47b7df7f1a4b01fb2a78ac31d04649ecaeb447d0a8b1832491e194c094454f55"),
    (["verify", "--seed", "0", "--count", "20"],
     0, "dd63776300d611998cefdcb4a097d03464e95a9578cc40510bea1ede9626986c"),
    (["moments", "--t", "1", "--x", "0.5", "--m", "1", "--T", "4"],
     0, "b6500f768e6c08898ea748a5704277437858e975e03af13626f9985bc792fc17"),
    (["moments", "--t", "1", "--x", "0,0.5", "--m", "1,1", "--T", "3"],
     0, "83cfc829df95c77497de1df1485ebfa90871df8a24809bd57aad68ae95ab818e"),
    (["moments", "--t", "0.8", "--x=-0.5,0.5", "--m", "2,1", "--T", "2"],
     0, "5743355a3e82c510aea4a64efce05ca92e2806321c12244fcfbf0a64a52f85a9"),
    (["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2", "--offsets",
     "1.0,-1.0"],
     0, "861bbec631eb3eb9b6e0e3c2942fa2b7aeaf0e0f2428c12d366d6343f4e83e95"),
    (["moments", "--t", "1", "--x", "0", "--m", "3", "--T", "2", "--offsets",
     "1.5,0,-1.5", "--truncation-sigmas", "7"],
     0, "7acd5b2d4797454df47c5f17fb8f9bf7d375faba65a403cf347bff43aba3ec18"),
    (["moments", "--t", "1", "--x", "0,0.5", "--m", "1,1", "--T", "3", "--rule",
     "trapezoid", "--points", "300"],
     0, "df509020ebf24b3f6edd2cc1499567f9142a19b58b29c593fa0e84ba2ed1b2f0"),
    (["sweep", "--t", "1", "--x", "0,1,1.6", "--m", "1,2,1", "--param", "t",
     "--grid", "0.2:2:7"],
     0, "aac94590f36297206d2ef28d35ec54c922fe418d6b5d9e498932c852c5871bf8"),
    (["sweep", "--t", "1", "--x", "0,1,1.6", "--m", "1,2,1", "--param", "t",
     "--grid", "0.2:2:7", "--format", "json"],
     0, "333c03468eb4e4b70e16ce2ae617a8fdae927f3f9854ef812a420bc0e3e3eafd"),
    (["sweep", "--t", "1", "--x", "0,1,1.6", "--m", "1,2,1", "--param", "x2",
     "--grid", "0.2:1.5:6"],
     0, "614920e88806d4380dc112d40350b1eea059c1c959e8f8ff24a4417c5e6f2f12"),
    (["sweep", "--t", "1", "--x", "0,1,1.6", "--m", "1,2,1", "--param", "x2",
     "--grid", "0.2:1.5:6", "--format", "json"],
     0, "ef66e74496ba5628cd8838a37e55bd1d8b3296752df4f0efb893c9eb01a783a6"),
    (["gamma", *CASCADE],
     0, "2ddbddae5768863decc52dc1e38ef4400eb62e8d524e96829d1308c63d1948c5"),
    (["clusters", *CASCADE],
     0, "9a6d158437ddd07960e6b022e9e53e3dd1a96d3f53a1b1b85d7d153db6c71353"),
    (["clusters", *CASCADE, "--format", "csv"],
     0, "ed8f5ea5c97215c59a1e470ab5f5c186b6cc9343caf6fa4f924d63b246d7a5c7"),
    (["gamma", *BIG],
     0, "8fff9d44c71d92a059b9aaad13b0cee0504ee65a04ecef9edebbbbca667b0833"),
    (["sweep", *BIG, "--param", "t", "--grid", "2:6:5", "--format", "json"],
     0, "ca480cef32c6ea7ce605d260dfde411c4a6eecd5fc04fef949eeb52577cd732b"),
    (["clusters", *BIG],
     0, "225c8d4147d1f5dc3a185ca68707a90de8a5ca8533e582273cf11aaea9269bc7"),
    (["clusters", *BIG, "--format", "csv"],
     0, "d8a4d514fc6234482f54e886bc607b8dbf54acc8c5323202881b3da0d52d991a"),
    (["gamma", "--t", "1", "--x=-1,0.5,2", "--m", "40000,30000,25000"],
     0, "d8c3dd1599a673940e9a87b3100589ee9070772672bf86b683c50750b084df45"),
    (["gamma", *ROUTE1_POOLED],
     0, "b7e463c914b187bdf606681924ef7baa05811fc9e08b6586a8009c9da0cd6976"),
    (["gamma", *ROUTE1_TIES],
     0, "7ea8e501579e80dd2e1a80918b9e0e8dfaaf48239ca1f928b4cef4ac172eba1a"),
    (["verify", "--suites", "oracle", "--seed", "3", "--count", "60"],
     0, "77083f8ee7bc7f262aee8413b92d644a3bda65d799a129047f71dea86cc7e158"),
    (["verify", "--suites", "quadrature", "--seed", "3", "--count", "30"],
     0, "058fc1d6b9c467dab40c2b21172ca706d111dd9d4f876eee9cb18c2ff5507861"),
    (["gamma", *ROUTE1_TIE],
     0, "7b11dfe8dce7d955a30001df704048fdf6b7ef0a04cce53698982370f9765d76"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN)
def test_golden_output(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    command = "shelyap " + shlex.join(argv)
    assert got == code, command
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, command
