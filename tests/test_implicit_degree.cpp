// Algorithm 3 / Theorem 11: implicit degree realization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>

#include "graph/degree_sequence.h"
#include "graph/generators.h"
#include "realization/implicit_degree.h"
#include "realization/validate.h"
#include "testing.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr::realize {
namespace {

void expect_valid_realization(ncc::Network& net,
                              const std::vector<std::uint64_t>& degree,
                              const ImplicitDegreeResult& result) {
  ASSERT_TRUE(result.realizable);
  const auto v = validate_degree_realization(net, degree, result.stored);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(ImplicitDegree, TinyHandWorked) {
  // (2,2,2) — a triangle.
  auto net = testing::make_ncc0(3, 1);
  const std::vector<std::uint64_t> d{2, 2, 2};
  const auto result = realize_degrees_implicit(net, d);
  expect_valid_realization(net, d, result);
}

TEST(ImplicitDegree, AllZeros) {
  auto net = testing::make_ncc0(10, 2);
  const std::vector<std::uint64_t> d(10, 0);
  const auto result = realize_degrees_implicit(net, d);
  expect_valid_realization(net, d, result);
  EXPECT_EQ(result.phases, 1u);  // single probe phase, nothing to do
}

TEST(ImplicitDegree, SingleNode) {
  auto net = testing::make_ncc0(1, 3);
  const auto result =
      realize_degrees_implicit(net, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(result.realizable);
}

TEST(ImplicitDegree, StarK1n) {
  auto net = testing::make_ncc0(8, 4);
  std::vector<std::uint64_t> d(8, 1);
  d[5] = 7;
  const auto result = realize_degrees_implicit(net, d);
  expect_valid_realization(net, d, result);
}

TEST(ImplicitDegree, UnrealizableDetected) {
  auto net = testing::make_ncc0(4, 5);
  const std::vector<std::uint64_t> d{3, 1, 1, 0};  // EG fails
  ASSERT_FALSE(graph::erdos_gallai_graphic(d));
  const auto result = realize_degrees_implicit(net, d);
  EXPECT_FALSE(result.realizable);
}

TEST(ImplicitDegree, DegreeAboveNMinus1Rejected) {
  auto net = testing::make_ncc0(4, 6);
  const std::vector<std::uint64_t> d{5, 1, 1, 1};
  const auto result = realize_degrees_implicit(net, d);
  EXPECT_FALSE(result.realizable);
}

// UINT64_MAX must be rejected by the member-count test itself, not wrap
// past it (`degree + 1` is 0) into a later division by delta + 1 == 0.
TEST(ImplicitDegree, MaxDegreeRejectedInBothModes) {
  for (const DegreeMode mode : {DegreeMode::kExact, DegreeMode::kEnvelope}) {
    auto net = testing::make_ncc0(5, 6);
    const std::vector<std::uint64_t> d{UINT64_MAX, 1, 1, 2, 0};
    const auto result = realize_degrees_implicit(net, d, mode);
    EXPECT_FALSE(result.realizable);
  }
  EXPECT_FALSE(graph::handshake_ok({UINT64_MAX, 1}));
  EXPECT_FALSE(graph::erdos_gallai_graphic({UINT64_MAX, 1}));
}

struct FamilyCase {
  const char* name;
  std::size_t n;
  std::function<graph::DegreeSequence(std::size_t, Rng&)> make;
};

class FamilySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 public:
  static const std::vector<FamilyCase>& families() {
    static const std::vector<FamilyCase> kFamilies{
        {"regular4", 128,
         [](std::size_t n, Rng&) { return graph::regular_sequence(n, 4); }},
        {"regular9", 100,
         [](std::size_t n, Rng&) { return graph::regular_sequence(n, 9); }},
        {"gnp", 150,
         [](std::size_t n, Rng& r) { return graph::gnp_sequence(n, 0.06, r); }},
        {"powerlaw", 120,
         [](std::size_t n, Rng& r) {
           return graph::powerlaw_sequence(n, 24, 2.3, r);
         }},
        {"star_heavy", 160,
         [](std::size_t n, Rng&) {
           return graph::star_heavy_sequence(n, 300);
         }},
        {"bimodal", 96,
         [](std::size_t n, Rng&) { return graph::bimodal_sequence(n, 2, 12); }},
    };
    return kFamilies;
  }
};

TEST_P(FamilySweep, RealizesExactlyAndWithinPhaseBound) {
  const auto [family_idx, seed] = GetParam();
  const FamilyCase& fam = families()[static_cast<std::size_t>(family_idx)];
  Rng rng(seed * 1000 + family_idx);
  const auto d = fam.make(fam.n, rng);
  ASSERT_TRUE(graph::erdos_gallai_graphic(d)) << fam.name;

  auto net = testing::make_ncc0(fam.n, seed + family_idx);
  const auto result = realize_degrees_implicit(net, d);
  expect_valid_realization(net, d, result);

  // Lemma 10 phase bound: min(2Δ + 2, O(√m)).
  const std::uint64_t max_d = *std::max_element(d.begin(), d.end());
  const std::uint64_t m = graph::degree_sum(d) / 2;
  const std::uint64_t bound =
      std::min<std::uint64_t>(2 * max_d + 2, 3 * isqrt(m) + 6);
  EXPECT_LE(result.phases, bound + 1) << fam.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

class RandomGraphicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphicSweep, MatchesErdosGallaiVerdict) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.below(40);
    graph::DegreeSequence d(n);
    for (auto& x : d) x = rng.below(n);  // may or may not be graphic
    const bool graphic = graph::erdos_gallai_graphic(d);

    auto net = testing::make_ncc0(n, GetParam() * 100 + trial);
    const auto result = realize_degrees_implicit(net, d);
    EXPECT_EQ(result.realizable, graphic)
        << "n=" << n << " trial=" << trial;
    if (graphic) {
      const auto v = validate_degree_realization(net, d, result.stored);
      EXPECT_TRUE(v.ok) << v.message;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphicSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(ImplicitDegree, RoundsArePolylogPerPhase) {
  const std::size_t n = 256;
  auto net = testing::make_ncc0(n, 9);
  const auto d = graph::regular_sequence(n, 8);
  const auto result = realize_degrees_implicit(net, d);
  ASSERT_TRUE(result.realizable);
  const std::uint64_t lg = ceil_log2(n);
  // Each phase is O(log^2 n) (sort-dominated) plus setup.
  EXPECT_LE(result.rounds,
            result.phases * (4 * lg * lg + 20 * lg + 40) + 20 * lg + 40);
}

}  // namespace
}  // namespace dgr::realize
